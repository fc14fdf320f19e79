// rrstile — serve surface tiles from a scene, map-tile style.
//
// Reads a scene description (src/io/scene.hpp), wraps its generator in a
// TileService (sharded LRU cache + request coalescing), serves the
// requested tiles, and prints a metrics summary as one JSON line.
//
//   rrstile SCENE.rrs [options] [TX,TY ...]
//   rrstile --example            # print a small ready-to-run scene
//
// Tile requests come from the positional TX,TY arguments; with none given
// (or with `-`), they are read from stdin, one "TX TY" pair per line —
// the shape a request log replays into.  Options:
//
//   --tile-size N     tile extent in lattice points       (default 256)
//   --cache-mb N      tile cache budget in MiB            (default 256)
//   --threads N       batch fan-out worker threads        (default hardware)
//   --repeat N        serve the whole request list N times (default 1)
//   --seed N          override the scene's seed
//   --out-dir DIR     also write each distinct tile as PGM into DIR
//   --quiet           suppress the per-tile log lines
//   --trace FILE      record pipeline spans, write Chrome trace JSON
//   --metrics         also print the global metrics registry JSON line

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"
#include "io/scene.hpp"
#include "io/writers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "service/tile_service.hpp"

#include "flags.hpp"

namespace {

constexpr const char* kExampleScene = R"(# Small example scene for rrstile (fast enough for smoke tests).
seed = 7
kernel_grid = 128 128
region = 0 0 128 128
tail_eps = 1e-6

[spectrum field]
family = gaussian
h = 1.0
cl = 8

[spectrum pond]
family = exponential
h = 0.3
cl = 8

[map]
type = circle
center = 0 0
radius = 96
transition = 24
inside = pond
outside = field
)";

int usage() {
    std::cerr
        << "usage: rrstile SCENE.rrs [options] [TX,TY ...]\n"
           "       rrstile --example   (print an example scene file)\n"
           "  positional TX,TY pairs name tiles; none (or '-') reads 'TX TY'\n"
           "  lines from stdin\n"
           "  --tile-size N   tile extent in lattice points (default 256)\n"
           "  --cache-mb N    tile cache budget in MiB (default 256)\n"
           "  --threads N     batch fan-out worker threads (default hardware)\n"
           "  --repeat N      serve the request list N times (default 1)\n"
           "  --seed N        override the scene's seed\n"
           "  --out-dir DIR   write each distinct tile as PGM into DIR\n"
           "  --quiet         suppress per-tile log lines\n"
           "  --trace FILE    record pipeline spans, write Chrome trace JSON\n"
           "  --metrics       also print the global metrics registry JSON line\n";
    return 2;
}

bool parse_tile_arg(const std::string& arg, rrs::TileKey& key) {
    const auto comma = arg.find(',');
    if (comma == std::string::npos) {
        return false;
    }
    const std::string_view text(arg);
    return rrs::tools::parse_int(text.substr(0, comma), key.tx) &&
           rrs::tools::parse_int(text.substr(comma + 1), key.ty);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace rrs;
    if (argc < 2) {
        return usage();
    }
    if (std::strcmp(argv[1], "--example") == 0) {
        std::cout << kExampleScene;
        return 0;
    }

    std::int64_t tile_size = 256;
    std::size_t cache_mb = 256;
    std::size_t threads = 0;
    int repeat = 1;
    bool override_seed = false;
    std::uint64_t seed = 0;
    bool quiet = false;
    bool read_stdin = false;
    bool print_metrics = false;
    std::string trace_path;
    std::string out_dir;
    std::vector<TileKey> requests;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "rrstile: " << flag << " needs a value\n";
                return nullptr;
            }
            return argv[++i];
        };
        auto numeric_value = [&](auto& out) {
            const char* v = next_value(arg.c_str());
            return v != nullptr && tools::parse_flag("rrstile", arg, v, out);
        };
        TileKey key;
        if (arg == "--tile-size") {
            if (!numeric_value(tile_size)) {
                return usage();
            }
        } else if (arg == "--cache-mb") {
            if (!numeric_value(cache_mb)) {
                return usage();
            }
        } else if (arg == "--threads") {
            if (!numeric_value(threads)) {
                return usage();
            }
        } else if (arg == "--repeat") {
            if (!numeric_value(repeat)) {
                return usage();
            }
        } else if (arg == "--seed") {
            if (!numeric_value(seed)) {
                return usage();
            }
            override_seed = true;
        } else if (arg == "--out-dir") {
            const char* v = next_value("--out-dir");
            if (v == nullptr) {
                return usage();
            }
            out_dir = v;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--trace") {
            const char* v = next_value("--trace");
            if (v == nullptr) {
                return usage();
            }
            trace_path = v;
        } else if (arg == "--metrics") {
            print_metrics = true;
        } else if (arg == "-") {
            read_stdin = true;
        } else if (parse_tile_arg(arg, key)) {
            requests.push_back(key);
        } else {
            std::cerr << "rrstile: unrecognised argument '" << arg << "'\n";
            return usage();
        }
    }
    if (tile_size <= 0 || cache_mb == 0 || repeat <= 0) {
        std::cerr << "rrstile: --tile-size, --cache-mb, --repeat must be positive\n";
        return usage();
    }
    if (requests.empty() || read_stdin) {
        std::int64_t tx = 0;
        std::int64_t ty = 0;
        while (std::cin >> tx >> ty) {
            requests.push_back(TileKey{tx, ty});
        }
        if (requests.empty()) {
            std::cerr << "rrstile: no tile requests (args or stdin)\n";
            return usage();
        }
    }

    std::ifstream in(argv[1]);
    if (!in) {
        std::cerr << "rrstile: cannot open '" << argv[1] << "'\n";
        return 1;
    }
    try {
        Scene scene = parse_scene(in);
        if (override_seed) {
            scene.seed = seed;
        }
        const InhomogeneousGenerator gen = make_scene_generator(scene);

        ThreadPool pool(threads);
        TileService::Options opt;
        opt.shape = TileShape{tile_size, tile_size};
        opt.cache_bytes = cache_mb << 20;
        opt.pool = &pool;
        TileService service(gen, opt);

        std::cerr << "rrstile: serving " << requests.size() << " request(s) x " << repeat
                  << " over " << tile_size << "x" << tile_size << " tiles ("
                  << pool.thread_count() << " threads, cache " << cache_mb
                  << " MiB, fingerprint " << service.fingerprint() << ")\n";

        if (!trace_path.empty()) {
            obs::trace_enable();
        }
        std::map<TileKey, TilePtr> distinct;
        for (int r = 0; r < repeat; ++r) {
            const std::vector<TilePtr> tiles = service.get_many(requests);
            for (std::size_t i = 0; i < tiles.size(); ++i) {
                distinct.emplace(requests[i], tiles[i]);
                if (!quiet && r == 0) {
                    const Rect rect = tile_rect(service.shape(), requests[i]);
                    std::cerr << "rrstile: tile " << requests[i].tx << ","
                              << requests[i].ty << " -> [" << rect.x0 << ".." << rect.x1()
                              << ")x[" << rect.y0 << ".." << rect.y1() << ")\n";
                }
            }
        }
        if (!trace_path.empty()) {
            obs::trace_disable();
            std::ofstream trace_out(trace_path);
            if (!trace_out) {
                std::cerr << "rrstile: cannot write trace to '" << trace_path << "'\n";
                return 1;
            }
            obs::write_chrome_trace(trace_out);
            std::cerr << "rrstile: wrote trace " << trace_path << " ("
                      << obs::trace_events().size() << " spans";
            if (obs::trace_dropped() != 0) {
                std::cerr << ", " << obs::trace_dropped() << " dropped";
            }
            std::cerr << ")\n";
        }
        if (!out_dir.empty()) {
            ensure_directory(out_dir);
            for (const auto& [key, tile] : distinct) {
                std::ostringstream name;
                name << out_dir << "/tile_" << key.tx << '_' << key.ty << ".pgm";
                write_pgm16(name.str(), *tile);
                if (!quiet) {
                    std::cerr << "rrstile: wrote " << name.str() << "\n";
                }
            }
        }
        std::cout << service.metrics().to_json() << "\n";
        if (print_metrics) {
            std::cout << obs::MetricsRegistry::global().to_json() << "\n";
        }
    } catch (const Error& e) {
        std::cerr << "rrstile: error: " << e.what() << "\n";
        return 1;
    } catch (const std::exception& e) {
        std::cerr << "rrstile: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
