// rrsd — the rough-surface tile daemon.
//
// Loads one or more scene descriptions (src/io/scene.hpp), wraps each in a
// TileService, and serves them over HTTP (src/net/) until SIGTERM/SIGINT,
// then drains gracefully: stop accepting, finish in-flight requests, print
// the metrics registry as one JSON line, exit 0.
//
//   rrsd SCENE.rrs [NAME=SCENE.rrs ...] [options]
//
// Each positional argument registers one scene: `NAME=FILE` serves FILE as
// scene NAME; a bare FILE is served under its basename without extension.
// Endpoints (see src/net/tile_routes.hpp): /, /healthz, /readyz, /metrics,
// /tracez, /v1/tile, /v1/window, /v1/pyramid.
//
//   --host ADDR        bind address                         (default 127.0.0.1)
//   --port N           bind port; 0 = ephemeral             (default 0)
//   --port-file FILE   write the bound port to FILE (for ephemeral-port
//                      scripting: start, poll FILE, connect)
//   --tile-size N      tile extent in lattice points        (default 256)
//   --cache-mb N       tile cache budget in MiB, per scene; in proxy mode
//                      the last-known-good store too         (default 256)
//   --gen-threads N    generation fan-out threads           (default hardware)
//   --workers N        HTTP connection workers              (default 4)
//   --connections N    admission cap; 0 = workers           (default 0)
//   --timeout-ms N     per-connection read/write deadline   (default 5000)
//   --seed N           override every scene's seed
//   --trace            enable span recording (serves /tracez)
//   --quiet            suppress startup/shutdown log lines
//   --breaker-failures N  consecutive generation failures that open a
//                      scene's circuit breaker; 0 disables    (default 5)
//   --breaker-open-ms N   open-state duration before a probe  (default 1000)
//   --store DIR        persistent L2 tile store directory (created if
//                      missing); a restarted daemon on the same DIR serves
//                      previously generated tiles from disk instead of
//                      regenerating — bit-identically, the store is keyed
//                      by (fingerprint, key, zoom) and checksummed
//   --store-mb N       L2 store payload budget in MiB        (default 1024)
//   --faults SPEC      arm a fault-injection plan (DESIGN.md §13 grammar,
//                      e.g. 'net.recv=error@p:0.1 seed:7'); without the
//                      flag the RRS_FAULTS environment variable is used
//
// Cluster modes (DESIGN.md §17):
//
//   rrsd --cluster TOPOLOGY [options]
//                      proxy mode: serve the fleet described by the
//                      topology file (src/cluster/topology.hpp grammar) as
//                      one logical tile server — no scene files, no
//                      generator: the ordinary tile routes over services
//                      whose base tiles are fetched from their owning shard
//                      (rendezvous hashing) and cached (--cache-mb); zoom
//                      tiles, windows and pyramids are derived at the proxy
//                      byte-identically, /readyz aggregates the fleet
//   --cluster-timeout-ms N  per-forward deadline in proxy mode (default 5000)
//   --cluster-prev TOPOLOGY --cluster-node NAME
//                      shard mode peer fill: NAME is this node's name; on a
//                      cache+store miss, ask the key's owner under the
//                      *previous* epoch's topology for its cached copy
//                      (`cached=1` — the peer never generates) before
//                      generating locally.  Both flags come together.

#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "cluster/client.hpp"
#include "cluster/peer_fill.hpp"
#include "cluster/proxy.hpp"
#include "cluster/topology.hpp"
#include "core/error.hpp"
#include "fault/inject.hpp"
#include "io/scene.hpp"
#include "net/server.hpp"
#include "net/tile_routes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "service/tile_service.hpp"
#include "store/tile_store.hpp"

#include <sys/stat.h>

namespace {

int usage() {
    std::cerr << "usage: rrsd SCENE.rrs [NAME=SCENE.rrs ...] [options]\n"
                 "  --host ADDR      bind address (default 127.0.0.1)\n"
                 "  --port N         bind port; 0 = ephemeral (default 0)\n"
                 "  --port-file FILE write the bound port to FILE\n"
                 "  --tile-size N    tile extent in lattice points (default 256)\n"
                 "  --cache-mb N     tile cache budget in MiB (default 256)\n"
                 "  --gen-threads N  generation fan-out threads (default hardware)\n"
                 "  --workers N      HTTP connection workers (default 4)\n"
                 "  --connections N  admission cap; 0 = workers (default 0)\n"
                 "  --timeout-ms N   read/write deadline in ms (default 5000)\n"
                 "  --seed N         override every scene's seed\n"
                 "  --trace          enable span recording (serves /tracez)\n"
                 "  --quiet          suppress log lines\n"
                 "  --breaker-failures N  failures that open a breaker; 0 = off\n"
                 "  --breaker-open-ms N   open duration before probing\n"
                 "  --store DIR      persistent L2 tile store directory\n"
                 "  --store-mb N     L2 store budget in MiB (default 1024)\n"
                 "  --faults SPEC    arm a fault plan (default: $RRS_FAULTS)\n"
                 "  --cluster TOPOLOGY       proxy mode: route to the fleet\n"
                 "  --cluster-timeout-ms N   proxy forward deadline (default 5000)\n"
                 "  --cluster-prev TOPOLOGY  previous epoch for peer cache-fill\n"
                 "  --cluster-node NAME      this shard's name in the topologies\n";
    return 2;
}

int g_signal_pipe[2] = {-1, -1};

extern "C" void rrsd_on_signal(int /*signum*/) {
    const char byte = 1;
    // Self-pipe: the only async-signal-safe thing to do is poke main.
    [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

/// "NAME=FILE" -> {NAME, FILE}; "dir/scene.rrs" -> {"scene", "dir/scene.rrs"}.
std::pair<std::string, std::string> scene_arg(const std::string& arg) {
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos && eq > 0) {
        return {arg.substr(0, eq), arg.substr(eq + 1)};
    }
    const std::size_t slash = arg.find_last_of('/');
    std::string name = slash == std::string::npos ? arg : arg.substr(slash + 1);
    const std::size_t dot = name.find_last_of('.');
    if (dot != std::string::npos && dot > 0) {
        name.resize(dot);
    }
    return {name, arg};
}

}  // namespace

int main(int argc, char** argv) {
    using namespace rrs;
    std::vector<std::pair<std::string, std::string>> scene_files;
    net::HttpServer::Options server_opt;
    std::string port_file;
    std::int64_t tile_size = 256;
    std::size_t cache_mb = 256;
    std::size_t gen_threads = 0;
    bool override_seed = false;
    std::uint64_t seed = 0;
    bool trace = false;
    bool quiet = false;
    net::TileRoutesOptions route_opt;
    std::string store_dir;
    std::size_t store_mb = 1024;
    std::string faults_spec;
    bool faults_flag = false;
    std::string cluster_file;
    int cluster_timeout_ms = 5000;
    std::string cluster_prev_file;
    std::string cluster_node;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "rrsd: " << flag << " needs a value\n";
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--host") {
            const char* v = next_value("--host");
            if (v == nullptr) {
                return usage();
            }
            server_opt.host = v;
        } else if (arg == "--port") {
            const char* v = next_value("--port");
            if (v == nullptr) {
                return usage();
            }
            server_opt.port = static_cast<std::uint16_t>(std::strtoul(v, nullptr, 10));
        } else if (arg == "--port-file") {
            const char* v = next_value("--port-file");
            if (v == nullptr) {
                return usage();
            }
            port_file = v;
        } else if (arg == "--tile-size") {
            const char* v = next_value("--tile-size");
            if (v == nullptr) {
                return usage();
            }
            tile_size = std::strtoll(v, nullptr, 10);
        } else if (arg == "--cache-mb") {
            const char* v = next_value("--cache-mb");
            if (v == nullptr) {
                return usage();
            }
            cache_mb = std::strtoull(v, nullptr, 10);
        } else if (arg == "--gen-threads") {
            const char* v = next_value("--gen-threads");
            if (v == nullptr) {
                return usage();
            }
            gen_threads = std::strtoull(v, nullptr, 10);
        } else if (arg == "--workers") {
            const char* v = next_value("--workers");
            if (v == nullptr) {
                return usage();
            }
            server_opt.workers = std::strtoull(v, nullptr, 10);
        } else if (arg == "--connections") {
            const char* v = next_value("--connections");
            if (v == nullptr) {
                return usage();
            }
            server_opt.max_connections = std::strtoull(v, nullptr, 10);
        } else if (arg == "--timeout-ms") {
            const char* v = next_value("--timeout-ms");
            if (v == nullptr) {
                return usage();
            }
            server_opt.read_timeout_ms = std::atoi(v);
            server_opt.write_timeout_ms = server_opt.read_timeout_ms;
        } else if (arg == "--seed") {
            const char* v = next_value("--seed");
            if (v == nullptr) {
                return usage();
            }
            override_seed = true;
            seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--trace") {
            trace = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--breaker-failures") {
            const char* v = next_value("--breaker-failures");
            if (v == nullptr) {
                return usage();
            }
            route_opt.breaker_failures = std::atoi(v);
        } else if (arg == "--breaker-open-ms") {
            const char* v = next_value("--breaker-open-ms");
            if (v == nullptr) {
                return usage();
            }
            route_opt.breaker_open_ms = std::atoi(v);
        } else if (arg == "--store") {
            const char* v = next_value("--store");
            if (v == nullptr) {
                return usage();
            }
            store_dir = v;
        } else if (arg == "--store-mb") {
            const char* v = next_value("--store-mb");
            if (v == nullptr) {
                return usage();
            }
            store_mb = std::strtoull(v, nullptr, 10);
        } else if (arg == "--faults") {
            const char* v = next_value("--faults");
            if (v == nullptr) {
                return usage();
            }
            faults_spec = v;
            faults_flag = true;
        } else if (arg == "--cluster") {
            const char* v = next_value("--cluster");
            if (v == nullptr) {
                return usage();
            }
            cluster_file = v;
        } else if (arg == "--cluster-timeout-ms") {
            const char* v = next_value("--cluster-timeout-ms");
            if (v == nullptr) {
                return usage();
            }
            cluster_timeout_ms = std::atoi(v);
        } else if (arg == "--cluster-prev") {
            const char* v = next_value("--cluster-prev");
            if (v == nullptr) {
                return usage();
            }
            cluster_prev_file = v;
        } else if (arg == "--cluster-node") {
            const char* v = next_value("--cluster-node");
            if (v == nullptr) {
                return usage();
            }
            cluster_node = v;
        } else if (!arg.empty() && arg.front() == '-') {
            std::cerr << "rrsd: unrecognised option '" << arg << "'\n";
            return usage();
        } else {
            scene_files.push_back(scene_arg(arg));
        }
    }
    const bool proxy_mode = !cluster_file.empty();
    if (proxy_mode && !scene_files.empty()) {
        std::cerr << "rrsd: --cluster (proxy mode) takes no scene files — "
                     "shards own the scenes\n";
        return usage();
    }
    if (proxy_mode && (!cluster_prev_file.empty() || !cluster_node.empty())) {
        std::cerr << "rrsd: --cluster-prev/--cluster-node are shard-mode "
                     "flags, not proxy-mode\n";
        return usage();
    }
    if (cluster_prev_file.empty() != cluster_node.empty()) {
        std::cerr << "rrsd: --cluster-prev and --cluster-node come together\n";
        return usage();
    }
    if (proxy_mode && cluster_timeout_ms <= 0) {
        std::cerr << "rrsd: --cluster-timeout-ms must be positive\n";
        return usage();
    }
    if (!proxy_mode && scene_files.empty()) {
        std::cerr << "rrsd: at least one scene file is required\n";
        return usage();
    }
    if (tile_size <= 0 || cache_mb == 0) {
        std::cerr << "rrsd: --tile-size and --cache-mb must be positive\n";
        return usage();
    }
    if (!store_dir.empty() && store_mb == 0) {
        std::cerr << "rrsd: --store-mb must be positive\n";
        return usage();
    }

    try {
        std::shared_ptr<store::TileStore> tile_store;
        std::unique_ptr<ThreadPool> gen_pool;
        std::shared_ptr<cluster::ClusterClient> cluster_client;
        net::Router router;
        if (proxy_mode) {
            // Routing tier: no generator, no scene file — the tile routes
            // over owner-fetching services, one ClusterClient over the
            // declared fleet (cluster/proxy.hpp).
            cluster::Topology topo = cluster::load_topology(cluster_file);
            cluster::ClusterOptions copt;
            copt.timeout_ms = cluster_timeout_ms;
            cluster_client = std::make_shared<cluster::ClusterClient>(
                std::move(topo), copt);
            router = cluster::make_cluster_router(cluster_client, nullptr,
                                                  cache_mb << 20);
            if (!quiet) {
                std::cerr << "rrsd: proxy over " << cluster_client->map().size()
                          << " shard(s), topology epoch "
                          << cluster_client->map().epoch() << "\n";
            }
        } else {
            // One segment file shared by every scene: addresses carry the
            // generator fingerprint, so scenes can never alias each other.
            if (!store_dir.empty()) {
                if (::mkdir(store_dir.c_str(), 0755) != 0 && errno != EEXIST) {
                    std::cerr << "rrsd: cannot create '" << store_dir
                              << "': " << std::strerror(errno) << "\n";
                    return 1;
                }
                store::TileStoreOptions sopt;
                sopt.byte_budget = store_mb << 20;
                tile_store = std::make_shared<store::TileStore>(
                    store_dir + "/tiles.rrsstore", sopt);
            }
            // One generation pool shared by every scene's TileService; the
            // HTTP server runs its own worker pool, so window fan-out from a
            // server worker cannot deadlock against itself (tile_service.hpp
            // contract).
            gen_pool = std::make_unique<ThreadPool>(gen_threads);
            net::SceneServices scenes;
            for (const auto& [name, file] : scene_files) {
                std::ifstream in(file);
                if (!in) {
                    std::cerr << "rrsd: cannot open '" << file << "'\n";
                    return 1;
                }
                Scene scene = parse_scene(in);
                if (override_seed) {
                    scene.seed = seed;
                }
                auto gen = std::make_shared<InhomogeneousGenerator>(
                    make_scene_generator(scene));
                TileService::Options opt;
                opt.shape = TileShape{tile_size, tile_size};
                opt.cache_bytes = cache_mb << 20;
                opt.pool = gen_pool.get();
                opt.store = tile_store;
                auto [it, inserted] = scenes.emplace(
                    name, TileService::owning(std::move(gen), opt));
                if (!inserted) {
                    std::cerr << "rrsd: scene name '" << name << "' used twice\n";
                    return 1;
                }
                if (!quiet) {
                    std::cerr << "rrsd: scene '" << name << "' <- " << file
                              << " (fingerprint " << it->second->fingerprint()
                              << ")\n";
                }
            }
            if (!cluster_prev_file.empty()) {
                // Reshard warm-up: ask each key's previous-epoch owner
                // before generating (cluster/peer_fill.hpp).  Installed
                // before the router exists, so no request can race it.
                const cluster::Topology prev =
                    cluster::load_topology(cluster_prev_file);
                for (auto& [name, service] : scenes) {
                    service->set_remote_fill(cluster::make_peer_filler(
                        prev, cluster_node, name, service->fingerprint(),
                        service->shape()));
                }
                if (!quiet) {
                    std::cerr << "rrsd: peer cache-fill armed (node '"
                              << cluster_node << "', previous epoch "
                              << prev.epoch << ")\n";
                }
            }
            router = net::make_tile_router(std::move(scenes), nullptr, route_opt);
        }

        if (trace) {
            obs::trace_enable();
        }
        if (faults_flag) {
            fault::arm(fault::FaultPlan::parse(faults_spec));
        } else {
            fault::arm_from_env();
        }
        if (!quiet && fault::armed()) {
            std::cerr << "rrsd: fault plan armed\n";
        }
        net::HttpServer server(std::move(router), server_opt);

        if (::pipe(g_signal_pipe) != 0) {
            std::cerr << "rrsd: pipe: " << std::strerror(errno) << "\n";
            return 1;
        }
        struct sigaction sa = {};
        sa.sa_handler = rrsd_on_signal;
        ::sigemptyset(&sa.sa_mask);
        ::sigaction(SIGTERM, &sa, nullptr);
        ::sigaction(SIGINT, &sa, nullptr);
        ::signal(SIGPIPE, SIG_IGN);

        server.start();
        if (!quiet) {
            std::cerr << "rrsd: listening on " << server_opt.host << ":"
                      << server.port() << " (" << server_opt.workers
                      << " workers, cap "
                      << server.options().max_connections << ")\n";
        }
        if (!port_file.empty()) {
            std::ofstream pf(port_file);
            if (!pf) {
                std::cerr << "rrsd: cannot write '" << port_file << "'\n";
                return 1;
            }
            pf << server.port() << "\n";
        }

        // Park until a signal pokes the self-pipe (EINTR just re-reads).
        char byte = 0;
        while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
        }
        if (!quiet) {
            std::cerr << "rrsd: draining...\n";
        }
        server.stop();
        std::cout << obs::MetricsRegistry::global().to_json() << "\n";
        if (!quiet) {
            std::cerr << "rrsd: bye\n";
        }
    } catch (const Error& e) {
        std::cerr << "rrsd: error: " << e.what() << "\n";
        return 1;
    } catch (const std::exception& e) {
        std::cerr << "rrsd: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
