#include "layers.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "cluster/client.hpp"
#include "cluster/shard_map.hpp"
#include "cluster/topology.hpp"
#include "io/scene.hpp"
#include "net/http.hpp"
#include "net/query.hpp"
#include "net/tile_routes.hpp"
#include "parallel/thread_pool.hpp"
#include "procs.hpp"
#include "service/tile_service.hpp"

namespace perfbench {

namespace {

/// Keeps a computed value observable so the timed call cannot be elided.
std::uint64_t g_sink = 0;

void consume(std::uint64_t v) {
    g_sink += v;
    asm volatile("" : : "r"(g_sink) : "memory");
}

}  // namespace

void SpanLog::time(const std::string& name, int samples, int batch,
                   const std::function<void()>& call) {
    std::vector<double>& v = ns_[name];
    for (int s = 0; s < samples; ++s) {
        const auto t0 = Clock::now();
        for (int i = 0; i < batch; ++i) {
            call();
        }
        const double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
        v.push_back(ns / batch);
    }
}

double SpanLog::median(const std::string& name, double unit_ns) const {
    const auto it = ns_.find(name);
    if (it == ns_.end() || it->second.empty()) {
        throw std::logic_error("no samples recorded for span " + name);
    }
    std::vector<double> v = it->second;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2),
                     v.end());
    return v[v.size() / 2] / unit_ns;
}

SceneModel load_scene(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("cannot open scene " + path);
    }
    SceneModel m;
    auto t0 = Clock::now();
    const rrs::Scene scene = rrs::parse_scene(in);
    m.parse_ms = seconds_since(t0) * 1e3;
    // Serial, as in the rrsd processes the benchmark starts (RRS_THREADS=1).
    on_pool_worker([&] {
        t0 = Clock::now();
        m.gen = std::make_shared<const rrs::InhomogeneousGenerator>(
            rrs::make_scene_generator(scene));
        m.kernel_build_ms = seconds_since(t0) * 1e3;
    });
    return m;
}

std::vector<std::size_t> regions_touching(const rrs::InhomogeneousGenerator& gen,
                                          const rrs::Rect& rect) {
    const std::size_t M = gen.map().region_count();
    std::vector<double> g(M);
    std::vector<bool> seen(M, false);
    auto visit = [&](std::int64_t ix, std::int64_t iy) {
        gen.map().weights_at(gen.x_of(rect.x0 + ix), gen.y_of(rect.y0 + iy), g);
        for (std::size_t m = 0; m < M; ++m) {
            if (g[m] > 0.0) {
                seen[m] = true;
            }
        }
    };
    for (std::int64_t iy = 0; iy < rect.ny; iy += 4) {
        for (std::int64_t ix = 0; ix < rect.nx; ix += 4) {
            visit(ix, iy);
        }
        visit(rect.nx - 1, iy);
    }
    for (std::int64_t ix = 0; ix < rect.nx; ix += 4) {
        visit(ix, rect.ny - 1);
    }
    visit(rect.nx - 1, rect.ny - 1);
    std::vector<std::size_t> out;
    for (std::size_t m = 0; m < M; ++m) {
        if (seen[m]) {
            out.push_back(m);
        }
    }
    return out;
}

void on_pool_worker(const std::function<void()>& f) {
    rrs::ThreadPool pool(1);
    pool.submit(f).get();
}

void measure_net(SpanLog& log, const std::vector<std::string>& heads,
                 const rrs::Array2D<double>& tile, const std::string& response_body,
                 LayerMetrics& out) {
    std::size_t next = 0;
    log.time("net.parse", 200, 50, [&] {
        const std::string& head = heads[next++ % heads.size()];
        // The server hands parse_request_head the head without its blank line.
        const rrs::net::HttpRequest req =
            rrs::net::parse_request_head(std::string_view(head).substr(0, head.size() - 4));
        if (req.path == "/v1/window") {
            consume(static_cast<std::uint64_t>(rrs::net::parse_window_query(req).region.nx));
        } else {
            consume(static_cast<std::uint64_t>(rrs::net::parse_tile_query(req).key.tx));
        }
    });
    out["net.parse_us"] = log.median("net.parse");

    log.time("net.encode_f32", 30, 4, [&] {
        consume(rrs::net::encode_tile_f32(tile).size());
    });
    log.time("net.encode_i16", 30, 4, [&] {
        consume(rrs::net::encode_tile_i16(tile).body.size());
    });
    log.time("net.encode_f64", 30, 4, [&] {
        consume(rrs::net::encode_tile_f64(tile).size());
    });
    out["net.encode_f32_us"] = log.median("net.encode_f32");
    out["net.encode_i16_us"] = log.median("net.encode_i16");
    out["net.encode_f64_us"] = log.median("net.encode_f64");

    rrs::net::HttpResponse resp = rrs::net::HttpResponse::octets(response_body);
    resp.extra_headers.emplace_back("ETag", "\"0123456789abcdef\"");
    resp.extra_headers.emplace_back("X-RRS-Encoding", "f32");
    log.time("net.serialize", 30, 4, [&] {
        consume(rrs::net::serialize_response(resp, true).size());
    });
    out["net.serialize_us"] = log.median("net.serialize");
}

void measure_service_hit(SpanLog& log, const rrs::Array2D<double>& tile, LayerMetrics& out) {
    rrs::TileService::Options opt;
    opt.shape = rrs::TileShape{static_cast<std::int64_t>(tile.nx()),
                               static_cast<std::int64_t>(tile.ny())};
    opt.cache_bytes = std::size_t{64} << 20;
    rrs::TileService service([&tile](const rrs::Rect&) { return tile; }, 0x5045524642ULL,
                             opt, nullptr);
    const rrs::TileKey key{3, -2, 0};
    consume(service.get(key)->nx());  // the one miss: warms the key
    log.time("service.hit", 200, 200, [&] { consume(service.get(key)->nx()); });
    out["service.hit_us"] = log.median("service.hit");
}

void measure_core(SpanLog& log, const rrs::InhomogeneousGenerator& gen,
                  const std::vector<rrs::Rect>& rects, LayerMetrics& out) {
    on_pool_worker([&] {
        for (const rrs::Rect& r : rects) {
            log.time("core.generate", 1, 1, [&] { consume(gen.generate(r).nx()); });
            log.time("core.blend_weights", 1, 1, [&] {
                for (std::size_t m = 0; m < gen.map().region_count(); ++m) {
                    consume(gen.blend_weights(r, m).nx());
                }
            });
        }
    });
    out["core.generate_ms_per_tile"] = log.median("core.generate", 1e6);
    out["core.blend_weights_ms_per_tile"] = log.median("core.blend_weights", 1e6);
}

void measure_cluster(SpanLog& log, const std::string& f64_body,
                     const std::vector<rrs::TileKey>& keys, std::uint64_t fingerprint,
                     const std::vector<std::uint16_t>& ports, const std::string& scene,
                     const rrs::Rect& window, LayerMetrics& out) {
    log.time("cluster.decode_f64", 30, 4, [&] {
        consume(rrs::cluster::decode_tile_f64(f64_body, 256, 256).nx());
    });
    out["cluster.decode_f64_us"] = log.median("cluster.decode_f64");

    auto node = [](std::size_t i, std::uint16_t port) {
        std::string name = std::to_string(i);
        name.insert(0, 1, 's');
        return rrs::cluster::NodeSpec{std::move(name), "127.0.0.1", port, 1.0};
    };
    rrs::cluster::Topology topo;
    for (std::size_t i = 0; i < ports.size(); ++i) {
        topo.nodes.push_back(node(i, ports[i]));
    }
    // Ownership is priced on a two-node map even where one node serves.
    rrs::cluster::Topology pair = topo;
    while (pair.nodes.size() < 2) {
        pair.nodes.push_back(
            node(pair.nodes.size(), static_cast<std::uint16_t>(1 + pair.nodes.size())));
    }
    const rrs::cluster::ShardMap map(pair);
    std::size_t next = 0;
    log.time("cluster.owner", 100, 1000, [&] {
        consume(map.owner(fingerprint, keys[next++ % keys.size()]));
    });
    out["cluster.owner_ns"] = log.median("cluster.owner", 1.0);

    rrs::cluster::ClusterOptions copt;
    copt.connections_per_node = 4;
    rrs::cluster::ClusterClient client(topo, copt);
    consume(client.window(scene, window).nx());  // discovery + connections
    log.time("cluster.client_window", 20, 1, [&] {
        consume(client.window(scene, window).nx());
    });
    out["cluster.client_window_ms"] = log.median("cluster.client_window", 1e6);
}

}  // namespace perfbench
