// cluster — routing concurrency of the sharded tile fleet (DESIGN.md §17),
// measured end to end through the routing proxy.  The gate checks that the
// proxy keeps three shards' workers busy at once; it does not measure
// compute scaling (no CPU work is done).
//
// The harness models per-node generation capacity the same way the chaos
// tier models failures: the process-global `tile.generate=latency:L` fault
// site stalls every cold generation for L ms.  Sleeps overlap freely across
// threads, so a node's capacity is (workers / L) tiles per second, and the
// measured speedup is the routing/stitching stack's, not the scheduler's.
// L and the sweep length are chosen so that each leg spans many rounds of
// L: per-request scheduling jitter of a few ms on a loaded host is then a
// small share of a round and cannot move the ratio across the floor.
//
// Legs, all loopback:
//
//  1. single_node: one rrsd-shaped shard (HttpServer, workers=W) swept cold
//     over T tiles by W concurrent clients.  The bodies are kept as the
//     reference.
//  2. cluster_3node: three cold shards of the same scene behind a
//     make_cluster_router proxy, swept over the SAME T tiles by 3·W
//     concurrent clients.  Every proxied body must be byte-identical to
//     leg 1's — the stitching contract — and the per-shard traffic spread
//     is checked via the proxy's cluster.node.<name>.requests counters.
//
// The sweep is owner-balanced (equal tile counts per shard, chosen by
// scanning a uniform grid with the ShardMap): the harness measures capacity
// scaling at matched load, not rendezvous-hash variance — balance itself is
// chi-square-tested in tests/test_cluster.cpp.
//
// Exits non-zero unless the 3-node fleet sustains >= 2.5x the single-node
// throughput (ideal 3.0x: the proxy keeps all three fleets of workers
// busy) with all bodies byte-identical.
//
//   cluster [--quick] [--out-dir DIR]
//
// Writes bench_out/BENCH_cluster.json via bench_util.hpp.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "cluster/client.hpp"
#include "cluster/proxy.hpp"
#include "cluster/shard_map.hpp"
#include "cluster/topology.hpp"
#include "fault/inject.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/tile_routes.hpp"
#include "obs/metrics.hpp"
#include "service/tile_service.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using rrs::Array2D;
using rrs::Rect;
using rrs::TileKey;
using rrs::TileService;
using rrs::TileShape;

double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

constexpr std::uint64_t kFingerprint = 77;
constexpr std::size_t kWorkers = 8;  // per shard == client concurrency per node

/// Deterministic coordinate-stamped payload: generation cost is the
/// injected latency, and a mis-routed tile is detectable by value.
Array2D<double> stamp_tile(const Rect& r) {
    Array2D<double> out(static_cast<std::size_t>(r.nx),
                        static_cast<std::size_t>(r.ny));
    for (std::size_t iy = 0; iy < out.ny(); ++iy) {
        for (std::size_t ix = 0; ix < out.nx(); ++ix) {
            out(ix, iy) =
                static_cast<double>(r.x0 + static_cast<std::int64_t>(ix)) +
                1000.0 * static_cast<double>(r.y0 + static_cast<std::int64_t>(iy));
        }
    }
    return out;
}

struct Shard {
    std::shared_ptr<TileService> service;
    std::unique_ptr<rrs::obs::MetricsRegistry> registry;
    std::unique_ptr<rrs::net::HttpServer> server;
};

Shard boot_shard() {
    Shard shard;
    TileService::Options sopt;
    sopt.shape = TileShape{32, 32};
    sopt.cache_bytes = std::size_t{64} << 20;
    shard.service =
        std::make_shared<TileService>(stamp_tile, kFingerprint, sopt, nullptr);
    rrs::net::SceneServices scenes;
    scenes.emplace("bench", shard.service);
    shard.registry = std::make_unique<rrs::obs::MetricsRegistry>();
    rrs::net::HttpServer::Options opt;
    opt.workers = kWorkers;
    opt.registry = shard.registry.get();
    shard.server = std::make_unique<rrs::net::HttpServer>(
        rrs::net::make_tile_router(std::move(scenes), shard.registry.get()), opt);
    shard.server->start();
    return shard;
}

std::string tile_target(const TileKey& key) {
    return "/v1/tile?tx=" + std::to_string(key.tx) +
           "&ty=" + std::to_string(key.ty);
}

/// Sweep `keys` against `port` with `concurrency` keep-alive clients; bodies
/// land in `bodies` aligned with `keys`.  The clients split into `lanes`
/// groups: client t pulls only the keys (and warm keys) whose index is t
/// modulo `lanes`.  The fleet leg passes one lane per shard (keys are
/// interleaved by owner), so each shard always has exactly its workers'
/// worth of requests in flight; with one shared queue a client that draws a
/// key for a busy shard idles a whole latency round while another shard
/// has a free worker, and that chance, not the routing, set the ratio.
/// Each driver first drains `warm_keys` (untimed): on a single core, thread
/// spawn plus 2·concurrency lazy TCP connects (driver→proxy, proxy→shard
/// pool) cost the same order as one generation round, so the clock starts
/// only once every connection on the path is established.  Returns wall ms
/// of the timed phase; any non-200 aborts the harness.
double sweep(std::uint16_t port, const std::vector<TileKey>& warm_keys,
             const std::vector<TileKey>& keys, std::size_t concurrency, std::size_t lanes,
             std::vector<std::string>& bodies) {
    bodies.assign(keys.size(), {});
    std::vector<std::atomic<std::size_t>> warm_next(lanes);
    std::vector<std::atomic<std::size_t>> next(lanes);
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> go{false};
    std::atomic<bool> failed{false};
    std::vector<std::thread> drivers;
    drivers.reserve(concurrency);
    for (std::size_t t = 0; t < concurrency; ++t) {
        drivers.emplace_back([&, lane = t % lanes] {
            rrs::net::HttpClient client("127.0.0.1", port);
            const auto fetch = [&](const TileKey& key,
                                   std::string* out) -> bool {
                try {
                    rrs::net::ClientResponse resp = client.get(tile_target(key));
                    if (resp.status != 200) {
                        std::cerr << "cluster bench: tile (" << key.tx << ","
                                  << key.ty << ") -> " << resp.status << "\n";
                        failed.store(true);
                        return false;
                    }
                    if (out != nullptr) {
                        *out = std::move(resp.body);
                    }
                    return true;
                } catch (const rrs::Error& e) {
                    std::cerr << "cluster bench: tile (" << key.tx << ","
                              << key.ty << "): " << e.what() << "\n";
                    failed.store(true);
                    return false;
                }
            };
            while (true) {
                const std::size_t i = lane + lanes * warm_next[lane].fetch_add(1);
                if (i >= warm_keys.size() || failed.load()) {
                    break;
                }
                if (!fetch(warm_keys[i], nullptr)) {
                    break;
                }
            }
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire)) {
                std::this_thread::yield();
            }
            while (true) {
                const std::size_t i = lane + lanes * next[lane].fetch_add(1);
                if (i >= keys.size() || failed.load()) {
                    return;
                }
                if (!fetch(keys[i], &bodies[i])) {
                    return;
                }
            }
        });
    }
    while (ready.load() < concurrency && !failed.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const Clock::time_point t0 = Clock::now();
    go.store(true, std::memory_order_release);
    for (std::thread& d : drivers) {
        d.join();
    }
    if (failed.load()) {
        std::exit(1);
    }
    return ms_since(t0);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace rrs;
    bench::TraceFromEnv trace;

    bool quick = false;
    std::string out_dir = "bench_out";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--out-dir" && i + 1 < argc) {
            out_dir = argv[++i];
        } else {
            std::cerr << "usage: cluster [--quick] [--out-dir DIR]\n";
            return 2;
        }
    }

    const int latency_ms = 50;
    const std::size_t per_shard = quick ? 64 : 160;  // tiles owned per node

    // Build the fleet first: the sweep set is owner-balanced, so the keys
    // depend on the live topology's ports (names salt the hash, but the
    // harness only needs the owner buckets).
    fault::disarm();
    std::vector<Shard> fleet;
    for (int i = 0; i < 3; ++i) {
        fleet.push_back(boot_shard());
    }
    cluster::Topology topo;
    topo.epoch = 1;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        cluster::NodeSpec spec;
        // (+= sidesteps a gcc-12 -Wrestrict false positive on operator+)
        spec.name = "n";
        spec.name += std::to_string(i + 1);
        spec.host = "127.0.0.1";
        spec.port = fleet[i].server->port();
        topo.nodes.push_back(std::move(spec));
    }
    const cluster::ShardMap map(topo);
    std::vector<std::vector<TileKey>> buckets(3);
    for (std::int64_t ty = 0; ty < 64; ++ty) {
        for (std::int64_t tx = 0; tx < 64; ++tx) {
            const TileKey key{tx, ty, 0};
            std::vector<TileKey>& bucket = buckets[map.owner(kFingerprint, key)];
            if (bucket.size() < per_shard + kWorkers) {
                bucket.push_back(key);
            }
        }
    }
    // First per_shard of each bucket are measured; the kWorkers extras are
    // sacrificial warm-up keys (establish every connection, never timed).
    std::vector<TileKey> keys;
    std::vector<TileKey> warm;
    for (std::size_t i = 0; i < per_shard + kWorkers; ++i) {
        for (const auto& bucket : buckets) {
            if (bucket.size() != per_shard + kWorkers) {
                std::cerr << "cluster bench: owner bucket underfilled\n";
                return 1;
            }
            (i < per_shard ? keys : warm).push_back(bucket[i]);
        }
    }

    // Every cold generation — on any shard — stalls latency_ms: the
    // capacity model (file comment).
    fault::arm(fault::FaultPlan::parse(
        "seed:1 tile.generate=latency:" + std::to_string(latency_ms) +
        "@every:1"));

    // ---- Leg 1: single node -------------------------------------------------
    Shard single = boot_shard();
    std::vector<std::string> reference;
    const std::vector<TileKey> warm_single(warm.begin(),
                                           warm.begin() + kWorkers);
    const double single_ms = sweep(single.server->port(), warm_single, keys,
                                   kWorkers, 1, reference);
    single.server->stop();
    const double single_tps = 1000.0 * static_cast<double>(keys.size()) / single_ms;
    std::cout << "cluster: single_node " << keys.size() << " cold tiles in "
              << single_ms << " ms (" << single_tps << " tiles/s, latency "
              << latency_ms << " ms, workers " << kWorkers << ")\n";

    // ---- Leg 2: 3-node fleet through the proxy ------------------------------
    obs::MetricsRegistry proxy_registry;
    cluster::ClusterOptions copt;
    copt.connections_per_node = kWorkers;
    copt.fanout_threads = 3 * kWorkers;
    copt.registry = &proxy_registry;
    auto client = std::make_shared<cluster::ClusterClient>(topo, copt);
    net::HttpServer::Options popt;
    popt.workers = 4 * kWorkers;  // never the bottleneck: forwards block
    popt.registry = &proxy_registry;
    net::HttpServer proxy(cluster::make_cluster_router(client, &proxy_registry),
                          popt);
    proxy.start();

    std::vector<std::string> proxied;
    const double fleet_ms =
        sweep(proxy.port(), warm, keys, 3 * kWorkers, 3, proxied);
    const double fleet_tps = 1000.0 * static_cast<double>(keys.size()) / fleet_ms;
    const double speedup = fleet_tps / single_tps;
    std::cout << "cluster: cluster_3node " << keys.size() << " cold tiles in "
              << fleet_ms << " ms (" << fleet_tps << " tiles/s) -> speedup "
              << speedup << "x\n";

    fault::disarm();

    // Byte-identity: every proxied body equals the single-node body.
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (proxied[i] != reference[i]) {
            std::cerr << "cluster bench: tile (" << keys[i].tx << ","
                      << keys[i].ty << ") proxied body differs from single-node\n";
            return 1;
        }
    }
    // Traffic really spread: each shard served its third.
    for (const char* name : {"n1", "n2", "n3"}) {
        const std::uint64_t forwarded =
            proxy_registry.counter(std::string("cluster.node.") + name +
                                   ".requests")
                .value();
        if (forwarded < per_shard) {
            std::cerr << "cluster bench: shard " << name << " saw only "
                      << forwarded << " requests\n";
            return 1;
        }
    }

    proxy.stop();
    for (Shard& shard : fleet) {
        shard.server->stop();
    }

    std::vector<bench::BenchRecord> records;
    records.push_back({"single_node", static_cast<std::int64_t>(keys.size()),
                       single_ms, single_tps});
    records.push_back({"cluster_3node", static_cast<std::int64_t>(keys.size()),
                       fleet_ms, fleet_tps});
    records.push_back({"speedup_x", 3, 0.0, speedup});
    bench::write_bench_json(out_dir, "cluster", records);

    if (speedup < 2.5) {
        std::cerr << "cluster bench: speedup " << speedup
                  << "x below the 2.5x floor (ideal 3.0x)\n";
        return 1;
    }
    std::cout << "cluster: ok — " << speedup
              << "x over single node, all bodies byte-identical\n";
    return 0;
}
