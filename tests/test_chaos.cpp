// Tier-3 chaos suite (ctest label `chaos`): real client/server traffic with
// an armed fault plan (DESIGN.md §13).  Each test drives a live HttpServer
// through src/fault/ injection sites and asserts the resilience contracts:
//
//  * client retries recover from injected socket faults — every request
//    still answers 200 and the bodies are bit-identical to fault-free runs,
//  * the per-scene circuit breaker opens after consecutive generation
//    failures, short-circuits with 503 + Retry-After, half-open probes, and
//    re-closes once generation heals,
//  * graceful degradation: under an open breaker a tile RAM or L2 still
//    holds is served marked X-RRS-Stale: 1, a cold tile gets 503,
//  * /healthz (liveness) stays 200 while /readyz (readiness) degrades, and
//  * the metrics accounting identity
//      net.requests == net.status_2xx + net.status_4xx + net.status_5xx
//                      + net.shed
//    survives an adversarial fault schedule, including a drain under load.
//
// Every test disarms via FaultGuard so a failed assertion cannot leak an
// armed plan into the next test (fault plans are process-global).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/client.hpp"
#include "cluster/proxy.hpp"
#include "cluster/topology.hpp"
#include "core/error.hpp"
#include "fault/circuit_breaker.hpp"
#include "fault/inject.hpp"
#include "grid/array2d.hpp"
#include "grid/rect.hpp"
#include "net/client.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "net/tile_routes.hpp"
#include "obs/metrics.hpp"
#include "service/tile_cache.hpp"
#include "service/tile_service.hpp"

namespace rrs::net {
namespace {

/// RAII: the process must leave every test disarmed, even when an ASSERT
/// bails out mid-test.
struct FaultGuard {
    FaultGuard() { fault::disarm(); }
    ~FaultGuard() { fault::disarm(); }
};

/// Deterministic coordinate-stamped tile payload (same idiom as
/// test_tile_service.cpp): the value encodes the lattice point, so a
/// mis-served or torn tile is detectable by value — and "bit-identical
/// after faults stop" is a meaningful assertion.
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

/// One running server over a stamped-tile scene with a private registry.
/// Tests call start_server() themselves: the breaker/stale knobs under test
/// differ per scenario.
class ChaosServerTest : public ::testing::Test {
protected:
    void start_server(const TileRoutesOptions& ropt) {
        TileService::Options sopt;
        sopt.shape = TileShape{32, 32};
        sopt.cache_bytes = std::size_t{16} << 20;
        service_ = std::make_shared<TileService>(stamp_tile, /*fingerprint=*/77,
                                                 sopt, nullptr);
        SceneServices scenes;
        scenes.emplace("scene", service_);
        HttpServer::Options opt;
        opt.workers = 4;
        opt.registry = &registry_;
        server_ = std::make_unique<HttpServer>(
            make_tile_router(std::move(scenes), &registry_, ropt), opt);
        server_->start();
    }

    void TearDown() override {
        fault::disarm();
        if (server_ != nullptr) {
            server_->stop();
        }
    }

    std::uint64_t counter(const char* name) {
        return registry_.counter(name).value();
    }

    std::int64_t gauge(const char* name) {
        return registry_.gauge(name).value();
    }

    /// requests == 2xx + 4xx + 5xx + shed must hold at any quiescent point —
    /// injected faults may abort connections, never the accounting.
    void expect_accounting_identity() {
        EXPECT_EQ(counter("net.requests"),
                  counter("net.status_2xx") + counter("net.status_4xx") +
                      counter("net.status_5xx") + counter("net.shed"));
    }

    FaultGuard guard_;
    obs::MetricsRegistry registry_;
    std::shared_ptr<TileService> service_;
    std::unique_ptr<HttpServer> server_;
};

std::string tile_path(int tx, int ty) {
    return "/v1/tile?tx=" + std::to_string(tx) + "&ty=" + std::to_string(ty);
}

// ------------------------------------------------- retries under faults

TEST_F(ChaosServerTest, RetriesRecoverUnderSocketFaults) {
    start_server(TileRoutesOptions{});

    // Deterministic schedule: every 5th recv anywhere in the process (client
    // or server side) reports a dead peer.  A single attempt consumes only a
    // few recv calls, so 6 attempts always straddle the next scheduled fault.
    fault::arm(fault::FaultPlan::parse("seed:5 net.recv=error@every:5"));

    HttpClient::Options copt;
    copt.retry.max_attempts = 6;
    copt.retry.base_backoff_ms = 1;
    copt.retry.max_backoff_ms = 10;
    copt.registry = &registry_;
    HttpClient client("127.0.0.1", server_->port(), copt);

    std::vector<std::string> bodies;
    for (int i = 0; i < 40; ++i) {
        const int tx = i % 4;
        const int ty = (i / 4) % 4;
        const ClientResponse resp = client.get(tile_path(tx, ty));
        ASSERT_EQ(resp.status, 200) << "request " << i << ": " << resp.body;
        bodies.push_back(resp.body);
    }
    EXPECT_GT(counter("net.client.retries"), 0u)
        << "fault plan never fired — the test proved nothing";

    // Disarmed, a fresh fault-free client must see bit-identical bodies.
    fault::disarm();
    HttpClient clean("127.0.0.1", server_->port());
    for (int i = 0; i < 40; ++i) {
        const int tx = i % 4;
        const int ty = (i / 4) % 4;
        const ClientResponse resp = clean.get(tile_path(tx, ty));
        ASSERT_EQ(resp.status, 200);
        EXPECT_EQ(resp.body, bodies[static_cast<std::size_t>(i)])
            << "tile (" << tx << "," << ty << ") not bit-identical after disarm";
        EXPECT_EQ(resp.header("x-rrs-stale"), nullptr);
    }
    expect_accounting_identity();
}

// ------------------------------------------------- circuit breaker cycle

TEST_F(ChaosServerTest, BreakerOpensProbesAndRecloses) {
    TileRoutesOptions ropt;
    ropt.breaker_failures = 3;
    ropt.breaker_open_ms = 200;
    start_server(ropt);

    HttpClient client("127.0.0.1", server_->port());
    fault::arm(fault::FaultPlan::parse("tile.generate=error"));

    // Three consecutive generation failures on cold tiles trip the breaker.
    for (int i = 0; i < 3; ++i) {
        const ClientResponse resp = client.get(tile_path(100 + i, 0));
        EXPECT_EQ(resp.status, 500) << resp.body;
    }
    EXPECT_EQ(gauge("net.breaker.state.scene"),
              static_cast<std::int64_t>(fault::CircuitBreaker::State::kOpen));
    EXPECT_EQ(counter("net.breaker.opened"), 1u);

    // Open: denied at the door with a Retry-After hint, no generation run.
    const ClientResponse denied = client.get(tile_path(103, 0));
    EXPECT_EQ(denied.status, 503);
    EXPECT_NE(denied.body.find("circuit breaker open"), std::string::npos);
    ASSERT_NE(denied.header("retry-after"), nullptr);
    EXPECT_GE(counter("net.breaker.short_circuited"), 1u);

    // After open_ms a half-open probe runs — and fails while still armed,
    // re-opening the breaker with a fresh timer.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    EXPECT_EQ(client.get(tile_path(104, 0)).status, 500);
    EXPECT_EQ(gauge("net.breaker.state.scene"),
              static_cast<std::int64_t>(fault::CircuitBreaker::State::kOpen));
    EXPECT_EQ(counter("net.breaker.opened"), 2u);
    EXPECT_EQ(client.get(tile_path(105, 0)).status, 503);

    // Generation heals: the next probe succeeds and the breaker re-closes.
    fault::disarm();
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    EXPECT_EQ(client.get(tile_path(106, 0)).status, 200);
    EXPECT_EQ(gauge("net.breaker.state.scene"),
              static_cast<std::int64_t>(fault::CircuitBreaker::State::kClosed));
    EXPECT_EQ(client.get(tile_path(107, 0)).status, 200);
    expect_accounting_identity();
}

// ------------------------------------------------- graceful degradation

TEST_F(ChaosServerTest, StaleTileServedWhenGenerationFails) {
    TileRoutesOptions ropt;
    ropt.breaker_failures = 2;
    ropt.breaker_open_ms = 500;  // open for every degraded request below
    start_server(ropt);

    HttpClient client("127.0.0.1", server_->port());
    const ClientResponse fresh = client.get(tile_path(0, 0));
    ASSERT_EQ(fresh.status, 200);
    EXPECT_EQ(fresh.header("x-rrs-stale"), nullptr);

    // Two failed generations of cold tiles open the scene breaker.
    fault::arm(fault::FaultPlan::parse("tile.generate=error"));
    EXPECT_EQ(client.get(tile_path(200, 200)).status, 500);
    EXPECT_EQ(client.get(tile_path(201, 200)).status, 500);
    ASSERT_EQ(gauge("net.breaker.state.scene"),
              static_cast<std::int64_t>(fault::CircuitBreaker::State::kOpen));

    // Open breaker: the warm tile is still answered from the cache, marked
    // stale, with the same bytes.
    const ClientResponse degraded = client.get(tile_path(0, 0));
    ASSERT_EQ(degraded.status, 200) << degraded.body;
    ASSERT_NE(degraded.header("x-rrs-stale"), nullptr);
    EXPECT_EQ(*degraded.header("x-rrs-stale"), "1");
    EXPECT_EQ(degraded.body, fresh.body);
    EXPECT_GE(counter("net.stale_served"), 1u);

    // A tile neither RAM nor L2 holds has no last-known-good: 503 +
    // Retry-After, never an invented body.
    const ClientResponse cold = client.get(tile_path(202, 200));
    EXPECT_EQ(cold.status, 503);
    EXPECT_NE(cold.header("retry-after"), nullptr);

    // Healed: after the open window the half-open probe succeeds, and
    // tiles are served without the header.
    fault::disarm();
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    const ClientResponse healed = client.get(tile_path(0, 0));
    ASSERT_EQ(healed.status, 200);
    EXPECT_EQ(healed.header("x-rrs-stale"), nullptr);
    EXPECT_EQ(healed.body, fresh.body);
    const ClientResponse healed_cold = client.get(tile_path(202, 200));
    EXPECT_EQ(healed_cold.status, 200);
    EXPECT_EQ(healed_cold.header("x-rrs-stale"), nullptr);
    expect_accounting_identity();
}

// ------------------------------------------------- liveness vs readiness

TEST_F(ChaosServerTest, ReadyzDegradesWhileHealthzStaysLive) {
    TileRoutesOptions ropt;
    ropt.breaker_failures = 2;
    ropt.breaker_open_ms = 60000;  // stays open for the rest of the test
    start_server(ropt);

    HttpClient client("127.0.0.1", server_->port());
    EXPECT_EQ(client.get("/healthz").status, 200);
    const ClientResponse ready = client.get("/readyz");
    EXPECT_EQ(ready.status, 200);
    EXPECT_NE(ready.body.find("\"ready\":true"), std::string::npos);

    // Trip the breaker: readiness must drop; liveness must not (a breaker-
    // open process needs rotation out, not a restart).
    fault::arm(fault::FaultPlan::parse("tile.generate=error"));
    EXPECT_EQ(client.get(tile_path(300, 0)).status, 500);
    EXPECT_EQ(client.get(tile_path(301, 0)).status, 500);

    const ClientResponse not_ready = client.get("/readyz");
    EXPECT_EQ(not_ready.status, 503);
    EXPECT_NE(not_ready.body.find("breaker open"), std::string::npos);
    ASSERT_NE(not_ready.header("retry-after"), nullptr);
    EXPECT_EQ(client.get("/healthz").status, 200);
    expect_accounting_identity();

    // Drain: the readiness gauge drops before connections are torn down.
    server_->stop();
    EXPECT_EQ(gauge("net.ready"), 0);
}

// ------------------------------------------------- drain under live faults

TEST_F(ChaosServerTest, DrainCompletesUnderActiveFaults) {
    start_server(TileRoutesOptions{});

    // Mixed plan: dropped reads and writes on both sides plus generation
    // latency — the drain must still converge with clean accounting.
    fault::arm(fault::FaultPlan::parse(
        "seed:9 net.recv=error@p:0.05 net.send=error@p:0.05 "
        "tile.generate=latency:5@p:0.2"));

    constexpr int kClients = 4;
    std::atomic<bool> stop_clients{false};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < 200 && !stop_clients.load(); ++i) {
                try {
                    HttpClient::Options copt;
                    copt.timeout_ms = 2000;
                    copt.retry.max_attempts = 3;
                    copt.retry.base_backoff_ms = 1;
                    copt.retry.max_backoff_ms = 5;
                    HttpClient client("127.0.0.1", server_->port(), copt);
                    client.get(tile_path((c + i) % 4, i % 4));
                } catch (const Error&) {
                    // refused/aborted mid-drain: expected, not a test failure
                }
            }
        });
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server_->stop();  // drain while clients are still firing under faults
    stop_clients.store(true);
    for (auto& th : clients) {
        th.join();
    }
    fault::disarm();

    EXPECT_EQ(gauge("net.active"), 0);
    EXPECT_EQ(gauge("net.ready"), 0);
    expect_accounting_identity();
}

// ------------------------------------------------- identity under schedule

TEST_F(ChaosServerTest, AccountingIdentityUnderMixedFaultSchedule) {
    start_server(TileRoutesOptions{});
    fault::arm(fault::FaultPlan::parse("seed:3 net.recv=error@every:9"));

    HttpClient::Options copt;
    copt.retry.max_attempts = 6;
    copt.retry.base_backoff_ms = 1;
    copt.retry.max_backoff_ms = 10;
    copt.registry = &registry_;
    HttpClient client("127.0.0.1", server_->port(), copt);

    // 200s, 404s (unknown scene), and 400s (bad params) interleaved while
    // the schedule kills connections: retries mask the faults, the ledger
    // still has to balance.
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(client.get(tile_path(i % 3, 0)).status, 200);
        EXPECT_EQ(client.get("/v1/tile?scene=nope&tx=0&ty=0").status, 404);
        EXPECT_EQ(client.get("/v1/tile?tx=abc&ty=0").status, 400);
    }
    fault::disarm();
    expect_accounting_identity();
    // A fault can kill the connection after the server counted a response
    // but before the client read it — the retry then replays the request,
    // so the server-side count is a floor, not an exact figure.
    EXPECT_GE(counter("net.status_4xx"), 40u);
}

// ------------------------------------------------- cluster fault isolation

// Killing one shard's forwards (site cluster.forward.<node>) degrades that
// shard's tiles only: the proxy answers 503 for the dead shard's keyspace,
// 200 for everyone else's, and the dead shard recovers after disarm once
// its breaker re-probes.  This is the fleet-level analogue of the per-scene
// breaker cycle above.
TEST(ChaosCluster, ShardFaultDegradesItsOwnKeyspaceOnly) {
    FaultGuard guard;
    // Two stamped-tile shards of the same "scene" (equal fingerprints, so
    // cluster discovery agrees), plus a real proxy server over them.
    obs::MetricsRegistry registries[2];
    std::shared_ptr<TileService> services[2];
    std::unique_ptr<HttpServer> shards[2];
    for (int i = 0; i < 2; ++i) {
        TileService::Options sopt;
        sopt.shape = TileShape{32, 32};
        sopt.cache_bytes = std::size_t{16} << 20;
        services[i] = std::make_shared<TileService>(stamp_tile,
                                                    /*fingerprint=*/77, sopt,
                                                    nullptr);
        SceneServices scenes;
        scenes.emplace("scene", services[i]);
        HttpServer::Options opt;
        opt.workers = 4;
        opt.registry = &registries[i];
        shards[i] = std::make_unique<HttpServer>(
            make_tile_router(std::move(scenes), &registries[i]), opt);
        shards[i]->start();
    }
    cluster::Topology topo;
    topo.epoch = 1;
    for (int i = 0; i < 2; ++i) {
        cluster::NodeSpec spec;
        spec.name = i == 0 ? "n1" : "n2";
        spec.host = "127.0.0.1";
        spec.port = shards[i]->port();
        topo.nodes.push_back(std::move(spec));
    }
    obs::MetricsRegistry proxy_registry;
    cluster::ClusterOptions copt;
    copt.connections_per_node = 4;
    copt.fanout_threads = 4;
    copt.breaker_failures = 2;
    copt.breaker_open_ms = 100;  // recover quickly after disarm
    copt.registry = &proxy_registry;
    auto client = std::make_shared<cluster::ClusterClient>(topo, copt);
    HttpServer::Options popt;
    popt.workers = 4;
    popt.registry = &proxy_registry;
    HttpServer proxy(cluster::make_cluster_router(client, &proxy_registry),
                     popt);
    proxy.start();

    // One key per shard, found by asking the map.
    TileKey keys[2] = {TileKey{-1, -1, 0}, TileKey{-1, -1, 0}};
    for (std::int64_t tx = 0; tx < 32; ++tx) {
        const TileKey key{tx, 0, 0};
        keys[client->map().owner(77, key)] = key;
    }
    ASSERT_GE(keys[0].tx, 0);
    ASSERT_GE(keys[1].tx, 0);
    const auto target = [](const TileKey& key) {
        return "/v1/tile?tx=" + std::to_string(key.tx) +
               "&ty=" + std::to_string(key.ty);
    };
    HttpClient http("127.0.0.1", proxy.port());

    // Every forward to n2 fails injected; n1 is untouched.
    fault::arm(fault::FaultPlan::parse("seed:1 cluster.forward.n2=error@every:1"));
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(http.get(target(keys[0])).status, 200) << "n1 degraded too";
        EXPECT_EQ(http.get(target(keys[1])).status, 503);
    }
    ASSERT_NE(http.get(target(keys[1])).header("retry-after"), nullptr);
    EXPECT_GT(proxy_registry.counter("cluster.node.n2.failures").value(), 0u);
    EXPECT_EQ(proxy_registry.counter("cluster.node.n1.failures").value(), 0u);
    EXPECT_EQ(client->breaker_state(0), fault::CircuitBreaker::State::kClosed);

    // Disarm and outlast the open window: n2's keyspace comes back, and the
    // recovered body is the same stamped tile n2 would always have served.
    fault::disarm();
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ClientResponse healed;
    for (int attempt = 0; attempt < 20 && healed.status != 200; ++attempt) {
        healed = http.get(target(keys[1]));
        if (healed.status != 200) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
    }
    ASSERT_EQ(healed.status, 200) << healed.body;
    EXPECT_EQ(healed.body, encode_tile_f32(*services[1]->get(keys[1])));

    proxy.stop();
    shards[0]->stop();
    shards[1]->stop();
}

}  // namespace
}  // namespace rrs::net
