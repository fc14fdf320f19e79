// High-contention race-detection tier (ctest label `race`, DESIGN.md §11).
//
// These tests exist to be run under ThreadSanitizer (the `tsan` CMake
// preset, `tools/ci.sh tsan`): each one drives a concurrent subsystem hard
// enough that any data race in it — coalescing on a cold tile, window
// assembly racing eviction, shared-pool churn, registry registration, trace
// ring fill vs. export — manifests as interleaved conflicting accesses TSan
// can see.  The functional assertions are deliberately about *invariants*
// (value equality, counter identities), not exact schedules: the schedule is
// the sanitizer's business.
//
// They also pass as plain tests, but the release/sanitize tiers exclude the
// `race` label (CMakePresets testPresets) so tier-1 wall time is unchanged.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/convolution.hpp"
#include "core/error.hpp"
#include "grid/array2d.hpp"
#include "net/client.hpp"
#include "net/http.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "net/tile_routes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "service/tile_cache.hpp"
#include "service/tile_service.hpp"

namespace rrs {
namespace {

/// Deterministic coordinate-stamped tile payload (same idiom as
/// test_tile_service.cpp): value encodes the lattice point, so a mis-served
/// or torn tile is detectable by value.
Array2D<double> stamp_tile(const Rect& r) {
    Array2D<double> out(static_cast<std::size_t>(r.nx), static_cast<std::size_t>(r.ny));
    for (std::size_t iy = 0; iy < out.ny(); ++iy) {
        for (std::size_t ix = 0; ix < out.nx(); ++ix) {
            out(ix, iy) = static_cast<double>(r.x0 + static_cast<std::int64_t>(ix)) +
                          1000.0 * static_cast<double>(r.y0 + static_cast<std::int64_t>(iy));
        }
    }
    return out;
}

// --- TileService: coalescing storm on one cold tile --------------------------

TEST(RaceTileService, CoalescingStormOnColdTile) {
    constexpr int kThreads = 8;
    std::atomic<int> generator_calls{0};
    auto slow_gen = [&generator_calls](const Rect& r) {
        generator_calls.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return stamp_tile(r);
    };
    TileService service(slow_gen, /*fingerprint=*/1234,
                        {.shape = TileShape{32, 32}}, nullptr);

    std::latch start{kThreads};
    std::vector<TilePtr> results(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            results[static_cast<std::size_t>(t)] = service.get(TileKey{0, 0});
        });
    }
    for (auto& th : threads) {
        th.join();
    }

    const Array2D<double> expected = stamp_tile(tile_rect(service.shape(), {0, 0}));
    for (const TilePtr& tile : results) {
        ASSERT_TRUE(tile != nullptr);
        EXPECT_EQ(max_abs_diff(*tile, expected), 0.0);
    }
    const MetricsSnapshot m = service.metrics();
    EXPECT_EQ(m.requests, static_cast<std::uint64_t>(kThreads));
    EXPECT_EQ(m.cache_hits + m.cache_misses, m.requests);
    EXPECT_EQ(m.generations + m.coalesced, m.cache_misses);
    EXPECT_EQ(m.generations,
              static_cast<std::uint64_t>(generator_calls.load(std::memory_order_relaxed)));
    EXPECT_GE(m.generations, 1u);
}

// --- TileCache: concurrent window() vs. forced eviction -----------------------

TEST(RaceTileService, ConcurrentWindowsUnderEvictionPressure) {
    constexpr int kThreads = 4;
    constexpr int kRounds = 8;
    const TileShape shape{32, 32};
    // Budget of ~3 tiles across 2 shards: every round of window() (which
    // touches 4-9 tiles) forces evictions while other threads are reading.
    auto cache = std::make_shared<TileCache>(3 * 32 * 32 * sizeof(double), 2);
    auto gen = [](const Rect& r) { return stamp_tile(r); };
    TileService service(gen, /*fingerprint=*/77, {.shape = shape}, cache);

    const std::vector<Rect> regions = {
        Rect{-40, -40, 70, 70},
        Rect{0, 0, 80, 48},
        Rect{-64, 16, 96, 40},
        Rect{16, -64, 48, 96},
    };
    std::vector<Array2D<double>> expected;
    expected.reserve(regions.size());
    for (const Rect& r : regions) {
        expected.push_back(stamp_tile(r));
    }

    std::latch start{kThreads};
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            for (int round = 0; round < kRounds; ++round) {
                const std::size_t r =
                    static_cast<std::size_t>(t + round) % regions.size();
                const Array2D<double> window = service.window(regions[r]);
                if (max_abs_diff(window, expected[r]) != 0.0) {
                    ++mismatches[static_cast<std::size_t>(t)];
                }
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0)
            << "thread " << t << " saw a corrupted window";
    }
    const TileCache::Stats stats = cache->stats();
    EXPECT_GT(stats.evictions, 0u) << "budget was meant to force evictions";
    EXPECT_LE(stats.bytes, cache->byte_budget());
}

// --- TileService: real-generator batch fan-out under contention ---------------

TEST(RaceTileService, BatchFanOutWithRealGeneratorStaysBitExact) {
    // The de-serialized fan-out path end-to-end: get_many dispatches cold
    // tiles onto a 4-worker pool, and inside each worker the convolution
    // engine's parallel_for takes its serial fast path (in_pool_worker gate)
    // instead of opening a nested OpenMP team.  Several client threads issue
    // overlapping batches concurrently, so coalescing, the cache, and the
    // pool gate are all exercised together under TSan — and every tile must
    // still equal the pure-function reference generation bit-for-bit.
    const auto spectrum = make_gaussian({1.0, 6.0, 6.0});
    const ConvolutionGenerator gen(
        ConvolutionKernel::build_truncated(*spectrum,
                                           GridSpec::unit_spacing(64, 64), 1e-8),
        /*seed=*/99);
    ThreadPool pool(4);
    TileService::Options opt;
    opt.shape = TileShape{32, 32};
    opt.pool = &pool;
    TileService service(gen, opt);

    constexpr int kClients = 4;
    const std::vector<std::vector<TileKey>> batches = {
        {{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {3, 0, 0}, {0, 1, 0}, {1, 1, 0}},
        {{1, 0, 0}, {1, 1, 0}, {1, 2, 0}, {1, 3, 0}, {2, 2, 0}, {3, 3, 0}},
        {{-1, -1, 0}, {0, 0, 0}, {1, 1, 0}, {2, 2, 0}, {3, 3, 0}, {-2, 0, 0}},
        {{0, 1, 0}, {1, 2, 0}, {2, 0, 0}, {3, 0, 0}, {-1, -1, 0}, {-2, 0, 0}},
    };

    std::latch start{kClients};
    std::vector<int> mismatches(kClients, 0);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            start.arrive_and_wait();
            const auto& keys = batches[static_cast<std::size_t>(c)];
            const auto tiles = service.get_many(keys);
            for (std::size_t i = 0; i < keys.size(); ++i) {
                const Array2D<double> ref =
                    gen.generate(tile_rect(opt.shape, keys[i]));
                if (tiles[i] == nullptr || max_abs_diff(*tiles[i], ref) != 0.0) {
                    ++mismatches[static_cast<std::size_t>(c)];
                }
            }
        });
    }
    for (auto& th : clients) {
        th.join();
    }
    for (int c = 0; c < kClients; ++c) {
        EXPECT_EQ(mismatches[static_cast<std::size_t>(c)], 0)
            << "client " << c << " received a tile differing from reference";
    }
    // Duplicated keys across batches coalesce or hit cache; the identity
    // over the metric counters must survive the storm.
    const MetricsSnapshot m = service.metrics();
    EXPECT_EQ(m.cache_misses, m.generations + m.coalesced + m.l2_promotions);
}

// --- ThreadPool::shared(): submission churn from many threads -----------------

TEST(RaceThreadPool, SharedPoolSubmissionChurn) {
    constexpr int kThreads = 4;
    constexpr int kTasksPerThread = 64;
    std::atomic<std::int64_t> sum{0};
    std::latch start{kThreads};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            std::vector<std::future<int>> futures;
            futures.reserve(kTasksPerThread);
            for (int i = 0; i < kTasksPerThread; ++i) {
                const int v = t * kTasksPerThread + i;
                futures.push_back(ThreadPool::shared().submit([v] { return v; }));
            }
            if (t == 0) {
                ThreadPool::shared().wait_idle();  // reader racing the queue
            }
            for (auto& f : futures) {
                sum.fetch_add(f.get(), std::memory_order_relaxed);
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    const std::int64_t n = kThreads * kTasksPerThread;
    EXPECT_EQ(sum.load(std::memory_order_relaxed), n * (n - 1) / 2);
    ThreadPool::shared().wait_idle();
}

// --- MetricsRegistry: registration races + concurrent export ------------------

TEST(RaceMetricsRegistry, ConcurrentRegistrationAndExport) {
    constexpr int kThreads = 6;
    constexpr int kNames = 8;
    constexpr int kIncrements = 200;
    obs::MetricsRegistry registry;
    std::latch start{kThreads + 1};
    std::atomic<bool> done{false};

    // kThreads writers race to create/look up the SAME names and bump them…
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            start.arrive_and_wait();
            for (int i = 0; i < kIncrements; ++i) {
                const std::string name = "race.c" + std::to_string(i % kNames);
                registry.counter(name).add();
                if (i % 4 == 0) {
                    registry.histogram("race.h").record(static_cast<std::uint64_t>(i));
                }
            }
        });
    }
    // …while one reader exports continuously.
    std::thread exporter([&] {
        start.arrive_and_wait();
        while (!done.load(std::memory_order_acquire)) {
            const std::string json = registry.to_json();
            EXPECT_FALSE(json.empty());
        }
    });
    for (auto& th : threads) {
        th.join();
    }
    done.store(true, std::memory_order_release);
    exporter.join();

    const auto snapshot = registry.snapshot();
    std::uint64_t total = 0;
    for (const auto& [name, value] : snapshot.counters) {
        total += value;
    }
    EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kIncrements);
    // Kind clash stays detected under concurrency (same mutex path).
    EXPECT_THROW((void)registry.gauge("race.h"), StateError);
}

// --- Trace rings: fill (with wrap-around) vs. live export ---------------------
// Regression test for the ring-slot race fixed in this tier's PR: slots are
// now atomic fields and the exporter discards anything the writer could have
// lapped, so exporting DURING recording is data-race-free and yields only
// fully-published spans.

TEST(RaceTrace, RingFillAndWrapVersusLiveExport) {
    constexpr int kWriters = 3;
    // > kRingCapacity (16384) spans per writer forces wrap-around lapping
    // while the exporter is mid-copy.
    constexpr int kSpansPerWriter = 40000;
    obs::trace_reset();
    obs::trace_enable();

    std::latch start{kWriters + 1};
    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&] {
            start.arrive_and_wait();
            for (int i = 0; i < kSpansPerWriter; ++i) {
                RRS_TRACE_SPAN("race.span");
            }
        });
    }
    std::atomic<int> exports{0};
    std::thread exporter([&] {
        start.arrive_and_wait();
        while (!done.load(std::memory_order_acquire)) {
            for (const obs::TraceEvent& e : obs::trace_events()) {
                // Every exported span must be fully published — no nulls, no
                // mixed-slot time travel.
                ASSERT_NE(e.name, nullptr);
                ASSERT_EQ(std::string(e.name), "race.span");
                ASSERT_LE(e.t0_ns, e.t1_ns);
            }
            exports.fetch_add(1, std::memory_order_relaxed);
        }
    });
    for (auto& th : writers) {
        th.join();
    }
    done.store(true, std::memory_order_release);
    exporter.join();
    obs::trace_disable();

    EXPECT_GE(exports.load(std::memory_order_relaxed), 1);
    // Wrap-around definitely happened…
    EXPECT_GT(obs::trace_dropped(), 0u);
    // …and a quiesced export still sees full rings.
    EXPECT_GE(obs::trace_events().size(), std::size_t{16384});
    obs::trace_reset();
}

// --- ServiceMetrics: export racing the hot update path ------------------------

TEST(RaceServiceMetrics, ExportDuringUpdateKeepsInvariants) {
    constexpr int kThreads = 4;
    constexpr int kRequestsPerThread = 300;
    auto gen = [](const Rect& r) { return stamp_tile(r); };
    TileService service(gen, /*fingerprint=*/99,
                        {.shape = TileShape{16, 16}}, nullptr);

    std::latch start{kThreads + 1};
    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            for (int i = 0; i < kRequestsPerThread; ++i) {
                (void)service.get(TileKey{(t * 7 + i) % 5, i % 3});
            }
        });
    }
    std::thread exporter([&] {
        start.arrive_and_wait();
        while (!done.load(std::memory_order_acquire)) {
            const MetricsSnapshot m = service.metrics();
            // Mid-flight snapshots may be momentarily ahead/behind between
            // counters, but never violate the monotone bound…
            EXPECT_LE(m.cache_hits, m.requests);
            EXPECT_FALSE(m.to_json().empty());
        }
    });
    for (auto& th : threads) {
        th.join();
    }
    done.store(true, std::memory_order_release);
    exporter.join();

    // …and the quiesced snapshot satisfies the exact identities.
    const MetricsSnapshot m = service.metrics();
    EXPECT_EQ(m.requests, static_cast<std::uint64_t>(kThreads) * kRequestsPerThread);
    EXPECT_EQ(m.cache_hits + m.cache_misses, m.requests);
    EXPECT_EQ(m.generations + m.coalesced, m.cache_misses);
    EXPECT_EQ(m.latency.samples, m.requests);
}

// --- net: first requests for one tile racing to encode and store its body ----

TEST(RaceNet, ConcurrentFirstRequestsServeIdenticalStoredBodies) {
    // Every encoding's first requests race: each encodes, one body is kept
    // on the cache entry, and every response carries the same bytes.  TSan
    // watches the body slots against the readers.
    constexpr int kThreads = 6;
    TileService::Options opt;
    opt.shape = TileShape{64, 64};
    auto service = std::make_shared<TileService>(
        [](const Rect& r) { return stamp_tile(r); }, /*fingerprint=*/0, opt, nullptr);
    net::SceneServices scenes;
    scenes.emplace("scene", service);
    obs::MetricsRegistry registry;
    const net::Router router = net::make_tile_router(std::move(scenes), &registry);

    for (const char* q : {"f32", "i16", "f64"}) {
        const net::HttpRequest req =
            net::parse_request_head(std::string("GET /v1/tile?tx=2&ty=-1&q=") + q +
                                    " HTTP/1.1\r\n");
        std::latch start{kThreads};
        std::vector<net::HttpResponse> responses(kThreads);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                start.arrive_and_wait();
                responses[static_cast<std::size_t>(t)] = router.dispatch(req);
            });
        }
        for (std::thread& th : threads) {
            th.join();
        }
        const net::HttpResponse again = router.dispatch(req);
        for (const net::HttpResponse& resp : responses) {
            ASSERT_EQ(resp.status, 200) << q;
            EXPECT_EQ(resp.body(), again.body()) << q;
            EXPECT_EQ(resp.extra_headers, again.extra_headers) << q;
        }
    }
}

// --- net: concurrent clients racing the graceful drain ------------------------

TEST(RaceNet, ConcurrentClientsVersusGracefulDrain) {
    // Clients hammer keep-alive requests while stop() drains: the drain
    // sweep (shutdown on idle sockets) races request handling, slot
    // unregistration, and the metric writes.  Invariant under test: every
    // response a client DID receive is well-formed, and the quiesced
    // registry satisfies requests == 2xx + 4xx + 5xx + shed.
    constexpr int kClients = 6;
    net::Router router;
    router.add("/work", [](const net::HttpRequest&) {
        return net::HttpResponse::text(200, "w");
    });
    obs::MetricsRegistry registry;
    net::HttpServer::Options opt;
    opt.workers = 4;
    opt.max_connections = kClients + 2;  // admission is not under test here
    opt.registry = &registry;
    net::HttpServer server(std::move(router), opt);
    server.start();
    const std::uint16_t port = server.port();

    std::latch start{kClients + 1};
    std::atomic<std::uint64_t> ok_responses{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&] {
            start.arrive_and_wait();
            net::HttpClient::Options copt;
            copt.timeout_ms = 2000;
            net::HttpClient client("127.0.0.1", port, copt);
            for (int i = 0; i < 200; ++i) {
                try {
                    const net::ClientResponse resp = client.get("/work");
                    if (resp.status == 200) {
                        EXPECT_EQ(resp.body, "w");
                        ok_responses.fetch_add(1, std::memory_order_relaxed);
                    } else {
                        EXPECT_EQ(resp.status, 503);  // only other legal answer
                    }
                } catch (const IoError&) {
                    return;  // drain won the race — connection refused/cut
                }
            }
        });
    }
    start.arrive_and_wait();
    // Let traffic flow, then drain in the middle of it.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.stop();
    for (auto& th : clients) {
        th.join();
    }

    EXPECT_GT(ok_responses.load(std::memory_order_relaxed), 0u);
    EXPECT_EQ(registry.counter("net.requests").value(),
              registry.counter("net.status_2xx").value() +
                  registry.counter("net.status_4xx").value() +
                  registry.counter("net.status_5xx").value() +
                  registry.counter("net.shed").value());
    // Every client response observed by the test was also counted.
    EXPECT_GE(registry.counter("net.status_2xx").value(),
              ok_responses.load(std::memory_order_relaxed));
    EXPECT_EQ(registry.gauge("net.active").value(), 0);
}

// --- net: the shed path racing the accept loop --------------------------------

TEST(RaceNet, ShedPathVersusAcceptLoop) {
    // A tiny admission cap under a connection storm: the acceptor
    // concurrently admits, sheds, and recycles slots while workers serve
    // and unregister.  TSan watches the slot lifecycle; the functional
    // invariants are the accounting identity and full drain.
    net::Router router;
    router.add("/spin", [](const net::HttpRequest&) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return net::HttpResponse::text(200, "s");
    });
    obs::MetricsRegistry registry;
    net::HttpServer::Options opt;
    opt.workers = 2;
    opt.max_connections = 2;
    opt.registry = &registry;
    net::HttpServer server(std::move(router), opt);
    server.start();
    const std::uint16_t port = server.port();

    constexpr int kThreads = 8;
    std::latch start{kThreads};
    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> shed{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            start.arrive_and_wait();
            for (int i = 0; i < 40; ++i) {
                try {
                    // Fresh connection every time: maximal accept/shed churn.
                    net::HttpClient::Options copt;
                    copt.timeout_ms = 2000;
                    net::HttpClient client("127.0.0.1", port, copt);
                    const net::ClientResponse resp = client.get("/spin");
                    if (resp.status == 200) {
                        served.fetch_add(1, std::memory_order_relaxed);
                    } else {
                        EXPECT_EQ(resp.status, 503);
                        shed.fetch_add(1, std::memory_order_relaxed);
                    }
                } catch (const IoError&) {
                    // Accept queue overflow under the storm — acceptable.
                }
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    server.stop();

    EXPECT_GT(served.load(std::memory_order_relaxed), 0u);
    EXPECT_EQ(registry.counter("net.requests").value(),
              registry.counter("net.status_2xx").value() +
                  registry.counter("net.status_4xx").value() +
                  registry.counter("net.status_5xx").value() +
                  registry.counter("net.shed").value());
    EXPECT_EQ(registry.counter("net.shed").value(),
              shed.load(std::memory_order_relaxed));
    EXPECT_EQ(registry.gauge("net.active").value(), 0);
    EXPECT_EQ(server.active_connections(), 0u);
}

}  // namespace
}  // namespace rrs
