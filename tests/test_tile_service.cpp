// Tests for the tile service layer (src/service/): random access through
// the sharded LRU cache must reproduce one-shot generation (the
// random-access extension of the streaming seam guarantee), concurrent
// requests for one cold tile must coalesce into a single generation, and
// the cache must honour its byte budget under a request storm.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"

#include "core/convolution.hpp"
#include "core/inhomogeneous.hpp"
#include "service/tile_service.hpp"

namespace rrs {
namespace {

ConvolutionGenerator make_gen(std::uint64_t seed) {
    const auto s = make_gaussian({1.0, 6.0, 6.0});
    return ConvolutionGenerator(
        ConvolutionKernel::build_truncated(*s, GridSpec::unit_spacing(64, 64), 1e-8),
        seed);
}

InhomogeneousGenerator make_inhomogeneous(std::uint64_t seed) {
    const auto map = std::make_shared<const CircleMap>(
        24.0, 40.0, 16.0, make_gaussian({0.3, 4.0, 4.0}), make_gaussian({1.0, 4.0, 4.0}),
        6.0);
    return InhomogeneousGenerator(map, GridSpec::unit_spacing(64, 64), seed, {});
}

/// Cheap deterministic stand-in generator for cache-mechanics tests: the
/// tile payload encodes the lattice coordinates, so stale or mis-keyed
/// cache entries are detectable.
Array2D<double> stamp_tile(const Rect& r, double tag) {
    Array2D<double> out(static_cast<std::size_t>(r.nx), static_cast<std::size_t>(r.ny));
    for (std::size_t iy = 0; iy < out.ny(); ++iy) {
        for (std::size_t ix = 0; ix < out.nx(); ++ix) {
            out(ix, iy) = tag + static_cast<double>(r.x0 + static_cast<std::int64_t>(ix)) +
                          1000.0 * static_cast<double>(r.y0 + static_cast<std::int64_t>(iy));
        }
    }
    return out;
}

// --- tile addressing ---------------------------------------------------------

TEST(TileKeyGeometry, RectAndContainingTileAgreeAcrossOrigin) {
    const TileShape shape{16, 8};
    EXPECT_EQ(tile_rect(shape, {0, 0}), (Rect{0, 0, 16, 8}));
    EXPECT_EQ(tile_rect(shape, {-1, -1}), (Rect{-16, -8, 16, 8}));
    EXPECT_EQ(tile_rect(shape, {3, -2}), (Rect{48, -16, 16, 8}));
    for (const std::int64_t x : {-17, -16, -1, 0, 15, 16, 47}) {
        for (const std::int64_t y : {-9, -8, -1, 0, 7, 8}) {
            const TileKey k = containing_tile(shape, x, y);
            EXPECT_TRUE(tile_rect(shape, k).contains(x, y))
                << "point (" << x << "," << y << ") not inside its tile";
        }
    }
}

TEST(TileKeyGeometry, CoveringTilesExactlyTileTheRegion) {
    const TileShape shape{16, 8};
    const Rect region{-20, -5, 45, 20};
    const auto keys = covering_tiles(shape, region);
    // Every lattice point of the region lies in exactly one returned tile.
    std::int64_t covered = 0;
    for (const TileKey& k : keys) {
        const Rect overlap = intersect(tile_rect(shape, k), region);
        EXPECT_FALSE(overlap.empty()) << "useless tile in cover";
        covered += overlap.area();
    }
    EXPECT_EQ(covered, region.area());
    EXPECT_TRUE(covering_tiles(shape, Rect{0, 0, 0, 5}).empty());
}

TEST(TileKeyGeometry, HaloRectDilatesOutputWindow) {
    const TileShape shape{16, 16};
    const Rect with_halo = tile_rect_with_halo(shape, {1, 1}, 4, 2);
    EXPECT_EQ(with_halo, (Rect{12, 14, 24, 20}));
}

// --- random access == one-shot ----------------------------------------------

TEST(TileService, SingleTileIsBitIdenticalToDirectGeneration) {
    const auto gen = make_gen(5);
    TileService::Options opt;
    opt.shape = TileShape{24, 16};
    TileService service(gen, opt);
    // Same rectangle, same generator → the exact same computation: bitwise
    // equal (cf. Streaming.TileOrderDoesNotMatter).
    for (const TileKey key : {TileKey{0, 0}, TileKey{-2, 1}, TileKey{3, -4}}) {
        const TilePtr tile = service.get(key);
        EXPECT_EQ(*tile, gen.generate(tile_rect(opt.shape, key)));
    }
}

TEST(TileService, RandomAccessWindowMatchesOneShotConvolution) {
    const auto gen = make_gen(17);
    TileService::Options opt;
    opt.shape = TileShape{24, 16};
    TileService service(gen, opt);
    // Warm some tiles in scrambled order first — access order must not
    // matter (noise is a pure function of lattice coordinates).
    (void)service.get({2, 2});
    (void)service.get({-1, 0});
    (void)service.get({0, -1});
    const Rect region{-20, -10, 70, 50};  // crosses tile seams and the origin
    const Array2D<double> served = service.window(region);
    const Array2D<double> oneshot = gen.generate(region);
    EXPECT_LT(max_abs_diff(served, oneshot), 1e-12);
}

TEST(TileService, RandomAccessWindowMatchesOneShotInhomogeneous) {
    const auto gen = make_inhomogeneous(11);
    TileService::Options opt;
    opt.shape = TileShape{20, 20};
    TileService service(gen, opt);
    const Rect region{-8, -12, 64, 72};
    const Array2D<double> served = service.window(region);
    const Array2D<double> oneshot = gen.generate(region);
    EXPECT_LT(max_abs_diff(served, oneshot), 1e-12);
}

TEST(TileService, WindowFromManyThreadsStaysConsistent) {
    const auto gen = make_gen(23);
    TileService::Options opt;
    opt.shape = TileShape{16, 16};
    ThreadPool pool(4);
    opt.pool = &pool;
    TileService service(gen, opt);
    const Rect region{-10, -10, 52, 52};
    const Array2D<double> expected = gen.generate(region);
    std::vector<std::thread> threads;
    std::atomic<int> mismatches{0};
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int r = 0; r < 3; ++r) {
                if (max_abs_diff(service.window(region), expected) > 1e-12) {
                    mismatches.fetch_add(1);
                }
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_EQ(mismatches.load(), 0);
    const MetricsSnapshot m = service.metrics();
    EXPECT_EQ(m.requests, m.cache_hits + m.cache_misses);
    EXPECT_EQ(m.cache_misses, m.generations + m.coalesced);
}

// --- request coalescing ------------------------------------------------------

/// Generator that blocks every generation on a latch and counts calls —
/// lets the test hold a tile "in flight" while concurrent requests pile up.
struct GatedGenerator {
    std::atomic<int>* calls;
    std::latch* gate;

    Array2D<double> generate(const Rect& r) const {
        calls->fetch_add(1);
        gate->wait();
        return stamp_tile(r, 0.0);
    }
};

TEST(TileService, ConcurrentColdRequestsCoalesceIntoOneGeneration) {
    constexpr int kThreads = 8;
    std::atomic<int> calls{0};
    std::latch gate{1};
    const GatedGenerator gen{&calls, &gate};
    TileService::Options opt;
    opt.shape = TileShape{8, 8};
    TileService service(gen, opt);

    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            const TilePtr tile = service.get({0, 0});
            if (!tile || tile->nx() != 8) {
                failures.fetch_add(1);
            }
        });
    }
    // Wait until every request has either led the generation or parked on
    // it; the gate keeps the single generation in flight meanwhile.
    for (;;) {
        const MetricsSnapshot m = service.metrics();
        if (m.generations + m.coalesced == kThreads) {
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    gate.count_down();
    for (auto& th : threads) {
        th.join();
    }

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(calls.load(), 1);  // exactly one generation ran
    const MetricsSnapshot m = service.metrics();
    EXPECT_EQ(m.generations, 1u);
    EXPECT_EQ(m.coalesced, static_cast<std::uint64_t>(kThreads - 1));
    EXPECT_EQ(m.cache_misses, static_cast<std::uint64_t>(kThreads));
    EXPECT_EQ(m.cache_hits, 0u);
    EXPECT_EQ(m.requests, m.cache_hits + m.cache_misses);
    // The generated tile is now cached: one more request is a pure hit.
    (void)service.get({0, 0});
    EXPECT_EQ(service.metrics().cache_hits, 1u);
    EXPECT_EQ(service.metrics().generations, 1u);
}

TEST(TileService, FailedGenerationPropagatesToAllWaitersAndIsRetried) {
    std::atomic<int> calls{0};
    auto flaky = [&calls](const Rect& r) -> Array2D<double> {
        if (calls.fetch_add(1) == 0) {
            throw NumericError("synthetic failure", {"flaky"});
        }
        return stamp_tile(r, 0.0);
    };
    TileService::Options opt;
    opt.shape = TileShape{8, 8};
    TileService service(flaky, /*fingerprint=*/0, opt, nullptr);

    EXPECT_THROW((void)service.get({0, 0}), NumericError);
    const MetricsSnapshot after_failure = service.metrics();
    EXPECT_EQ(after_failure.generation_failures, 1u);
    EXPECT_EQ(after_failure.cache_tiles, 0u);  // failure was not cached
    // The next request retries and succeeds.
    const TilePtr tile = service.get({0, 0});
    ASSERT_NE(tile, nullptr);
    EXPECT_EQ(calls.load(), 2);
}

// --- cache byte budget -------------------------------------------------------

TEST(TileService, CacheStaysWithinByteBudgetUnderRequestStorm) {
    // 16x16 doubles = 2 KiB per tile; budget of 16 KiB across 4 shards.
    const TileShape shape{16, 16};
    auto cheap = [](const Rect& r) { return stamp_tile(r, 0.5); };
    TileService::Options opt;
    opt.shape = shape;
    opt.cache_bytes = 16u << 10;
    opt.cache_shards = 4;
    ThreadPool pool(4);
    opt.pool = &pool;
    TileService service(cheap, /*fingerprint=*/0, opt, nullptr);

    std::vector<TileKey> keys;
    for (std::int64_t t = 0; t < 64; ++t) {
        keys.push_back(TileKey{t % 13, t / 13});
    }
    for (int round = 0; round < 6; ++round) {
        const auto tiles = service.get_many(keys);
        // Served tiles are always valid even when instantly evicted.
        for (std::size_t i = 0; i < keys.size(); ++i) {
            ASSERT_NE(tiles[i], nullptr);
            EXPECT_EQ(*tiles[i], stamp_tile(tile_rect(shape, keys[i]), 0.5));
        }
        const MetricsSnapshot m = service.metrics();
        EXPECT_LE(m.cache_bytes, opt.cache_bytes) << "budget violated round " << round;
        EXPECT_EQ(m.requests, m.cache_hits + m.cache_misses);
        EXPECT_EQ(m.cache_misses, m.generations + m.coalesced);
    }
    EXPECT_GT(service.metrics().cache_evictions, 0u);
}

TEST(TileCacheDirect, EvictsLeastRecentlyUsedFirst) {
    // Single shard, room for exactly two 1 KiB tiles.
    TileCache cache(2048, 1);
    auto tile = [] {
        return std::make_shared<const Array2D<double>>(16, 8, 1.0);  // 1 KiB
    };
    const TileAddress a{1, {0, 0}};
    const TileAddress b{1, {1, 0}};
    const TileAddress c{1, {2, 0}};
    cache.insert(a, tile());
    cache.insert(b, tile());
    EXPECT_NE(cache.find(a), nullptr);  // refresh a: b is now coldest
    cache.insert(c, tile());
    EXPECT_EQ(cache.find(b), nullptr);  // b evicted
    EXPECT_NE(cache.find(a), nullptr);
    EXPECT_NE(cache.find(c), nullptr);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_LE(cache.stats().bytes, 2048u);
}

TEST(TileCacheDirect, OversizedTileIsServedButNotRetained) {
    TileCache cache(1024, 1);
    const TileAddress a{1, {0, 0}};
    cache.insert(a, std::make_shared<const Array2D<double>>(64, 64, 1.0));  // 32 KiB
    EXPECT_EQ(cache.find(a), nullptr);
    EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(TileCacheDirect, FingerprintsKeepGeneratorsApart) {
    TileCache cache(1u << 20, 4);
    const TileKey key{3, -2};
    cache.insert(TileAddress{111, key},
                 std::make_shared<const Array2D<double>>(4, 4, 1.0));
    EXPECT_EQ(cache.find(TileAddress{222, key}), nullptr);
    EXPECT_NE(cache.find(TileAddress{111, key}), nullptr);
}

TEST(TileService, SharedCacheIsKeyedByFingerprintNotTileKey) {
    auto cache = std::make_shared<TileCache>(1u << 20, 4);
    TileService::Options opt;
    opt.shape = TileShape{8, 8};
    // Two distinct unfingerprinted generators sharing one cache must not
    // serve each other's tiles.
    TileService a([](const Rect& r) { return stamp_tile(r, 1.0); }, 0, opt, cache);
    TileService b([](const Rect& r) { return stamp_tile(r, 2.0); }, 0, opt, cache);
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    const TilePtr ta = a.get({0, 0});
    const TilePtr tb = b.get({0, 0});
    EXPECT_NE(*ta, *tb);
    EXPECT_EQ((*ta)(1, 0), 2.0);  // tag 1.0 + x=1
    EXPECT_EQ((*tb)(1, 0), 3.0);  // tag 2.0 + x=1
    // Same fingerprint + same cache → real sharing: a second service over
    // an equal generator hits without generating.
    const auto gen = make_gen(99);
    TileService c(gen, opt, cache);
    TileService d(gen, opt, cache);
    (void)c.get({1, 1});
    (void)d.get({1, 1});
    EXPECT_EQ(d.metrics().generations, 0u);
    EXPECT_EQ(d.metrics().cache_hits, 1u);
}

// --- metrics -----------------------------------------------------------------

TEST(ServiceMetrics, SnapshotJsonIsWellFormedAndConsistent) {
    const auto gen = make_gen(3);
    TileService::Options opt;
    opt.shape = TileShape{16, 16};
    TileService service(gen, opt);
    (void)service.get({0, 0});
    (void)service.get({0, 0});
    (void)service.get({1, 0});
    const MetricsSnapshot m = service.metrics();
    EXPECT_EQ(m.requests, 3u);
    EXPECT_EQ(m.cache_hits, 1u);
    EXPECT_EQ(m.cache_misses, 2u);
    EXPECT_EQ(m.generations, 2u);
    EXPECT_NEAR(m.hit_rate(), 1.0 / 3.0, 1e-12);
    EXPECT_EQ(m.latency.samples, 3u);
    EXPECT_GT(m.cache_bytes, 0u);

    const std::string json = m.to_json();
    for (const char* key :
         {"\"requests\":3", "\"cache_hits\":1", "\"cache_misses\":2", "\"generations\":2",
          "\"coalesced\":0", "\"cache_bytes\":", "\"hit_rate\":", "\"p99_us\":",
          "\"buckets_us\":"}) {
        EXPECT_NE(json.find(key), std::string::npos) << "missing " << key << " in " << json;
    }
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(ServiceMetrics, LatencyHistogramBucketsAreLogSpaced) {
    EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucket_of(1), 0u);
    EXPECT_EQ(LatencyHistogram::bucket_of(2), 1u);
    EXPECT_EQ(LatencyHistogram::bucket_of(3), 1u);
    EXPECT_EQ(LatencyHistogram::bucket_of(4), 2u);
    EXPECT_EQ(LatencyHistogram::bucket_of(1024), 10u);
    // Overflow clamps to the last bucket.
    EXPECT_EQ(LatencyHistogram::bucket_of(~std::uint64_t{0}),
              LatencyHistogram::kBuckets - 1);
    EXPECT_EQ(LatencyHistogram::bucket_floor_us(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucket_floor_us(10), 1024u);
}

// --- input validation --------------------------------------------------------

TEST(TileService, RejectsBadConfiguration) {
    const auto gen = make_gen(1);
    TileService::Options bad_shape;
    bad_shape.shape = TileShape{0, 16};
    EXPECT_THROW(TileService(gen, bad_shape), ConfigError);
    EXPECT_THROW(TileCache(0), ConfigError);
    TileService::Options opt;
    opt.shape = TileShape{16, 16};
    TileService service(gen, opt);
    // Negative extents are malformed requests; degenerate (zero) extents
    // are valid empty requests (see DegenerateWindowIsEmpty).
    EXPECT_THROW((void)service.window(Rect{0, 0, -1, 4}), ConfigError);
    EXPECT_THROW((void)service.window(Rect{0, 0, 4, -2}), ConfigError);
}

TEST(TileService, DegenerateWindowIsEmpty) {
    const auto gen = make_gen(9);
    TileService::Options opt;
    opt.shape = TileShape{16, 16};
    TileService service(gen, opt);
    for (const Rect r : {Rect{0, 0, 0, 4}, Rect{-3, 7, 5, 0}, Rect{2, 2, 0, 0}}) {
        const Array2D<double> w = service.window(r);
        EXPECT_EQ(w.nx(), static_cast<std::size_t>(r.nx));
        EXPECT_EQ(w.ny(), static_cast<std::size_t>(r.ny));
        EXPECT_EQ(w.size(), 0u);
    }
    // Empty requests touch no tiles: the metrics stay silent.
    const MetricsSnapshot m = service.metrics();
    EXPECT_EQ(m.requests, 0u);
    EXPECT_EQ(m.generations, 0u);
}

// --- cluster hooks: peek & remote fill ---------------------------------------

TEST(TileService, PeekNeverGeneratesAndIsMetricsNeutral) {
    auto gen = [](const Rect& r) { return stamp_tile(r, 0.0); };
    TileService::Options opt;
    opt.shape = TileShape{16, 16};
    TileService service(gen, /*fingerprint=*/21, opt, nullptr);
    const TileKey key{1, 2, 0};
    EXPECT_EQ(service.peek(key), nullptr);  // cold: no generation
    const TilePtr tile = service.get(key);
    const MetricsSnapshot before = service.metrics();
    const TilePtr peeked = service.peek(key);
    ASSERT_NE(peeked, nullptr);
    EXPECT_EQ(*peeked, *tile);
    // peek records no service metrics — the cluster peer-fill path must not
    // distort the serving node's request/hit accounting.
    const MetricsSnapshot after = service.metrics();
    EXPECT_EQ(after.requests, before.requests);
    EXPECT_EQ(after.cache_hits, before.cache_hits);
    EXPECT_EQ(after.generations, 1u);
    EXPECT_THROW((void)service.peek(TileKey{0, 0, -1}), ConfigError);
}

TEST(TileService, RemoteFillServesMovedKeysAndKeepsTheIdentity) {
    const TileShape shape{16, 16};
    TileService::Options opt;
    opt.shape = shape;
    std::size_t fill_calls = 0;
    // A "peer" that has every even-tx tile cached (payload tagged so a
    // mis-served fill is detectable) and misses the rest.
    opt.remote_fill = [&fill_calls, shape](const TileKey& key) -> TilePtr {
        ++fill_calls;
        if (key.tx % 2 != 0) {
            return nullptr;
        }
        return std::make_shared<const Array2D<double>>(
            stamp_tile(tile_rect(shape, key), 0.5));
    };
    TileService service([](const Rect& r) { return stamp_tile(r, 0.5); },
                        /*fingerprint=*/22, opt, nullptr);
    for (std::int64_t tx = 0; tx < 6; ++tx) {
        const TilePtr tile = service.get(TileKey{tx, 0, 0});
        EXPECT_EQ(*tile, stamp_tile(tile_rect(shape, TileKey{tx, 0, 0}), 0.5));
    }
    EXPECT_EQ(fill_calls, 6u);
    const MetricsSnapshot m = service.metrics();
    EXPECT_EQ(m.remote_fills, 3u);  // tx 0, 2, 4 came from the peer
    EXPECT_EQ(m.generations, 3u);   // tx 1, 3, 5 fell through
    // The miss ledger: misses == generations + coalesced + l2 + remote.
    EXPECT_EQ(m.cache_misses,
              m.generations + m.coalesced + m.l2_promotions + m.remote_fills);
    // Filled tiles are cached like generated ones: a re-request is a hit
    // and never re-consults the peer.
    (void)service.get(TileKey{0, 0, 0});
    EXPECT_EQ(fill_calls, 6u);
    EXPECT_EQ(service.metrics().cache_hits, 1u);
}

TEST(TileService, WrongShapedRemoteFillIsDiscardedNotServed) {
    TileService::Options opt;
    opt.shape = TileShape{16, 16};
    opt.remote_fill = [](const TileKey&) -> TilePtr {
        // A misconfigured peer serving 8×8 tiles must not poison the cache.
        return std::make_shared<const Array2D<double>>(
            stamp_tile(Rect{0, 0, 8, 8}, 9.0));
    };
    TileService service([](const Rect& r) { return stamp_tile(r, 0.0); },
                        /*fingerprint=*/23, opt, nullptr);
    const TilePtr tile = service.get(TileKey{0, 0, 0});
    EXPECT_EQ(*tile, stamp_tile(Rect{0, 0, 16, 16}, 0.0));
    const MetricsSnapshot m = service.metrics();
    EXPECT_EQ(m.remote_fills, 0u);
    EXPECT_EQ(m.generations, 1u);
}

TEST(TileService, SetRemoteFillInstallsTheHookAfterConstruction) {
    TileService::Options opt;
    opt.shape = TileShape{16, 16};
    TileService service([](const Rect& r) { return stamp_tile(r, 0.0); },
                        /*fingerprint=*/24, opt, nullptr);
    service.set_remote_fill([](const TileKey& key) -> TilePtr {
        return std::make_shared<const Array2D<double>>(
            stamp_tile(tile_rect(TileShape{16, 16}, key), 0.0));
    });
    (void)service.get(TileKey{3, 3, 0});
    EXPECT_EQ(service.metrics().remote_fills, 1u);
    EXPECT_EQ(service.metrics().generations, 0u);
}

// --- zoom pyramid addressing -------------------------------------------------

TEST(TileKeyZoom, StrideAndBaseRectScaleWithLevel) {
    EXPECT_EQ(zoom_stride(0), 1);
    EXPECT_EQ(zoom_stride(3), 8);
    EXPECT_THROW((void)zoom_stride(-1), ConfigError);
    EXPECT_THROW((void)zoom_stride(kMaxZoom + 1), ConfigError);
    const TileShape shape{16, 8};
    EXPECT_EQ(tile_base_rect(shape, {0, 0, 0}), (Rect{0, 0, 16, 8}));
    EXPECT_EQ(tile_base_rect(shape, {1, -1, 2}), (Rect{64, -32, 64, 32}));
}

TEST(TileKeyZoom, ParentChildrenRoundTripAcrossTheOrigin) {
    for (const std::int64_t tx : {-3, -2, -1, 0, 1, 2}) {
        for (const std::int64_t ty : {-2, -1, 0, 1}) {
            const TileKey parent{tx, ty, 1};
            for (const TileKey& child : tile_children(parent)) {
                EXPECT_EQ(child.z, 0);
                EXPECT_EQ(tile_parent(child), parent)
                    << "child (" << child.tx << "," << child.ty
                    << ") does not nest under (" << tx << "," << ty << ")";
            }
        }
    }
    EXPECT_THROW((void)tile_children(TileKey{0, 0, 0}), ConfigError);
}

TEST(TileKeyZoom, ChildrenExactlyTileTheParentFootprint) {
    const TileShape shape{16, 8};
    const TileKey parent{-1, 2, 3};
    const Rect footprint = tile_base_rect(shape, parent);
    std::int64_t covered = 0;
    for (const TileKey& child : tile_children(parent)) {
        const Rect r = tile_base_rect(shape, child);
        const Rect overlap = intersect(r, footprint);
        EXPECT_EQ(overlap.area(), r.area()) << "child leaks past the parent";
        covered += r.area();
    }
    EXPECT_EQ(covered, footprint.area());
}

TEST(TileService, ZoomedTileIsDecimationOfTheBaseLattice) {
    const auto gen = make_gen(5);
    TileService::Options opt;
    opt.shape = TileShape{16, 16};
    TileService service(gen, opt);
    // Sample (i, j) of a zoom-z tile must be base-lattice point
    // (rect.x0 + i·2^z, rect.y0 + j·2^z), bit-exactly — the pyramid is a
    // pure decimation of the served base surface, not a re-generation.
    // (window() assembles the same base tiles, so equality is bitwise; a
    // one-shot generation of the footprint agrees only to ~1e-12, cf.
    // RandomAccessWindowMatchesOneShotConvolution.)
    for (const TileKey key : {TileKey{0, 0, 1}, TileKey{1, -1, 2}}) {
        const Rect base_rect = tile_base_rect(opt.shape, key);
        const Array2D<double> base = service.window(base_rect);
        const std::int64_t s = zoom_stride(key.z);
        const TilePtr tile = service.get(key);
        ASSERT_EQ(tile->nx(), static_cast<std::size_t>(opt.shape.nx));
        for (std::size_t j = 0; j < tile->ny(); ++j) {
            for (std::size_t i = 0; i < tile->nx(); ++i) {
                ASSERT_EQ((*tile)(i, j),
                          base(static_cast<std::size_t>(s) * i,
                               static_cast<std::size_t>(s) * j))
                    << "zoom " << key.z << " sample (" << i << "," << j << ")";
            }
        }
    }
}

TEST(TileService, ZoomRejectsOddShapesAndBadLevels) {
    const auto gen = make_gen(2);
    TileService::Options odd;
    odd.shape = TileShape{15, 16};
    TileService odd_service(gen, odd);
    // Odd shapes cannot split into children; z = 0 must keep working.
    EXPECT_NO_THROW((void)odd_service.get({0, 0, 0}));
    EXPECT_THROW((void)odd_service.get({0, 0, 1}), ConfigError);
    TileService::Options opt;
    opt.shape = TileShape{16, 16};
    TileService service(gen, opt);
    EXPECT_THROW((void)service.get({0, 0, -1}), ConfigError);
    EXPECT_THROW((void)service.get({0, 0, kMaxZoom + 1}), ConfigError);
}

TEST(TileService, PyramidReturnsEveryLevelTopFirst) {
    auto stamp = [](const Rect& r) { return stamp_tile(r, 0.0); };
    TileService::Options opt;
    opt.shape = TileShape{8, 8};
    TileService service(stamp, /*fingerprint=*/11, opt, nullptr);
    const TileKey top{0, 0, 2};
    const auto tiles = service.pyramid(top, /*min_z=*/0);
    ASSERT_EQ(tiles.size(), 1u + 4u + 16u);
    EXPECT_EQ(tiles.front().first, top);
    std::int32_t prev_z = top.z;
    for (const auto& [key, tile] : tiles) {
        EXPECT_LE(key.z, prev_z) << "levels must run top (coarse) first";
        prev_z = key.z;
        ASSERT_NE(tile, nullptr);
        EXPECT_EQ(*tile, *service.get(key)) << "pyramid tile differs from get()";
    }
    // Every pyramid level rides the cache: each of the 21 tiles is built
    // exactly once (16 base generations + 5 decimations, each a generation
    // event for the metric identity), and re-reading them above hit cache.
    EXPECT_EQ(service.metrics().generations, 21u);
    const MetricsSnapshot m = service.metrics();
    EXPECT_EQ(m.cache_misses, m.generations + m.coalesced + m.l2_promotions);
    EXPECT_THROW((void)service.pyramid(TileKey{0, 0, 1}, /*min_z=*/2), ConfigError);
}

// --- batch fan-out parallel scaling ------------------------------------------

TEST(TileService, BatchFanOutScalesWithPoolThreads) {
    // Regression guard for the nested-parallelism serialization bug: get_many
    // fans cold tiles out across the pool, and each per-tile generation used
    // to open a *nested* OpenMP team, oversubscribing the machine until the
    // batch ran effectively serially.  With the in-pool-worker gate
    // (parallel_for.hpp) each worker generates its tile serially and the
    // batch parallelism is the pool's, so a 4-thread pool must beat a
    // 1-thread pool by a healthy margin on a cold batch.
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw < 4) {
        GTEST_SKIP() << "batch fan-out scaling needs >= 4 hardware threads, "
                     << "this machine reports " << hw;
    }

    // One generator for every run, its kernels built and exercised before
    // any clock starts: the timed batch is tile generation only.  64 cold
    // 64x64 tiles are ~30 ms of serial work — long enough that scheduler
    // noise on a shared host cannot swing the ratio.
    const auto gen = make_gen(404);
    (void)gen.generate(Rect{0, 0, 64, 64});
    const auto timed_batch = [&gen](std::size_t pool_threads) {
        ThreadPool pool(pool_threads);
        TileService::Options opt;
        opt.shape = TileShape{64, 64};
        opt.pool = &pool;
        TileService service(gen, opt);
        std::vector<TileKey> keys;
        for (std::int64_t ty = 0; ty < 8; ++ty) {
            for (std::int64_t tx = 0; tx < 8; ++tx) {
                keys.push_back(TileKey{tx, ty, 0});
            }
        }
        const auto t0 = std::chrono::steady_clock::now();
        const auto tiles = service.get_many(keys);
        const auto t1 = std::chrono::steady_clock::now();
        EXPECT_EQ(tiles.size(), keys.size());
        EXPECT_EQ(service.metrics().generations, keys.size());
        return std::chrono::duration<double>(t1 - t0).count();
    };

    // Warm-up run to settle pool spin-up, then best-of-two per
    // configuration to damp scheduler noise.
    (void)timed_batch(1);
    const double serial = std::min(timed_batch(1), timed_batch(1));
    const double fanout = std::min(timed_batch(4), timed_batch(4));
    EXPECT_GE(serial / fanout, 1.5)
        << "cold 64-tile batch: 1-thread pool took " << serial << " s, 4-thread pool "
        << fanout << " s — fan-out is serialized again";
}

}  // namespace
}  // namespace rrs
