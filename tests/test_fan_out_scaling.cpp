// The batch fan-out timing regression of the tile service, in a binary of
// its own: it measures how a cold batch scales from 1 to 4 pool threads, so
// it is registered RUN_SERIAL (tests/CMakeLists.txt) — other test processes
// running beside it take the cores it measures.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "core/convolution.hpp"
#include "parallel/thread_pool.hpp"
#include "service/tile_service.hpp"

namespace rrs {
namespace {

ConvolutionGenerator make_gen(std::uint64_t seed) {
    const auto s = make_gaussian({1.0, 6.0, 6.0});
    return ConvolutionGenerator(
        ConvolutionKernel::build_truncated(*s, GridSpec::unit_spacing(64, 64), 1e-8),
        seed);
}

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
