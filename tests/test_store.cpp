// Tests for the persistent L2 tile store (src/store/): round-trip across
// close/reopen, byte-budget eviction and compaction, and the corruption
// suite — truncated segments, flipped payload bytes, foreign/future file
// headers, and mid-write crashes (injected via the `store.write` fault
// site) must all degrade to cold generation with a counter bump, never a
// crash or a wrong-bytes tile.  The TileService integration tests prove
// the warm-restart contract: a fresh service over an existing segment file
// promotes tiles from disk instead of regenerating them, bit-identically.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "fault/inject.hpp"
#include "grid/array2d.hpp"
#include "net/http.hpp"
#include "net/router.hpp"
#include "net/tile_routes.hpp"
#include "obs/metrics.hpp"
#include "service/tile_service.hpp"
#include "store/byte_budget.hpp"
#include "store/tile_store.hpp"

namespace rrs {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test; removed on destruction.
class ScratchDir {
public:
    ScratchDir() {
        dir_ = fs::temp_directory_path() /
               fs::path("rrs_store_test_" +
                        std::to_string(
                            ::testing::UnitTest::GetInstance()->random_seed()) +
                        "_" + ::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    ~ScratchDir() {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    std::string segment() const { return (dir_ / "tiles.rrsstore").string(); }

private:
    fs::path dir_;
};

/// Disarm on scope exit so a failing test never leaks an armed plan.
struct FaultGuard {
    ~FaultGuard() { fault::disarm(); }
};

/// Deterministic payload whose samples encode the address, so a mis-keyed
/// or stale record is detectable by value.
Array2D<double> stamp(const TileAddress& a, std::size_t nx, std::size_t ny) {
    Array2D<double> out(nx, ny);
    for (std::size_t iy = 0; iy < ny; ++iy) {
        for (std::size_t ix = 0; ix < nx; ++ix) {
            out(ix, iy) = static_cast<double>(a.fingerprint) +
                          17.0 * static_cast<double>(a.key.tx) +
                          131.0 * static_cast<double>(a.key.ty) +
                          1.0e6 * a.key.z + static_cast<double>(iy * nx + ix);
        }
    }
    return out;
}

TileAddress addr(std::int64_t tx, std::int64_t ty, std::int32_t z = 0,
                 std::uint64_t fp = 42) {
    return TileAddress{fp, TileKey{tx, ty, z}};
}

/// Flip one byte of the segment file in place.
void flip_byte(const std::string& path, std::uint64_t offset) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f) << path;
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
}

constexpr std::uint64_t kFileHeaderSize = 32;
constexpr std::uint64_t kRecordHeaderSize = 72;

// --- ByteBudget (shared eviction policy) -------------------------------------

TEST(ByteBudget, ChargesReleasesAndReportsOverage) {
    store::ByteBudget b(100);
    EXPECT_EQ(b.budget(), 100u);
    b.charge(60);
    EXPECT_FALSE(b.over());
    b.charge(60);
    EXPECT_TRUE(b.over());
    EXPECT_EQ(b.used(), 120u);
    b.release(30);
    EXPECT_EQ(b.used(), 90u);
    EXPECT_FALSE(b.over());
    b.reset();
    EXPECT_EQ(b.used(), 0u);
}

TEST(ByteBudget, EvictUntilFitStopsWhenUnderOrStuck) {
    store::ByteBudget b(100);
    b.charge(250);
    int victims = 0;
    const std::uint64_t evicted = b.evict_until_fit([&] {
        ++victims;
        return std::size_t{60};  // the loop releases what the victim freed
    });
    EXPECT_EQ(victims, 3);  // 250 -> 190 -> 130 -> 70
    EXPECT_EQ(evicted, 3u);
    EXPECT_FALSE(b.over());

    // An eviction callback that cannot free anything must not spin forever.
    b.charge(200);
    EXPECT_EQ(b.evict_until_fit([] { return std::size_t{0}; }), 0u);
    EXPECT_TRUE(b.over());
}

// --- round-trip and persistence ----------------------------------------------

TEST(TileStore, RoundTripsTilesAcrossReopen) {
    ScratchDir scratch;
    const std::vector<TileAddress> addresses = {addr(0, 0), addr(-3, 7),
                                                addr(2, -1, 1), addr(0, 0, 0, 99)};
    {
        store::TileStore store(scratch.segment());
        for (const TileAddress& a : addresses) {
            store.insert(a, stamp(a, 16, 8));
        }
        EXPECT_EQ(store.stats().appends, addresses.size());
        for (const TileAddress& a : addresses) {
            const auto tile = store.find(a);
            ASSERT_NE(tile, nullptr);
            EXPECT_EQ(*tile, stamp(a, 16, 8));
        }
    }
    // A new instance over the same file recovers the full index.
    store::TileStore store(scratch.segment());
    EXPECT_EQ(store.stats().tiles, addresses.size());
    EXPECT_EQ(store.stats().resets, 0u);
    EXPECT_EQ(store.stats().tail_truncated_bytes, 0u);
    for (const TileAddress& a : addresses) {
        const auto tile = store.find(a);
        ASSERT_NE(tile, nullptr);
        EXPECT_EQ(*tile, stamp(a, 16, 8)) << "payload changed across reopen";
    }
    EXPECT_EQ(store.find(addr(9, 9)), nullptr);
    EXPECT_EQ(store.stats().misses, 1u);
}

TEST(TileStore, AddressesKeepZoomAndFingerprintApart) {
    ScratchDir scratch;
    store::TileStore store(scratch.segment());
    // Same (tx, ty), different zoom / fingerprint: four distinct records.
    const std::vector<TileAddress> aliases = {addr(1, 1, 0, 7), addr(1, 1, 1, 7),
                                              addr(1, 1, 0, 8), addr(1, 1, 2, 7)};
    for (const TileAddress& a : aliases) {
        store.insert(a, stamp(a, 8, 8));
    }
    EXPECT_EQ(store.stats().tiles, aliases.size());
    for (const TileAddress& a : aliases) {
        const auto tile = store.find(a);
        ASSERT_NE(tile, nullptr);
        EXPECT_EQ(*tile, stamp(a, 8, 8));
    }
}

TEST(TileStore, ReinsertSupersedesAndFindReturnsNewest) {
    ScratchDir scratch;
    store::TileStore store(scratch.segment());
    const TileAddress a = addr(4, 4);
    store.insert(a, stamp(a, 8, 8));
    Array2D<double> updated = stamp(a, 8, 8);
    updated(0, 0) = -1234.5;
    store.insert(a, updated);
    EXPECT_EQ(store.stats().tiles, 1u);
    EXPECT_GT(store.stats().dead_bytes, 0u) << "superseded record must die";
    const auto tile = store.find(a);
    ASSERT_NE(tile, nullptr);
    EXPECT_EQ(*tile, updated);
}

// --- byte budget & compaction ------------------------------------------------

TEST(TileStore, EvictsFifoPastByteBudget) {
    ScratchDir scratch;
    store::TileStoreOptions opt;
    // Room for ~3 16x8 tiles (1 KiB payload each).
    opt.byte_budget = 3 * 16 * 8 * sizeof(double) + 100;
    store::TileStore store(scratch.segment(), opt);
    for (std::int64_t i = 0; i < 8; ++i) {
        store.insert(addr(i, 0), stamp(addr(i, 0), 16, 8));
    }
    const auto s = store.stats();
    EXPECT_GT(s.evictions, 0u);
    EXPECT_LE(s.live_bytes, opt.byte_budget);
    // FIFO: the earliest inserts are gone, the latest survive.
    EXPECT_FALSE(store.contains(addr(0, 0)));
    EXPECT_TRUE(store.contains(addr(7, 0)));
    const auto tile = store.find(addr(7, 0));
    ASSERT_NE(tile, nullptr);
    EXPECT_EQ(*tile, stamp(addr(7, 0), 16, 8));
}

TEST(TileStore, CompactionDropsDeadBytesAndSurvivesReopen) {
    ScratchDir scratch;
    store::TileStoreOptions opt;
    opt.byte_budget = std::size_t{1} << 20;
    opt.compact_min_bytes = 0;  // compact even a tiny test segment
    store::TileStore* live = nullptr;
    std::uint64_t compacted_file_bytes = 0;
    {
        store::TileStore store(scratch.segment(), opt);
        live = &store;
        for (std::int64_t i = 0; i < 6; ++i) {
            store.insert(addr(i, 0), stamp(addr(i, 0), 16, 8));
        }
        // Supersede half of them: their old records become dead bytes.
        for (std::int64_t i = 0; i < 3; ++i) {
            store.insert(addr(i, 0), stamp(addr(i, 0), 16, 8));
        }
        const std::uint64_t before = store.stats().file_bytes;
        EXPECT_GT(store.stats().dead_bytes, 0u);
        store.compact();
        const auto s = store.stats();
        EXPECT_GT(s.compactions, 0u);
        EXPECT_EQ(s.dead_bytes, 0u);
        EXPECT_LT(s.file_bytes, before);
        EXPECT_EQ(s.tiles, 6u);
        compacted_file_bytes = s.file_bytes;
        for (std::int64_t i = 0; i < 6; ++i) {
            const auto tile = store.find(addr(i, 0));
            ASSERT_NE(tile, nullptr);
            EXPECT_EQ(*tile, stamp(addr(i, 0), 16, 8));
        }
    }
    (void)live;
    // The compacted segment is a valid store file in its own right.
    store::TileStore reopened(scratch.segment(), opt);
    EXPECT_EQ(reopened.stats().tiles, 6u);
    EXPECT_EQ(reopened.stats().file_bytes, compacted_file_bytes);
    EXPECT_EQ(reopened.stats().resets, 0u);
}

// --- corruption suite --------------------------------------------------------

TEST(TileStoreCorruption, TruncatedSegmentRecoversValidPrefix) {
    ScratchDir scratch;
    const std::uint64_t payload = 16 * 8 * sizeof(double);
    const std::uint64_t record = kRecordHeaderSize + payload;
    {
        store::TileStore store(scratch.segment());
        for (std::int64_t i = 0; i < 3; ++i) {
            store.insert(addr(i, 0), stamp(addr(i, 0), 16, 8));
        }
    }
    // Chop the file mid-way through the third record, as a crash would.
    fs::resize_file(scratch.segment(),
                    kFileHeaderSize + 2 * record + record / 2);
    store::TileStore store(scratch.segment());
    const auto s = store.stats();
    EXPECT_EQ(s.tiles, 2u);
    EXPECT_EQ(s.tail_truncated_bytes, record / 2);
    EXPECT_EQ(s.resets, 0u);
    ASSERT_NE(store.find(addr(0, 0)), nullptr);
    ASSERT_NE(store.find(addr(1, 0)), nullptr);
    EXPECT_EQ(store.find(addr(2, 0)), nullptr) << "torn record must be dropped";
    // The store keeps working: appends land after the truncated tail.
    store.insert(addr(2, 0), stamp(addr(2, 0), 16, 8));
    const auto tile = store.find(addr(2, 0));
    ASSERT_NE(tile, nullptr);
    EXPECT_EQ(*tile, stamp(addr(2, 0), 16, 8));
}

TEST(TileStoreCorruption, FlippedPayloadByteDegradesToMiss) {
    ScratchDir scratch;
    {
        store::TileStore store(scratch.segment());
        store.insert(addr(0, 0), stamp(addr(0, 0), 16, 8));
        store.insert(addr(1, 0), stamp(addr(1, 0), 16, 8));
    }
    // Corrupt one byte inside the first record's payload.  The recovery
    // scan only checks headers, so the record is still indexed ...
    flip_byte(scratch.segment(), kFileHeaderSize + kRecordHeaderSize + 10);
    store::TileStore store(scratch.segment());
    EXPECT_EQ(store.stats().tiles, 2u);
    // ... but the lazy payload checksum catches it on read: miss + drop.
    EXPECT_EQ(store.find(addr(0, 0)), nullptr);
    EXPECT_EQ(store.stats().corrupt_records, 1u);
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_FALSE(store.contains(addr(0, 0))) << "corrupt record must be dropped";
    // The neighbouring record is untouched.
    const auto tile = store.find(addr(1, 0));
    ASSERT_NE(tile, nullptr);
    EXPECT_EQ(*tile, stamp(addr(1, 0), 16, 8));
}

TEST(TileStoreCorruption, FlippedRecordHeaderTruncatesFromThere) {
    ScratchDir scratch;
    {
        store::TileStore store(scratch.segment());
        store.insert(addr(0, 0), stamp(addr(0, 0), 16, 8));
        store.insert(addr(1, 0), stamp(addr(1, 0), 16, 8));
    }
    // Corrupt the *second* record's header: the scan stops there, keeping
    // the first record and discarding everything after.
    const std::uint64_t record = kRecordHeaderSize + 16 * 8 * sizeof(double);
    flip_byte(scratch.segment(), kFileHeaderSize + record + 3);
    store::TileStore store(scratch.segment());
    EXPECT_EQ(store.stats().tiles, 1u);
    EXPECT_EQ(store.stats().tail_truncated_bytes, record);
    ASSERT_NE(store.find(addr(0, 0)), nullptr);
    EXPECT_EQ(store.find(addr(1, 0)), nullptr);
}

TEST(TileStoreCorruption, FutureFormatVersionResetsStore) {
    ScratchDir scratch;
    {
        store::TileStore store(scratch.segment());
        store.insert(addr(0, 0), stamp(addr(0, 0), 16, 8));
    }
    flip_byte(scratch.segment(), 8);  // the format-version field
    store::TileStore store(scratch.segment());
    EXPECT_EQ(store.stats().resets, 1u);
    EXPECT_EQ(store.stats().tiles, 0u);
    EXPECT_EQ(store.find(addr(0, 0)), nullptr);
    // A reset store is immediately writable again.
    store.insert(addr(0, 0), stamp(addr(0, 0), 16, 8));
    ASSERT_NE(store.find(addr(0, 0)), nullptr);
}

TEST(TileStoreCorruption, ForeignFileResetsInsteadOfFailing) {
    ScratchDir scratch;
    {
        std::ofstream f(scratch.segment(), std::ios::binary);
        f << "this is not a tile store segment at all, but it is long enough";
    }
    store::TileStore store(scratch.segment());
    EXPECT_EQ(store.stats().resets, 1u);
    EXPECT_EQ(store.stats().tiles, 0u);
    store.insert(addr(5, 5), stamp(addr(5, 5), 8, 8));
    const auto tile = store.find(addr(5, 5));
    ASSERT_NE(tile, nullptr);
    EXPECT_EQ(*tile, stamp(addr(5, 5), 8, 8));
}

TEST(TileStoreCorruption, InjectedWriteFaultLeavesRecoverableTornTail) {
    FaultGuard guard;
    ScratchDir scratch;
    {
        store::TileStore store(scratch.segment());
        store.insert(addr(0, 0), stamp(addr(0, 0), 16, 8));
        // Crash mid-append: a record prefix reaches the disk, the index
        // does not see it, and the caller gets StoreError.
        fault::arm(fault::FaultPlan::parse("store.write=error"));
        EXPECT_THROW(store.insert(addr(1, 0), stamp(addr(1, 0), 16, 8)),
                     store::StoreError);
        fault::disarm();
        EXPECT_EQ(store.find(addr(1, 0)), nullptr);
        EXPECT_EQ(store.stats().tiles, 1u);
        // The next append overwrites the torn bytes and both records read
        // back clean.
        store.insert(addr(2, 0), stamp(addr(2, 0), 16, 8));
        const auto tile = store.find(addr(2, 0));
        ASSERT_NE(tile, nullptr);
        EXPECT_EQ(*tile, stamp(addr(2, 0), 16, 8));
    }
    // Simulate crashing *without* the follow-up append: the torn prefix is
    // on disk past the published end, and the recovery scan truncates it.
    {
        store::TileStore store(scratch.segment());
        fault::arm(fault::FaultPlan::parse("store.write=error"));
        EXPECT_THROW(store.insert(addr(3, 0), stamp(addr(3, 0), 16, 8)),
                     store::StoreError);
        fault::disarm();
    }
    store::TileStore store(scratch.segment());
    EXPECT_EQ(store.stats().tiles, 2u);
    EXPECT_GT(store.stats().tail_truncated_bytes, 0u);
    EXPECT_EQ(store.find(addr(3, 0)), nullptr);
    ASSERT_NE(store.find(addr(0, 0)), nullptr);
    ASSERT_NE(store.find(addr(2, 0)), nullptr);
}

TEST(TileStoreCorruption, InjectedReadFaultDegradesToMissAndKeepsRecord) {
    FaultGuard guard;
    ScratchDir scratch;
    store::TileStore store(scratch.segment());
    store.insert(addr(0, 0), stamp(addr(0, 0), 16, 8));
    fault::arm(fault::FaultPlan::parse("store.read=error"));
    EXPECT_EQ(store.find(addr(0, 0)), nullptr);
    fault::disarm();
    EXPECT_EQ(store.stats().read_faults, 1u);
    EXPECT_EQ(store.stats().misses, 1u);
    // The record itself is intact — the next read succeeds.
    const auto tile = store.find(addr(0, 0));
    ASSERT_NE(tile, nullptr);
    EXPECT_EQ(*tile, stamp(addr(0, 0), 16, 8));
}

// --- input validation --------------------------------------------------------

TEST(TileStore, RejectsBadConfiguration) {
    ScratchDir scratch;
    store::TileStoreOptions zero_budget;
    zero_budget.byte_budget = 0;
    EXPECT_THROW(store::TileStore(scratch.segment(), zero_budget), ConfigError);
    store::TileStoreOptions bad_fraction;
    bad_fraction.compact_dead_fraction = 1.5;
    EXPECT_THROW(store::TileStore(scratch.segment(), bad_fraction), ConfigError);
    EXPECT_THROW(store::TileStore("/nonexistent-dir/nope/tiles.rrsstore"),
                 store::StoreError);
    // StoreError slots into the taxonomy under IoError.
    try {
        store::TileStore bad("/nonexistent-dir/nope/tiles.rrsstore");
        FAIL() << "expected StoreError";
    } catch (const IoError& e) {
        EXPECT_NE(std::string(e.what()).find("tiles.rrsstore"), std::string::npos);
    }
}

// --- TileService integration: the warm-restart contract ----------------------

Array2D<double> coord_tile(const Rect& r) {
    Array2D<double> out(static_cast<std::size_t>(r.nx),
                        static_cast<std::size_t>(r.ny));
    for (std::size_t iy = 0; iy < out.ny(); ++iy) {
        for (std::size_t ix = 0; ix < out.nx(); ++ix) {
            out(ix, iy) =
                static_cast<double>(r.x0 + static_cast<std::int64_t>(ix)) +
                4096.0 * static_cast<double>(r.y0 + static_cast<std::int64_t>(iy));
        }
    }
    return out;
}

TEST(TileServiceStore, WarmRestartPromotesFromL2WithoutRegenerating) {
    ScratchDir scratch;
    const std::vector<TileKey> keys = {{0, 0}, {1, 0}, {-2, 3}};
    std::vector<Array2D<double>> first_run;
    {
        TileService::Options opt;
        opt.shape = TileShape{16, 16};
        opt.store = std::make_shared<store::TileStore>(scratch.segment());
        TileService service(coord_tile, /*fingerprint=*/555, opt, nullptr);
        for (const TileKey& k : keys) {
            first_run.push_back(*service.get(k));
        }
        EXPECT_EQ(service.metrics().generations, keys.size());
        EXPECT_EQ(opt.store->stats().appends, keys.size());
    }
    // "Restart": a fresh service (cold RAM cache) over the same segment.
    TileService::Options opt;
    opt.shape = TileShape{16, 16};
    opt.store = std::make_shared<store::TileStore>(scratch.segment());
    TileService service(coord_tile, /*fingerprint=*/555, opt, nullptr);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const TilePtr tile = service.get(keys[i]);
        EXPECT_EQ(*tile, first_run[i]) << "promoted tile must be bit-identical";
    }
    const MetricsSnapshot m = service.metrics();
    EXPECT_EQ(m.generations, 0u) << "a warm store must prevent regeneration";
    EXPECT_EQ(m.l2_promotions, keys.size());
    EXPECT_EQ(m.cache_misses, m.generations + m.coalesced + m.l2_promotions)
        << "metric identity must hold with the L2 tier in play";
    // Second pass hits the RAM cache, not the store.
    const std::uint64_t hits_before = opt.store->stats().hits;
    (void)service.get(keys[0]);
    EXPECT_EQ(opt.store->stats().hits, hits_before);
}

TEST(TileServiceStore, DifferentFingerprintDoesNotReuseStoredTiles) {
    ScratchDir scratch;
    auto shared = std::make_shared<store::TileStore>(scratch.segment());
    TileService::Options opt;
    opt.shape = TileShape{16, 16};
    opt.store = shared;
    TileService a(coord_tile, /*fingerprint=*/1, opt, nullptr);
    (void)a.get({0, 0});
    TileService b(coord_tile, /*fingerprint=*/2, opt, nullptr);
    (void)b.get({0, 0});
    EXPECT_EQ(b.metrics().l2_promotions, 0u);
    EXPECT_EQ(b.metrics().generations, 1u);
    EXPECT_EQ(shared->stats().tiles, 2u);
}

TEST(TileServiceStore, RecordOfAnotherTileSizeIsAMissNotServed) {
    // An address names the fingerprint and key, not the tile size, so a
    // server restarted on the same store with a smaller tile size finds
    // records of the old size.  They are misses, regenerated at the new
    // size and never served, and a pyramid over them writes its body in
    // bounds (the sanitize preset watches the writes).
    ScratchDir scratch;
    const TileKey top{0, 0, 1};
    {
        TileService::Options opt;
        opt.shape = TileShape{32, 32};
        opt.store = std::make_shared<store::TileStore>(scratch.segment());
        TileService big(coord_tile, /*fingerprint=*/9, opt, nullptr);
        EXPECT_EQ(big.pyramid(top, 0).size(), 5u);
    }
    TileService::Options opt;
    opt.shape = TileShape{16, 16};
    opt.store = std::make_shared<store::TileStore>(scratch.segment());
    auto service = std::make_shared<TileService>(coord_tile, /*fingerprint=*/9, opt, nullptr);
    EXPECT_EQ(service->peek(TileKey{0, 0}), nullptr);
    net::SceneServices scenes;
    scenes.emplace("scene", service);
    obs::MetricsRegistry registry;
    const net::Router router = net::make_tile_router(std::move(scenes), &registry);
    for (const std::string q : {"f32", "f64"}) {
        const net::HttpResponse resp = router.dispatch(net::parse_request_head(
            "GET /v1/pyramid?tx=0&ty=0&z=1&q=" + q + " HTTP/1.1\r\n"));
        ASSERT_EQ(resp.status, 200) << resp.body();
        std::string expect;
        for (const auto& [key, tile] : service->pyramid(top, 0)) {
            ASSERT_EQ(tile->nx(), 16u);
            ASSERT_EQ(tile->ny(), 16u);
            expect += q == "f32" ? net::encode_tile_f32(*tile) : net::encode_tile_f64(*tile);
        }
        EXPECT_EQ(resp.body(), expect) << q;
    }
    EXPECT_EQ(service->metrics().l2_promotions, 0u);
    EXPECT_EQ(service->metrics().generations, 5u);
}

TEST(TileServiceStore, StoreWriteFailureNeverFailsTheRequest) {
    FaultGuard guard;
    ScratchDir scratch;
    TileService::Options opt;
    opt.shape = TileShape{16, 16};
    opt.store = std::make_shared<store::TileStore>(scratch.segment());
    TileService service(coord_tile, /*fingerprint=*/7, opt, nullptr);
    fault::arm(fault::FaultPlan::parse("store.write=error"));
    const TilePtr tile = service.get({0, 0});
    fault::disarm();
    ASSERT_NE(tile, nullptr);
    EXPECT_EQ(*tile, coord_tile(tile_rect(opt.shape, {0, 0})))
        << "the client response must be unaffected by a store failure";
    EXPECT_EQ(service.metrics().l2_write_failures, 1u);
    EXPECT_FALSE(opt.store->contains(TileAddress{7, TileKey{0, 0}}));
}

TEST(TileServiceStore, StoreReadFaultFallsBackToGeneration) {
    FaultGuard guard;
    ScratchDir scratch;
    TileService::Options opt;
    opt.shape = TileShape{16, 16};
    opt.store = std::make_shared<store::TileStore>(scratch.segment());
    {
        TileService warm(coord_tile, /*fingerprint=*/8, opt, nullptr);
        (void)warm.get({0, 0});
    }
    TileService service(coord_tile, /*fingerprint=*/8, opt, nullptr);
    fault::arm(fault::FaultPlan::parse("store.read=error"));
    const TilePtr tile = service.get({0, 0});
    fault::disarm();
    ASSERT_NE(tile, nullptr);
    EXPECT_EQ(*tile, coord_tile(tile_rect(opt.shape, {0, 0})));
    EXPECT_EQ(service.metrics().generations, 1u)
        << "a failed L2 read must fall back to cold generation";
}

}  // namespace
}  // namespace rrs
