#pragma once

/// \file tile_cache.hpp
/// Sharded LRU cache of generated surface tiles.
///
/// Keyed by TileAddress — (generator fingerprint, tile key) — so one cache
/// can safely serve many TileService instances: equal fingerprints mean
/// bit-identical surfaces (ConvolutionGenerator::fingerprint), so a tile
/// generated by one service is a valid hit for another.
///
/// Concurrency: the key hash picks one of N independent shards; each shard
/// is a mutex-guarded (unordered_map + intrusive LRU list).  Shards never
/// interact, so contention is 1/N of a single-lock cache and there are no
/// cross-shard lock orders to get wrong.
///
/// Eviction: byte-budget LRU via the shared store::ByteBudget policy
/// (store/byte_budget.hpp — the same bound the persistent L2 store
/// enforces).  The total budget splits evenly across shards (the avalanche
/// hash keeps shard loads balanced) and every insert evicts
/// least-recently-used entries until its shard is back under budget — so the
/// cache as a whole never exceeds `byte_budget()`.  A tile larger than a
/// whole shard's budget is simply not retained (the insert still happens,
/// then immediately evicts itself) — callers hold the returned shared_ptr,
/// so the tile stays alive for them either way.
///
/// Values are `shared_ptr<const Array2D<double>>`: eviction never
/// invalidates a tile a caller is still reading.
///
/// Encoded bodies: a tile's wire encodings are as fixed by its address as
/// its doubles, so an entry also carries up to kBodySlots encoded bodies
/// (the net layer's f32 and i16 bodies), each attached once after its
/// first encode.  They are charged to the same budget as the tile and are
/// second-class: a body is kept only in room its shard has spare, and an
/// insert that needs room drops bodies (coldest entry first) before it
/// evicts any tile.  Bodies are shared like tiles: one a response still
/// holds outlives being dropped.

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "grid/array2d.hpp"
#include "service/tile_key.hpp"
#include "store/byte_budget.hpp"

namespace rrs {

/// Immutable, shareable generated tile.
using TilePtr = std::shared_ptr<const Array2D<double>>;

/// One encoding of a tile: its body bytes plus the response headers the
/// encoding needs to be decoded (e.g. a quantizer's scale and offset).
struct EncodedBody {
    std::string bytes;
    std::vector<std::pair<std::string, std::string>> headers;
};

/// Immutable, shareable encoded body.
using EncodedBodyPtr = std::shared_ptr<const EncodedBody>;

/// Sharded byte-budget LRU cache of tiles; see file comment.
class TileCache {
public:
    /// Counter snapshot (monotonic except bytes/tiles, which are gauges).
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;
        std::uint64_t bytes = 0;  ///< current resident payload bytes, bodies included
        std::uint64_t tiles = 0;  ///< current resident tile count
    };

    /// `byte_budget` bounds the summed payload (`Array2D` element) bytes of
    /// resident tiles plus the bytes of their attached bodies.  `shards` is
    /// rounded up to a power of two; more shards = less lock contention,
    /// slightly lumpier per-shard budgets.
    explicit TileCache(std::size_t byte_budget, std::size_t shards = 16);

    TileCache(const TileCache&) = delete;
    TileCache& operator=(const TileCache&) = delete;

    /// Look up a tile, refreshing its LRU position.  Counts a hit or miss.
    TilePtr find(const TileAddress& address);

    /// Insert (or replace) a tile, then drop attached bodies and evict LRU
    /// entries until the shard fits its budget.  Counts insertions and
    /// evictions (of tiles; a dropped body is not an eviction).
    void insert(const TileAddress& address, TilePtr tile);

    /// Encoded-body slots per entry; the caller assigns each slot one
    /// encoding.
    static constexpr std::size_t kBodySlots = 2;

    /// The body in `slot` of the resident tile at `address`, or null.
    /// Counts nothing and leaves recency alone: the find() that served the
    /// tile already did both.
    EncodedBodyPtr find_body(const TileAddress& address, std::size_t slot) const;

    /// Attach `body` to `slot` of the resident tile at `address` and charge
    /// its bytes to the budget.  Never evicts: a body that does not fit the
    /// shard's spare room is dropped, as is one whose tile is no longer
    /// resident; a slot already filled keeps its first body (equal
    /// addresses encode to equal bytes).
    void attach_body(const TileAddress& address, std::size_t slot, EncodedBodyPtr body);

    /// Drop every resident entry (counters keep their totals).
    void clear();

    std::size_t byte_budget() const noexcept { return byte_budget_; }
    std::size_t shard_count() const noexcept { return shards_.size(); }

    /// Aggregate counters across shards (each shard is locked briefly; the
    /// result is a consistent-per-shard, approximate-global snapshot).
    Stats stats() const;

private:
    struct Entry {
        TileAddress address;
        TilePtr tile;
        std::array<EncodedBodyPtr, kBodySlots> bodies{};
        std::size_t bytes = 0;  ///< the tile's payload plus its bodies
    };
    using LruList = std::list<Entry>;

    struct Shard {
        mutable std::mutex mutex;
        LruList lru;  ///< front = most recently used
        std::unordered_map<TileAddress, LruList::iterator, TileAddressHash> index;
        store::ByteBudget budget;  ///< shared eviction policy, guarded by `mutex`
        std::size_t body_bytes = 0;  ///< the attached bodies' share of the budget
        // Plain counters — only touched under `mutex`.
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;
    };

    Shard& shard_of(const TileAddress& address) noexcept {
        return shards_[TileAddressHash{}(address) & shard_mask_];
    }
    const Shard& shard_of(const TileAddress& address) const noexcept {
        return shards_[TileAddressHash{}(address) & shard_mask_];
    }

    /// Payload bytes of one tile.
    static std::size_t tile_bytes(const Array2D<double>& tile) noexcept {
        return tile.size() * sizeof(double);
    }

    std::size_t byte_budget_;
    std::size_t shard_budget_;
    std::size_t shard_mask_;
    std::vector<Shard> shards_;
};

}  // namespace rrs
