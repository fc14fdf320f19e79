#pragma once

/// \file tile_service.hpp
/// Concurrent random-access front end over any `generate(Rect)` generator,
/// or over any other source of base tiles (a shard fetch on the proxy).
///
/// Turns "run a generator once" into "serve surface tiles on demand, map-tile
/// style": clients ask for TileKeys (or whole windows) in any order, from
/// any thread, and the service answers from a sharded LRU TileCache, fanning
/// cold batches out across a ThreadPool.  Because librrs noise is a pure
/// function of (seed, lattice coordinate), a tile served through the cache —
/// in any order, on any thread — is bit-identical to the same window cut
/// from a one-shot generation; the random-access extension of the streaming
/// seam guarantee (streaming.hpp), asserted by tests/test_tile_service.cpp.
///
/// Request coalescing: concurrent requests for the same cold tile trigger
/// exactly ONE generation.  The first requester becomes the leader and
/// generates; every other request parks on the leader's shared_future.  If
/// the leader's generation throws, all parked waiters observe the same
/// exception and the tile stays uncached (a later request retries).
///
/// Cache keying: tiles are cached under (generator fingerprint, TileKey) —
/// the same fingerprints checkpoint/resume uses — so one TileCache may back
/// many services; equal fingerprints guarantee interchangeable tiles.  A
/// generator without a fingerprint gets a unique private id, so its entries
/// can never alias another generator's.
///
/// Zoom pyramid (tile_key.hpp, DESIGN.md §14): keys with z > 0 are served by
/// *deriving* the tile from its four z−1 children — decimation by 2 of the
/// assembled child block — recursively down to the base lattice, caching
/// every intermediate level.  Derivation is bit-exact: a zoom-z sample IS
/// base-lattice sample ((tx·nx+i)·2^z, (ty·ny+j)·2^z), so a zoom tile is
/// reproducible from any mix of cached, stored, and fresh children.  Zoomed
/// requests require an even tile shape.
///
/// Tiered store: when Options::store is set, a cache miss consults the
/// persistent L2 TileStore before generating (an L2 hit is *promoted* into
/// the in-memory cache — counted, never regenerated), and every fresh
/// generation is written through to the store.  Store write failures are
/// swallowed (counted): persistence is an optimisation, not a correctness
/// dependency.
///
/// Base-tile source: a base (z = 0) tile that no tier holds comes from the
/// service's TileSource.  A service over a generator wraps it as the local
/// source, which alone passes the `tile.generate` fault site and trace
/// span.  The cluster proxy (cluster/proxy.hpp) passes an owner fetch
/// instead: a tile is a pure function of (fingerprint, key), so a fetched
/// tile is the same bytes a local generation would produce, and every
/// layer above the source (cache, coalescing, zoom derivation, windows,
/// pyramids) is the same code on a shard and on the proxy.  Miss chain:
/// RAM → L2 → remote fill → source (z = 0) or derivation (z > 0).
///
/// Remote fill (cluster/peer_fill.hpp): when Options::remote_fill is set
/// (or installed via set_remote_fill before serving), the miss-leader path
/// tries it after the L2 lookup and before generating — a cluster node can
/// warm from the tile's previous owner instead of regenerating after a
/// reshard.  The hook must never throw; nullptr means "generate locally".
/// A filled tile is shape-checked, counted (`remote_fills`), and written
/// through to the store like a fresh generation.
///
/// Thread-safety contract: `get`, `get_many`, `window`, and `metrics` may be
/// called concurrently.  The wrapped generator's `generate(Rect) const` must
/// itself be safe for concurrent calls (true for ConvolutionGenerator and
/// InhomogeneousGenerator), and must outlive the service.  Do not call
/// batch entry points from inside the service's own pool workers — a
/// saturated pool would deadlock waiting on itself.

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/error.hpp"
#include "core/streaming.hpp"
#include "grid/array2d.hpp"
#include "grid/rect.hpp"
#include "parallel/thread_pool.hpp"
#include "service/metrics.hpp"
#include "service/tile_cache.hpp"
#include "service/tile_key.hpp"
#include "store/tile_store.hpp"

namespace rrs {

/// Base-tile source: the payload of one z = 0 tile (file comment).  Must
/// return a tile of the service's shape, never null; may throw.
using TileSource = std::function<TilePtr(const TileKey&)>;

/// Wait for every future, then rethrow the first failure: a batch never
/// leaves work running against a caller that has already given up.
/// Results align with `futures`.
std::vector<TilePtr> settle_tiles(std::vector<std::future<TilePtr>>& futures);

/// Cut `region` out of `tiles`, aligned with `keys` ==
/// covering_tiles(shape, region) — the one stitch every window path uses,
/// so a window assembled from any mix of cached, fetched and generated
/// tiles is the same doubles.
Array2D<double> stitch_window(const TileShape& shape, const Rect& region,
                              const std::vector<TileKey>& keys,
                              const std::vector<TilePtr>& tiles);

/// Thread-safe tile server over one tile source; see file comment.
class TileService {
public:
    struct Options {
        TileShape shape{256, 256};
        /// Cache payload budget when the service builds its own cache
        /// (ignored when a shared cache is injected).
        std::size_t cache_bytes = std::size_t{256} << 20;  // 256 MiB
        std::size_t cache_shards = 16;
        /// Pool for batch fan-out; nullptr = ThreadPool::shared().
        ThreadPool* pool = nullptr;
        /// Persistent L2 tile store under the in-memory cache; may be shared
        /// across services (addresses carry the fingerprint).  nullptr = no
        /// persistence tier.
        std::shared_ptr<store::TileStore> store = nullptr;
        /// Cluster peer-fill hook, tried on the miss-leader path after L2
        /// and before generation (file comment).  Must not throw; returns
        /// nullptr to fall through to local generation.
        std::function<TilePtr(const TileKey&)> remote_fill = nullptr;
    };

    /// Wrap `gen` (any type with `Array2D<double> generate(const Rect&) const`).
    /// `cache` may be shared across services; nullptr builds a private cache
    /// from `opt.cache_bytes` / `opt.cache_shards`.
    template <typename Generator>
    explicit TileService(const Generator& gen, Options opt = {},
                         std::shared_ptr<TileCache> cache = nullptr)
        : TileService([&gen](const Rect& r) { return gen.generate(r); },
                      detail::generator_fingerprint(gen), opt, std::move(cache)) {}

    /// Type-erased generator constructor (also usable directly with a
    /// lambda; pass fingerprint 0 for "unfingerprinted").  The generator
    /// becomes the local base-tile source.
    TileService(std::function<Array2D<double>(const Rect&)> generate,
                std::uint64_t fingerprint, Options opt,
                std::shared_ptr<TileCache> cache);

    /// Core constructor over any base-tile source (file comment), e.g. an
    /// owner fetch whose fingerprint is the fleet-agreed one.
    TileService(TileSource source, std::uint64_t fingerprint, Options opt,
                std::shared_ptr<TileCache> cache);

    /// Build a service that OWNS its generator (shared ownership captured in
    /// the generation closure), for callers — like the tile server daemon —
    /// that cannot keep a generator alive on the stack for the service's
    /// whole lifetime.  Throws ConfigError on a null generator.
    template <typename Generator>
    static std::unique_ptr<TileService> owning(
        std::shared_ptr<Generator> gen, Options opt = {},
        std::shared_ptr<TileCache> cache = nullptr) {
        if (gen == nullptr) {
            throw ConfigError{"TileService::owning requires a non-null generator",
                              {"service", "TileService"}};
        }
        const std::uint64_t fp = detail::generator_fingerprint(*gen);
        return std::make_unique<TileService>(
            [gen = std::move(gen)](const Rect& r) { return gen->generate(r); },
            fp, opt, std::move(cache));
    }

    TileService(const TileService&) = delete;
    TileService& operator=(const TileService&) = delete;

    /// Serve one tile: cache hit, join of an in-flight generation, an L2
    /// promotion, a remote peer fill, or a fresh generation (zoom tiles
    /// derive from children — file comment).  Never returns null; rethrows
    /// generation failures.
    TilePtr get(const TileKey& key);

    /// Only-if-cached lookup: the RAM cache, then the L2 store (a hit is
    /// promoted into the cache) — never generates, never remote-fills, and
    /// records no service metrics (the cache/store keep their own).  This
    /// is the `cached=1` wire semantic peer fill relies on to terminate:
    /// a peek can never recurse into another peer.  Returns nullptr on a
    /// miss.  Throws on invalid zoom like get().
    TilePtr peek(const TileKey& key);

    /// Install (or replace) the remote-fill hook after construction — the
    /// daemon needs the service's fingerprint to build the filler.  Not
    /// thread-safe against in-flight get() calls: install before serving.
    void set_remote_fill(std::function<TilePtr(const TileKey&)> fill) {
        opt_.remote_fill = std::move(fill);
    }

    /// Serve a batch, fanning cold tiles out across the pool.  Results align
    /// with `keys` (duplicates coalesce onto one generation).  If any tile's
    /// generation fails the first failure is rethrown — after every other
    /// tile of the batch has settled, so no work is left dangling.
    std::vector<TilePtr> get_many(const std::vector<TileKey>& keys);

    /// Assemble an arbitrary lattice window from cached/generated tiles —
    /// bit-identical to `generate(region)` on the wrapped generator.
    /// Degenerate regions (0×N, N×0, 0×0) are valid empty requests and
    /// return an empty array of the requested shape without touching any
    /// tile or metric; negative extents throw ConfigError.
    Array2D<double> window(const Rect& region);

    /// Serve tile `top` plus every descendant down to zoom `min_z`, level
    /// order (top first; within a level, each parent's four children
    /// row-major in the parents' order).  The finest level is fetched first
    /// with batch fan-out, so coarser levels derive from warm children.
    /// Throws ConfigError when min_z > top.z.
    std::vector<std::pair<TileKey, TilePtr>> pyramid(const TileKey& top,
                                                     std::int32_t min_z = 0);

    /// Point-in-time counters (service + its cache view).
    MetricsSnapshot metrics() const;

    const TileShape& shape() const noexcept { return opt_.shape; }
    std::uint64_t fingerprint() const noexcept { return fingerprint_; }
    const std::shared_ptr<TileCache>& cache() const noexcept { return cache_; }
    const std::shared_ptr<store::TileStore>& store() const noexcept {
        return opt_.store;
    }

private:
    /// Miss path: lead a new L2 lookup/generation or park on the in-flight
    /// one.
    TilePtr generate_or_join(const TileKey& key);

    /// Produce the payload for `key`: base tiles call the source; zoom
    /// tiles recurse through get() on their children and decimate.
    TilePtr generate_tile(const TileKey& key);

    ThreadPool& pool() const noexcept {
        return opt_.pool != nullptr ? *opt_.pool : ThreadPool::shared();
    }

    TileSource source_;
    std::uint64_t fingerprint_ = 0;
    Options opt_;
    std::shared_ptr<TileCache> cache_;
    ServiceMetrics metrics_;

    std::mutex inflight_mutex_;
    std::unordered_map<TileAddress, std::shared_future<TilePtr>, TileAddressHash>
        inflight_;
};

}  // namespace rrs
