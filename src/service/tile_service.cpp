#include "service/tile_service.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <utility>

#include "core/validate.hpp"
#include "fault/inject.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rrs {

namespace {

/// Process-wide mirrors of the per-service counters (obs registry view of
/// combined traffic across every TileService in the process).
struct GlobalTileCounters {
    obs::Counter& requests;
    obs::Counter& hits;
    obs::Counter& misses;
    obs::Counter& coalesced;
    obs::Counter& generations;
    obs::Counter& l2_promotions;
    obs::Counter& l2_write_failures;

    static GlobalTileCounters& get() {
        static GlobalTileCounters c{
            obs::MetricsRegistry::global().counter("service.tile.requests"),
            obs::MetricsRegistry::global().counter("service.tile.hits"),
            obs::MetricsRegistry::global().counter("service.tile.misses"),
            obs::MetricsRegistry::global().counter("service.tile.coalesced"),
            obs::MetricsRegistry::global().counter("service.tile.generations"),
            obs::MetricsRegistry::global().counter("store.l2.promotions"),
            obs::MetricsRegistry::global().counter("store.l2.write_failures")};
        return c;
    }
};

using clock_type = std::chrono::steady_clock;

std::uint64_t micros_since(clock_type::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(clock_type::now() - t0)
            .count());
}

/// Distinct nonzero stand-in fingerprints for generators that don't expose
/// one: entries from two unfingerprinted generators must never alias inside
/// a shared cache, so each service instance gets a private id.
std::uint64_t next_private_fingerprint() {
    static std::atomic<std::uint64_t> counter{0};
    // Salted away from real fingerprints; mix64 is bijective so ids never
    // collide with each other, and never return the reserved value 0.
    const std::uint64_t id =
        mix64(counter.fetch_add(1, std::memory_order_relaxed) ^ 0x5EB41CEDULL << 32);
    return id == 0 ? 1 : id;
}

/// Private caches split their budget over this many LRU shards.
constexpr std::size_t kCacheShards = 16;

}  // namespace

TileSource local_source(std::function<Array2D<double>(const Rect&)> generate,
                        TileShape shape) {
    RRS_CHECK(static_cast<bool>(generate), "TileService", "generate callable is empty");
    return [generate = std::move(generate), shape](const TileKey& key) -> TilePtr {
        RRS_TRACE_SPAN("tile.generate");
        if (fault::inject("tile.generate")) {
            throw NumericError{"injected generation fault", {"fault", "tile.generate"}};
        }
        return std::make_shared<const Array2D<double>>(generate(tile_rect(shape, key)));
    };
}

std::vector<TilePtr> settle_tiles(std::vector<std::future<TilePtr>>& futures) {
    std::vector<TilePtr> out(futures.size());
    std::exception_ptr first_failure;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        try {
            out[i] = futures[i].get();
        } catch (...) {
            if (!first_failure) {
                first_failure = std::current_exception();
            }
        }
    }
    if (first_failure) {
        std::rethrow_exception(first_failure);
    }
    return out;
}

Array2D<double> stitch_window(const TileShape& shape, const Rect& region,
                              const std::vector<TileKey>& keys,
                              const std::vector<TilePtr>& tiles) {
    Array2D<double> out(static_cast<std::size_t>(region.nx),
                        static_cast<std::size_t>(region.ny));
    for (std::size_t t = 0; t < keys.size(); ++t) {
        const Rect tile = tile_rect(shape, keys[t]);
        const Rect overlap = intersect(tile, region);
        const Array2D<double>& data = *tiles[t];
        for (std::int64_t y = overlap.y0; y < overlap.y1(); ++y) {
            for (std::int64_t x = overlap.x0; x < overlap.x1(); ++x) {
                out(static_cast<std::size_t>(x - region.x0),
                    static_cast<std::size_t>(y - region.y0)) =
                    data(static_cast<std::size_t>(x - tile.x0),
                         static_cast<std::size_t>(y - tile.y0));
            }
        }
    }
    return out;
}

TileService::TileService(std::function<Array2D<double>(const Rect&)> generate,
                         std::uint64_t fingerprint, Options opt,
                         std::shared_ptr<TileCache> cache)
    : TileService(local_source(std::move(generate), opt.shape), fingerprint, opt,
                  std::move(cache)) {}

TileService::TileService(TileSource source, std::uint64_t fingerprint, Options opt,
                         std::shared_ptr<TileCache> cache)
    : source_(std::move(source)),
      fingerprint_(fingerprint != 0 ? fingerprint : next_private_fingerprint()),
      opt_(opt),
      cache_(std::move(cache)) {
    check_tile_shape(opt_.shape);
    RRS_CHECK(static_cast<bool>(source_), "TileService", "tile source is empty");
    if (!cache_) {
        cache_ = std::make_shared<TileCache>(opt_.cache_bytes, kCacheShards);
    }
}

TilePtr TileService::get(const TileKey& key) {
    check_zoom(key.z);
    if (key.z > 0 && (opt_.shape.nx % 2 != 0 || opt_.shape.ny % 2 != 0)) {
        // Derivation maps parent sample px to child sample 2·px − cx·nx,
        // which tiles exactly only when the shape halves evenly.
        throw ConfigError{"zoomed tiles require an even tile shape",
                          {"service", "TileService"}};
    }
    const auto t0 = clock_type::now();
    metrics_.record_request();
    GlobalTileCounters::get().requests.add();
    const TileAddress address{fingerprint_, key};
    if (TilePtr hit = cache_->find(address)) {
        metrics_.record_hit();
        GlobalTileCounters::get().hits.add();
        metrics_.record_latency_us(micros_since(t0));
        return hit;
    }
    metrics_.record_miss();
    GlobalTileCounters::get().misses.add();
    TilePtr tile = generate_or_join(key);
    metrics_.record_latency_us(micros_since(t0));
    return tile;
}

TilePtr TileService::peek(const TileKey& key) {
    check_zoom(key.z);
    const TileAddress address{fingerprint_, key};
    if (TilePtr hit = cache_->find(address)) {
        return hit;
    }
    if (TilePtr tile = find_stored(address)) {
        // Promote like the miss path would — the peek warmed it.
        cache_->insert(address, tile);
        return tile;
    }
    return nullptr;
}

TilePtr TileService::generate_or_join(const TileKey& key) {
    const TileAddress address{fingerprint_, key};
    std::promise<TilePtr> promise;
    std::shared_future<TilePtr> future;
    bool leader = false;
    {
        std::lock_guard lock(inflight_mutex_);
        const auto it = inflight_.find(address);
        if (it != inflight_.end()) {
            future = it->second;
            metrics_.record_coalesced();
            GlobalTileCounters::get().coalesced.add();
        } else {
            future = promise.get_future().share();
            inflight_.emplace(address, future);
            leader = true;
        }
    }
    if (leader) {
        try {
            // L2 first: a promotion serves the stored bytes without a
            // generation (and without counting one).  An L2 miss — or any
            // injected/real read degradation inside find() — falls through
            // to the source or derivation.
            TilePtr tile = find_stored(address);
            if (tile) {
                metrics_.record_l2_promotion();
                GlobalTileCounters::get().l2_promotions.add();
            }
            if (!tile) {
                metrics_.record_generation();
                GlobalTileCounters::get().generations.add();
                tile = generate_tile(key);
                if (opt_.store) {
                    // Write-through; persistence failures are swallowed —
                    // the tile is still served, the store stays an
                    // optimisation (counted for observability).
                    try {
                        opt_.store->insert(address, *tile);
                    } catch (const Error&) {
                        metrics_.record_l2_write_failure();
                        GlobalTileCounters::get().l2_write_failures.add();
                    }
                }
            }
            // Publish to the cache BEFORE retiring the in-flight entry, so a
            // request arriving between the two always finds one or the other
            // (never generates a duplicate).  An injected cache_fill fault
            // serves the tile without retaining it (a lossy cache, not an
            // error — the next request regenerates).
            if (!fault::inject("tile.cache_fill")) {
                cache_->insert(address, tile);
            }
            {
                std::lock_guard lock(inflight_mutex_);
                inflight_.erase(address);
            }
            promise.set_value(std::move(tile));
        } catch (...) {
            metrics_.record_generation_failure();
            {
                std::lock_guard lock(inflight_mutex_);
                inflight_.erase(address);
            }
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();  // rethrows the leader's exception for every waiter
}

TilePtr TileService::find_stored(const TileAddress& address) {
    if (!opt_.store) {
        return nullptr;
    }
    TilePtr tile = opt_.store->find(address);
    if (tile != nullptr && (tile->nx() != static_cast<std::size_t>(opt_.shape.nx) ||
                            tile->ny() != static_cast<std::size_t>(opt_.shape.ny))) {
        return nullptr;
    }
    return tile;
}

TilePtr TileService::generate_tile(const TileKey& key) {
    if (key.z == 0) {
        TilePtr tile = source_(key);
        // A misconfigured source (a peer serving another tile size) must
        // not poison the cache: the failure reaches every waiter instead.
        if (tile == nullptr ||
            tile->nx() != static_cast<std::size_t>(opt_.shape.nx) ||
            tile->ny() != static_cast<std::size_t>(opt_.shape.ny)) {
            throw IoError{"tile source returned a tile of the wrong shape",
                          {"service", "TileService"}};
        }
        return tile;
    }
    // Derive from the four z−1 children (decimation by 2 of the assembled
    // child block).  get() runs on the calling thread — no pool submission —
    // so recursion to the base lattice cannot deadlock a saturated pool, and
    // every intermediate level lands in the cache (and store) on the way up.
    const std::array<TileKey, 4> child_keys = tile_children(key);
    std::array<TilePtr, 4> children;
    for (std::size_t i = 0; i < children.size(); ++i) {
        children[i] = get(child_keys[i]);
    }
    const auto nx = static_cast<std::size_t>(opt_.shape.nx);
    const auto ny = static_cast<std::size_t>(opt_.shape.ny);
    Array2D<double> out(nx, ny);
    for (std::size_t py = 0; py < ny; ++py) {
        const std::size_t cy = py < ny / 2 ? 0 : 1;
        const std::size_t jy = 2 * py - cy * ny;
        for (std::size_t px = 0; px < nx; ++px) {
            const std::size_t cx = px < nx / 2 ? 0 : 1;
            const std::size_t jx = 2 * px - cx * nx;
            // Parent sample (px, py) IS child (cx, cy) sample (2px−cx·nx,
            // 2py−cy·ny): both name base-lattice point ((tx·nx+px)·2^z, ...).
            out(px, py) = (*children[cx + 2 * cy])(jx, jy);
        }
    }
    return std::make_shared<const Array2D<double>>(std::move(out));
}

std::vector<std::pair<TileKey, TilePtr>> TileService::pyramid(const TileKey& top,
                                                              std::int32_t min_z) {
    check_zoom(top.z);
    check_zoom(min_z);
    if (min_z > top.z) {
        throw ConfigError{"pyramid min_z must not exceed the top tile's zoom",
                          {"service", "TileService"}};
    }
    std::vector<std::vector<TileKey>> levels;
    levels.push_back({top});
    for (std::int32_t z = top.z; z > min_z; --z) {
        std::vector<TileKey> next;
        next.reserve(levels.back().size() * 4);
        for (const TileKey& key : levels.back()) {
            for (const TileKey& child : tile_children(key)) {
                next.push_back(child);
            }
        }
        levels.push_back(std::move(next));
    }
    // Fetch finest-first: the base level fans out across the pool (the
    // expensive part), then each coarser level derives from warm children.
    std::vector<std::vector<TilePtr>> tiles(levels.size());
    for (std::size_t lvl = levels.size(); lvl-- > 0;) {
        tiles[lvl] = get_many(levels[lvl]);
    }
    std::vector<std::pair<TileKey, TilePtr>> out;
    std::size_t total = 0;
    for (const auto& level : levels) {
        total += level.size();
    }
    out.reserve(total);
    for (std::size_t lvl = 0; lvl < levels.size(); ++lvl) {
        for (std::size_t i = 0; i < levels[lvl].size(); ++i) {
            out.emplace_back(levels[lvl][i], tiles[lvl][i]);
        }
    }
    return out;
}

std::vector<TilePtr> TileService::get_many(const std::vector<TileKey>& keys) {
    metrics_.record_batch();
    std::vector<TilePtr> out(keys.size());
    if (keys.empty()) {
        return out;
    }
    if (keys.size() == 1) {
        out[0] = get(keys[0]);
        return out;
    }
    ThreadPool& workers = pool();
    std::vector<std::future<TilePtr>> futures;
    futures.reserve(keys.size());
    for (const TileKey& key : keys) {
        futures.push_back(workers.submit([this, key] { return get(key); }));
    }
    return settle_tiles(futures);
}

Array2D<double> TileService::window(const Rect& region) {
    RRS_TRACE_SPAN("tile.window");
    RRS_CHECK(region.nx >= 0, "TileService::window", "region.nx must be non-negative");
    RRS_CHECK(region.ny >= 0, "TileService::window", "region.ny must be non-negative");
    if (region.nx == 0 || region.ny == 0) {
        // Degenerate 0×N / N×0 / 0×0 windows are valid empty requests: no
        // tiles are touched and no metrics recorded — just the (possibly
        // zero-extent-but-shaped) empty array.
        return Array2D<double>(static_cast<std::size_t>(region.nx),
                               static_cast<std::size_t>(region.ny));
    }
    (void)checked_mul(region.nx, region.ny, "region.nx * region.ny",
                      {"TileService", "window"});
    const std::vector<TileKey> keys = covering_tiles(opt_.shape, region);
    return stitch_window(opt_.shape, region, keys, get_many(keys));
}

MetricsSnapshot TileService::metrics() const {
    MetricsSnapshot out;
    metrics_.fill_snapshot(out);
    const TileCache::Stats cache = cache_->stats();
    out.cache_evictions = cache.evictions;
    out.cache_bytes = cache.bytes;
    out.cache_tiles = cache.tiles;
    out.cache_byte_budget = cache_->byte_budget();
    return out;
}

}  // namespace rrs
