#pragma once

/// \file metrics.hpp
/// Lock-cheap operational counters for the tile service — a client of the
/// library-wide observability primitives (obs/metrics.hpp).
///
/// Hot-path cost is one relaxed atomic increment per event (plus one for the
/// latency bucket); there is no mutex anywhere.  Readers take a
/// `MetricsSnapshot` — a plain value struct — and can export it as a
/// single-line JSON record for scraping.  Counter relationships the service
/// maintains (and tests assert):
///
///     requests  == cache_hits + cache_misses
///     generations + coalesced + l2_promotions == cache_misses
///
/// i.e. every request either hits the in-memory cache, coalesces onto a
/// generation already in flight, promotes the tile from the persistent L2
/// store (tile_store.hpp), or starts the one generation for its tile.  A
/// "generation" is whatever produces a missing tile: the service's source
/// (a local generator, an owner fetch on the proxy, a peer fill on a
/// resharded shard — cluster/peer_fill.hpp) or a zoom derivation.
///
/// Latency is an obs::Log2Histogram over microseconds: bucket b counts
/// samples in [2^b, 2^(b+1)) µs (bucket 0 is [0, 2) µs), the last bucket
/// absorbs everything slower (≥ ~33.6 s); the snapshot's quantiles are the
/// upper bound of the bucket holding them — conservative, never
/// under-reports.
///
/// Each service keeps its own ServiceMetrics instance (per-service JSON
/// stays self-consistent); the service additionally mirrors its events into
/// the process-wide `obs::MetricsRegistry::global()` under `service.tile.*`
/// so registry exports (`rrsgen --metrics`, `rrstile --metrics`) see
/// combined traffic.

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace rrs {

/// Point-in-time copy of every service counter.  Cache fields mirror the
/// TileCache the service uses (which may be shared with other services —
/// they then reflect combined traffic).
struct MetricsSnapshot {
    std::uint64_t requests = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t generations = 0;
    std::uint64_t coalesced = 0;  ///< requests that joined an in-flight generation
    std::uint64_t batches = 0;    ///< get_many / window calls
    std::uint64_t generation_failures = 0;
    std::uint64_t l2_promotions = 0;      ///< misses served from the persistent store
    std::uint64_t l2_write_failures = 0;  ///< store writes swallowed (tile still served)
    std::uint64_t cache_evictions = 0;
    std::uint64_t cache_bytes = 0;
    std::uint64_t cache_tiles = 0;
    std::uint64_t cache_byte_budget = 0;
    obs::HistogramSnapshot latency;  ///< request latency in microseconds

    /// Hit fraction of served requests (0 when no requests were made).
    double hit_rate() const noexcept {
        return requests == 0 ? 0.0
                             : static_cast<double>(cache_hits) /
                                   static_cast<double>(requests);
    }

    /// Single-line JSON object (stable key order) for logs/scrapers.
    std::string to_json() const;
};

/// The service-side counters (cache counters live in TileCache).
class ServiceMetrics {
public:
    void record_hit() noexcept { hits_.add(); }
    void record_miss() noexcept { misses_.add(); }
    void record_request() noexcept { requests_.add(); }
    void record_generation() noexcept { generations_.add(); }
    void record_generation_failure() noexcept { generation_failures_.add(); }
    void record_coalesced() noexcept { coalesced_.add(); }
    void record_batch() noexcept { batches_.add(); }
    void record_l2_promotion() noexcept { l2_promotions_.add(); }
    void record_l2_write_failure() noexcept { l2_write_failures_.add(); }
    void record_latency_us(std::uint64_t micros) noexcept { latency_.record(micros); }

    /// Copy the counters into `out` (cache fields are left untouched — the
    /// service fills those from its TileCache).
    void fill_snapshot(MetricsSnapshot& out) const;

private:
    obs::Counter requests_;
    obs::Counter hits_;
    obs::Counter misses_;
    obs::Counter generations_;
    obs::Counter generation_failures_;
    obs::Counter coalesced_;
    obs::Counter batches_;
    obs::Counter l2_promotions_;
    obs::Counter l2_write_failures_;
    obs::Log2Histogram latency_;
};

}  // namespace rrs
