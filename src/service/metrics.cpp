#include "service/metrics.hpp"

#include <sstream>

namespace rrs {

namespace {

void append_field(std::ostringstream& out, const char* key, std::uint64_t value,
                  bool& first) {
    if (!first) {
        out << ',';
    }
    first = false;
    out << '"' << key << "\":" << value;
}

}  // namespace

void ServiceMetrics::fill_snapshot(MetricsSnapshot& out) const {
    out.requests = requests_.value();
    out.cache_hits = hits_.value();
    out.cache_misses = misses_.value();
    out.generations = generations_.value();
    out.generation_failures = generation_failures_.value();
    out.coalesced = coalesced_.value();
    out.batches = batches_.value();
    out.l2_promotions = l2_promotions_.value();
    out.l2_write_failures = l2_write_failures_.value();
    out.latency = obs::snapshot_histogram(latency_);
}

std::string MetricsSnapshot::to_json() const {
    std::ostringstream out;
    out << '{';
    bool first = true;
    append_field(out, "requests", requests, first);
    append_field(out, "cache_hits", cache_hits, first);
    append_field(out, "cache_misses", cache_misses, first);
    append_field(out, "generations", generations, first);
    append_field(out, "coalesced", coalesced, first);
    append_field(out, "batches", batches, first);
    append_field(out, "generation_failures", generation_failures, first);
    append_field(out, "l2_promotions", l2_promotions, first);
    append_field(out, "l2_write_failures", l2_write_failures, first);
    append_field(out, "cache_evictions", cache_evictions, first);
    append_field(out, "cache_bytes", cache_bytes, first);
    append_field(out, "cache_tiles", cache_tiles, first);
    append_field(out, "cache_byte_budget", cache_byte_budget, first);
    out << ",\"hit_rate\":" << hit_rate();
    out << ",\"latency\":{\"samples\":" << latency.samples
        << ",\"mean_us\":" << latency.mean << ",\"p50_us\":" << latency.p50
        << ",\"p95_us\":" << latency.p95 << ",\"p99_us\":" << latency.p99
        << ",\"buckets_us\":[";
    // Emit [floor_us, count] pairs for non-empty buckets only — compact and
    // reconstructible (floors are the full log₂ ladder).
    bool first_bucket = true;
    for (std::size_t b = 0; b < latency.counts.size(); ++b) {
        if (latency.counts[b] == 0) {
            continue;
        }
        if (!first_bucket) {
            out << ',';
        }
        first_bucket = false;
        out << '[' << obs::Log2Histogram::bucket_floor(b) << ',' << latency.counts[b]
            << ']';
    }
    out << "]}}";
    return out.str();
}

}  // namespace rrs
