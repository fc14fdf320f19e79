#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>

namespace rrs::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

/// One ring slot.  The fields are individually atomic (all accesses
/// relaxed) so a concurrent exporter reading a slot the owner is about to
/// overwrite on wrap-around is well-defined: it may observe a *mixed* slot,
/// never a torn word — and mixed slots are discarded by the wrap guard in
/// trace_events() (it re-reads `head` after copying and drops any slot the
/// writer could have reached mid-copy).
struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint64_t> t0_ns{0};
    std::atomic<std::uint64_t> t1_ns{0};
};

/// Per-thread span storage.  The owning thread is the only writer; readers
/// (export) take a snapshot of completed slots.
struct ThreadRing {
    static constexpr std::size_t kRingCapacity = std::size_t{1} << 14;  // 16384 spans

    std::vector<Slot> slots{kRingCapacity};
    /// Total spans ever recorded by this thread; the write cursor is
    /// head % capacity.  Published with release so a reader that acquires
    /// `head` sees every slot the count covers.
    std::atomic<std::uint64_t> head{0};
    std::uint32_t tid = 0;
};

struct TraceState {
    std::mutex mutex;
    // shared_ptr: rings must outlive both their thread and any reset() —
    // exiting threads may still hold a cached pointer.
    std::vector<std::shared_ptr<ThreadRing>> rings;
};

TraceState& state() {
    // Leaked: spans may record during static destruction of other objects.
    static auto* s = new TraceState();
    return *s;
}

ThreadRing& thread_ring() {
    thread_local std::shared_ptr<ThreadRing> ring = [] {
        auto r = std::make_shared<ThreadRing>();
        TraceState& s = state();
        std::lock_guard lock(s.mutex);
        r->tid = static_cast<std::uint32_t>(s.rings.size());
        s.rings.push_back(r);
        return r;
    }();
    return *ring;
}

const std::chrono::steady_clock::time_point g_epoch = std::chrono::steady_clock::now();

}  // namespace

namespace detail {

std::uint64_t trace_now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - g_epoch)
            .count());
}

void trace_record(const char* name, std::uint64_t t0_ns, std::uint64_t t1_ns) noexcept {
    ThreadRing& ring = thread_ring();
    const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
    Slot& slot = ring.slots[head % ThreadRing::kRingCapacity];
    // Relaxed stores: the release store of `head` below publishes them to
    // any reader that acquires `head`.
    slot.name.store(name, std::memory_order_relaxed);
    slot.t0_ns.store(t0_ns, std::memory_order_relaxed);
    slot.t1_ns.store(t1_ns, std::memory_order_relaxed);
    ring.head.store(head + 1, std::memory_order_release);
}

}  // namespace detail

void trace_enable() noexcept {
    detail::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void trace_disable() noexcept {
    detail::g_trace_enabled.store(false, std::memory_order_relaxed);
}

void trace_reset() noexcept {
    TraceState& s = state();
    std::lock_guard lock(s.mutex);
    for (const auto& ring : s.rings) {
        ring->head.store(0, std::memory_order_relaxed);
    }
}

std::uint64_t trace_dropped() noexcept {
    TraceState& s = state();
    std::lock_guard lock(s.mutex);
    std::uint64_t dropped = 0;
    for (const auto& ring : s.rings) {
        const std::uint64_t head = ring->head.load(std::memory_order_acquire);
        if (head > ThreadRing::kRingCapacity) {
            dropped += head - ThreadRing::kRingCapacity;
        }
    }
    return dropped;
}

std::vector<TraceEvent> trace_events() {
    std::vector<std::shared_ptr<ThreadRing>> rings;
    {
        TraceState& s = state();
        std::lock_guard lock(s.mutex);
        rings = s.rings;
    }
    std::vector<TraceEvent> events;
    for (const auto& ring : rings) {
        const std::uint64_t head0 = ring->head.load(std::memory_order_acquire);
        const std::uint64_t n = std::min<std::uint64_t>(head0, ThreadRing::kRingCapacity);
        const std::uint64_t first = head0 - n;
        const std::size_t start = events.size();
        std::vector<std::uint64_t> indices;
        indices.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = first; i < head0; ++i) {
            const Slot& slot = ring->slots[i % ThreadRing::kRingCapacity];
            TraceEvent e;
            e.name = slot.name.load(std::memory_order_relaxed);
            e.t0_ns = slot.t0_ns.load(std::memory_order_relaxed);
            e.t1_ns = slot.t1_ns.load(std::memory_order_relaxed);
            e.tid = ring->tid;
            if (e.name != nullptr) {
                events.push_back(e);
                indices.push_back(i);
            }
        }
        // Wrap guard: while we copied, the owning thread may have lapped the
        // ring and overwritten slots we already read — those copies could mix
        // fields of two different spans.  Re-read `head`; every slot index
        // the writer could have reached (i < head1 - capacity) is unreliable
        // and gets dropped.  Spans recorded after head0 are simply not part
        // of this snapshot.
        const std::uint64_t head1 = ring->head.load(std::memory_order_acquire);
        if (head1 > head0 && head1 - ThreadRing::kRingCapacity > first) {
            const std::uint64_t stale_below =
                head1 < ThreadRing::kRingCapacity ? 0 : head1 - ThreadRing::kRingCapacity;
            std::size_t keep = start;
            for (std::size_t k = 0; k < indices.size(); ++k) {
                if (indices[k] >= stale_below) {
                    events[keep++] = events[start + k];
                }
            }
            events.resize(keep);
        }
    }
    std::sort(events.begin(), events.end(),
              [](const TraceEvent& a, const TraceEvent& b) { return a.t0_ns < b.t0_ns; });
    return events;
}

namespace {

/// `ns` as exact fixed-point microseconds with 3 decimals ("1234.005").
std::string micros(std::uint64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    return buf;
}

}  // namespace

void write_chrome_trace(std::ostream& out) {
    const std::vector<TraceEvent> events = trace_events();
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent& e : events) {
        if (!first) {
            out << ',';
        }
        first = false;
        // Complete ('X') events; Chrome wants µs.  Start and duration
        // keep ns resolution as fixed-point µs at any uptime.
        out << "{\"name\":\"" << e.name << "\",\"cat\":\"rrs\",\"ph\":\"X\",\"ts\":"
            << micros(e.t0_ns) << ",\"dur\":" << micros(e.t1_ns - e.t0_ns)
            << ",\"pid\":1,\"tid\":" << e.tid << '}';
    }
    out << "]}\n";
}

std::string chrome_trace_json() {
    std::ostringstream out;
    write_chrome_trace(out);
    return out.str();
}

}  // namespace rrs::obs
