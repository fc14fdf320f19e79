// Tests for the observability layer (src/obs/): metrics primitives, the
// named registry, and scoped-span tracing with Chrome trace export.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/convolution.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rrs::obs {
namespace {

// --- primitives --------------------------------------------------------------

TEST(ObsMetrics, CounterAddsAndResets) {
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, GaugeSetsAddsAndGoesNegative) {
    Gauge g;
    g.set(100);
    EXPECT_EQ(g.value(), 100);
    g.add(-150);
    EXPECT_EQ(g.value(), -50);
    g.reset();
    EXPECT_EQ(g.value(), 0);
}

TEST(ObsMetrics, Log2HistogramBucketsAreLogSpaced) {
    EXPECT_EQ(Log2Histogram::bucket_of(0), 0u);
    EXPECT_EQ(Log2Histogram::bucket_of(1), 0u);
    EXPECT_EQ(Log2Histogram::bucket_of(2), 1u);
    EXPECT_EQ(Log2Histogram::bucket_of(3), 1u);
    EXPECT_EQ(Log2Histogram::bucket_of(4), 2u);
    EXPECT_EQ(Log2Histogram::bucket_of(1024), 10u);
    EXPECT_EQ(Log2Histogram::bucket_of(~std::uint64_t{0}), Log2Histogram::kBuckets - 1);
    EXPECT_EQ(Log2Histogram::bucket_floor(0), 0u);
    EXPECT_EQ(Log2Histogram::bucket_floor(1), 2u);
    EXPECT_EQ(Log2Histogram::bucket_floor(10), 1024u);
}

TEST(ObsMetrics, Log2HistogramRecordsAndResets) {
    Log2Histogram h;
    h.record(0);
    h.record(3);
    h.record(3);
    h.record(1000);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 2u);
    EXPECT_EQ(h.count(9), 1u);  // 1000 in [512, 1024)
    EXPECT_EQ(h.sum(), 1006u);
    h.reset();
    EXPECT_EQ(h.count(1), 0u);
    EXPECT_EQ(h.sum(), 0u);
}

TEST(ObsMetrics, HistogramSnapshotDerivesQuantiles) {
    Log2Histogram h;
    for (int i = 0; i < 98; ++i) {
        h.record(1);  // bucket 0
    }
    h.record(1 << 20);  // two stragglers far out in bucket 20
    h.record(1 << 20);
    const HistogramSnapshot s = snapshot_histogram(h);
    EXPECT_EQ(s.samples, 100u);
    EXPECT_EQ(s.sum, 98u + 2u * (1u << 20));
    EXPECT_NEAR(s.mean, static_cast<double>(s.sum) / 100.0, 1e-9);
    // Quantile estimates are the upper bound of the holding bucket.
    EXPECT_EQ(s.p50, 2u);
    EXPECT_EQ(s.p95, 2u);
    EXPECT_EQ(s.p99, std::uint64_t{1} << 21);
}

TEST(ObsMetrics, EmptyHistogramSnapshotIsZero) {
    const Log2Histogram h;
    const HistogramSnapshot s = snapshot_histogram(h);
    EXPECT_EQ(s.samples, 0u);
    EXPECT_EQ(s.mean, 0.0);
    EXPECT_EQ(s.p99, 0u);
}

// --- registry ----------------------------------------------------------------

TEST(ObsRegistry, LookupReturnsStableReferences) {
    MetricsRegistry reg;
    Counter& a = reg.counter("alpha");
    Gauge& g = reg.gauge("beta");
    Log2Histogram& h = reg.histogram("gamma");
    a.add(3);
    g.set(-7);
    h.record(5);
    // Same name, same object — even after more registrations.
    for (int i = 0; i < 50; ++i) {
        (void)reg.counter("filler." + std::to_string(i));
    }
    EXPECT_EQ(&reg.counter("alpha"), &a);
    EXPECT_EQ(&reg.gauge("beta"), &g);
    EXPECT_EQ(&reg.histogram("gamma"), &h);
    EXPECT_EQ(reg.counter("alpha").value(), 3u);
    EXPECT_EQ(reg.size(), 53u);
}

TEST(ObsRegistry, KindClashThrows) {
    MetricsRegistry reg;
    (void)reg.counter("x");
    EXPECT_THROW((void)reg.gauge("x"), std::logic_error);
    EXPECT_THROW((void)reg.histogram("x"), std::logic_error);
    (void)reg.gauge("y");
    EXPECT_THROW((void)reg.counter("y"), std::logic_error);
}

TEST(ObsRegistry, SnapshotIsNameSorted) {
    MetricsRegistry reg;
    reg.counter("zeta").add(1);
    reg.counter("alpha").add(2);
    reg.gauge("mid").set(9);
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].first, "alpha");
    EXPECT_EQ(snap.counters[0].second, 2u);
    EXPECT_EQ(snap.counters[1].first, "zeta");
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_EQ(snap.gauges[0].second, 9);
}

TEST(ObsRegistry, JsonIsWellFormed) {
    MetricsRegistry reg;
    reg.counter("conv.tiles").add(4);
    reg.gauge("cache.bytes").set(1 << 20);
    reg.histogram("lat.us").record(100);
    const std::string json = reg.to_json();
    for (const char* key : {"\"counters\":", "\"gauges\":", "\"histograms\":",
                            "\"conv.tiles\":4", "\"cache.bytes\":1048576",
                            "\"samples\":1", "\"buckets\":"}) {
        EXPECT_NE(json.find(key), std::string::npos) << "missing " << key << " in " << json;
    }
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(ObsRegistry, ResetValuesKeepsRegistrations) {
    MetricsRegistry reg;
    Counter& c = reg.counter("n");
    c.add(10);
    reg.histogram("h").record(4);
    reg.reset_values();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(&reg.counter("n"), &c);  // reference survived
    EXPECT_EQ(reg.size(), 2u);
}

TEST(ObsRegistry, GlobalIsASingleton) {
    EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

TEST(ObsRegistry, ConcurrentRegistrationAndRecordingIsSafe) {
    MetricsRegistry reg;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&reg] {
            for (int i = 0; i < 1000; ++i) {
                reg.counter("shared").add();
                reg.counter("mod." + std::to_string(i % 8)).add();
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_EQ(reg.counter("shared").value(), 4000u);
    EXPECT_EQ(reg.size(), 9u);
}

// --- tracing -----------------------------------------------------------------

/// Every trace test leaves the global trace disabled and empty.
class ObsTrace : public ::testing::Test {
protected:
    void SetUp() override {
        trace_disable();
        trace_reset();
    }
    void TearDown() override {
        trace_disable();
        trace_reset();
    }
};

TEST_F(ObsTrace, DisabledSpansRecordNothing) {
    {
        RRS_TRACE_SPAN("never.seen");
        RRS_TRACE_SPAN("also.never");
    }
    EXPECT_TRUE(trace_events().empty());
    EXPECT_EQ(trace_dropped(), 0u);
}

TEST_F(ObsTrace, EnabledSpansAreRecordedInOrder) {
    trace_enable();
    {
        RRS_TRACE_SPAN("outer");
        RRS_TRACE_SPAN("inner");
    }
    {
        RRS_TRACE_SPAN("second");
    }
    trace_disable();
    const auto events = trace_events();
    ASSERT_EQ(events.size(), 3u);
    // Sorted by start time: outer starts before inner; both before second.
    EXPECT_STREQ(events[0].name, "outer");
    EXPECT_STREQ(events[1].name, "inner");
    EXPECT_STREQ(events[2].name, "second");
    for (const auto& e : events) {
        EXPECT_LE(e.t0_ns, e.t1_ns);
    }
    // Nesting: inner's interval lies within outer's.
    EXPECT_GE(events[1].t0_ns, events[0].t0_ns);
    EXPECT_LE(events[1].t1_ns, events[0].t1_ns);
}

TEST_F(ObsTrace, SpanOpenAcrossDisableStillRecords) {
    trace_enable();
    {
        TraceSpan span("straddler");
        trace_disable();
    }  // the span captured its start while enabled, so it records
    ASSERT_EQ(trace_events().size(), 1u);
    EXPECT_STREQ(trace_events()[0].name, "straddler");
}

TEST_F(ObsTrace, ResetForgetsRecordedSpans) {
    trace_enable();
    {
        RRS_TRACE_SPAN("gone");
    }
    trace_reset();
    EXPECT_TRUE(trace_events().empty());
    {
        RRS_TRACE_SPAN("kept");
    }
    ASSERT_EQ(trace_events().size(), 1u);
    EXPECT_STREQ(trace_events()[0].name, "kept");
}

TEST_F(ObsTrace, ThreadsRecordIntoSeparateRings) {
    trace_enable();
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < 10; ++i) {
                RRS_TRACE_SPAN("worker.span");
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    trace_disable();
    const auto events = trace_events();
    EXPECT_EQ(events.size(), 30u);
    std::set<std::uint32_t> tids;
    for (const auto& e : events) {
        tids.insert(e.tid);
    }
    EXPECT_EQ(tids.size(), 3u);
}

TEST_F(ObsTrace, ChromeTraceJsonHasExpectedShape) {
    trace_enable();
    {
        RRS_TRACE_SPAN("alpha");
    }
    {
        RRS_TRACE_SPAN("beta");
    }
    trace_disable();
    const std::string json = chrome_trace_json();
    for (const char* key : {"\"traceEvents\":", "\"name\":\"alpha\"", "\"name\":\"beta\"",
                            "\"ph\":\"X\"", "\"ts\":", "\"dur\":", "\"pid\":",
                            "\"tid\":", "\"cat\":\"rrs\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << "missing " << key << " in " << json;
    }
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST_F(ObsTrace, ChromeTraceKeepsNanosecondsAfterLongUptime) {
    // Span stamps are ns since the trace epoch; after 1e6 µs of uptime six
    // significant digits would round the start to 10 µs.
    const std::uint64_t t0_ns = 1'234'567'891'234;
    const std::uint64_t dur_ns = 5'678'901;
    detail::trace_record("late", t0_ns, t0_ns + dur_ns);
    const std::string json = chrome_trace_json();
    const std::size_t at = json.find("\"name\":\"late\"");
    ASSERT_NE(at, std::string::npos) << json;
    const auto field_ns = [&](const char* key) {
        const std::size_t pos = json.find(key, at);
        EXPECT_NE(pos, std::string::npos) << key << " in " << json;
        return std::llround(std::stod(json.substr(pos + std::strlen(key))) * 1000.0);
    };
    const double ts_us = static_cast<double>(t0_ns) / 1000.0;
    ASSERT_GE(ts_us, 1e6);
    EXPECT_LE(std::llabs(field_ns("\"ts\":") - static_cast<long long>(t0_ns)), 1);
    EXPECT_LE(std::llabs(field_ns("\"dur\":") - static_cast<long long>(dur_ns)), 1);
}

TEST_F(ObsTrace, PipelineEmitsExpectedSpanNames) {
    // The instrumentation contract the tools rely on: one generate() call
    // must produce the documented pipeline spans for the engine it ran.
    const auto s = make_gaussian({1.0, 5.0, 5.0});
    const ConvolutionGenerator gen(
        ConvolutionKernel::build_truncated(*s, GridSpec::unit_spacing(32, 32), 1e-6), 8,
        HealthPolicy::kIgnore, KernelEngine::kFft);
    trace_enable();
    (void)gen.generate(Rect{0, 0, 24, 24});
    trace_disable();
    std::set<std::string> names;
    for (const auto& e : trace_events()) {
        names.insert(e.name);
    }
    for (const char* expected :
         {"conv.generate", "conv.fft", "conv.kernel_fft", "noise.fill",
          "fft.forward", "fft.inverse", "fft.plan"}) {
        EXPECT_TRUE(names.count(expected)) << "missing span " << expected;
    }
}

TEST_F(ObsTrace, SeparableEngineEmitsItsOwnSpan) {
    // The kAuto default routes Gaussian kernels to the separable engine;
    // profiling must be able to tell the engines apart by span name.
    const auto s = make_gaussian({1.0, 5.0, 5.0});
    const ConvolutionGenerator gen(
        ConvolutionKernel::build_truncated(*s, GridSpec::unit_spacing(32, 32), 1e-6), 8);
    trace_enable();
    (void)gen.generate(Rect{0, 0, 24, 24});
    trace_disable();
    std::set<std::string> names;
    for (const auto& e : trace_events()) {
        names.insert(e.name);
    }
    for (const char* expected : {"conv.generate", "conv.separable", "noise.fill"}) {
        EXPECT_TRUE(names.count(expected)) << "missing span " << expected;
    }
    EXPECT_FALSE(names.count("conv.fft")) << "separable run must not enter the FFT engine";
}

TEST_F(ObsTrace, DisabledSpanOverheadIsNegligible) {
    // Contract smoke (the real guard is bench/obs_overhead): a disabled
    // span is an atomic load + branch, so a million of them must cost
    // far less than a millisecond each even on a loaded CI box.
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 1'000'000; ++i) {
        RRS_TRACE_SPAN("noop");
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    EXPECT_TRUE(trace_events().empty());
    EXPECT_LT(secs, 1.0);  // ~1 µs per disabled span would still pass: 100x slack
}

}  // namespace
}  // namespace rrs::obs
