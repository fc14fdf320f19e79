// Differential-equivalence suite for the kernel engines (DESIGN.md §15).
//
// `generate(region, KernelEngine::kDirect)` — the literal eq. (36) tap
// sum — is the reference; every fast engine is bounded against it:
//
//   * separable (two SIMD 1-D passes)  : ≤ 1e-12 on every point,
//   * fft (padded r2c circular conv)   : ≤ 1e-10 on every point,
//
// across odd/even tile shapes, truncated and full kernels, anisotropic
// correlation lengths, and RRS_THREADS ∈ {1, 2, 5}.  Bit-exactness is
// asserted where claimed: one engine at different thread counts, and
// overlapping rectangles through the separable engine (randomized rect
// pairs, seeded via RRS_EQ_SEED and logged for replay).
//
// The suite also pins the engine-selection contract: kAuto resolution,
// the RRS_KERNEL_ENGINE escape hatch (malformed values must throw, not
// silently fall back), the scene `engine =` key, and the SIMD primitives
// against scalar references.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/convolution.hpp"
#include "core/engine.hpp"
#include "grid/simd.hpp"
#include "io/scene.hpp"

namespace rrs {
namespace {

ConvolutionGenerator make_gen(const SpectrumPtr& s, std::uint64_t seed,
                              double eps = 1e-8, std::size_t n = 64) {
    ConvolutionKernel k =
        eps > 0.0 ? ConvolutionKernel::build_truncated(*s, GridSpec::unit_spacing(n, n), eps)
                  : ConvolutionKernel::build(*s, GridSpec::unit_spacing(n, n));
    return ConvolutionGenerator(std::move(k), seed);
}

/// RAII env-var override (copied idiom from test_convolution.cpp).
class EnvGuard {
public:
    EnvGuard(const char* name, const std::string& value) : name_(name) {
        const char* prev = std::getenv(name_);
        had_prev_ = prev != nullptr;
        if (had_prev_) {
            prev_ = prev;
        }
        ::setenv(name_, value.c_str(), 1);
    }
    ~EnvGuard() {
        if (had_prev_) {
            ::setenv(name_, prev_.c_str(), 1);
        } else {
            ::unsetenv(name_);
        }
    }
    EnvGuard(const EnvGuard&) = delete;
    EnvGuard& operator=(const EnvGuard&) = delete;

private:
    const char* name_;
    bool had_prev_ = false;
    std::string prev_;
};

class ThreadCountGuard : public EnvGuard {
public:
    explicit ThreadCountGuard(int threads)
        : EnvGuard("RRS_THREADS", std::to_string(threads)) {}
};

/// SplitMix64 for the randomized-rect property tests: tiny, seedable, and
/// independent of library RNG so replays are stable across refactors.
std::uint64_t splitmix64(std::uint64_t& state) {
    state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

std::int64_t rand_range(std::uint64_t& state, std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(splitmix64(state) %
                                          static_cast<std::uint64_t>(hi - lo + 1));
}

TEST(KernelEquivalence, GaussianFactorsRankOneOthersDoNot) {
    const GridSpec g = GridSpec::unit_spacing(64, 64);
    // Gaussian: exact outer product up to FFT rounding — isotropic,
    // anisotropic, truncated, and full even-dimension kernels all factor.
    for (const auto& k :
         {ConvolutionKernel::build(*make_gaussian({1.0, 6.0, 6.0}), g),
          ConvolutionKernel::build(*make_gaussian({0.5, 9.0, 3.0}), g),
          ConvolutionKernel::build_truncated(*make_gaussian({1.0, 6.0, 6.0}), g, 1e-8),
          ConvolutionKernel::build_truncated(*make_gaussian({2.0, 9.0, 3.0}), g, 1e-4)}) {
        const auto f = k.separable();
        ASSERT_TRUE(f.has_value());
        EXPECT_LT(f->residual, 1e-13);
        EXPECT_EQ(f->fx.size(), k.nx());
        EXPECT_EQ(f->fy.size(), k.ny());
    }
    // Exponential and power-law kernels are genuinely rank > 1.
    EXPECT_FALSE(ConvolutionKernel::build(*make_exponential({1.0, 6.0, 6.0}), g)
                     .separable()
                     .has_value());
    EXPECT_FALSE(ConvolutionKernel::build(*make_power_law({1.0, 6.0, 6.0}, 2.0), g)
                     .separable()
                     .has_value());
}

TEST(KernelEquivalence, SeparableMatchesDirectToTolerance) {
    // Engine × odd/even shapes × truncation × anisotropic cl.  The 1e-12
    // bound is the suite's headline contract.
    struct Case {
        SpectrumPtr s;
        double eps;
    };
    const Case cases[] = {{make_gaussian({1.0, 6.0, 6.0}), 1e-8},
                          {make_gaussian({0.7, 9.0, 3.0}), 1e-6},   // anisotropic
                          {make_gaussian({1.0, 6.0, 6.0}), 1e-4},   // loose truncation
                          {make_gaussian({1.5, 5.0, 11.0}), 0.0}};  // full even kernel
    std::uint64_t seed = 100;
    for (const Case& c : cases) {
        const auto gen = make_gen(c.s, seed++, c.eps);
        ASSERT_TRUE(gen.separable_available());
        for (const Rect r : {Rect{0, 0, 40, 40}, Rect{-17, 23, 31, 19},
                             Rect{5, -60, 64, 8}, Rect{-3, -3, 33, 17}}) {
            const auto sep = gen.generate(r, KernelEngine::kSeparable);
            const auto ref = gen.generate(r, KernelEngine::kDirect);
            EXPECT_LT(max_abs_diff(sep, ref), 1e-12)
                << c.s->name() << " eps=" << c.eps << " rect " << r.x0 << "," << r.y0
                << " " << r.nx << "x" << r.ny;
        }
    }
}

TEST(KernelEquivalence, FftMatchesDirectToTolerance) {
    // The r2c + SIMD pointwise-multiply FFT engine against the reference
    // (both separable and non-separable kernels travel this path).
    for (const auto& s : {make_gaussian({1.0, 6.0, 6.0}), make_exponential({1.0, 6.0, 6.0}),
                          make_power_law({1.2, 8.0, 4.0}, 2.0)}) {
        const auto gen = make_gen(s, 42);
        for (const Rect r : {Rect{0, 0, 40, 40}, Rect{-17, 23, 31, 19}}) {
            EXPECT_LT(max_abs_diff(gen.generate(r, KernelEngine::kFft),
                                   gen.generate(r, KernelEngine::kDirect)),
                      1e-10)
                << s->name();
        }
    }
}

TEST(KernelEquivalence, SeparableBitIdenticalAcrossThreadCounts) {
    // Each engine is individually bit-deterministic: both passes use a
    // fixed accumulation order per output row, so RRS_THREADS must never
    // leak into the surface.
    const auto gen = make_gen(make_gaussian({1.0, 6.0, 6.0}), 77, 1e-6);
    for (const Rect r : {Rect{-5, 3, 33, 17}, Rect{0, 0, 32, 32}}) {
        Array2D<double> base;
        {
            const ThreadCountGuard one(1);
            base = gen.generate(r, KernelEngine::kSeparable);
        }
        for (const int threads : {2, 5}) {
            const ThreadCountGuard guard(threads);
            EXPECT_EQ(gen.generate(r, KernelEngine::kSeparable), base)
                << "threads=" << threads << " rect " << r.x0 << "," << r.y0;
        }
    }
}

TEST(KernelEquivalence, SeparableOverlappingRectsBitExactRandomized) {
    // Property test: any two overlapping rectangles agree bit-exactly on
    // the overlap (the separable passes see different halos, but every
    // output point's accumulation order is rect-independent).  Seeded via
    // RRS_EQ_SEED and recorded for replay.
    std::uint64_t seed = 0xC0FFEE;
    if (const char* env = std::getenv("RRS_EQ_SEED")) {
        seed = std::strtoull(env, nullptr, 0);
    }
    ::testing::Test::RecordProperty("RRS_EQ_SEED", std::to_string(seed));
    SCOPED_TRACE("RRS_EQ_SEED=" + std::to_string(seed) +
                 " (set this env var to replay)");
    std::uint64_t state = seed;

    const auto gen = make_gen(make_gaussian({1.0, 6.0, 6.0}), 31, 1e-8);
    int checked = 0;
    for (int trial = 0; trial < 40 && checked < 20; ++trial) {
        const Rect a{rand_range(state, -80, 40), rand_range(state, -80, 40),
                     rand_range(state, 1, 48), rand_range(state, 1, 48)};
        const Rect b{rand_range(state, a.x0 - 20, a.x0 + 20),
                     rand_range(state, a.y0 - 20, a.y0 + 20),
                     rand_range(state, 1, 48), rand_range(state, 1, 48)};
        const std::int64_t x0 = std::max(a.x0, b.x0);
        const std::int64_t y0 = std::max(a.y0, b.y0);
        const std::int64_t x1 = std::min(a.x0 + a.nx, b.x0 + b.nx);
        const std::int64_t y1 = std::min(a.y0 + a.ny, b.y0 + b.ny);
        if (x0 >= x1 || y0 >= y1) {
            continue;  // disjoint draw; try again
        }
        ++checked;
        const auto fa = gen.generate(a, KernelEngine::kSeparable);
        const auto fb = gen.generate(b, KernelEngine::kSeparable);
        for (std::int64_t y = y0; y < y1; ++y) {
            for (std::int64_t x = x0; x < x1; ++x) {
                const double va = fa(static_cast<std::size_t>(x - a.x0),
                                     static_cast<std::size_t>(y - a.y0));
                const double vb = fb(static_cast<std::size_t>(x - b.x0),
                                     static_cast<std::size_t>(y - b.y0));
                ASSERT_EQ(va, vb) << "trial " << trial << " point (" << x << "," << y
                                  << ") rects (" << a.x0 << "," << a.y0 << " " << a.nx
                                  << "x" << a.ny << ") vs (" << b.x0 << "," << b.y0
                                  << " " << b.nx << "x" << b.ny << ")";
            }
        }
    }
    ASSERT_GE(checked, 10) << "rect sampler produced too few overlapping pairs";
}

TEST(KernelEquivalence, AutoResolvesSeparableForGaussianFftOtherwise) {
    const auto gauss = make_gen(make_gaussian({1.0, 6.0, 6.0}), 1);
    EXPECT_EQ(gauss.resolved_engine(), KernelEngine::kSeparable);
    const auto expo = make_gen(make_exponential({1.0, 6.0, 6.0}), 1);
    EXPECT_FALSE(expo.separable_available());
    EXPECT_EQ(expo.resolved_engine(), KernelEngine::kFft);
}

TEST(KernelEquivalence, ConfiguredEngineIsHonoured) {
    auto gen = make_gen(make_gaussian({1.0, 6.0, 6.0}), 5);
    const Rect r{-4, 7, 19, 23};
    gen.set_engine(KernelEngine::kDirect);
    EXPECT_EQ(gen.resolved_engine(), KernelEngine::kDirect);
    EXPECT_EQ(gen.generate(r), gen.generate(r, KernelEngine::kDirect));  // bit-exact dispatch
    gen.set_engine(KernelEngine::kFft);
    EXPECT_EQ(gen.generate(r), gen.generate(r, KernelEngine::kFft));
    gen.set_engine(KernelEngine::kSeparable);
    EXPECT_EQ(gen.generate(r), gen.generate(r, KernelEngine::kSeparable));
}

TEST(KernelEquivalence, EnvOverrideBeatsConfiguredEngine) {
    // The escape hatch: one env var turns any run into a reference run.
    auto gen = make_gen(make_gaussian({1.0, 6.0, 6.0}), 9);
    gen.set_engine(KernelEngine::kSeparable);
    const Rect r{0, 0, 24, 24};
    const EnvGuard env("RRS_KERNEL_ENGINE", "direct");
    EXPECT_EQ(gen.resolved_engine(), KernelEngine::kDirect);
    EXPECT_EQ(gen.generate(r), gen.generate(r, KernelEngine::kDirect));
}

TEST(KernelEquivalence, MalformedEnvOverrideThrowsInsteadOfFallingBack) {
    const auto gen = make_gen(make_gaussian({1.0, 6.0, 6.0}), 9);
    const EnvGuard env("RRS_KERNEL_ENGINE", "sperable");  // typo
    EXPECT_THROW(gen.resolved_engine(), ConfigError);
    EXPECT_THROW(gen.generate(Rect{0, 0, 8, 8}), ConfigError);
}

TEST(KernelEquivalence, SeparableEngineRejectsNonSeparableKernel) {
    const auto gen = make_gen(make_exponential({1.0, 6.0, 6.0}), 3);
    EXPECT_THROW(gen.generate(Rect{0, 0, 8, 8}, KernelEngine::kSeparable), ConfigError);
    const EnvGuard env("RRS_KERNEL_ENGINE", "separable");
    EXPECT_THROW(gen.generate(Rect{0, 0, 8, 8}), ConfigError);
}

TEST(KernelEquivalence, EngineNamesRoundTripAndRejectUnknown) {
    for (const KernelEngine e : {KernelEngine::kAuto, KernelEngine::kDirect,
                                 KernelEngine::kFft, KernelEngine::kSeparable}) {
        EXPECT_EQ(parse_kernel_engine(kernel_engine_name(e)), e);
    }
    EXPECT_THROW(parse_kernel_engine("dense"), ConfigError);
    EXPECT_THROW(parse_kernel_engine(""), ConfigError);
}

TEST(KernelEquivalence, SimdPrimitivesMatchScalarReference) {
    EXPECT_NE(simd::backend(), nullptr);
    std::uint64_t state = 0x51D5EED5;
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                                std::size_t{4}, std::size_t{7}, std::size_t{8},
                                std::size_t{9}, std::size_t{17}, std::size_t{64},
                                std::size_t{1000}}) {
        std::vector<double> a(n);
        std::vector<double> b(n);
        for (std::size_t i = 0; i < n; ++i) {
            a[i] = static_cast<double>(static_cast<std::int64_t>(
                       splitmix64(state) % 2001) - 1000) / 997.0;
            b[i] = static_cast<double>(static_cast<std::int64_t>(
                       splitmix64(state) % 2001) - 1000) / 1009.0;
        }
        // dot
        double ref = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            ref += a[i] * b[i];
        }
        EXPECT_NEAR(simd::dot(a.data(), b.data(), n), ref, 1e-12) << "dot n=" << n;
        // axpy
        std::vector<double> y = b;
        simd::axpy(y.data(), a.data(), 1.75, n);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(y[i], b[i] + 1.75 * a[i], 1e-13) << "axpy n=" << n << " i=" << i;
        }
        // cmul
        std::vector<std::complex<double>> ca(n);
        std::vector<std::complex<double>> cb(n);
        for (std::size_t i = 0; i < n; ++i) {
            ca[i] = {a[i], b[i]};
            cb[i] = {b[i], a[i]};
        }
        std::vector<std::complex<double>> expect = ca;
        for (std::size_t i = 0; i < n; ++i) {
            expect[i] *= cb[i];
        }
        simd::cmul(ca.data(), cb.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(std::abs(ca[i] - expect[i]), 0.0, 1e-13)
                << "cmul n=" << n << " i=" << i;
        }
    }
}

TEST(KernelEquivalence, SceneEngineKeySelectsEngineAndRejectsUnknown) {
    const std::string base = R"(seed = 3
kernel_grid = 64 64
region = 0 0 48 48
tail_eps = 1e-6
{ENGINE}
[spectrum field]
family = gaussian
h = 1.0
cl = 6

[map]
type = homogeneous
spectrum = field
)";
    auto with_engine = [&](const std::string& line) {
        std::string text = base;
        text.replace(text.find("{ENGINE}"), 8, line);
        return text;
    };
    const Scene def = parse_scene_text(with_engine(""));
    EXPECT_EQ(def.engine, KernelEngine::kAuto);
    const Scene sep = parse_scene_text(with_engine("engine = separable"));
    EXPECT_EQ(sep.engine, KernelEngine::kSeparable);
    const Scene dir = parse_scene_text(with_engine("engine = direct"));
    EXPECT_EQ(dir.engine, KernelEngine::kDirect);

    // All engines render the same scene to within the differential bound.
    const auto f_sep = render_scene(sep);
    const auto f_dir = render_scene(dir);
    EXPECT_LT(max_abs_diff(f_sep, f_dir), 1e-10);

    // Unknown engine name → SceneError (IS-A ConfigError) with the line.
    try {
        parse_scene_text(with_engine("engine = dense"));
        FAIL() << "expected SceneError";
    } catch (const SceneError& e) {
        EXPECT_EQ(e.line(), 5u);
        EXPECT_NE(std::string(e.what()).find("dense"), std::string::npos);
    }
}

TEST(KernelEquivalence, InhomogeneousEngineOptionReachesRegionGenerators) {
    // A gaussian-only map under engine=separable must render, and match
    // the per-point reference blend to the usual inhomogeneous bound.
    const std::string text = R"(seed = 11
kernel_grid = 64 64
region = -16 -16 40 40
tail_eps = 1e-6
engine = separable

[spectrum a]
family = gaussian
h = 1.0
cl = 6

[spectrum b]
family = gaussian
h = 0.4
cl = 10

[map]
type = circle
center = 0 0
radius = 12
transition = 6
inside = b
outside = a
)";
    const Scene scene = parse_scene_text(text);
    const InhomogeneousGenerator gen = make_scene_generator(scene);
    const auto fast = gen.generate(scene.region);
    const auto ref = gen.generate_reference(scene.region);
    EXPECT_LT(max_abs_diff(fast, ref), 1e-9);
}

}  // namespace
}  // namespace rrs
