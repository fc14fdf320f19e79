// Cross-cutting property sweeps: engine equality across every spectrum
// family and kernel shape, determinism across thread counts, golden
// reproducibility anchors for the stateless noise function, and golden
// tile-byte hashes that pin the numeric contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "core/convolution.hpp"
#include "core/direct_dft.hpp"
#include "core/inhomogeneous.hpp"
#include "net/tile_routes.hpp"
#include "rng/gaussian.hpp"
#include "service/tile_service.hpp"

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

// --- golden tile bytes: the numeric contract ---------------------------------
//
// One (fingerprint, tile) names one set of bytes in every build: the fused
// primitives and -ffp-contract=off leave the compiler no rounding to choose
// (DESIGN.md §15.3), so these hashes hold unchanged in the release,
// sanitize, coverage and tsan presets and with RRS_ENABLE_NATIVE_ARCH=OFF.
// glibc picks its log, cos and exp variants by CPU at run time (the noise
// and the kernel spectra call them), so the constants are pinned per host
// CPU class, not across every host.  An intentional numeric change updates
// them and is recorded in CHANGES.md: it changes every served byte.

std::uint64_t fnv1a(std::string_view bytes) {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const char c : bytes) {
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
    }
    return h;
}

std::uint64_t fnv1a(const Array2D<double>& f) {
    return fnv1a(std::string_view(reinterpret_cast<const char*>(f.data()),
                                  f.size() * sizeof(double)));
}

ConvolutionGenerator golden_gen(const SpectrumPtr& s, KernelEngine engine) {
    return ConvolutionGenerator(
        ConvolutionKernel::build_truncated(*s, GridSpec::unit_spacing(64, 64), 1e-8), 2024,
        HealthPolicy::kIgnore, engine);
}

InhomogeneousGenerator golden_blend() {
    const auto map = std::make_shared<const CircleMap>(
        0.0, 0.0, 20.0, make_exponential({0.3, 6.0, 6.0}), make_gaussian({1.0, 6.0, 6.0}),
        8.0);
    return InhomogeneousGenerator(map, GridSpec::unit_spacing(64, 64), 2024);
}

TEST(Golden, SeparableGaussianTileBytes) {
    const auto gen = golden_gen(make_gaussian({1.0, 5.0, 7.0}), KernelEngine::kAuto);
    ASSERT_EQ(gen.engine(), KernelEngine::kSeparable);
    EXPECT_EQ(fnv1a(gen.generate(Rect{-13, 21, 37, 29})), 0xD1B8D17D72183A85ULL);
}

TEST(Golden, FftExponentialTileBytes) {
    const auto gen = golden_gen(make_exponential({1.0, 6.0, 6.0}), KernelEngine::kAuto);
    ASSERT_EQ(gen.engine(), KernelEngine::kFft);
    EXPECT_EQ(fnv1a(gen.generate(Rect{5, -40, 33, 30})), 0x63CE41D03588DBE7ULL);
}

TEST(Golden, DirectEngineTileBytes) {
    const auto gen = golden_gen(make_power_law({1.0, 5.0, 5.0}, 3.5), KernelEngine::kDirect);
    EXPECT_EQ(fnv1a(gen.generate(Rect{-7, -9, 17, 15})), 0xB6E957BF2A6F3396ULL);
}

TEST(Golden, InhomogeneousBlendTileBytes) {
    const auto gen = golden_blend();
    EXPECT_EQ(fnv1a(gen.generate(Rect{-24, -6, 48, 30})), 0x844F6ABBA2C08AD4ULL);
}

TEST(Golden, ZoomedServiceTileBytes) {
    const auto gen = golden_blend();
    TileService::Options opt;
    opt.shape = TileShape{32, 32};
    TileService service(gen, opt);
    EXPECT_EQ(fnv1a(*service.get(TileKey{-1, 0, 1})), 0xFEA1AB5D77FC85A7ULL);
}

// The wire bodies of the golden tiles: each encoding's bytes, and the i16
// scale/offset headers, are fixed by the tile's doubles.  The constants were
// taken from the byte-at-a-time encoders the word-wise ones replaced.
TEST(Golden, WireBodies) {
    struct Case {
        const char* name;
        Array2D<double> tile;
        std::uint64_t f32, i16, f64;
        const char* scale;
        const char* offset;
    };
    const auto blend = golden_blend();
    TileService::Options opt;
    opt.shape = TileShape{32, 32};
    TileService zoomed(blend, opt);
    const Case cases[] = {
        {"separable",
         golden_gen(make_gaussian({1.0, 5.0, 7.0}), KernelEngine::kAuto)
             .generate(Rect{-13, 21, 37, 29}),
         0xA211093D0D0FEB9AULL, 0x6C58B5B983885BEEULL, 0xD1B8D17D72183A85ULL,
         "6.000255932742281e-05", "0.38533714961420296"},
        {"fft",
         golden_gen(make_exponential({1.0, 6.0, 6.0}), KernelEngine::kAuto)
             .generate(Rect{5, -40, 33, 30}),
         0x37A8DB60736358ADULL, 0x06DFB655420B3DB7ULL, 0x63CE41D03588DBE7ULL,
         "0.00010446875224108697", "0.69839831691995347"},
        {"direct",
         golden_gen(make_power_law({1.0, 5.0, 5.0}, 3.5), KernelEngine::kDirect)
             .generate(Rect{-7, -9, 17, 15}),
         0x5FF5D9CD28BFF541ULL, 0x77512908C22854D5ULL, 0xB6E957BF2A6F3396ULL,
         "2.7846321889482422e-05", "0.43142021489278692"},
        {"blend", blend.generate(Rect{-24, -6, 48, 30}),
         0xBC4535D4BA6FC6B3ULL, 0xC2BFC15A857FC8FEULL, 0x844F6ABBA2C08AD4ULL,
         "5.3691570972127486e-05", "0.68704113704052561"},
        {"zoomed", *zoomed.get(TileKey{-1, 0, 1}),
         0x00C3966738B3F1EDULL, 0xEE4208CB9E8ABCABULL, 0xFEA1AB5D77FC85A7ULL,
         "7.4719520287919939e-05", "-0.05799869196694174"},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        EXPECT_EQ(fnv1a(net::encode_tile_f32(c.tile)), c.f32);
        EXPECT_EQ(fnv1a(net::encode_tile_f64(c.tile)), c.f64);
        const net::HttpResponse i16 = net::surface_response(
            c.tile, Rect{0, 0, 1, 1}, "golden", 1, net::WireEncoding::kI16);
        EXPECT_EQ(fnv1a(i16.body()), c.i16);
        ASSERT_GE(i16.extra_headers.size(), 2u);
        EXPECT_EQ(i16.extra_headers[0], std::make_pair(std::string("X-RRS-Scale"),
                                                        std::string(c.scale)));
        EXPECT_EQ(i16.extra_headers[1], std::make_pair(std::string("X-RRS-Offset"),
                                                        std::string(c.offset)));
    }
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
