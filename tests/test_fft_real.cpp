// Tests for the real-input (r2c / c2r) FFT path against the complex
// transforms it packs.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "fft/fft2d.hpp"
#include "fft/real.hpp"
#include "rng/engines.hpp"

namespace rrs {
namespace {

std::vector<double> random_real(std::size_t n, std::uint64_t seed) {
    SplitMix64 e{seed};
    std::vector<double> x(n);
    for (auto& v : x) {
        v = 2.0 * to_unit_halfopen(e()) - 1.0;
    }
    return x;
}

class RfftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RfftSizes, ForwardMatchesComplexFft) {
    const std::size_t n = GetParam();
    const auto x = random_real(n, 10 + n);
    Rfft1D plan(n);
    std::vector<cplx> half(plan.spectrum_size());
    plan.forward(x, half);

    std::vector<cplx> full(n);
    for (std::size_t i = 0; i < n; ++i) {
        full[i] = cplx{x[i], 0.0};
    }
    Fft1D cplan(n);
    cplan.forward(full);
    for (std::size_t k = 0; k <= n / 2; ++k) {
        EXPECT_LT(std::abs(half[k] - full[k]), 1e-10) << "n=" << n << " k=" << k;
    }
}

TEST_P(RfftSizes, RoundTripIsIdentity) {
    const std::size_t n = GetParam();
    const auto x = random_real(n, 77 + n);
    Rfft1D plan(n);
    std::vector<cplx> half(plan.spectrum_size());
    std::vector<double> back(n);
    plan.forward(x, half);
    plan.inverse(half, back);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(back[i], x[i], 1e-11) << "n=" << n << " i=" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(EvenLengths, RfftSizes,
                         ::testing::Values<std::size_t>(2, 4, 8, 16, 64, 256, 1024, 6, 10,
                                                        50, 100));

TEST(Rfft1D, EndpointBinsAreReal) {
    const std::size_t n = 32;
    const auto x = random_real(n, 5);
    Rfft1D plan(n);
    std::vector<cplx> half(plan.spectrum_size());
    plan.forward(x, half);
    EXPECT_EQ(half[0].imag(), 0.0);
    EXPECT_EQ(half[n / 2].imag(), 0.0);
    // DC bin is the plain sum.
    double sum = 0.0;
    for (const double v : x) {
        sum += v;
    }
    EXPECT_NEAR(half[0].real(), sum, 1e-12);
}

TEST(Rfft1D, RejectsOddOrShortLengths) {
    EXPECT_THROW(Rfft1D{3}, std::invalid_argument);
    EXPECT_THROW(Rfft1D{0}, std::invalid_argument);
    Rfft1D plan(8);
    std::vector<cplx> wrong(3);
    std::vector<double> x(8);
    EXPECT_THROW(plan.forward(x, wrong), std::invalid_argument);
}

TEST(Rfft2D, MatchesComplex2dHalfSpectrum) {
    const std::size_t nx = 16;
    const std::size_t ny = 12;
    Array2D<double> f(nx, ny);
    SplitMix64 e{3};
    for (auto& v : f) {
        v = 2.0 * to_unit_halfopen(e()) - 1.0;
    }
    Rfft2D plan(nx, ny);
    Array2D<cplx> half;
    plan.forward(f, half);
    ASSERT_EQ(half.nx(), nx / 2 + 1);
    ASSERT_EQ(half.ny(), ny);

    const auto full = fft2d_forward(f);
    for (std::size_t my = 0; my < ny; ++my) {
        for (std::size_t mx = 0; mx <= nx / 2; ++mx) {
            EXPECT_LT(std::abs(half(mx, my) - full(mx, my)), 1e-10)
                << mx << "," << my;
        }
    }
}

TEST(Rfft2D, RoundTrip) {
    const std::size_t nx = 32;
    const std::size_t ny = 8;
    Array2D<double> f(nx, ny);
    SplitMix64 e{9};
    for (auto& v : f) {
        v = to_unit_halfopen(e());
    }
    Rfft2D plan(nx, ny);
    Array2D<cplx> half;
    Array2D<double> back;
    plan.forward(f, half);
    plan.inverse(half, back);
    EXPECT_LT(max_abs_diff(f, back), 1e-11);

    // An output that already has the transform's shape (the FFT engine
    // inverts into its padded noise image) gets the same bytes.
    Array2D<double> reused = f;
    plan.inverse(std::move(half), reused);
    EXPECT_EQ(reused, back);
}

TEST(Rfft2D, ConvolutionViaHalfSpectrumMatchesFull) {
    // Multiply two real fields' half-spectra and invert: must equal the
    // full complex-path circular convolution.
    const std::size_t n = 16;
    Array2D<double> a(n, n, 0.0), b(n, n, 0.0);
    a(1, 2) = 1.0;
    a(5, 9) = -2.0;
    b(0, 0) = 0.5;
    b(3, 1) = 1.5;

    Rfft2D plan(n, n);
    Array2D<cplx> A, B;
    plan.forward(a, A);
    plan.forward(b, B);
    for (std::size_t i = 0; i < A.size(); ++i) {
        A.data()[i] *= B.data()[i];
    }
    Array2D<double> conv_half;
    plan.inverse(A, conv_half);

    auto FA = fft2d_forward(a);
    const auto FB = fft2d_forward(b);
    for (std::size_t i = 0; i < FA.size(); ++i) {
        FA.data()[i] *= FB.data()[i];
    }
    const auto conv_full = fft2d_inverse_real(std::move(FA));
    EXPECT_LT(max_abs_diff(conv_half, conv_full), 1e-11);
}

TEST(Rfft2D, PlanCache) {
    const auto p1 = rfft2d_plan(64, 32);
    const auto p2 = rfft2d_plan(64, 32);
    EXPECT_EQ(p1.get(), p2.get());
    EXPECT_NE(p1.get(), rfft2d_plan(32, 64).get());
}

}  // namespace
}  // namespace rrs
