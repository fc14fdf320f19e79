// Tests for the convolution method (paper §2.4, eq. 36): engine
// equivalence (direct vs FFT), the exact eq. 30↔36 chain against the
// direct DFT method, streaming consistency, and surface statistics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "core/convolution.hpp"
#include "core/direct_dft.hpp"
#include "core/hermitian_noise.hpp"
#include "fft/fft2d.hpp"
#include "rng/engines.hpp"
#include "stats/autocorr.hpp"
#include "stats/moments.hpp"

namespace rrs {
namespace {

ConvolutionGenerator make_gen(SpectrumPtr s, std::uint64_t seed, double eps = 1e-8,
                              std::size_t n = 128) {
    return ConvolutionGenerator(
        ConvolutionKernel::build_truncated(*s, GridSpec::unit_spacing(n, n), eps), seed);
}

TEST(Convolution, DirectAndFftEnginesAgree) {
    const auto gen = make_gen(make_gaussian({1.0, 8.0, 8.0}), 11);
    for (const Rect r : {Rect{0, 0, 40, 40}, Rect{-17, 23, 31, 19}, Rect{5, -60, 64, 8}}) {
        const auto a = gen.generate(r, KernelEngine::kFft);
        const auto b = gen.generate(r, KernelEngine::kDirect);
        EXPECT_LT(max_abs_diff(a, b), 1e-10)
            << "rect " << r.x0 << "," << r.y0 << " " << r.nx << "x" << r.ny;
    }
}

TEST(Convolution, EnginesAgreeForAnisotropicEvenKernel) {
    // Full (untruncated) kernels have even dims → asymmetric halo; both
    // engines must handle it identically.
    const auto s = make_gaussian({1.0, 6.0, 12.0});
    ConvolutionGenerator gen(ConvolutionKernel::build(*s, GridSpec::unit_spacing(64, 64)),
                             3);
    const Rect r{-9, 4, 25, 33};
    EXPECT_LT(max_abs_diff(gen.generate(r, KernelEngine::kFft),
                           gen.generate(r, KernelEngine::kDirect)),
              1e-10);
}

TEST(Convolution, OverlappingRegionsAgreeExactly) {
    // The heart of "successive computations": the same lattice point gets
    // the same height no matter which tile computed it.
    const auto gen = make_gen(make_exponential({1.0, 6.0, 6.0}), 99);
    const Rect big{0, 0, 96, 96};
    const Rect sub{32, 40, 33, 17};
    const auto fb = gen.generate(big);
    const auto fs = gen.generate(sub);
    double md = 0.0;
    for (std::int64_t ty = 0; ty < sub.ny; ++ty) {
        for (std::int64_t tx = 0; tx < sub.nx; ++tx) {
            const double a = fb(static_cast<std::size_t>(sub.x0 + tx),
                                static_cast<std::size_t>(sub.y0 + ty));
            const double b =
                fs(static_cast<std::size_t>(tx), static_cast<std::size_t>(ty));
            md = std::max(md, std::abs(a - b));
        }
    }
    EXPECT_LT(md, 1e-10);
}

TEST(Convolution, EnginesReadACallerSuppliedNoiseWindow) {
    // Each engine convolves a window of a larger, offset X bit-identically
    // to the halo it fills itself; the even (untruncated) kernel has an
    // asymmetric halo.
    const auto s = make_gaussian({1.0, 3.0, 5.0});
    const GridSpec grid = GridSpec::unit_spacing(32, 32);
    for (const bool truncate : {true, false}) {
        for (const KernelEngine e :
             {KernelEngine::kDirect, KernelEngine::kFft, KernelEngine::kSeparable}) {
            const ConvolutionGenerator gen(
                truncate ? ConvolutionKernel::build_truncated(*s, grid, 1e-8)
                         : ConvolutionKernel::build(*s, grid),
                17, HealthPolicy::kIgnore, e);
            ASSERT_TRUE(gen.separable_available());
            const Rect r{-7, 3, 19, 11};
            const Rect halo = gen.halo_rect(r);
            EXPECT_EQ(halo.nx, r.nx + static_cast<std::int64_t>(gen.kernel().nx()) - 1);
            EXPECT_EQ(halo.ny, r.ny + static_cast<std::int64_t>(gen.kernel().ny()) - 1);
            const Rect xrect{halo.x0 - 5, halo.y0 - 2, halo.nx + 9, halo.ny + 4};
            EXPECT_EQ(gen.generate(r, gen.noise_tile(xrect), xrect), gen.generate(r, e))
                << kernel_engine_name(e) << " truncated=" << truncate;
        }
    }
}

TEST(Convolution, NoiseWindowMustCoverTheHaloAndMatchItsField) {
    const auto gen = make_gen(make_gaussian({1.0, 5.0, 5.0}), 3);
    const Rect r{2, -4, 9, 7};
    const Rect h = gen.halo_rect(r);
    EXPECT_EQ(gen.generate(r, gen.noise_tile(h), h), gen.generate(r));
    // One point short on the left, right, bottom and top.
    const Rect short_windows[] = {{h.x0 + 1, h.y0, h.nx - 1, h.ny},
                                  {h.x0, h.y0, h.nx - 1, h.ny},
                                  {h.x0, h.y0 + 1, h.nx, h.ny - 1},
                                  {h.x0, h.y0, h.nx, h.ny - 1}};
    for (const Rect& w : short_windows) {
        EXPECT_THROW(gen.generate(r, gen.noise_tile(w), w), ConfigError)
            << w.x0 << "," << w.y0 << " " << w.nx << "x" << w.ny;
    }
    // A window that covers the halo but is not the field's shape.
    EXPECT_THROW(gen.generate(r, gen.noise_tile(h), dilate(h, 1, 0)), ConfigError);
    EXPECT_THROW(gen.generate(r, gen.noise_tile(dilate(h, 0, 1)), h), ConfigError);
}

TEST(Convolution, DeterministicInSeed) {
    const auto a = make_gen(make_gaussian({1.0, 5.0, 5.0}), 7);
    const auto b = make_gen(make_gaussian({1.0, 5.0, 5.0}), 7);
    const auto c = make_gen(make_gaussian({1.0, 5.0, 5.0}), 8);
    const Rect r{0, 0, 32, 32};
    EXPECT_EQ(a.generate(r), b.generate(r));
    EXPECT_NE(a.generate(r), c.generate(r));
}

TEST(Convolution, NoiseTileMatchesLattice) {
    const auto gen = make_gen(make_gaussian({1.0, 5.0, 5.0}), 13);
    const Rect r{-3, 2, 8, 8};
    const auto X = gen.noise_tile(r);
    for (std::int64_t ty = 0; ty < r.ny; ++ty) {
        for (std::int64_t tx = 0; tx < r.nx; ++tx) {
            EXPECT_EQ(X(static_cast<std::size_t>(tx), static_cast<std::size_t>(ty)),
                      gen.noise()(r.x0 + tx, r.y0 + ty));
        }
    }
}

TEST(Convolution, EmptyRegionThrows) {
    const auto gen = make_gen(make_gaussian({1.0, 5.0, 5.0}), 1);
    EXPECT_THROW(gen.generate(Rect{0, 0, 0, 5}), std::invalid_argument);
    EXPECT_THROW(gen.generate(Rect{0, 0, 5, 0}, KernelEngine::kDirect), std::invalid_argument);
    EXPECT_THROW(gen.noise_tile(Rect{0, 0, -1, 5}), std::invalid_argument);
}

TEST(Convolution, VarianceMatchesKernelEnergy) {
    const auto s = make_gaussian({1.5, 8.0, 8.0});
    const auto gen = make_gen(s, 21, 1e-8, 128);
    MomentAccumulator acc;
    // Large area → many independent correlation cells.
    const auto f = gen.generate(Rect{0, 0, 512, 512});
    for (std::size_t i = 0; i < f.size(); ++i) {
        acc.add(f.data()[i]);
    }
    EXPECT_NEAR(acc.variance(), gen.kernel().energy(), 0.06 * gen.kernel().energy());
    EXPECT_NEAR(acc.mean(), 0.0, 0.1);
}

TEST(Convolution, EmpiricalAcfMatchesAnalyticRho) {
    const SurfaceParams p{1.0, 10.0, 10.0};
    const auto s = make_gaussian(p);
    const auto gen = make_gen(s, 5, 1e-8, 128);
    const auto f = gen.generate(Rect{0, 0, 512, 512});
    const auto acf = circular_autocovariance(f, false);
    const auto slice = lag_slice_x(acf, 40);
    for (const std::size_t lag : {0u, 5u, 10u, 20u}) {
        EXPECT_NEAR(slice[lag], s->autocorrelation(static_cast<double>(lag), 0.0), 0.08)
            << "lag=" << lag;
    }
    EXPECT_NEAR(estimate_correlation_length(slice), 10.0, 1.2);
}

TEST(Convolution, SurfaceIsNotPeriodic) {
    // Unlike the direct DFT method, convolution surfaces don't wrap.
    const auto gen = make_gen(make_gaussian({1.0, 10.0, 10.0}), 17, 1e-8, 128);
    const auto f = gen.generate(Rect{0, 0, 256, 256});
    double c_wrap = 0.0, var = 0.0;
    for (std::size_t iy = 0; iy < 256; ++iy) {
        c_wrap += f(0, iy) * f(255, iy);
        var += f(0, iy) * f(0, iy);
    }
    EXPECT_LT(std::abs(c_wrap / var), 0.2);
}

TEST(Convolution, TruncationErrorIsControlled) {
    // A hard-truncated kernel changes the surface by at most O(sqrt(eps)·h)
    // rms; verify against the nearly-full kernel on the same noise.
    const auto s = make_gaussian({1.0, 10.0, 10.0});
    const GridSpec g = GridSpec::unit_spacing(128, 128);
    const ConvolutionGenerator full(ConvolutionKernel::build_truncated(*s, g, 1e-12), 33);
    const ConvolutionGenerator trunc(ConvolutionKernel::build_truncated(*s, g, 1e-4), 33);
    const Rect r{0, 0, 128, 128};
    const auto ff = full.generate(r);
    const auto ft = trunc.generate(r);
    double rms = 0.0;
    for (std::size_t i = 0; i < ff.size(); ++i) {
        const double d = ff.data()[i] - ft.data()[i];
        rms += d * d;
    }
    rms = std::sqrt(rms / static_cast<double>(ff.size()));
    EXPECT_LT(rms, 5e-2);   // ~sqrt(1e-4) = 1e-2 scale
    EXPECT_GT(rms, 1e-10);  // but the kernels do differ
}

TEST(Convolution, MoveConstructionPreservesBehaviour) {
    auto gen = make_gen(make_gaussian({1.0, 5.0, 5.0}), 3);
    const auto before = gen.generate(Rect{0, 0, 16, 16});
    ConvolutionGenerator moved{std::move(gen)};
    EXPECT_EQ(moved.generate(Rect{0, 0, 16, 16}), before);
}

// --- determinism sweeps ------------------------------------------------------

/// Pins RRS_THREADS for a scope (max_threads() re-reads the environment on
/// every call, so this changes the worker count of subsequent parallel_for
/// regions in-process) and restores the previous value on destruction.
class ThreadCountGuard {
public:
    explicit ThreadCountGuard(int threads) {
        const char* prev = std::getenv("RRS_THREADS");
        had_prev_ = prev != nullptr;
        if (had_prev_) {
            prev_ = prev;
        }
        ::setenv("RRS_THREADS", std::to_string(threads).c_str(), 1);
    }
    ~ThreadCountGuard() {
        if (had_prev_) {
            ::setenv("RRS_THREADS", prev_.c_str(), 1);
        } else {
            ::unsetenv("RRS_THREADS");
        }
    }
    ThreadCountGuard(const ThreadCountGuard&) = delete;
    ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

private:
    bool had_prev_ = false;
    std::string prev_;
};

TEST(Convolution, BitIdenticalAcrossThreadCounts) {
    // The paper's successive-computation promise depends on the noise
    // lattice being a pure function of (seed, coords): the worker count
    // must never leak into the surface.  Sweep odd and even tile sizes
    // (odd extents exercise uneven row partitions) for both engines.
    const auto gen = make_gen(make_gaussian({1.0, 6.0, 6.0}), 77, 1e-6, 64);
    for (const Rect r : {Rect{-5, 3, 33, 17}, Rect{0, 0, 32, 32}, Rect{7, -9, 31, 48}}) {
        Array2D<double> fft1;
        Array2D<double> direct1;
        {
            const ThreadCountGuard one(1);
            fft1 = gen.generate(r);
            direct1 = gen.generate(r, KernelEngine::kDirect);
        }
        for (const int threads : {2, 5}) {
            const ThreadCountGuard many(threads);
            EXPECT_EQ(gen.generate(r), fft1)
                << "fft engine, " << threads << " threads, rect " << r.nx << "x" << r.ny;
            EXPECT_EQ(gen.generate(r, KernelEngine::kDirect), direct1)
                << "direct engine, " << threads << " threads, rect " << r.nx << "x"
                << r.ny;
        }
    }
}

TEST(Convolution, TruncatedKernelsStayDeterministicAcrossThreadCounts) {
    // Truncation changes the kernel support (and the halo), not the
    // determinism contract; sweep truncation levels including the full
    // (even-dimension) kernel.
    const auto s = make_exponential({1.0, 5.0, 5.0});
    const GridSpec g = GridSpec::unit_spacing(64, 64);
    const Rect r{-11, 6, 29, 22};
    for (const double eps : {1e-3, 1e-8}) {
        const ConvolutionGenerator gen(ConvolutionKernel::build_truncated(*s, g, eps),
                                       55);
        Array2D<double> base;
        {
            const ThreadCountGuard one(1);
            base = gen.generate(r);
        }
        const ThreadCountGuard many(4);
        EXPECT_EQ(gen.generate(r), base) << "eps=" << eps;
        // And the engines still agree on the truncated kernel.
        EXPECT_LT(max_abs_diff(gen.generate(r, KernelEngine::kDirect), base), 1e-10)
            << "eps=" << eps;
    }
}

TEST(Convolution, NoiseFillBitIdenticalAcrossThreadCounts) {
    const GaussianLattice lattice(321);
    const Rect window{-13, 40, 27, 19};
    Array2D<double> a(27, 19);
    Array2D<double> b(27, 19);
    {
        const ThreadCountGuard one(1);
        lattice.fill(window, a);
    }
    {
        const ThreadCountGuard many(6);
        lattice.fill(window, b);
    }
    EXPECT_EQ(a, b);
}

// --- the paper's eq. (30) == eq. (36) equivalence, exactly -------------------

TEST(Convolution, CircularConvolutionReproducesDirectDftExactly) {
    // Chain of eqs. (31)-(36): Z = DFT(v·u) equals the circular convolution
    // of the full kernel with X = DFT(u)/√(NxNy), for the SAME u.  This is
    // an identity, not a statistical statement — verify to rounding.
    const std::size_t N = 64;
    const auto s = make_gaussian({1.0, 8.0, 8.0});
    const GridSpec g = GridSpec::unit_spacing(N, N);

    // Direct DFT method with a fixed u.
    BoxMullerGaussian<Pcg64> gauss{Pcg64{4242}};
    const auto u = hermitian_gaussian_array(N, N, [&gauss]() { return gauss(); });
    const auto v = sqrt_weight_array(*s, g);
    Array2D<cplx> z(N, N);
    for (std::size_t i = 0; i < z.size(); ++i) {
        z.data()[i] = u.data()[i] * v.data()[i];
    }
    Fft2D plan(N, N);
    plan.forward(z);

    // Convolution route: X = DFT(u)/√(N²), circularly convolved with the
    // wrapped full kernel via the frequency domain.
    Array2D<cplx> U = u;
    plan.forward(U);
    const double scale = 1.0 / std::sqrt(static_cast<double>(N * N));
    Array2D<cplx> X(N, N);
    for (std::size_t i = 0; i < X.size(); ++i) {
        X.data()[i] = U.data()[i] * scale;
    }
    const auto kernel = ConvolutionKernel::build(*s, g);
    const auto img = kernel.wrapped_image(N, N);
    Array2D<cplx> K(N, N);
    for (std::size_t i = 0; i < K.size(); ++i) {
        K.data()[i] = cplx{img.data()[i], 0.0};
    }
    plan.forward(K);
    plan.forward(X);
    for (std::size_t i = 0; i < X.size(); ++i) {
        X.data()[i] *= K.data()[i];
    }
    plan.inverse(X);

    double md = 0.0;
    for (std::size_t i = 0; i < X.size(); ++i) {
        md = std::max(md, std::abs(X.data()[i].real() - z.data()[i].real()));
    }
    EXPECT_LT(md, 1e-9);
}

}  // namespace
}  // namespace rrs
