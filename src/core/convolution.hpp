#pragma once

/// \file convolution.hpp
/// The convolution method for homogeneous RRS generation — paper eq. (36):
/// f_{nx,ny} = Σ_k w̄_k · X_{n−k}, with X white N(0,1) lattice noise.
///
/// Because the noise is a pure function of (seed, lattice coordinate) —
/// GaussianLattice — `generate` can be called for *any* rectangle of the
/// unbounded output lattice and overlapping rectangles agree exactly.  This
/// realises the paper's "any size of continuous RRSs ... by successive
/// computations" claim deterministically.
///
/// Three engines compute the same sums (engine.hpp, DESIGN.md §15):
///  * kDirect    — the literal tap-sum of eq. (36), O(N²·K²); the
///                 reference every other engine is tested against.
///  * kFft       — circular convolution on a pow2-padded tile via the
///                 real-input FFT, O(P² log P).
///  * kSeparable — two SIMD 1-D passes over the noise halo for rank-1
///                 kernels (the Gaussian family), O(N²·(Kx+Ky)).
/// Every engine reads X from a caller-supplied field that covers
/// halo_rect(region): `generate(region)` and `generate(region, engine)`
/// fill that halo once, and `generate(region, X, xrect)` convolves a window
/// of a field the caller already holds — the inhomogeneous generator's one
/// shared X per tile.  The engine is the configured one (kAuto → separable
/// when the kernel factors, else FFT), overridable per call by the
/// RRS_KERNEL_ENGINE environment variable.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "core/engine.hpp"
#include "core/health.hpp"
#include "core/kernel.hpp"
#include "grid/array2d.hpp"
#include "grid/rect.hpp"
#include "rng/gaussian.hpp"

namespace rrs {

/// Homogeneous surface generator over an unbounded lattice.
class ConvolutionGenerator {
public:
    /// `health` gates the numeric guards (health.hpp): at construction the
    /// kernel's energy-conservation check runs, and every generated tile is
    /// scanned for NaN/Inf and implausible RMS.  kIgnore (default) skips
    /// both and preserves historical behaviour.  `engine` selects the
    /// generate() fast path; kAuto resolves per call (engine.hpp).
    explicit ConvolutionGenerator(ConvolutionKernel kernel, std::uint64_t seed,
                                  HealthPolicy health = HealthPolicy::kIgnore,
                                  KernelEngine engine = KernelEngine::kAuto);
    ~ConvolutionGenerator();

    ConvolutionGenerator(ConvolutionGenerator&&) noexcept;
    ConvolutionGenerator& operator=(ConvolutionGenerator&&) noexcept;
    ConvolutionGenerator(const ConvolutionGenerator&) = delete;
    ConvolutionGenerator& operator=(const ConvolutionGenerator&) = delete;

    /// Surface heights for lattice points in `region`, via the resolved
    /// engine (see resolved_engine()).  All engines agree to ≤1e-12 and
    /// each engine is individually bit-deterministic (DESIGN.md §15).
    Array2D<double> generate(const Rect& region) const;

    /// The same sums through an explicit engine (kAuto → separable when the
    /// kernel factors, else FFT); the environment override does not apply.
    /// Throws ConfigError for kSeparable when the kernel does not factor.
    Array2D<double> generate(const Rect& region, KernelEngine engine) const;

    /// generate(region) over a noise field the caller filled: `X` holds the
    /// lattice noise over `xrect`, which must cover halo_rect(region).
    /// Bit-identical to generate(region) whatever the window's size or
    /// offset.  Throws ConfigError when `xrect` misses part of the halo or
    /// X's shape is not xrect's.
    Array2D<double> generate(const Rect& region, const Array2D<double>& X,
                             const Rect& xrect) const;

    /// The noise window eq. (36) reads for `region`: the region grown by the
    /// kernel's reach on each side (asymmetric for even kernel sizes).
    Rect halo_rect(const Rect& region) const noexcept;

    /// The white-noise field X over `region`, as generate(region, X, xrect)
    /// reads it.
    Array2D<double> noise_tile(const Rect& region) const;

    /// Engine configured on this generator (kAuto until set).
    KernelEngine engine() const noexcept { return engine_; }
    void set_engine(KernelEngine engine) noexcept { engine_ = engine; }

    /// The engine generate() will run right now: RRS_KERNEL_ENGINE override
    /// first, then the configured engine, with kAuto resolving to separable
    /// when the kernel factors and FFT otherwise.  Throws ConfigError on a
    /// malformed override; an explicit separable demand on a non-separable
    /// kernel throws from generate() itself.
    KernelEngine resolved_engine() const;

    /// True when the kernel admits the separable engine (rank-1 within
    /// kSeparableTol; the Gaussian family qualifies exactly).
    bool separable_available() const noexcept { return factors_.has_value(); }

    const ConvolutionKernel& kernel() const noexcept { return kernel_; }
    const GaussianLattice& noise() const noexcept { return lattice_; }
    std::uint64_t seed() const noexcept { return lattice_.seed(); }

    HealthPolicy health_policy() const noexcept { return health_; }
    void set_health_policy(HealthPolicy policy) noexcept { health_ = policy; }

    /// Stable hash of (seed, kernel shape, tap spacing, kernel energy) —
    /// identifies the generator's configuration for checkpoint/resume
    /// (streaming.hpp).  Two generators with equal fingerprints produce
    /// bit-identical surfaces on every rectangle.  Deliberately engine-
    /// independent: engines agree to ≤1e-12, and the escape-hatch contract
    /// is that switching engines must not invalidate caches or checkpoints.
    std::uint64_t fingerprint() const noexcept;

private:
    struct CachedKernelFft;

    /// Check that X over `xrect` covers halo_rect(region), then dispatch to
    /// the engine bodies, which read that window: `x` is its top-left value
    /// and `stride` X's row length.
    Array2D<double> convolve(KernelEngine engine, const Rect& region,
                             const Array2D<double>& X, const Rect& xrect) const;
    Array2D<double> convolve_direct(const Rect& region, const double* x, std::size_t stride) const;
    Array2D<double> convolve_fft(const Rect& region, const double* x, std::size_t stride) const;
    Array2D<double> convolve_separable(const Rect& region, const double* x,
                                       std::size_t stride) const;

    const CachedKernelFft& kernel_fft(std::size_t Px, std::size_t Py) const;
    void scan_health(const Array2D<double>& f, const char* where) const;

    struct FftCache;

    ConvolutionKernel kernel_;
    GaussianLattice lattice_;
    HealthPolicy health_ = HealthPolicy::kIgnore;
    KernelEngine engine_ = KernelEngine::kAuto;
    /// Rank-1 factors (kernel_.separable()), computed once at construction;
    /// nullopt for non-separable kernels.
    std::optional<SeparableFactors> factors_;
    std::unique_ptr<FftCache> cache_;  // keeps the generator movable
};

}  // namespace rrs
