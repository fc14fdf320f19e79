#pragma once

/// \file inhomogeneous.hpp
/// Inhomogeneous RRS generation — paper §3, eqs. (37)/(46):
/// f(n) = Σ_k w̄_k(n)·X_{n−k} with the pointwise-blended kernel
/// w̄_k(n) = Σ_m g_m(n)·w̄_k(m).
///
/// Because g_m depends only on the output point n (never on the tap k),
/// the sum factorises:  f(n) = Σ_m g_m(n)·(c_m ⊛ X)(n)  — blending the
/// *fields* generated by each homogeneous kernel over the *shared* noise
/// lattice.  `generate` exploits that identity literally: per tile it
/// evaluates all M weights in one pass, keeps a weight plane per region
/// with support, fills one X over the hull of those regions' halos, and
/// convolves each such region's bounding box against a window of that X.  `generate_reference`
/// evaluates the literal per-point kernel sums.  The two agree to rounding
/// — a property test in the suite, and an ablation bench measures the gap.

#include <cstdint>
#include <vector>

#include "core/convolution.hpp"
#include "core/grid_spec.hpp"
#include "core/health.hpp"
#include "core/kernel.hpp"
#include "core/region_map.hpp"
#include "grid/array2d.hpp"
#include "grid/rect.hpp"

namespace rrs {

/// Tuning knobs for InhomogeneousGenerator (namespace-scope so it can serve
/// as a defaulted constructor argument).
struct InhomogeneousOptions {
    /// Kernel truncation: discard centered-window tail energy up to this
    /// fraction (0 disables truncation).
    double kernel_tail_eps = 1e-6;
    /// Physical coordinates of lattice point (0, 0).
    double origin_x = 0.0;
    double origin_y = 0.0;
    /// Numeric health guards (health.hpp): per-region kernel energy checks
    /// at construction and a NaN/Inf + RMS scan of every generated tile.
    HealthPolicy health = HealthPolicy::kIgnore;
    /// Kernel engine for every per-region generator (engine.hpp).  kAuto
    /// picks separable/FFT per region kernel, once, at construction; each
    /// region's resolved engine is part of fingerprint().
    KernelEngine engine = KernelEngine::kAuto;
};

/// Generator for surfaces whose statistics vary from place to place.
class InhomogeneousGenerator {
public:
    using Options = InhomogeneousOptions;

    /// Builds one (truncated) kernel per region of `map` on `kernel_grid`.
    /// All regions share the same white-noise lattice seeded by `seed`.
    InhomogeneousGenerator(RegionMapPtr map, GridSpec kernel_grid, std::uint64_t seed,
                           Options opt = {});

    /// Fast path: one weight pass, one noise field, a convolution per
    /// region with support over its bounding box, then the pointwise
    /// field blend in ascending region order.
    Array2D<double> generate(const Rect& region) const;

    /// Literal eqs. (37)/(46): per-point blended kernel tap sums.
    /// O(points · taps · regions) — reference/testing only.
    Array2D<double> generate_reference(const Rect& region) const;

    /// Blending weight field g_m over `region` (diagnostics/plots).
    Array2D<double> blend_weights(const Rect& region, std::size_t m) const;

    /// Exact variance of f at a physical point:
    /// Var = Σ_k (Σ_m g_m·c_m(k))² — used to validate transition regions.
    double expected_variance(double x, double y) const;

    /// Physical coordinate of lattice index along x.
    double x_of(std::int64_t ix) const noexcept {
        return opt_.origin_x + static_cast<double>(ix) * grid_.dx();
    }
    double y_of(std::int64_t iy) const noexcept {
        return opt_.origin_y + static_cast<double>(iy) * grid_.dy();
    }

    const RegionMap& map() const noexcept { return *map_; }
    const std::vector<ConvolutionKernel>& kernels() const noexcept { return kernels_; }
    const GridSpec& kernel_grid() const noexcept { return grid_; }
    const Options& options() const noexcept { return opt_; }

    /// Stable hash of (per-region generator fingerprints, origin) for
    /// checkpoint/resume (streaming.hpp).
    std::uint64_t fingerprint() const noexcept;

private:
    /// Calls fn(tx, ty, g) for every point of `region`, rows in parallel,
    /// with g the M blend weights there: one weights_at call per point.
    template <typename Fn>
    void for_each_weights(const Rect& region, Fn&& fn) const;

    RegionMapPtr map_;
    GridSpec grid_;
    Options opt_;
    std::vector<ConvolutionKernel> kernels_;
    std::vector<ConvolutionGenerator> generators_;  // one per region, shared seed
};

}  // namespace rrs
