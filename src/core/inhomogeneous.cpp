#include "core/inhomogeneous.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <vector>

#include "core/validate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "rng/hash.hpp"

namespace rrs {

InhomogeneousGenerator::InhomogeneousGenerator(RegionMapPtr map, GridSpec kernel_grid,
                                               std::uint64_t seed, Options opt)
    : map_(std::move(map)), grid_(kernel_grid), opt_(opt) {
    check_not_null(map_.get(), "region map", {"InhomogeneousGenerator"});
    grid_.validate();
    check_finite(opt_.origin_x, "origin_x", {"InhomogeneousGenerator"});
    check_finite(opt_.origin_y, "origin_y", {"InhomogeneousGenerator"});
    if (opt_.kernel_tail_eps != 0.0) {
        check_open_unit(opt_.kernel_tail_eps, "kernel_tail_eps",
                        {"InhomogeneousGenerator"});
    }
    kernels_.reserve(map_->region_count());
    generators_.reserve(map_->region_count());
    for (std::size_t m = 0; m < map_->region_count(); ++m) {
        ConvolutionKernel k = ConvolutionKernel::build(*map_->spectrum(m), grid_);
        if (opt_.kernel_tail_eps > 0.0) {
            k = k.truncated(opt_.kernel_tail_eps);
        }
        apply_policy(kernel_health(k), opt_.health, kDefaultKernelEnergyTol,
                     {"InhomogeneousGenerator",
                      "region " + std::to_string(m) + " (" + map_->spectrum(m)->name() +
                          ")"});
        kernels_.push_back(k);
        // Sub-generators run with kIgnore: the blended output is scanned
        // once in generate(), and per-region kernels were just checked.
        generators_.emplace_back(std::move(k), seed, HealthPolicy::kIgnore,
                                 opt_.engine);
    }
}

std::uint64_t InhomogeneousGenerator::fingerprint() const noexcept {
    std::uint64_t h = mix64(0x5252535F494E484FULL);  // "RRS_INHO"
    for (const auto& gen : generators_) {
        h = mix64(h ^ gen.fingerprint());
    }
    h = mix64(h ^ std::bit_cast<std::uint64_t>(opt_.origin_x));
    h = mix64(h ^ std::bit_cast<std::uint64_t>(opt_.origin_y));
    return h == 0 ? 1 : h;
}

template <typename Fn>
void InhomogeneousGenerator::for_each_weights(const Rect& region, Fn&& fn) const {
    const std::size_t M = map_->region_count();
    parallel_for(0, region.ny, [&](std::int64_t ty) {
        std::vector<double> g(M);
        const double y = y_of(region.y0 + ty);
        for (std::int64_t tx = 0; tx < region.nx; ++tx) {
            map_->weights_at(x_of(region.x0 + tx), y, g);
            fn(static_cast<std::size_t>(tx), static_cast<std::size_t>(ty), g);
        }
    });
}

Array2D<double> InhomogeneousGenerator::blend_weights(const Rect& region,
                                                      std::size_t m) const {
    if (m >= map_->region_count()) {
        throw BoundsError{"blend_weights: region index"};
    }
    RRS_TRACE_SPAN("inhom.weights");
    Array2D<double> gm(static_cast<std::size_t>(region.nx),
                       static_cast<std::size_t>(region.ny));
    for_each_weights(region,
                     [&](std::size_t tx, std::size_t ty, const auto& g) { gm(tx, ty) = g[m]; });
    return gm;
}

Array2D<double> InhomogeneousGenerator::generate(const Rect& region) const {
    RRS_CHECK(!region.empty(), "InhomogeneousGenerator::generate",
              "region must be non-empty");
    RRS_TRACE_SPAN("inhom.generate");
    static obs::Counter& tiles = obs::MetricsRegistry::global().counter("inhom.tiles");
    static obs::Counter& points = obs::MetricsRegistry::global().counter("inhom.points");
    tiles.add();
    points.add(static_cast<std::uint64_t>(region.nx * region.ny));
    const std::size_t M = map_->region_count();
    const auto nx = static_cast<std::size_t>(region.nx);
    const auto ny = static_cast<std::size_t>(region.ny);

    // A weight plane exists only for a region with support in the tile, so
    // an interior tile holds one plane, not M.
    std::vector<Array2D<double>> weights(M);
    std::vector<std::once_flag> supported(M);
    {
        RRS_TRACE_SPAN("inhom.weights");
        for_each_weights(region, [&](std::size_t tx, std::size_t ty, const auto& g) {
            for (std::size_t m = 0; m < M; ++m) {
                if (g[m] > 0.0) {
                    std::call_once(supported[m], [&] { weights[m].resize(nx, ny); });
                    weights[m](tx, ty) = g[m];
                }
            }
        });
    }

    // Bounding box of g_m > 0 — the only rows/cols that need field m — and
    // the one noise window covering the halos of every such box.
    std::vector<Rect> subs(M);
    Rect xrect;
    for (std::size_t m = 0; m < M; ++m) {
        if (weights[m].empty()) {
            continue;  // region m has no support inside `region`
        }
        std::int64_t bx0 = region.nx, bx1 = -1, by0 = region.ny, by1 = -1;
        for (std::int64_t ty = 0; ty < region.ny; ++ty) {
            for (std::int64_t tx = 0; tx < region.nx; ++tx) {
                if (weights[m](static_cast<std::size_t>(tx), static_cast<std::size_t>(ty)) > 0.0) {
                    bx0 = std::min(bx0, tx);
                    bx1 = std::max(bx1, tx);
                    by0 = std::min(by0, ty);
                    by1 = std::max(by1, ty);
                }
            }
        }
        subs[m] = Rect{region.x0 + bx0, region.y0 + by0, bx1 - bx0 + 1, by1 - by0 + 1};
        const Rect halo = generators_[m].halo_rect(subs[m]);
        xrect = xrect.empty() ? halo : hull(xrect, halo);
    }

    Array2D<double> out(nx, ny, 0.0);
    const Array2D<double> X =
        xrect.empty() ? Array2D<double>{} : generators_.front().noise_tile(xrect);
    for (std::size_t m = 0; m < M; ++m) {
        if (subs[m].empty()) {
            continue;
        }
        const Array2D<double> fm = generators_[m].generate(subs[m], X, xrect);
        const std::int64_t bx0 = subs[m].x0 - region.x0;
        const std::int64_t by0 = subs[m].y0 - region.y0;

        RRS_TRACE_SPAN("inhom.blend");
        parallel_for(by0, by0 + subs[m].ny, [&](std::int64_t ty) {
            for (std::int64_t tx = bx0; tx < bx0 + subs[m].nx; ++tx) {
                const double g =
                    weights[m](static_cast<std::size_t>(tx), static_cast<std::size_t>(ty));
                if (g > 0.0) {
                    out(static_cast<std::size_t>(tx), static_cast<std::size_t>(ty)) +=
                        g * fm(static_cast<std::size_t>(tx - bx0),
                               static_cast<std::size_t>(ty - by0));
                }
            }
        });
    }
    if (opt_.health != HealthPolicy::kIgnore) {
        // No single target RMS exists for a blended surface; scan for
        // NaN/Inf only (target 0 disables the ratio check).
        apply_policy(scan_surface(out), opt_.health,
                     {"InhomogeneousGenerator", "generate"});
    }
    return out;
}

Array2D<double> InhomogeneousGenerator::generate_reference(const Rect& region) const {
    RRS_CHECK(!region.empty(), "InhomogeneousGenerator::generate_reference",
              "region must be non-empty");
    const std::size_t M = map_->region_count();
    // Common halo covering every kernel's support.
    Rect xrect = generators_.front().halo_rect(region);
    for (const auto& gen : generators_) {
        xrect = hull(xrect, gen.halo_rect(region));
    }
    const Array2D<double> X = generators_.front().noise_tile(xrect);
    const std::int64_t lx = region.x0 - xrect.x0;
    const std::int64_t ly = region.y0 - xrect.y0;

    Array2D<double> out(static_cast<std::size_t>(region.nx),
                        static_cast<std::size_t>(region.ny));
    for_each_weights(region, [&](std::size_t tx, std::size_t ty, const auto& g) {
        double acc = 0.0;
        // Literal eq. (46): blended kernel, then eq. (36) tap sums.
        for (std::size_t m = 0; m < M; ++m) {
            if (g[m] <= 0.0) {
                continue;
            }
            const ConvolutionKernel& k = kernels_[m];
            double fm = 0.0;
            for (std::ptrdiff_t dy = k.min_dy(); dy <= k.max_dy(); ++dy) {
                for (std::ptrdiff_t dx = k.min_dx(); dx <= k.max_dx(); ++dx) {
                    const std::int64_t sx = static_cast<std::int64_t>(tx) + lx - dx;
                    const std::int64_t sy = static_cast<std::int64_t>(ty) + ly - dy;
                    fm += k.tap(dx, dy) * X(static_cast<std::size_t>(sx),
                                            static_cast<std::size_t>(sy));
                }
            }
            acc += g[m] * fm;
        }
        out(tx, ty) = acc;
    });
    return out;
}

double InhomogeneousGenerator::expected_variance(double x, double y) const {
    const std::size_t M = map_->region_count();
    std::vector<double> g(M);
    map_->weights_at(x, y, g);
    // Var f = Σ_k (Σ_m g_m c_m(k))² over the union of supports.
    std::ptrdiff_t lo_x = 0, hi_x = 0, lo_y = 0, hi_y = 0;
    for (const auto& k : kernels_) {
        lo_x = std::min(lo_x, k.min_dx());
        hi_x = std::max(hi_x, k.max_dx());
        lo_y = std::min(lo_y, k.min_dy());
        hi_y = std::max(hi_y, k.max_dy());
    }
    double var = 0.0;
    for (std::ptrdiff_t dy = lo_y; dy <= hi_y; ++dy) {
        for (std::ptrdiff_t dx = lo_x; dx <= hi_x; ++dx) {
            double tap = 0.0;
            for (std::size_t m = 0; m < M; ++m) {
                if (g[m] > 0.0) {
                    tap += g[m] * kernels_[m].tap(dx, dy);
                }
            }
            var += tap * tap;
        }
    }
    return var;
}

}  // namespace rrs
