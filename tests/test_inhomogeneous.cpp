// Tests for the inhomogeneous generator (paper §3): the fast field-blend
// path must equal the literal per-point-kernel reference (eq. 46), and
// generated surfaces must carry each region's target statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "core/inhomogeneous.hpp"
#include "core/surface.hpp"
#include "stats/moments.hpp"

namespace rrs {
namespace {

SpectrumPtr g_spec(double h, double cl) { return make_gaussian({h, cl, cl}); }

/// The per-region algorithm rebuilt from public API: each region's own
/// generator (own noise fill) over the bounding box of its weights, blended
/// in ascending region order.  Sets `active` to the regions with support.
Array2D<double> per_region_oracle(const InhomogeneousGenerator& gen, const Rect& r,
                                  std::uint64_t seed, std::size_t& active) {
    Array2D<double> out(static_cast<std::size_t>(r.nx), static_cast<std::size_t>(r.ny), 0.0);
    active = 0;
    for (std::size_t m = 0; m < gen.kernels().size(); ++m) {
        const auto gm = gen.blend_weights(r, m);
        std::int64_t bx0 = r.nx, bx1 = -1, by0 = r.ny, by1 = -1;
        for (std::int64_t ty = 0; ty < r.ny; ++ty) {
            for (std::int64_t tx = 0; tx < r.nx; ++tx) {
                if (gm(static_cast<std::size_t>(tx), static_cast<std::size_t>(ty)) > 0.0) {
                    bx0 = std::min(bx0, tx);
                    bx1 = std::max(bx1, tx);
                    by0 = std::min(by0, ty);
                    by1 = std::max(by1, ty);
                }
            }
        }
        if (bx1 < bx0) {
            continue;
        }
        ++active;
        const ConvolutionGenerator conv(gen.kernels()[m], seed);
        const auto fm = conv.generate(Rect{r.x0 + bx0, r.y0 + by0, bx1 - bx0 + 1, by1 - by0 + 1});
        for (std::int64_t ty = by0; ty <= by1; ++ty) {
            for (std::int64_t tx = bx0; tx <= bx1; ++tx) {
                const double g = gm(static_cast<std::size_t>(tx), static_cast<std::size_t>(ty));
                if (g > 0.0) {
                    out(static_cast<std::size_t>(tx), static_cast<std::size_t>(ty)) +=
                        g * fm(static_cast<std::size_t>(tx - bx0),
                               static_cast<std::size_t>(ty - by0));
                }
            }
        }
    }
    return out;
}

TEST(Inhomogeneous, RejectsNullMap) {
    EXPECT_THROW(
        InhomogeneousGenerator(nullptr, GridSpec::unit_spacing(32, 32), 1),
        std::invalid_argument);
}

TEST(Inhomogeneous, FastPathEqualsReferencePath) {
    // The factorisation identity f = Σ g_m (c_m ⊛ X) — exact to rounding.
    const auto map = make_quadrant_map(16.0, 16.0, 64.0, g_spec(1.0, 4.0),
                                       g_spec(0.5, 6.0), g_spec(2.0, 8.0),
                                       g_spec(1.5, 6.0), 4.0);
    const InhomogeneousGenerator gen(map, GridSpec::unit_spacing(64, 64), 7,
                                     {.kernel_tail_eps = 1e-6});
    const Rect r{0, 0, 32, 32};
    const auto fast = gen.generate(r);
    const auto ref = gen.generate_reference(r);
    EXPECT_LT(max_abs_diff(fast, ref), 1e-10);
}

TEST(Inhomogeneous, FastPathEqualsReferenceForCircleMap) {
    const auto map = std::make_shared<const CircleMap>(16.0, 16.0, 10.0, g_spec(0.3, 3.0),
                                                       g_spec(1.0, 5.0), 4.0);
    const InhomogeneousGenerator gen(map, GridSpec::unit_spacing(64, 64), 21, {});
    const Rect r{0, 0, 32, 32};
    EXPECT_LT(max_abs_diff(gen.generate(r), gen.generate_reference(r)), 1e-10);
}

TEST(Inhomogeneous, FastPathEqualsReferenceForPointMap) {
    const auto map = std::make_shared<const PointMap>(
        std::vector<RepresentativePoint>{{8.0, 8.0, g_spec(1.0, 3.0)},
                                         {24.0, 8.0, g_spec(2.0, 5.0)},
                                         {16.0, 24.0, g_spec(0.5, 4.0)}},
        5.0);
    const InhomogeneousGenerator gen(map, GridSpec::unit_spacing(64, 64), 13, {});
    const Rect r{0, 0, 32, 32};
    EXPECT_LT(max_abs_diff(gen.generate(r), gen.generate_reference(r)), 1e-10);
}

TEST(Inhomogeneous, SharedNoisePassIsBitIdenticalToPerRegionGenerators) {
    // One weight pass and one noise field per tile must give the same bytes
    // as a generator per region filling its own noise, on tiles touching
    // one, two and three or more regions, through both engines (the
    // exponential region runs the FFT engine).
    const std::uint64_t seed = 29;
    const GridSpec kg = GridSpec::unit_spacing(64, 64);
    struct Case {
        RegionMapPtr map;
        std::vector<Rect> tiles;
    };
    const Case cases[] = {
        {make_quadrant_map(16.0, 16.0, 64.0, g_spec(1.0, 4.0), g_spec(0.5, 6.0),
                           g_spec(2.0, 3.0), g_spec(1.5, 5.0), 4.0),
         {{0, 0, 8, 8}, {0, 12, 10, 8}, {10, 10, 12, 12}}},
        {std::make_shared<const CircleMap>(16.0, 16.0, 10.0, g_spec(0.3, 3.0),
                                           g_spec(1.0, 5.0), 4.0),
         {{13, 13, 6, 6}, {0, 0, 32, 32}}},
        {std::make_shared<const PointMap>(
             std::vector<RepresentativePoint>{{8.0, 8.0, g_spec(1.0, 3.0)},
                                              {24.0, 8.0, g_spec(2.0, 5.0)},
                                              {16.0, 24.0, make_exponential({0.5, 4.0, 4.0})}},
             5.0),
         {{-40, -40, 8, 8}, {12, -6, 8, 8}, {0, 0, 32, 32}, {10, 14, 12, 6}}},
    };
    std::set<std::size_t> touched;
    for (const Case& c : cases) {
        const InhomogeneousGenerator gen(c.map, kg, seed, {});
        for (const Rect& r : c.tiles) {
            std::size_t active = 0;
            const auto oracle = per_region_oracle(gen, r, seed, active);
            touched.insert(std::min<std::size_t>(active, 3));
            EXPECT_EQ(gen.generate(r), oracle)
                << "tile " << r.x0 << "," << r.y0 << " " << r.nx << "x" << r.ny << " ("
                << active << " regions)";
        }
    }
    EXPECT_EQ(touched, (std::set<std::size_t>{1, 2, 3}));
}

TEST(Inhomogeneous, BlendWeightsSumToOne) {
    const auto map = make_quadrant_map(32.0, 32.0, 64.0, g_spec(1.0, 4.0),
                                       g_spec(1.0, 4.0), g_spec(1.0, 4.0),
                                       g_spec(1.0, 4.0), 8.0);
    const InhomogeneousGenerator gen(map, GridSpec::unit_spacing(32, 32), 1, {});
    const Rect r{0, 0, 64, 64};
    Array2D<double> sum(64, 64, 0.0);
    for (std::size_t m = 0; m < 4; ++m) {
        const auto gm = gen.blend_weights(r, m);
        for (std::size_t i = 0; i < sum.size(); ++i) {
            sum.data()[i] += gm.data()[i];
        }
    }
    for (std::size_t i = 0; i < sum.size(); ++i) {
        EXPECT_NEAR(sum.data()[i], 1.0, 1e-9);
    }
    EXPECT_THROW(gen.blend_weights(r, 4), std::out_of_range);
}

TEST(Inhomogeneous, QuadrantStatisticsMatchTargets) {
    // Fig. 1 in miniature: same Gaussian spectrum, four parameter sets.
    const double ext = 256.0;
    const auto map =
        make_quadrant_map(ext, ext, ext, g_spec(1.0, 8.0), g_spec(0.5, 12.0),
                          g_spec(2.0, 16.0), g_spec(1.5, 12.0), 8.0);
    const InhomogeneousGenerator gen(map, GridSpec::unit_spacing(128, 128), 99, {});
    const auto f = gen.generate(Rect{0, 0, 512, 512});

    // Interior windows well away from the transition cross.
    struct Win {
        std::size_t x0, y0;
        double h;
    };
    // Quadrant layout: centre (256,256); q1 = upper right, etc.
    const Win wins[] = {{320, 320, 1.0}, {64, 320, 0.5}, {64, 64, 2.0}, {320, 64, 1.5}};
    for (const auto& w : wins) {
        const Moments m = subgrid_moments(f, w.x0, w.y0, 128, 128);
        EXPECT_NEAR(m.stddev, w.h, 0.15 * w.h) << "window at " << w.x0 << "," << w.y0;
        // A 128² window holds only (128/cl)² independent cells, so the
        // window mean fluctuates with SE ≈ h·cl/128 — allow 3σ.
        EXPECT_NEAR(m.mean, 0.0, 0.4 * w.h) << "window at " << w.x0 << "," << w.y0;
    }
}

TEST(Inhomogeneous, ExpectedVarianceInterpolatesAcrossTransition) {
    // Crossing from h=1 to h=2 regions: expected variance must move
    // monotonically between the plateaus.
    const auto map = std::make_shared<const CircleMap>(
        0.0, 0.0, 100.0, g_spec(1.0, 6.0), g_spec(2.0, 6.0), 20.0);
    const InhomogeneousGenerator gen(map, GridSpec::unit_spacing(64, 64), 5, {});
    const double v_in = gen.expected_variance(0.0, 0.0);
    const double v_mid = gen.expected_variance(100.0, 0.0);
    const double v_out = gen.expected_variance(200.0, 0.0);
    EXPECT_NEAR(v_in, 1.0, 0.05);
    EXPECT_NEAR(v_out, 4.0, 0.2);
    EXPECT_GT(v_mid, v_in);
    EXPECT_LT(v_mid, v_out);
}

TEST(Inhomogeneous, MeasuredTransitionVarianceMatchesExpected) {
    // The blended field is exactly Gaussian with the predicted pointwise
    // variance.  Sample the four lattice points exactly on the rim (all
    // share the same expected variance by symmetry) over many seeds.
    const auto map = std::make_shared<const CircleMap>(
        0.0, 0.0, 40.0, g_spec(0.5, 4.0), g_spec(1.5, 4.0), 10.0);
    const GridSpec kg = GridSpec::unit_spacing(64, 64);
    const double expect_var =
        InhomogeneousGenerator(map, kg, 0, {}).expected_variance(40.0, 0.0);
    MomentAccumulator acc;
    const Rect probes[] = {{40, 0, 1, 1}, {-40, 0, 1, 1}, {0, 40, 1, 1}, {0, -40, 1, 1}};
    for (std::uint64_t seed = 0; seed < 120; ++seed) {
        const InhomogeneousGenerator gen(map, kg, seed, {});
        for (const Rect& r : probes) {
            acc.add(gen.generate(r)(0, 0));
        }
    }
    // 480 samples: SE of the variance ≈ sqrt(2/480) ≈ 6.5%; allow 3σ.
    EXPECT_NEAR(acc.variance(), expect_var, 0.2 * expect_var);
    // And the transition value must sit strictly between the plateaus.
    EXPECT_GT(acc.variance(), 0.5 * 0.5);
    EXPECT_LT(acc.variance(), 1.5 * 1.5);
}

TEST(Inhomogeneous, HomogeneousMapReducesToConvolutionGenerator) {
    // A single-plate map far from its boundary must reproduce the plain
    // homogeneous generator bit-for-bit (same kernel, same noise).
    const auto s = g_spec(1.0, 5.0);
    const auto map = std::make_shared<const PlateMap>(
        std::vector<Plate>{{-1e6, 1e6, -1e6, 1e6, s}}, 10.0);
    const GridSpec kg = GridSpec::unit_spacing(64, 64);
    const InhomogeneousGenerator gen(map, kg, 77, {.kernel_tail_eps = 1e-6});
    const ConvolutionGenerator homo(ConvolutionKernel::build_truncated(*s, kg, 1e-6), 77);
    const Rect r{0, 0, 48, 48};
    EXPECT_LT(max_abs_diff(gen.generate(r), homo.generate(r)), 1e-12);
}

TEST(Inhomogeneous, OriginOffsetShiftsThePattern) {
    const auto map = std::make_shared<const CircleMap>(0.0, 0.0, 20.0, g_spec(0.2, 3.0),
                                                       g_spec(1.0, 3.0), 5.0);
    const GridSpec kg = GridSpec::unit_spacing(32, 32);
    const InhomogeneousGenerator centred(map, kg, 3, {});
    const InhomogeneousGenerator shifted(map, kg, 3,
                                         {.kernel_tail_eps = 1e-6,
                                          .origin_x = 100.0,
                                          .origin_y = 0.0});
    // With the shifted origin, lattice (0,0) sits at physical (100,0) —
    // outside the pond — so weights differ.
    const auto g0 = centred.blend_weights(Rect{0, 0, 1, 1}, 0);
    const auto g1 = shifted.blend_weights(Rect{0, 0, 1, 1}, 0);
    EXPECT_NEAR(g0(0, 0), 1.0, 1e-12);
    EXPECT_NEAR(g1(0, 0), 0.0, 1e-12);
    EXPECT_DOUBLE_EQ(shifted.x_of(0), 100.0);
    EXPECT_DOUBLE_EQ(shifted.y_of(5), 5.0);
}

TEST(Inhomogeneous, EmptyRegionThrows) {
    const auto map = std::make_shared<const CircleMap>(0.0, 0.0, 20.0, g_spec(1, 3),
                                                       g_spec(1, 3), 5.0);
    const InhomogeneousGenerator gen(map, GridSpec::unit_spacing(32, 32), 1, {});
    EXPECT_THROW(gen.generate(Rect{0, 0, 0, 4}), std::invalid_argument);
    EXPECT_THROW(gen.generate_reference(Rect{0, 0, 4, 0}), std::invalid_argument);
}

TEST(Inhomogeneous, KernelsFollowRegionParameters) {
    const auto map = make_quadrant_map(0.0, 0.0, 100.0, g_spec(1.0, 3.0),
                                       g_spec(1.0, 12.0), g_spec(1.0, 3.0),
                                       g_spec(1.0, 3.0), 5.0);
    const InhomogeneousGenerator gen(map, GridSpec::unit_spacing(128, 128), 1,
                                     {.kernel_tail_eps = 1e-6});
    ASSERT_EQ(gen.kernels().size(), 4u);
    // Larger cl → larger truncated kernel.
    EXPECT_GT(gen.kernels()[1].nx(), gen.kernels()[0].nx());
}

}  // namespace
}  // namespace rrs
