// Ablation (DESIGN.md §1): the inhomogeneous generator's fast path blends
// per-region convolved fields (valid because the blending weights do not
// depend on the kernel tap): one weight pass and one shared noise field per
// tile, each active region's engine convolving a window of it.  The
// reference path evaluates the literal per-point blended kernel of eq. (46).
//
// Verifies the two agree to rounding and measures the speedup.

#include <chrono>
#include <iostream>

#include "bench_util.hpp"

int main() {
    using namespace rrs;
    using clock_type = std::chrono::steady_clock;
    std::cout << "=== Ablation: field-blend fast path vs per-point-kernel reference ===\n\n";

    const auto map = make_quadrant_map(
        0.0, 0.0, 512.0, make_gaussian({1.0, 10.0, 10.0}), make_gaussian({0.5, 15.0, 15.0}),
        make_exponential({2.0, 20.0, 20.0}), make_power_law({1.5, 15.0, 15.0}, 2.0), 8.0);
    const GridSpec kernel_grid = GridSpec::unit_spacing(256, 256);
    const InhomogeneousGenerator gen(map, kernel_grid, 5, {});

    Table table({"region", "max |fast - reference|", "fast s", "reference s", "speedup"});
    for (const std::int64_t n : {32, 64, 128}) {
        // Straddle the quadrant cross so all four kernels participate.
        const Rect r{-n / 2, -n / 2, n, n};
        auto t0 = clock_type::now();
        const auto fast = gen.generate(r);
        const double t_fast = std::chrono::duration<double>(clock_type::now() - t0).count();
        t0 = clock_type::now();
        const auto ref = gen.generate_reference(r);
        const double t_ref = std::chrono::duration<double>(clock_type::now() - t0).count();
        table.add_row({std::to_string(n) + "^2", Table::num(max_abs_diff(fast, ref), 14),
                       Table::num(t_fast, 3), Table::num(t_ref, 3),
                       Table::num(t_ref / t_fast, 1) + "x"});
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: differences at rounding level (~1e-12) and a\n"
                 "speedup that grows with the region size (the reference path is\n"
                 "O(points x taps x regions); the fast path is FFT-bound).\n";
    return 0;
}
