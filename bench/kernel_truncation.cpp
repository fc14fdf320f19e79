// Experiment (paper §2.4 / §4 ¶1): "The computation time of the present
// algorithm depends strongly on the correlation length, because it is
// proportional to the size of the weighting array" — and truncating the
// kernel trades a controlled RMS error for that time.
//
// Sweeps (a) correlation length at fixed tail_eps: kernel size and direct
// convolution time; (b) tail_eps at fixed cl: size, time, and RMS error
// against the near-full kernel on identical noise.

#include <chrono>
#include <cmath>
#include <iostream>

#include "bench_util.hpp"

namespace {
using clock_type = std::chrono::steady_clock;
double time_direct(const rrs::ConvolutionGenerator& gen, std::int64_t n) {
    const auto t0 = clock_type::now();
    const auto f = gen.generate(rrs::Rect{0, 0, n, n}, rrs::KernelEngine::kDirect);
    (void)f;
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}
}  // namespace

int main() {
    using namespace rrs;
    std::cout << "=== Kernel truncation: size, cost, accuracy (paper sec 2.4) ===\n\n";
    const GridSpec g = GridSpec::unit_spacing(512, 512);
    const std::int64_t out = 96;  // output tile for the direct-engine timing

    std::cout << "--- (a) cost vs correlation length (tail_eps = 1e-6) ---\n";
    Table ta({"cl", "kernel", "taps", "direct conv s/" + std::to_string(out) + "^2",
              "taps ratio", "time ratio"});
    double base_taps = 0.0;
    double base_time = 0.0;
    for (const double cl : {10.0, 20.0, 40.0, 80.0}) {
        const auto s = make_gaussian({1.0, cl, cl});
        const ConvolutionGenerator gen(ConvolutionKernel::build_truncated(*s, g, 1e-6), 1);
        const auto& k = gen.kernel();
        const double taps = static_cast<double>(k.nx() * k.ny());
        const double t = time_direct(gen, out);
        if (base_taps == 0.0) {
            base_taps = taps;
            base_time = t;
        }
        ta.add_row({Table::num(cl, 0), std::to_string(k.nx()) + "x" + std::to_string(k.ny()),
                    Table::num(taps, 0), Table::num(t, 3), Table::num(taps / base_taps, 1),
                    Table::num(t / base_time, 1)});
    }
    ta.print(std::cout);
    std::cout << "Expected shape: taps grow ~cl^2 and direct-engine time tracks the\n"
                 "tap count (the paper's cost-vs-correlation-length claim).\n\n";

    std::cout << "--- (b) accuracy vs tail_eps (cl = 20) ---\n";
    const auto s = make_gaussian({1.0, 20.0, 20.0});
    const ConvolutionGenerator full(ConvolutionKernel::build_truncated(*s, g, 1e-14), 7);
    const Rect r{0, 0, 256, 256};
    const auto f_full = full.generate(r);
    Table tb({"tail_eps", "kernel", "kept energy frac", "rms error vs full", "rms/h"});
    for (const double eps : {1e-2, 1e-3, 1e-4, 1e-6, 1e-8}) {
        const ConvolutionGenerator trunc(ConvolutionKernel::build_truncated(*s, g, eps), 7);
        const auto f_t = trunc.generate(r);
        double rms = 0.0;
        for (std::size_t i = 0; i < f_t.size(); ++i) {
            const double d = f_t.data()[i] - f_full.data()[i];
            rms += d * d;
        }
        rms = std::sqrt(rms / static_cast<double>(f_t.size()));
        const auto& k = trunc.kernel();
        tb.add_row({Table::num(eps, 8),
                    std::to_string(k.nx()) + "x" + std::to_string(k.ny()),
                    Table::num(k.energy() / full.kernel().energy(), 6), Table::num(rms, 5),
                    Table::num(rms / 1.0, 5)});
    }
    tb.print(std::cout);
    std::cout << "Expected shape: rms error ~ sqrt(tail_eps)·h, kernel support\n"
                 "shrinking as eps grows — pick eps by the error budget.\n";
    return 0;
}
