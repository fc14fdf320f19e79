// Roofline sweep of the three convolution engines (DESIGN.md §15): for each
// engine × kernel support × tile size, time surface generation, estimate the
// arithmetic per output point from the kernel geometry, and report effective
// throughput.  The point of the table is the *shape* of the costs:
//
//   * direct    — O(Kx·Ky) multiply-adds per point; the reference engine.
//   * fft       — O(P² log P) per tile (P = padded transform), amortised
//                 per point; flat in kernel support once padded.
//   * separable — O(Kx + Ky) per point via the two SIMD 1-D passes; only
//                 the Gaussian family factors, but then it must beat the
//                 dense engines decisively.
//
// Writes BENCH_kernel_roofline.json (bench_util schema 1; throughput =
// output points per second).  `--assert-speedup` turns the headline claim
// into a CI gate (tools/ci.sh perf): on the default Gaussian scene the
// separable engine must generate at >= 2x the dense-FFT rate, else exit 1.

#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/convolution.hpp"
#include "io/table.hpp"
#include "parallel/parallel_for.hpp"

namespace {
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

struct EngineCase {
    rrs::KernelEngine engine;
    const char* label;
};

/// Time `reps` generations of an n×n tile (distinct regions, so nothing can
/// ride the kernel-FFT cache unfairly) and return seconds per tile.
double time_engine(const rrs::ConvolutionKernel& kernel, rrs::KernelEngine engine,
                   std::int64_t n, int reps) {
    const rrs::ConvolutionGenerator gen(kernel, /*seed=*/42,
                                        rrs::HealthPolicy::kIgnore, engine);
    double acc = 0.0;  // defeat dead-code elimination
    const auto t0 = clock_type::now();
    for (int r = 0; r < reps; ++r) {
        const auto f = gen.generate(rrs::Rect{2 * n * r, 0, n, n});
        acc += f(0, 0);
    }
    const double dt = seconds_since(t0) / reps;
    if (std::isnan(acc)) {
        std::cerr << "unexpected NaN surface\n";
    }
    return dt;
}

/// Estimated floating-point ops per output lattice point for one engine on
/// one kernel (2 ops per multiply-add; FFT engine ~5 ops per butterfly
/// point, amortised over the tile).
double flops_per_point(const rrs::ConvolutionKernel& kernel, rrs::KernelEngine engine,
                       std::int64_t tile) {
    const auto kx = static_cast<double>(kernel.nx());
    const auto ky = static_cast<double>(kernel.ny());
    switch (engine) {
        case rrs::KernelEngine::kDirect:
            return 2.0 * kx * ky;
        case rrs::KernelEngine::kSeparable:
            return 2.0 * (kx + ky);
        default: {
            const auto n = static_cast<std::size_t>(tile);
            const double px =
                static_cast<double>(std::bit_ceil(n + kernel.nx()));
            const double py =
                static_cast<double>(std::bit_ceil(n + kernel.ny()));
            const double p2 = px * py;
            const double fft = 2.0 * 5.0 * p2 * std::log2(p2);
            const double mul = 6.0 * p2;
            return (fft + mul) / (static_cast<double>(tile) * static_cast<double>(tile));
        }
    }
}
}  // namespace

int main(int argc, char** argv) {
    using namespace rrs;
    bool assert_speedup = false;
    std::string out_dir = "bench_out";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--assert-speedup") == 0) {
            assert_speedup = true;
        } else if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
            out_dir = argv[++i];
        } else {
            std::cerr << "usage: kernel_roofline [--assert-speedup] [--out-dir DIR]\n";
            return 2;
        }
    }
    const bench::TraceFromEnv trace_guard;  // RRS_TRACE=file.json records spans

    std::cout << "=== Convolution engine roofline (threads: " << max_threads()
              << ") ===\n\n";

    // Default Gaussian scene: unit height, cl = 8 lattice units — the same
    // family/shape the acceptance tier certifies.
    const auto spectrum = make_gaussian({1.0, 8.0, 8.0});
    const EngineCase engines[] = {
        {KernelEngine::kDirect, "direct"},
        {KernelEngine::kFft, "fft"},
        {KernelEngine::kSeparable, "separable"},
    };

    std::vector<bench::BenchRecord> records;
    double fft_default = 0.0, sep_default = 0.0;

    Table table({"engine", "kernel", "taps", "tile", "ms/tile", "Mpts/s", "flops/pt",
                 "GFLOP/s"});
    for (const std::size_t kgrid : {64u, 128u}) {
        const ConvolutionKernel kernel = ConvolutionKernel::build_truncated(
            *spectrum, GridSpec::unit_spacing(kgrid, kgrid), 1e-6);
        for (const std::int64_t tile : {64, 128, 256}) {
            const double points = static_cast<double>(tile) * static_cast<double>(tile);
            for (const EngineCase& e : engines) {
                // The direct engine is the O(K²) baseline — one rep is
                // plenty and keeps the sweep snappy.
                const int reps = e.engine == KernelEngine::kDirect ? 1 : 3;
                const double dt = time_engine(kernel, e.engine, tile, reps);
                const double fpp = flops_per_point(kernel, e.engine, tile);
                const double pts_per_s = points / dt;
                table.add_row({e.label, std::to_string(kgrid),
                               std::to_string(kernel.taps().size()),
                               std::to_string(tile), Table::num(dt * 1e3),
                               Table::num(pts_per_s / 1e6), Table::num(fpp, 1),
                               Table::num(fpp * pts_per_s / 1e9, 2)});
                records.push_back({std::string(e.label) + "/k" + std::to_string(kgrid) +
                                       "/t" + std::to_string(tile),
                                   static_cast<std::int64_t>(points), dt * 1e3,
                                   pts_per_s});
                if (kgrid == 128 && tile == 256) {
                    if (e.engine == KernelEngine::kFft) {
                        fft_default = dt;
                    } else if (e.engine == KernelEngine::kSeparable) {
                        sep_default = dt;
                    }
                }
            }
        }
    }
    table.print(std::cout);

    bench::write_bench_json(out_dir, "kernel_roofline", records);
    std::cout << "\nwrote " << out_dir << "/BENCH_kernel_roofline.json ("
              << records.size() << " records)\n";

    const double speedup = sep_default > 0.0 ? fft_default / sep_default : 0.0;
    std::cout << "default scene (kernel 128, tile 256): separable is "
              << Table::num(speedup, 2) << "x the dense-FFT engine\n";
    if (assert_speedup && speedup < 2.0) {
        std::cerr << "FAIL: separable engine must be >= 2x dense FFT on the default "
                     "Gaussian scene (got "
                  << speedup << "x)\n";
        return 1;
    }
    return 0;
}
