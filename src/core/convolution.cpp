#include "core/convolution.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>
#include <vector>

#include "core/validate.hpp"
#include "fft/real.hpp"
#include "grid/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "rng/hash.hpp"

namespace rrs {

namespace {

/// Pipeline counters for the convolution engines (obs registry, cold
/// lookup once, then relaxed atomics — tile granularity, never per-point).
/// Per-engine tile counters expose where batch traffic actually lands.
struct ConvCounters {
    obs::Counter& tiles;
    obs::Counter& points;
    obs::Counter& direct_tiles;
    obs::Counter& fft_tiles;
    obs::Counter& separable_tiles;

    static ConvCounters& get() {
        auto& reg = obs::MetricsRegistry::global();
        static ConvCounters c{reg.counter("conv.tiles"), reg.counter("conv.points"),
                              reg.counter("conv.engine.direct"),
                              reg.counter("conv.engine.fft"),
                              reg.counter("conv.engine.separable")};
        return c;
    }

    void count_tile(const Rect& region, obs::Counter& engine_tiles) {
        tiles.add();
        engine_tiles.add();
        points.add(static_cast<std::uint64_t>(region.nx * region.ny));
    }
};

std::size_t next_pow2(std::size_t n) {
    std::size_t m = 1;
    while (m < n) {
        m <<= 1;
    }
    return m;
}

}  // namespace

/// Forward r2c FFT of the wrapped kernel image at one padded size, built
/// once per (Px, Py) and shared by all subsequent FFT-engine tiles.
struct ConvolutionGenerator::CachedKernelFft {
    std::size_t Px = 0;
    std::size_t Py = 0;
    Array2D<cplx> spectrum;  // half-spectrum: (Px/2+1) x Py
};

/// Cache of kernel FFTs keyed by padded size, behind a unique_ptr so the
/// generator stays movable despite the mutex.  The lock is held only for
/// the map lookup/insert (once per padded size per generator) — it is not
/// on the per-tile path, so batch fan-out does not serialise here.
struct ConvolutionGenerator::FftCache {
    std::mutex mutex;
    std::unordered_map<std::uint64_t, std::shared_ptr<const CachedKernelFft>> entries;
};

ConvolutionGenerator::ConvolutionGenerator(ConvolutionKernel kernel, std::uint64_t seed,
                                           HealthPolicy health, KernelEngine engine)
    : kernel_(std::move(kernel)),
      lattice_(seed),
      health_(health),
      engine_(engine),
      factors_(kernel_.separable()),
      cache_(std::make_unique<FftCache>()) {
    apply_policy(kernel_health(kernel_), health_, kDefaultKernelEnergyTol,
                 {"ConvolutionGenerator", "kernel"});
}

std::uint64_t ConvolutionGenerator::fingerprint() const noexcept {
    std::uint64_t h = mix64(0x5252535F434F4E56ULL ^ lattice_.seed());  // "RRS_CONV"
    h = mix64(h ^ static_cast<std::uint64_t>(kernel_.nx()));
    h = mix64(h ^ static_cast<std::uint64_t>(kernel_.ny()));
    h = mix64(h ^ static_cast<std::uint64_t>(kernel_.center_x()));
    h = mix64(h ^ static_cast<std::uint64_t>(kernel_.center_y()));
    h = mix64(h ^ std::bit_cast<std::uint64_t>(kernel_.spacing_x()));
    h = mix64(h ^ std::bit_cast<std::uint64_t>(kernel_.spacing_y()));
    h = mix64(h ^ std::bit_cast<std::uint64_t>(kernel_.energy()));
    // Never return the "unfingerprinted" sentinel.
    return h == 0 ? 1 : h;
}

ConvolutionGenerator::~ConvolutionGenerator() = default;
ConvolutionGenerator::ConvolutionGenerator(ConvolutionGenerator&&) noexcept = default;
ConvolutionGenerator& ConvolutionGenerator::operator=(ConvolutionGenerator&&) noexcept =
    default;

Array2D<double> ConvolutionGenerator::noise_tile(const Rect& region) const {
    RRS_CHECK(!region.empty(), "ConvolutionGenerator::noise_tile",
              "region must be non-empty");
    Array2D<double> X(static_cast<std::size_t>(region.nx),
                      static_cast<std::size_t>(region.ny));
    lattice_.fill(region, X);
    return X;
}

void ConvolutionGenerator::scan_health(const Array2D<double>& f,
                                       const char* where) const {
    if (health_ != HealthPolicy::kIgnore) {
        apply_policy(scan_surface(f, std::sqrt(kernel_.energy())), health_,
                     {"ConvolutionGenerator", where});
    }
}

KernelEngine ConvolutionGenerator::resolved_engine() const {
    KernelEngine e = kernel_engine_env_override().value_or(engine_);
    if (e == KernelEngine::kAuto) {
        e = factors_.has_value() ? KernelEngine::kSeparable : KernelEngine::kFft;
    }
    return e;
}

Rect ConvolutionGenerator::halo_rect(const Rect& region) const noexcept {
    // f(n) reads X at n − d for every tap offset d in [min_d, max_d].
    return Rect{region.x0 - kernel_.max_dx(), region.y0 - kernel_.max_dy(),
                region.nx + kernel_.max_dx() - kernel_.min_dx(),
                region.ny + kernel_.max_dy() - kernel_.min_dy()};
}

Array2D<double> ConvolutionGenerator::generate(const Rect& region) const {
    return generate(region, resolved_engine());
}

Array2D<double> ConvolutionGenerator::generate(const Rect& region,
                                               KernelEngine engine) const {
    const Rect xrect = halo_rect(region);
    return convolve(engine, region, noise_tile(xrect), xrect);
}

Array2D<double> ConvolutionGenerator::generate(const Rect& region, const Array2D<double>& X,
                                               const Rect& xrect) const {
    return convolve(resolved_engine(), region, X, xrect);
}

Array2D<double> ConvolutionGenerator::convolve(KernelEngine engine, const Rect& region,
                                               const Array2D<double>& X,
                                               const Rect& xrect) const {
    RRS_TRACE_SPAN("conv.generate");
    const Rect halo = halo_rect(region);
    RRS_CHECK(!region.empty(), "ConvolutionGenerator::generate",
              "region must be non-empty");
    RRS_CHECK(intersect(xrect, halo) == halo && X.nx() == static_cast<std::size_t>(xrect.nx) &&
                  X.ny() == static_cast<std::size_t>(xrect.ny),
              "ConvolutionGenerator::generate",
              "the noise window must cover the region's halo and be X's shape");
    const double* x = &X(static_cast<std::size_t>(halo.x0 - xrect.x0),
                         static_cast<std::size_t>(halo.y0 - xrect.y0));
    const bool separable = engine == KernelEngine::kSeparable ||
                           (engine == KernelEngine::kAuto && factors_.has_value());
    Array2D<double> f = engine == KernelEngine::kDirect ? convolve_direct(region, x, X.nx())
                        : separable ? convolve_separable(region, x, X.nx())
                                    : convolve_fft(region, x, X.nx());
    scan_health(f, "generate");
    return f;
}

Array2D<double> ConvolutionGenerator::convolve_direct(const Rect& region, const double* x,
                                                      std::size_t stride) const {
    RRS_TRACE_SPAN("conv.direct");
    ConvCounters::get().count_tile(region, ConvCounters::get().direct_tiles);
    const auto knx = static_cast<std::int64_t>(kernel_.nx());
    const auto kny = static_cast<std::int64_t>(kernel_.ny());
    const Array2D<double>& taps = kernel_.taps();

    Array2D<double> f(static_cast<std::size_t>(region.nx),
                      static_cast<std::size_t>(region.ny));
    // f(x0+t) = Σ_j taps[j] · X[t + (K−1) − j]  per axis (see kernel docs);
    // with X indexed from the halo's corner, (t + K−1 − j) is always valid.
    parallel_for(0, region.ny, [&](std::int64_t ty) {
        for (std::int64_t tx = 0; tx < region.nx; ++tx) {
            double acc = 0.0;
            for (std::int64_t jy = 0; jy < kny; ++jy) {
                const auto ny_idx = static_cast<std::size_t>(ty + kny - 1 - jy);
                const auto krow = taps.row(static_cast<std::size_t>(jy));
                const double* xrow = x + ny_idx * stride;
                const std::int64_t base = tx + knx - 1;
                for (std::int64_t jx = 0; jx < knx; ++jx) {
                    acc += krow[static_cast<std::size_t>(jx)] * xrow[base - jx];
                }
            }
            f(static_cast<std::size_t>(tx), static_cast<std::size_t>(ty)) = acc;
        }
    });
    return f;
}

Array2D<double> ConvolutionGenerator::convolve_separable(const Rect& region, const double* x,
                                                         std::size_t stride) const {
    if (!factors_.has_value()) {
        throw ConfigError{
            "separable engine requested but the kernel does not factor "
            "rank-1 (only the Gaussian family does); use engine=fft or "
            "engine=direct",
            {"ConvolutionGenerator", "generate"}};
    }
    RRS_TRACE_SPAN("conv.separable");
    ConvCounters::get().count_tile(region, ConvCounters::get().separable_tiles);

    // taps = fx⊗fy turns eq. (36) into two 1-D passes:
    //   H(t, s)  = Σ_u fx[Kx−1−u] · X(t+u, s)        (horizontal, dot)
    //   f(t, ty) = Σ_v fy[Ky−1−v] · H(t, ty+v)       (vertical, axpy)
    // Both passes parallelise over independent output rows with a fixed
    // accumulation order, so results are bit-identical at any thread count
    // and overlapping rectangles agree exactly (X is a pure function of
    // absolute lattice coordinates).
    const std::size_t knx = kernel_.nx();
    const std::size_t kny = kernel_.ny();
    const std::vector<double> gx(factors_->fx.rbegin(), factors_->fx.rend());
    const std::vector<double> gy(factors_->fy.rbegin(), factors_->fy.rend());

    const std::int64_t Sy = region.ny + static_cast<std::int64_t>(kny) - 1;
    Array2D<double> H(static_cast<std::size_t>(region.nx),
                      static_cast<std::size_t>(Sy));
    parallel_for(0, Sy, [&](std::int64_t sy) {
        const double* xrow = x + static_cast<std::size_t>(sy) * stride;
        double* hrow = H.row(static_cast<std::size_t>(sy)).data();
        for (std::int64_t tx = 0; tx < region.nx; ++tx) {
            hrow[static_cast<std::size_t>(tx)] =
                simd::dot(gx.data(), xrow + tx, knx);
        }
    });

    Array2D<double> f(static_cast<std::size_t>(region.nx),
                      static_cast<std::size_t>(region.ny));
    parallel_for(0, region.ny, [&](std::int64_t ty) {
        double* frow = f.row(static_cast<std::size_t>(ty)).data();
        std::fill(frow, frow + region.nx, 0.0);
        for (std::size_t v = 0; v < kny; ++v) {
            const double* hrow = H.row(static_cast<std::size_t>(ty) + v).data();
            simd::axpy(frow, hrow, gy[v], static_cast<std::size_t>(region.nx));
        }
    });
    return f;
}

const ConvolutionGenerator::CachedKernelFft& ConvolutionGenerator::kernel_fft(
    std::size_t Px, std::size_t Py) const {
    const std::uint64_t key = (static_cast<std::uint64_t>(Px) << 32) | Py;
    std::lock_guard lock(cache_->mutex);
    auto& cache = cache_->entries;
    auto it = cache.find(key);
    if (it == cache.end()) {
        RRS_TRACE_SPAN("conv.kernel_fft");
        auto entry = std::make_shared<CachedKernelFft>();
        entry->Px = Px;
        entry->Py = Py;
        const Array2D<double> img = kernel_.wrapped_image(Px, Py);
        rfft2d_plan(Px, Py)->forward(img, entry->spectrum);
        it = cache.emplace(key, std::move(entry)).first;
    }
    return *it->second;
}

Array2D<double> ConvolutionGenerator::convolve_fft(const Rect& region, const double* x,
                                                   std::size_t stride) const {
    RRS_TRACE_SPAN("conv.fft");
    ConvCounters::get().count_tile(region, ConvCounters::get().fft_tiles);
    const std::size_t Sx = static_cast<std::size_t>(region.nx) + kernel_.nx() - 1;
    const std::size_t Sy = static_cast<std::size_t>(region.ny) + kernel_.ny() - 1;
    const std::size_t Px = next_pow2(Sx);
    const std::size_t Py = next_pow2(Sy);

    const CachedKernelFft& kfft = kernel_fft(Px, Py);
    const auto plan = rfft2d_plan(Px, Py);

    // Real noise image, zero-padded to (Px, Py), through the r2c path; the
    // inverse writes the convolution back into the same buffer.
    Array2D<double> buf(Px, Py, 0.0);
    for (std::size_t sy = 0; sy < Sy; ++sy) {
        std::copy_n(x + sy * stride, Sx, buf.row(sy).data());
    }
    Array2D<cplx> spec;
    plan->forward(buf, spec);
    simd::cmul(spec.data(), kfft.spectrum.data(), spec.size());
    plan->inverse(std::move(spec), buf);

    // out[i] = Σ_d tap(d)·noise[i−d]; valid (wrap-free) outputs start at the
    // left halo.  f(x0+t) = out[t + halo_left].
    const auto lx = static_cast<std::size_t>(kernel_.max_dx());
    const auto ly = static_cast<std::size_t>(kernel_.max_dy());
    Array2D<double> f(static_cast<std::size_t>(region.nx),
                      static_cast<std::size_t>(region.ny));
    for (std::size_t ty = 0; ty < f.ny(); ++ty) {
        std::copy_n(&buf(lx, ty + ly), f.nx(), f.row(ty).data());
    }
    return f;
}

}  // namespace rrs
