#include "fft/real.hpp"

#include <cmath>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "special/constants.hpp"

#include "core/error.hpp"

namespace rrs {

Rfft1D::Rfft1D(std::size_t n) : n_(n) {
    if (n < 2 || n % 2 != 0) {
        throw ConfigError{"Rfft1D: length must be even and >= 2"};
    }
    half_plan_ = fft_plan(n / 2);
    twiddle_.resize(n / 2 + 1);
    for (std::size_t k = 0; k <= n / 2; ++k) {
        const double ang = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
        twiddle_[k] = cplx{std::cos(ang), std::sin(ang)};
    }
}

void Rfft1D::forward(std::span<const double> in, std::span<cplx> out) const {
    if (in.size() != n_ || out.size() != spectrum_size()) {
        throw ConfigError{"Rfft1D::forward: length mismatch"};
    }
    const std::size_t m = n_ / 2;
    // Pack x[2k] + i·x[2k+1] and transform at half length.
    std::vector<cplx> z(m);
    for (std::size_t k = 0; k < m; ++k) {
        z[k] = cplx{in[2 * k], in[2 * k + 1]};
    }
    half_plan_->forward(z);
    // Unpack: X_k = A_k + W_k·B_k with A the even-sample spectrum and B the
    // odd-sample spectrum, both recovered from Z's Hermitian split.
    out[0] = cplx{z[0].real() + z[0].imag(), 0.0};
    out[m] = cplx{z[0].real() - z[0].imag(), 0.0};
    for (std::size_t k = 1; k < m; ++k) {
        const cplx zk = z[k];
        const cplx zc = std::conj(z[m - k]);
        const cplx a = 0.5 * (zk + zc);
        const cplx b = cplx{0.0, -0.5} * (zk - zc);  // (zk − zc)/(2i)
        out[k] = a + twiddle_[k] * b;
    }
}

void Rfft1D::inverse(std::span<const cplx> in, std::span<double> out) const {
    if (in.size() != spectrum_size() || out.size() != n_) {
        throw ConfigError{"Rfft1D::inverse: length mismatch"};
    }
    const std::size_t m = n_ / 2;
    // Re-pack: Z_k = A_k + i·B_k with A_k = (X_k + conj(X_{m−k}))/2 and
    // B_k = (X_k − conj(X_{m−k}))·conj(W_k)/2.
    std::vector<cplx> z(m);
    z[0] = cplx{0.5 * (in[0].real() + in[m].real()),
                0.5 * (in[0].real() - in[m].real())};
    for (std::size_t k = 1; k < m; ++k) {
        const cplx xk = in[k];
        const cplx xc = std::conj(in[m - k]);
        const cplx a = 0.5 * (xk + xc);
        const cplx b = 0.5 * std::conj(twiddle_[k]) * (xk - xc);
        z[k] = a + cplx{0.0, 1.0} * b;
    }
    half_plan_->inverse(z);
    for (std::size_t k = 0; k < m; ++k) {
        out[2 * k] = z[k].real();
        out[2 * k + 1] = z[k].imag();
    }
}

Rfft2D::Rfft2D(std::size_t nx, std::size_t ny)
    : nx_(nx), ny_(ny), row_plan_(nx), col_plan_(fft_plan(ny)) {
    if (ny < 1) {
        throw ConfigError{"Rfft2D: bad shape"};
    }
}

void Rfft2D::forward(const Array2D<double>& in, Array2D<cplx>& spectrum) const {
    if (in.nx() != nx_ || in.ny() != ny_) {
        throw ConfigError{"Rfft2D::forward: shape mismatch"};
    }
    RRS_TRACE_SPAN("fft.forward");
    static obs::Counter& forwards =
        obs::MetricsRegistry::global().counter("fft.forward");
    forwards.add();
    const std::size_t sx = spectrum_nx();
    spectrum.resize(sx, ny_);
    // r2c on rows.
    parallel_for_chunks(0, static_cast<std::int64_t>(ny_),
                        [&](std::int64_t lo, std::int64_t hi) {
                            std::vector<cplx> out(sx);
                            for (std::int64_t sy = lo; sy < hi; ++sy) {
                                const auto iy = static_cast<std::size_t>(sy);
                                row_plan_.forward(in.row(iy), out);
                                for (std::size_t k = 0; k < sx; ++k) {
                                    spectrum(k, iy) = out[k];
                                }
                            }
                        });
    // Complex FFT down each retained column.
    parallel_for_chunks(0, static_cast<std::int64_t>(sx),
                        [&](std::int64_t lo, std::int64_t hi) {
                            std::vector<cplx> col(ny_);
                            for (std::int64_t sxk = lo; sxk < hi; ++sxk) {
                                const auto k = static_cast<std::size_t>(sxk);
                                for (std::size_t iy = 0; iy < ny_; ++iy) {
                                    col[iy] = spectrum(k, iy);
                                }
                                col_plan_->forward(col);
                                for (std::size_t iy = 0; iy < ny_; ++iy) {
                                    spectrum(k, iy) = col[iy];
                                }
                            }
                        });
}

void Rfft2D::inverse(Array2D<cplx> spectrum, Array2D<double>& out) const {
    const std::size_t sx = spectrum_nx();
    if (spectrum.nx() != sx || spectrum.ny() != ny_) {
        throw ConfigError{"Rfft2D::inverse: shape mismatch"};
    }
    RRS_TRACE_SPAN("fft.inverse");
    static obs::Counter& inverses =
        obs::MetricsRegistry::global().counter("fft.inverse");
    inverses.add();
    parallel_for_chunks(0, static_cast<std::int64_t>(sx),
                        [&](std::int64_t lo, std::int64_t hi) {
                            std::vector<cplx> col(ny_);
                            for (std::int64_t sxk = lo; sxk < hi; ++sxk) {
                                const auto k = static_cast<std::size_t>(sxk);
                                for (std::size_t iy = 0; iy < ny_; ++iy) {
                                    col[iy] = spectrum(k, iy);
                                }
                                col_plan_->inverse(col);
                                for (std::size_t iy = 0; iy < ny_; ++iy) {
                                    spectrum(k, iy) = col[iy];
                                }
                            }
                        });
    if (out.nx() != nx_ || out.ny() != ny_) {
        out.resize(nx_, ny_);
    }
    parallel_for_chunks(0, static_cast<std::int64_t>(ny_),
                        [&](std::int64_t lo, std::int64_t hi) {
                            std::vector<cplx> in_row(sx);
                            for (std::int64_t sy = lo; sy < hi; ++sy) {
                                const auto iy = static_cast<std::size_t>(sy);
                                for (std::size_t k = 0; k < sx; ++k) {
                                    in_row[k] = spectrum(k, iy);
                                }
                                row_plan_.inverse(in_row, out.row(iy));
                            }
                        });
}

std::shared_ptr<const Rfft2D> rfft2d_plan(std::size_t nx, std::size_t ny) {
    static std::mutex mutex;
    static std::unordered_map<std::uint64_t, std::shared_ptr<const Rfft2D>> cache;
    const std::uint64_t key = (static_cast<std::uint64_t>(nx) << 32) | ny;
    std::lock_guard lock(mutex);
    auto it = cache.find(key);
    if (it == cache.end()) {
        RRS_TRACE_SPAN("fft.plan");
        static obs::Counter& plans = obs::MetricsRegistry::global().counter("fft.plans");
        plans.add();
        it = cache.emplace(key, std::make_shared<const Rfft2D>(nx, ny)).first;
    }
    return it->second;
}

}  // namespace rrs
