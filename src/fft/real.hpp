#pragma once

/// \file real.hpp
/// Real-input FFTs.  Every field in librrs (noise, kernels, surfaces) is
/// real, so the generation path uses the packed real transform: a length-N
/// real DFT computed via one length-N/2 complex FFT plus an O(N) unpack —
/// half the memory traffic and nearly half the flops of the complex path.
///
/// Layout: the forward transform stores the non-redundant half-spectrum,
/// bins 0..N/2 (N/2+1 complex values); the full spectrum follows from
/// Hermitian symmetry X_{N−k} = conj(X_k).
///
/// The 2-D inverse consumes its spectrum: it runs the column transforms in
/// the caller's buffer (moved in), so a convolution holds the padded real
/// image and one half-spectrum, never a second spectrum or result buffer.

#include <complex>
#include <memory>
#include <span>

#include "fft/fft1d.hpp"
#include "grid/array2d.hpp"

namespace rrs {

/// Plan for a fixed even length N: real forward / inverse pair.
class Rfft1D {
public:
    explicit Rfft1D(std::size_t n);

    std::size_t size() const noexcept { return n_; }
    std::size_t spectrum_size() const noexcept { return n_ / 2 + 1; }

    /// Forward: real `in` (length N) → half-spectrum `out` (length N/2+1),
    /// matching the unnormalised complex forward DFT bin for bin.
    void forward(std::span<const double> in, std::span<cplx> out) const;

    /// Inverse: half-spectrum `in` (length N/2+1, Hermitian endpoints real)
    /// → real `out` (length N); includes the 1/N factor.
    void inverse(std::span<const cplx> in, std::span<double> out) const;

private:
    std::size_t n_;
    std::shared_ptr<const Fft1D> half_plan_;  // complex plan of length N/2
    std::vector<cplx> twiddle_;               // e^{−2πik/N}, k <= N/2
};

/// 2-D real transform: r2c rows (Nx/2+1 bins) then complex columns.
/// Spectrum shape: (Nx/2+1) × Ny.
class Rfft2D {
public:
    Rfft2D(std::size_t nx, std::size_t ny);

    std::size_t nx() const noexcept { return nx_; }
    std::size_t ny() const noexcept { return ny_; }
    std::size_t spectrum_nx() const noexcept { return nx_ / 2 + 1; }

    /// Forward r2c; `spectrum` is resized to (Nx/2+1) × Ny.
    void forward(const Array2D<double>& in, Array2D<cplx>& spectrum) const;

    /// Inverse c2r.  Transforms `spectrum` in place (move it in to avoid a
    /// copy); `out` is resized to Nx × Ny unless it has that shape already,
    /// and every element is overwritten.  Includes 1/(Nx·Ny).
    void inverse(Array2D<cplx> spectrum, Array2D<double>& out) const;

private:
    std::size_t nx_;
    std::size_t ny_;
    Rfft1D row_plan_;
    std::shared_ptr<const Fft1D> col_plan_;
};

/// Shared plan cache (mirrors fft_plan).
std::shared_ptr<const Rfft2D> rfft2d_plan(std::size_t nx, std::size_t ny);

}  // namespace rrs
