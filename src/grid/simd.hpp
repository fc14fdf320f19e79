#pragma once

/// \file simd.hpp
/// Elementwise primitives for the generation hot loops.
///
/// One portable definition for every build: each multiply-add is an
/// explicit `std::fma`, and the build compiles with `-ffp-contract=off`, so
/// the source — not the target flags, the optimisation level or the vector
/// width — fixes every rounding (DESIGN.md §15.3).  Every primitive is
/// elementwise: output i depends on input i alone, so the compiler may
/// vectorise the loops at any width without changing a result.

#include <cmath>
#include <complex>
#include <cstddef>

namespace rrs::simd {

/// y[i] = fma(c[count−1], rows[count−1][i], … fma(c[0], rows[0][i], y[i]))
/// for i in [0, n), where row k starts at `rows + k·stride`.  The terms go
/// in ascending k, each one fused.  Four rows share one pass over y, which
/// changes no operation per element but cuts y's read-modify-write traffic
/// to a quarter.  The separable engine runs both its passes through this:
/// stride 1 slides a kernel over a noise row, stride = row length stacks
/// whole rows.
inline void accumulate(double* y, const double* rows, std::size_t stride, const double* c,
                       std::size_t count, std::size_t n) noexcept {
    std::size_t k = 0;
    for (; k + 4 <= count; k += 4) {
        const double* r0 = rows + k * stride;
        const double* r1 = r0 + stride;
        const double* r2 = r1 + stride;
        const double* r3 = r2 + stride;
        for (std::size_t i = 0; i < n; ++i) {
            double acc = std::fma(c[k], r0[i], y[i]);
            acc = std::fma(c[k + 1], r1[i], acc);
            acc = std::fma(c[k + 2], r2[i], acc);
            y[i] = std::fma(c[k + 3], r3[i], acc);
        }
    }
    for (; k < count; ++k) {
        const double* r = rows + k * stride;
        for (std::size_t i = 0; i < n; ++i) {
            y[i] = std::fma(c[k], r[i], y[i]);
        }
    }
}

/// a[i] *= b[i] over complex arrays — the FFT engine's spectral pointwise
/// multiply, with each component's multiply-add fused:
/// re = fma(ar, br, −(ai·bi)), im = fma(ai, br, ar·bi).
inline void cmul(std::complex<double>* a, const std::complex<double>* b,
                 std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
        const double ar = a[i].real();
        const double ai = a[i].imag();
        const double br = b[i].real();
        const double bi = b[i].imag();
        a[i] = {std::fma(ar, br, -(ai * bi)), std::fma(ai, br, ar * bi)};
    }
}

}  // namespace rrs::simd
