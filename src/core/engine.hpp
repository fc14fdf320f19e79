#pragma once

/// \file engine.hpp
/// Kernel-engine selection for the convolution generator.
///
/// Three engines compute the same eq. (36) sums; `kAuto` picks the fastest
/// one the kernel admits.  `ConvolutionGenerator` resolves its engine once,
/// at construction: the configured engine (API enum / scene key / rrsgen
/// `--engine`) if one is set, else separable when the kernel factors rank-1
/// and FFT when it does not.  The resolved engine is part of the
/// generator's fingerprint — engines agree to rounding, not bit for bit.
///
/// The differential-equivalence suite (tests/test_kernel_equivalence.cpp)
/// bounds every engine against the kDirect engine; DESIGN.md §15 states
/// the exact bit-exactness contract.

#include <string>

namespace rrs {

/// Which engine `ConvolutionGenerator::generate` runs.
enum class KernelEngine {
    kAuto,       ///< separable when the kernel factors, else FFT
    kDirect,     ///< literal eq. (36) tap sums — the reference engine
    kFft,        ///< padded circular convolution via the real-input FFT
    kSeparable,  ///< two 1-D passes (requires a rank-1 kernel)
};

/// Canonical lower-case name ("auto", "direct", "fft", "separable").
const char* kernel_engine_name(KernelEngine engine) noexcept;

/// Parse a canonical name; throws ConfigError on anything else.
KernelEngine parse_kernel_engine(const std::string& name);

}  // namespace rrs
