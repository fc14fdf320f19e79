#pragma once

/// \file engine.hpp
/// Kernel-engine selection for the convolution generator.
///
/// Three engines compute the same eq. (36) sums; `kAuto` picks the fastest
/// one the kernel admits.  Selection is resolved per `generate()` call, in
/// priority order:
///
///   1. the `RRS_KERNEL_ENGINE` environment variable (the bit-exactness
///      escape hatch — one env var turns any production run into a
///      reference run, through every layer: scene, tile service, daemon),
///   2. the engine configured on the generator (API enum / scene key),
///   3. `kAuto`: separable when the kernel factors rank-1, else FFT.
///
/// The differential-equivalence suite (tests/test_kernel_equivalence.cpp)
/// bounds every engine against the kDirect engine; DESIGN.md §15 states
/// the exact bit-exactness contract.

#include <optional>
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

/// The RRS_KERNEL_ENGINE override, re-read on every call so a long-lived
/// process can be switched between runs.  Unset or empty → nullopt; a
/// malformed value throws ConfigError (typos must not silently fall back
/// to the fast path).
std::optional<KernelEngine> kernel_engine_env_override();

}  // namespace rrs
