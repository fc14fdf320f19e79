#include "core/engine.hpp"

#include "core/error.hpp"

namespace rrs {

const char* kernel_engine_name(KernelEngine engine) noexcept {
    switch (engine) {
        case KernelEngine::kDirect:
            return "direct";
        case KernelEngine::kFft:
            return "fft";
        case KernelEngine::kSeparable:
            return "separable";
        case KernelEngine::kAuto:
            break;
    }
    return "auto";
}

KernelEngine parse_kernel_engine(const std::string& name) {
    if (name == "auto") {
        return KernelEngine::kAuto;
    }
    if (name == "direct") {
        return KernelEngine::kDirect;
    }
    if (name == "fft") {
        return KernelEngine::kFft;
    }
    if (name == "separable") {
        return KernelEngine::kSeparable;
    }
    throw ConfigError{"unknown kernel engine '" + name +
                          "' (expected auto|direct|fft|separable)",
                      {"engine", "parse_kernel_engine"}};
}

}  // namespace rrs
