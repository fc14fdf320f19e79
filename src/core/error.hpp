#pragma once

/// \file error.hpp
/// Unified error taxonomy for librrs.
///
/// Every invalid-input, numeric-health, and I/O failure in the library
/// throws a subclass of rrs::Error carrying a structured *context chain* —
/// an outermost-first list of frames such as {"spectrum 'sea'", "cl_x"} —
/// so callers (and log lines) see *where* a bad value entered the pipeline,
/// not just what it was.  The what() text renders the chain as
/// "spectrum 'sea' → cl_x: must be positive (got -2)".
///
/// The taxonomy deliberately multiply-inherits from the standard exception
/// types the library historically threw (std::invalid_argument for
/// configuration problems, std::runtime_error for numeric/I-O problems,
/// std::domain_error / std::out_of_range / std::logic_error for the
/// mathematical and indexing layers), so existing
/// `catch (const std::invalid_argument&)` call sites — and the seed
/// test-suite — keep working while new code can catch rrs::Error to get the
/// structured chain.
///
///   Error (abstract mixin, not a std::exception)
///   ├── ConfigError  : std::invalid_argument — bad parameters / bad input
///   ├── NumericError : std::runtime_error    — NaN/Inf, energy loss, ...
///   ├── IoError      : std::runtime_error    — files, serialized state
///   │   └── UnavailableError                  — cannot serve now; retry later
///   ├── DomainError  : std::domain_error     — math argument outside domain
///   ├── BoundsError  : std::out_of_range     — index / window out of range
///   └── StateError   : std::logic_error      — API misuse, invalid state
///
/// This header is intentionally header-only: the leaf libraries (grid, fft,
/// special, stats, ...) sit *below* rrs::core in the link graph but still
/// throw taxonomy types, which must not drag in a link dependency.
/// `tools/rrslint` machine-enforces that every `throw` in src/ uses this
/// taxonomy (DESIGN.md §11).
///
/// See validate.hpp for the RRS_CHECK precondition helpers and health.hpp
/// for the numeric guards that throw NumericError.

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace rrs {

/// Ordered outermost-first context frames, e.g. {"scene:12", "spectrum 'sea'", "h"}.
using ErrorContext = std::vector<std::string>;

/// Abstract mixin root of the taxonomy.  Not itself a std::exception — the
/// concrete subclasses each pick the standard base matching their legacy
/// behaviour — but always catchable as `const rrs::Error&`.
class Error {
public:
    virtual ~Error() = default;

    /// The bare failure description, without the context chain.
    const std::string& message() const noexcept { return message_; }

    /// Outermost-first context frames.
    const ErrorContext& context() const noexcept { return context_; }

    /// The chain joined with " → " (empty string when there is no context).
    std::string context_string() const {
        std::string out;
        for (const std::string& frame : context_) {
            if (!out.empty()) {
                out += " → ";
            }
            out += frame;
        }
        return out;
    }

    /// Full rendered text: "ctx → ctx: message" (what() of the std base).
    virtual const char* what() const noexcept = 0;

    /// "a → b: message", or just "message" when the chain is empty.
    static std::string format(const std::string& message, const ErrorContext& context) {
        std::string chain;
        for (const std::string& frame : context) {
            if (!chain.empty()) {
                chain += " → ";
            }
            chain += frame;
        }
        if (chain.empty()) {
            return message;
        }
        return chain + ": " + message;
    }

protected:
    Error(std::string message, ErrorContext context)
        : message_(std::move(message)), context_(std::move(context)) {}

private:
    std::string message_;
    ErrorContext context_;
};

/// Invalid configuration: bad parameter values, malformed scenes, size and
/// geometry violations.  IS-A std::invalid_argument.
class ConfigError : public Error, public std::invalid_argument {
public:
    explicit ConfigError(std::string message, ErrorContext context = {})
        : Error(std::move(message), std::move(context)),
          std::invalid_argument(format(this->message(), this->context())) {}

    const char* what() const noexcept override { return std::invalid_argument::what(); }
};

/// Numeric-health violation: non-finite samples, implausible variance,
/// kernel energy loss, iteration/convergence failure.  IS-A std::runtime_error.
class NumericError : public Error, public std::runtime_error {
public:
    explicit NumericError(std::string message, ErrorContext context = {})
        : Error(std::move(message), std::move(context)),
          std::runtime_error(format(this->message(), this->context())) {}

    const char* what() const noexcept override { return std::runtime_error::what(); }
};

/// Filesystem / serialization failure: unwritable outputs, corrupt
/// checkpoints.  IS-A std::runtime_error.
class IoError : public Error, public std::runtime_error {
public:
    explicit IoError(std::string message, ErrorContext context = {})
        : Error(std::move(message), std::move(context)),
          std::runtime_error(format(this->message(), this->context())) {}

    const char* what() const noexcept override { return std::runtime_error::what(); }
};

/// A dependency cannot serve right now — an open circuit breaker, an
/// unreachable shard or fleet — and the same request may succeed later.
/// IS-A IoError.  The HTTP server answers it with 503 + `Retry-After:
/// retry_after_s()`.
class UnavailableError : public IoError {
public:
    explicit UnavailableError(std::string message, ErrorContext context = {},
                              int retry_after_ms = 0)
        : IoError(std::move(message), std::move(context)),
          retry_after_ms_(retry_after_ms) {}

    /// The retry hint in whole seconds, rounded up, at least 1.
    int retry_after_s() const noexcept {
        const int secs = (retry_after_ms_ + 999) / 1000;
        return secs > 0 ? secs : 1;
    }

private:
    int retry_after_ms_;
};

/// Mathematical argument outside a function's domain (special functions,
/// quantile inversions).  IS-A std::domain_error.
class DomainError : public Error, public std::domain_error {
public:
    explicit DomainError(std::string message, ErrorContext context = {})
        : Error(std::move(message), std::move(context)),
          std::domain_error(format(this->message(), this->context())) {}

    const char* what() const noexcept override { return std::domain_error::what(); }
};

/// Index or window outside the addressed object (Array2D::at, probe
/// placement, region lookup).  IS-A std::out_of_range.
class BoundsError : public Error, public std::out_of_range {
public:
    explicit BoundsError(std::string message, ErrorContext context = {})
        : Error(std::move(message), std::move(context)),
          std::out_of_range(format(this->message(), this->context())) {}

    const char* what() const noexcept override { return std::out_of_range::what(); }
};

/// API misuse or an object in the wrong state for the call (submit on a
/// stopped pool, averaging an empty accumulator, metric kind clash).
/// IS-A std::logic_error.
class StateError : public Error, public std::logic_error {
public:
    explicit StateError(std::string message, ErrorContext context = {})
        : Error(std::move(message), std::move(context)),
          std::logic_error(format(this->message(), this->context())) {}

    const char* what() const noexcept override { return std::logic_error::what(); }
};

/// Rebuild `e` with `frame` prepended to its context chain and throw the
/// copy.  Exceptions are immutable once thrown, so enclosing layers use this
/// to extend the chain, e.g. catching "cl_x: must be positive" from a
/// spectrum factory and rethrowing as "spectrum 'sea' → cl_x: ...".
template <typename E>
[[noreturn]] void rethrow_with_context(const E& e, std::string frame) {
    static_assert(std::is_base_of_v<Error, E>, "rethrow_with_context needs an rrs::Error");
    ErrorContext context;
    context.reserve(e.context().size() + 1);
    context.push_back(std::move(frame));
    context.insert(context.end(), e.context().begin(), e.context().end());
    throw E(e.message(), std::move(context));  // rrslint-allow(error-taxonomy): E is static_asserted to be an rrs::Error subclass
}

}  // namespace rrs
