#pragma once

/// \file client.hpp
/// Small blocking HTTP/1.1 GET client over the same socket layer the
/// server uses.  Exists for the repo's own closed loop — tests drive the
/// server end-to-end with it, bench/net_load.cpp generates load with it,
/// and tools/rrsquery wraps it for the command line.  It is intentionally
/// not a general user agent: GET only, numeric IPv4, `Content-Length`
/// bodies only (which is everything HttpServer emits).
///
/// Connections are kept alive across `get()` calls; a stale keep-alive
/// connection (server closed it between requests) is transparently
/// reconnected once.  All failures throw IoError — a non-2xx *response* is
/// not a failure, callers inspect `ClientResponse::status`.
///
/// Resilience (DESIGN.md §13): an optional RetryPolicy makes `get()` retry
/// transport failures (IoError, including ConnectError) and 503 responses
/// with capped exponential backoff + decorrelated jitter, under an overall
/// deadline budget.  Retrying is safe precisely because this client is
/// GET-only — every request is idempotent by construction.  A 503 with a
/// `Retry-After: N` header waits N seconds instead of the backoff draw.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/socket.hpp"

namespace rrs::obs {
class MetricsRegistry;
class Counter;
}  // namespace rrs::obs

namespace rrs::net {

/// The retry deadline budget ran out before a response was obtained.
/// IS-A IoError (catch it *before* IoError to tell the cases apart);
/// rrsquery maps it to its own exit code.
class DeadlineError : public IoError {
public:
    explicit DeadlineError(std::string message, ErrorContext context = {"net"})
        : IoError(std::move(message), std::move(context)) {}
};

/// Retry schedule for HttpClient::get().  The default policy (one attempt,
/// no deadline) reproduces the historical fail-fast behaviour.
struct RetryPolicy {
    int max_attempts = 1;      ///< total tries, >= 1 (1 = no retries)
    int base_backoff_ms = 10;  ///< first backoff delay
    int max_backoff_ms = 2000; ///< backoff cap
    int deadline_ms = 0;       ///< overall budget across attempts (0 = none)
    std::uint64_t jitter_seed = 1;  ///< drives the deterministic jitter
};

/// One parsed response (header names lower-cased).
struct ClientResponse {
    int status = 0;
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;

    const std::string* header(std::string_view name) const noexcept;
    bool ok() const noexcept { return status >= 200 && status < 300; }
};

/// Parse "HTTP/1.x STATUS reason" + header lines into a ClientResponse
/// (body left empty — the caller reads it from the socket).  Pure parse
/// over untrusted server bytes (fuzz surface, DESIGN.md §16): throws
/// IoError on a malformed status line, malformed header, or any embedded
/// control byte (NUL, lone CR/LF) — never anything outside the taxonomy.
ClientResponse parse_response_head(std::string_view head);

/// A `Retry-After: N` value in whole seconds, as milliseconds; -1 when the
/// header is absent, non-numeric (HTTP-date form unsupported), or absurd
/// (more than 4 digits).  The one parser of a server's retry hint.
int retry_after_ms(const ClientResponse& resp);

/// See file comment.
class HttpClient {
public:
    struct Options {
        int timeout_ms = 5000;  ///< connect + per-recv + per-send deadline
        std::size_t max_response_bytes = std::size_t{256} << 20;
        RetryPolicy retry;  ///< see file comment; default = fail fast
        /// When set, retry traffic is counted here: `net.client.retries`
        /// and `net.client.deadline_exhausted`.
        obs::MetricsRegistry* registry = nullptr;
    };

    /// Lazily connecting: the first get() dials `host:port`.
    HttpClient(std::string host, std::uint16_t port);
    HttpClient(std::string host, std::uint16_t port, Options opt);

    HttpClient(HttpClient&&) = default;
    HttpClient& operator=(HttpClient&&) = default;

    /// Extra request headers, sent verbatim after Host/Connection (e.g.
    /// {"If-None-Match", "\"...\""} for conditional tile GETs).
    using HeaderList = std::vector<std::pair<std::string, std::string>>;

    /// Issue one GET for `target` (e.g. "/v1/tile?tx=0&ty=1") and read the
    /// full response.  Reconnects a stale keep-alive connection once.
    /// Under a RetryPolicy, additionally retries IoError failures and 503
    /// responses with backoff until the attempts or the deadline budget run
    /// out — then rethrows the last IoError (or returns the last 503).
    /// Throws DeadlineError when the budget expires first.
    ClientResponse get(const std::string& target, const HeaderList& headers = {});

    /// Drop the connection (the next get() reconnects).
    void close() noexcept;

    bool connected() const noexcept { return sock_.valid(); }

    const std::string& host() const noexcept { return host_; }
    std::uint16_t port() const noexcept { return port_; }

private:
    ClientResponse get_once(const std::string& target, const HeaderList& headers);
    ClientResponse roundtrip(const std::string& target, const HeaderList& headers);
    [[noreturn]] void exhaust_deadline(const std::string& target);

    std::string host_;
    std::uint16_t port_;
    Options opt_;
    Socket sock_;
    std::string carry_;
    obs::Counter* retries_ = nullptr;             ///< net.client.retries
    obs::Counter* deadline_exhausted_ = nullptr;  ///< net.client.deadline_exhausted
};

}  // namespace rrs::net
