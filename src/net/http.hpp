#pragma once

/// \file http.hpp
/// HTTP/1.1-subset messages: request parsing, response serialization, and
/// the HttpError taxonomy type that carries a status code.
///
/// The subset is deliberately small but strict — exactly what a read-only
/// tile API needs (DESIGN.md §12):
///  * Requests: `GET <target> HTTP/1.0|1.1` + headers.  Other methods parse
///    fine (the server answers 405); malformed grammar is a 400, an
///    unsupported HTTP major version a 505, an oversized head a 431.
///  * Targets: absolute paths with an optional query string; `%XX` and `+`
///    decoding in both path and query values.
///  * Responses: status line + `Content-Length` + `Connection` (+ caller
///    headers), then the body.  No chunked encoding, no trailers.  The
///    head is serialized on its own; the body is an immutable shared view
///    the server writes after it in one gather write, never copied.
///
/// Parsing is pure (bytes in, struct out) so every negative path is
/// unit-testable without a socket; the wire loops live in server.cpp /
/// client.cpp.  All parse failures throw HttpError — an rrs::ConfigError
/// (client-fault) carrying the HTTP status the server should answer with,
/// following the SceneError precedent of a subsystem-specific ConfigError
/// subclass.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/error.hpp"

namespace rrs::net {

/// Protocol-level failure with the HTTP status code the peer should see.
/// IS-A ConfigError (and therefore rrs::Error / std::invalid_argument).
class HttpError : public ConfigError {
public:
    HttpError(int status, std::string message, ErrorContext context = {"http"})
        : ConfigError(std::move(message), std::move(context)), status_(status) {}

    int status() const noexcept { return status_; }

private:
    int status_;
};

/// One parsed request head.  Header names are lower-cased at parse time;
/// values keep their case with surrounding whitespace trimmed.
struct HttpRequest {
    std::string method;  ///< verbatim token, e.g. "GET"
    std::string target;  ///< raw request target, e.g. "/v1/tile?tx=0&ty=1"
    std::string path;    ///< decoded path component, e.g. "/v1/tile"
    int version_minor = 1;  ///< 0 or 1 (HTTP/1.x)
    std::map<std::string, std::string> query;  ///< decoded query parameters
    std::vector<std::pair<std::string, std::string>> headers;
    bool keep_alive = true;  ///< per Connection header / version default

    /// First header with this (lower-case) name, or nullptr.
    const std::string* header(std::string_view name) const noexcept;

    /// Query parameter by name, or nullptr.
    const std::string* query_param(std::string_view name) const noexcept;

    /// Content-Length (0 when absent); throws HttpError(400) on garbage.
    std::size_t content_length() const;
};

/// One response to serialize.  `Content-Length` and `Connection` are
/// emitted by serialize_head; everything else goes through
/// `extra_headers`.
///
/// The body is held once: a read-only view of bytes that a refcounted
/// owner keeps alive — a string the handler built, a cached tile's own
/// storage, or an encoding held on the tile's cache entry — so copies of a
/// response share one body and the server writes it without copying.  The
/// two are private and set together, so every view has its owner.
struct HttpResponse {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::vector<std::pair<std::string, std::string>> extra_headers;
    bool close = false;  ///< force `Connection: close` regardless of request

    /// The body bytes (empty by default).
    std::string_view body() const noexcept { return body_; }

    /// Own `bytes` (moved into a shared string) and view them.
    void set_body(std::string bytes);

    static HttpResponse text(int status, std::string body);
    static HttpResponse json(int status, std::string body);
    static HttpResponse octets(std::string body);
    /// Binary body `bytes`, which `owner` keeps alive (no copy).
    static HttpResponse octets(std::shared_ptr<const void> owner, std::string_view bytes);

private:
    std::string_view body_;
    std::shared_ptr<const void> body_owner_;
};

/// Canonical reason phrase ("OK", "Not Found", ...; "Unknown" otherwise).
const char* status_reason(int status) noexcept;

/// Parse limits a server imposes on one request head.
struct RequestLimits {
    std::size_t max_header_bytes = 8192;
    std::size_t max_headers = 100;
};

/// Parse one request head (everything before the blank line, CRLF-separated).
/// Throws HttpError(400 | 431 | 505) on violations; does not enforce any
/// method policy — that is the server's call.
HttpRequest parse_request_head(std::string_view head, const RequestLimits& limits = {});

/// Decode `%XX` escapes and `+` (as space); throws HttpError(400) on
/// malformed escapes.
std::string url_decode(std::string_view s);

/// Serialize a response head: status line, headers and the blank line,
/// with `Content-Length` taken from `r.body`.  `keep_alive` is the
/// connection decision already made by the server (request wish &&
/// !r.close && !drain).  The server sends the body after it in the same
/// gather write.
std::string serialize_head(const HttpResponse& r, bool keep_alive);

/// Head + body in one string: the bytes the server writes for `r`.
std::string serialize_response(const HttpResponse& r, bool keep_alive);

/// Minimal JSON string escaping (backslash, quote, control characters).
std::string json_escape(std::string_view s);

/// The canonical error payload: {"error":<status>,"message":"..."}.
HttpResponse error_response(int status, std::string_view message);

}  // namespace rrs::net
