#pragma once

/// \file http_load.hpp
/// A plain blocking HTTP/1.1 keep-alive client for the load generator.
///
/// Deliberately independent of the repository's own net::HttpClient, so a
/// change to that client never moves the load side of the measurement.  It
/// speaks just what the tile API needs: GET with optional If-None-Match,
/// Content-Length bodies, and the few response headers the checks read.

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

/// One parsed response.  `body` is owned by the connection and valid until
/// its next request.
struct Response {
    int status = 0;
    std::string etag;
    std::string scale;        ///< X-RRS-Scale (i16 bodies)
    std::string offset;       ///< X-RRS-Offset (i16 bodies)
    std::string fingerprint;  ///< X-RRS-Fingerprint
    std::string_view body;
};

/// One keep-alive connection to 127.0.0.1:port.  Reconnects transparently
/// when the server closed the previous connection.  Throws std::runtime_error
/// on transport failures (connect, send, receive, 30 s deadline).
class Conn {
public:
    explicit Conn(std::uint16_t port);
    ~Conn();
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    const Response& get(std::string_view target, std::string_view if_none_match = {});

    /// The request head `get(target, inm)` sends (for the parse layer).
    static std::string request_head(std::string_view target,
                                    std::string_view if_none_match = {});

private:
    void connect();
    void close() noexcept;

    std::uint16_t port_;
    int fd_ = -1;
    std::string out_;
    std::string in_;
    Response resp_;
};

/// One GET on a fresh connection; returns the status and copies the body.
int get_once(std::uint16_t port, std::string_view target, std::string* body = nullptr);

}  // namespace perfbench
