#pragma once

/// \file socket.hpp
/// Thin RAII layer over POSIX TCP sockets — the only system dependency of
/// the net subsystem (DESIGN.md §12).  Everything above this file speaks in
/// terms of `Socket` values and byte buffers; everything below is
/// `<sys/socket.h>`.
///
/// Conventions:
///  * Failures that prevent an operation from starting at all (bad address,
///    bind/listen/connect errors) throw IoError with a {"net"} context
///    frame.  Failures *during* traffic (peer reset, timeout) are reported
///    through return values — a serving loop must distinguish them without
///    exception overhead and without treating a rude client as a server
///    fault.
///  * Receive/send deadlines use SO_RCVTIMEO / SO_SNDTIMEO: a blocked
///    recv/send returns after at most the configured interval, which is
///    what bounds slow-loris clients and drain time.  The *connect*
///    deadline is enforced by a non-blocking connect + poll loop, which is
///    the portable mechanism (SO_SNDTIMEO bounding a blocking connect() is
///    a Linux-ism).
///  * EINTR never surfaces: connect/accept/recv/send all resume after
///    signal delivery (rrsd's SIGTERM handler must not masquerade as a
///    peer failure), with deadlines re-computed against steady_clock.
///  * Only numeric IPv4 addresses are accepted ("127.0.0.1", "0.0.0.0") —
///    the library does no DNS, so serving never blocks on a resolver.
///  * Fault-injection sites (DESIGN.md §13): net.connect, net.accept,
///    net.recv, net.send.  Dormant cost per call: one relaxed-acquire load.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/error.hpp"

namespace rrs::net {

/// Failure to *establish* a connection (refusal, unreachable host, connect
/// deadline expiry) as opposed to failure on an established one.  IS-A
/// IoError, so existing `catch (const IoError&)` sites keep working;
/// rrsquery maps it to its own exit code.
class ConnectError : public IoError {
public:
    explicit ConnectError(std::string message, ErrorContext context = {"net"})
        : IoError(std::move(message), std::move(context)) {}
};

/// Move-only owner of one socket file descriptor (-1 = empty).
class Socket {
public:
    Socket() = default;
    explicit Socket(int fd) noexcept : fd_(fd) {}
    ~Socket() { close(); }

    Socket(Socket&& other) noexcept : fd_(other.release()) {}
    Socket& operator=(Socket&& other) noexcept {
        if (this != &other) {
            close();
            fd_ = other.release();
        }
        return *this;
    }
    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;

    int fd() const noexcept { return fd_; }
    bool valid() const noexcept { return fd_ >= 0; }

    /// Give up ownership without closing.
    int release() noexcept {
        const int fd = fd_;
        fd_ = -1;
        return fd;
    }

    void close() noexcept;

private:
    int fd_ = -1;
};

/// Bind + listen on `host:port` (port 0 picks an ephemeral port; read it
/// back with local_port()).  The listener is non-blocking — pair it with
/// accept_with_timeout().  Throws IoError on any setup failure.
Socket listen_tcp(const std::string& host, std::uint16_t port, int backlog = 64);

/// The port a bound socket actually listens on (resolves port 0).
std::uint16_t local_port(const Socket& listener);

/// Wait up to `timeout_ms` for a pending connection, then accept it.
/// Returns an empty Socket when nothing arrived (the accept loop's chance
/// to notice a stop flag).  Signal interruptions and connections that
/// evaporate between poll and accept are retried within the same deadline.
/// Throws IoError only on listener breakage.
Socket accept_with_timeout(const Socket& listener, int timeout_ms);

/// Connect with a deadline (numeric IPv4 host only): non-blocking connect,
/// then poll(POLLOUT) against a steady_clock budget, then SO_ERROR.  The
/// returned socket is blocking with recv/send deadlines of `timeout_ms`.
/// Throws ConnectError on failure — refused, unreachable, or timed out.
Socket connect_tcp(const std::string& host, std::uint16_t port, int timeout_ms);

/// Deadline for blocked recv() / send() on `s` (milliseconds, > 0).
void set_recv_timeout(const Socket& s, int ms);
void set_send_timeout(const Socket& s, int ms);

/// Outcome of one recv() against a deadline socket.  Exactly one of
/// `n > 0`, `closed`, `timed_out` describes the event.
struct RecvResult {
    std::size_t n = 0;       ///< bytes read into the buffer
    bool closed = false;     ///< orderly EOF or connection reset
    bool timed_out = false;  ///< SO_RCVTIMEO expired with nothing to read
};

/// One receive of at most `max` bytes.
RecvResult recv_some(const Socket& s, char* buf, std::size_t max) noexcept;

/// Write all `n` bytes (looping over short writes, SIGPIPE suppressed).
/// Returns false when the peer went away or the send deadline expired.
bool send_all(const Socket& s, const char* data, std::size_t n) noexcept;

/// Write `head` then `body` with gather `sendmsg` calls (looping over short
/// writes, SIGPIPE suppressed): a response goes out without first being
/// copied into one buffer.  One `net.send` fault draw per call.  Returns
/// false when the peer went away or the send deadline expired.
bool send_gather(const Socket& s, std::string_view head, std::string_view body) noexcept;

/// shutdown(SHUT_RDWR) on a raw fd: wakes a thread blocked in recv() on the
/// same descriptor without closing it — the graceful-drain nudge.  Safe on
/// already-shut-down descriptors (errors ignored).
void shutdown_both(int fd) noexcept;

/// Outcome of reading one HTTP head (request or status line + headers).
enum class HeadStatus {
    kOk,         ///< complete head in `head`, remainder kept in `carry`
    kPeerClosed, ///< EOF / reset before the blank line
    kTimedOut,   ///< read deadline expired before the blank line
    kTooLarge,   ///< more than `max_bytes` arrived without a blank line
};

struct HeadResult {
    HeadStatus status = HeadStatus::kOk;
    /// Had any bytes of this head already arrived?  Distinguishes an idle
    /// keep-alive close / idle timeout (no response owed) from a truncated
    /// or slow-loris request (the peer is owed a 400 / 408).
    bool got_bytes = false;
};

/// Accumulate bytes from `s` into `carry` until a blank line ("\r\n\r\n")
/// completes one head.  On kOk, `head` holds everything before the blank
/// line and `carry` keeps any bytes read beyond it (pipelined next request
/// or message body).  `carry` may already contain buffered bytes on entry.
HeadResult read_head(const Socket& s, std::string& carry, std::size_t max_bytes,
                     std::string& head);

/// Consume exactly `n` message-body bytes (from `carry` first, then the
/// socket), appending them to `out` when non-null.  False when the peer
/// closed or the deadline expired first.
bool read_exact(const Socket& s, std::string& carry, std::size_t n, std::string* out);

}  // namespace rrs::net
