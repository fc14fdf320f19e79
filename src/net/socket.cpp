#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>

#include "core/error.hpp"
#include "fault/inject.hpp"

namespace rrs::net {

namespace {

using Clock = std::chrono::steady_clock;

/// errno rendered the std way ("Connection refused"), no strerror races.
std::string errno_text(int err) { return std::system_category().message(err); }

[[noreturn]] void fail(const std::string& what, int err) {
    throw IoError{what + ": " + errno_text(err), {"net"}};
}

[[noreturn]] void fail_connect(const std::string& what, int err) {
    throw ConnectError{what + ": " + errno_text(err), {"net"}};
}

/// Whole milliseconds left until `deadline`, clamped at zero.
int remaining_ms(Clock::time_point deadline) noexcept {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        throw IoError{"not a numeric IPv4 address: '" + host + "'", {"net"}};
    }
    return addr;
}

void set_timeout(const Socket& s, int ms, int option, const char* what) {
    if (ms <= 0) {
        throw ConfigError{"socket timeout must be positive", {"net"}};
    }
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    if (::setsockopt(s.fd(), SOL_SOCKET, option, &tv, sizeof(tv)) != 0) {
        fail(what, errno);
    }
}

}  // namespace

void Socket::close() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Socket listen_tcp(const std::string& host, std::uint16_t port, int backlog) {
    Socket s{::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0)};
    if (!s.valid()) {
        fail("socket", errno);
    }
    const int one = 1;
    if (::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0) {
        fail("setsockopt(SO_REUSEADDR)", errno);
    }
    const sockaddr_in addr = make_addr(host, port);
    if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        fail("bind " + host + ":" + std::to_string(port), errno);
    }
    if (::listen(s.fd(), backlog) != 0) {
        fail("listen", errno);
    }
    return s;
}

std::uint16_t local_port(const Socket& listener) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(listener.fd(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
        fail("getsockname", errno);
    }
    return ntohs(addr.sin_port);
}

Socket accept_with_timeout(const Socket& listener, int timeout_ms) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
        pollfd pfd{};
        pfd.fd = listener.fd();
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, remaining_ms(deadline));
        if (ready < 0) {
            if (errno == EINTR) {
                continue;  // signal delivery is not a timeout; re-poll the budget
            }
            fail("poll(listener)", errno);
        }
        if (ready == 0) {
            return Socket{};
        }
        const int fd = ::accept(listener.fd(), nullptr, nullptr);
        if (fd < 0) {
            // The connection can evaporate between poll and accept; that (or
            // a signal) is not a listener fault — retry within the budget.
            if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
                errno == ECONNABORTED) {
                continue;
            }
            fail("accept", errno);
        }
        if (fault::inject("net.accept")) {
            ::close(fd);  // injected: the connection dies at the threshold
            return Socket{};
        }
        return Socket{fd};
    }
}

Socket connect_tcp(const std::string& host, std::uint16_t port, int timeout_ms) {
    if (timeout_ms <= 0) {
        throw ConfigError{"socket timeout must be positive", {"net"}};
    }
    const std::string peer = host + ":" + std::to_string(port);
    if (fault::inject("net.connect")) {
        throw ConnectError{"connect " + peer + ": injected fault", {"net"}};
    }
    Socket s{::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0)};
    if (!s.valid()) {
        fail_connect("socket", errno);
    }
    const sockaddr_in addr = make_addr(host, port);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    if (::connect(s.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        // EINTR on a non-blocking connect means the attempt continues
        // asynchronously (retrying would yield EALREADY) — await it like
        // EINPROGRESS.
        if (errno != EINPROGRESS && errno != EINTR) {
            fail_connect("connect " + peer, errno);
        }
        for (;;) {
            const int wait_ms = remaining_ms(deadline);
            if (wait_ms == 0) {
                throw ConnectError{"connect " + peer + ": timed out after " +
                                       std::to_string(timeout_ms) + " ms",
                                   {"net"}};
            }
            pollfd pfd{};
            pfd.fd = s.fd();
            pfd.events = POLLOUT;
            const int ready = ::poll(&pfd, 1, wait_ms);
            if (ready < 0) {
                if (errno == EINTR) {
                    continue;
                }
                fail_connect("poll(connect " + peer + ")", errno);
            }
            if (ready > 0) {
                break;
            }
        }
        int err = 0;
        socklen_t len = sizeof(err);
        if (::getsockopt(s.fd(), SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
            fail_connect("getsockopt(SO_ERROR)", errno);
        }
        if (err != 0) {
            fail_connect("connect " + peer, err);
        }
    }
    // Connected: back to blocking mode with recv/send deadlines for traffic.
    const int flags = ::fcntl(s.fd(), F_GETFL, 0);
    if (flags < 0 || ::fcntl(s.fd(), F_SETFL, flags & ~O_NONBLOCK) != 0) {
        fail_connect("fcntl(clear O_NONBLOCK)", errno);
    }
    set_timeout(s, timeout_ms, SO_RCVTIMEO, "setsockopt(SO_RCVTIMEO)");
    set_timeout(s, timeout_ms, SO_SNDTIMEO, "setsockopt(SO_SNDTIMEO)");
    return s;
}

void set_recv_timeout(const Socket& s, int ms) {
    set_timeout(s, ms, SO_RCVTIMEO, "setsockopt(SO_RCVTIMEO)");
}

void set_send_timeout(const Socket& s, int ms) {
    set_timeout(s, ms, SO_SNDTIMEO, "setsockopt(SO_SNDTIMEO)");
}

RecvResult recv_some(const Socket& s, char* buf, std::size_t max) noexcept {
    if (fault::inject("net.recv")) {
        return RecvResult{0, true, false};  // injected: connection lost
    }
    for (;;) {
        const ssize_t n = ::recv(s.fd(), buf, max, 0);
        if (n > 0) {
            return RecvResult{static_cast<std::size_t>(n), false, false};
        }
        if (n == 0) {
            return RecvResult{0, true, false};
        }
        if (errno == EINTR) {
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            return RecvResult{0, false, true};
        }
        // ECONNRESET and everything else: the connection is unusable.
        return RecvResult{0, true, false};
    }
}

bool send_all(const Socket& s, const char* data, std::size_t n) noexcept {
    return send_gather(s, std::string_view(data, n), {});
}

bool send_gather(const Socket& s, std::string_view head, std::string_view body) noexcept {
    if (fault::inject("net.send")) {
        return false;  // injected: peer gone mid-write
    }
    iovec iov[2] = {{const_cast<char*>(head.data()), head.size()},
                    {const_cast<char*>(body.data()), body.size()}};
    std::size_t first = 0;  // first iovec with bytes left
    while (first < 2) {
        if (iov[first].iov_len == 0) {
            ++first;
            continue;
        }
        msghdr msg{};
        msg.msg_iov = iov + first;
        msg.msg_iovlen = 2 - first;
        const ssize_t w = ::sendmsg(s.fd(), &msg, MSG_NOSIGNAL);
        if (w < 0 && errno == EINTR) {
            continue;
        }
        if (w <= 0) {
            return false;  // peer gone, or SO_SNDTIMEO expired (EAGAIN)
        }
        // Advance past what a short write took, possibly across both views.
        auto left = static_cast<std::size_t>(w);
        for (std::size_t i = first; i < 2 && left > 0; ++i) {
            const std::size_t take = std::min(left, iov[i].iov_len);
            iov[i].iov_base = static_cast<char*>(iov[i].iov_base) + take;
            iov[i].iov_len -= take;
            left -= take;
        }
    }
    return true;
}

void shutdown_both(int fd) noexcept { ::shutdown(fd, SHUT_RDWR); }

HeadResult read_head(const Socket& s, std::string& carry, std::size_t max_bytes,
                     std::string& head) {
    char buf[4096];
    for (;;) {
        const std::size_t pos = carry.find("\r\n\r\n");
        if (pos != std::string::npos) {
            head.assign(carry, 0, pos);
            carry.erase(0, pos + 4);
            return HeadResult{HeadStatus::kOk, true};
        }
        if (carry.size() > max_bytes) {
            return HeadResult{HeadStatus::kTooLarge, true};
        }
        const RecvResult r = recv_some(s, buf, sizeof(buf));
        if (r.closed) {
            return HeadResult{HeadStatus::kPeerClosed, !carry.empty()};
        }
        if (r.timed_out) {
            return HeadResult{HeadStatus::kTimedOut, !carry.empty()};
        }
        carry.append(buf, r.n);
    }
}

bool read_exact(const Socket& s, std::string& carry, std::size_t n, std::string* out) {
    const std::size_t from_carry = std::min(n, carry.size());
    if (out != nullptr) {
        out->append(carry, 0, from_carry);
    }
    carry.erase(0, from_carry);
    std::size_t remaining = n - from_carry;
    char buf[4096];
    while (remaining > 0) {
        const RecvResult r = recv_some(s, buf, std::min(remaining, sizeof(buf)));
        if (r.closed || r.timed_out) {
            return false;
        }
        if (out != nullptr) {
            out->append(buf, r.n);
        }
        remaining -= r.n;
    }
    return true;
}

}  // namespace rrs::net
