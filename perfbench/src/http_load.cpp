#include "http_load.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace perfbench {

namespace {

constexpr int kDeadlineSeconds = 30;

bool iequals(std::string_view a, std::string_view b) {
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        char x = a[i];
        char y = b[i];
        if (x >= 'A' && x <= 'Z') {
            x = static_cast<char>(x - 'A' + 'a');
        }
        if (y >= 'A' && y <= 'Z') {
            y = static_cast<char>(y - 'A' + 'a');
        }
        if (x != y) {
            return false;
        }
    }
    return true;
}

std::string_view trim(std::string_view s) {
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
        s.remove_prefix(1);
    }
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
        s.remove_suffix(1);
    }
    return s;
}

}  // namespace

Conn::Conn(std::uint16_t port) : port_(port) {}

Conn::~Conn() { close(); }

void Conn::close() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void Conn::connect() {
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
        throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{};
    tv.tv_sec = kDeadlineSeconds;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        const int err = errno;
        close();
        throw std::runtime_error("connect to port " + std::to_string(port_) + ": " +
                                 std::strerror(err));
    }
}

std::string Conn::request_head(std::string_view target, std::string_view if_none_match) {
    std::string head;
    head.reserve(160);
    head.append("GET ").append(target).append(" HTTP/1.1\r\nHost: 127.0.0.1\r\n");
    if (!if_none_match.empty()) {
        head.append("If-None-Match: ").append(if_none_match).append("\r\n");
    }
    head.append("\r\n");
    return head;
}

const Response& Conn::get(std::string_view target, std::string_view if_none_match) {
    out_ = request_head(target, if_none_match);
    // A keep-alive connection the server has since closed shows up as a
    // send error or an immediate EOF: reconnect once and resend.
    for (int attempt = 0;; ++attempt) {
        if (fd_ < 0) {
            connect();
        }
        std::size_t sent = 0;
        bool broken = false;
        while (sent < out_.size()) {
            const ssize_t n =
                ::send(fd_, out_.data() + sent, out_.size() - sent, MSG_NOSIGNAL);
            if (n <= 0) {
                if (n < 0 && errno == EINTR) {
                    continue;
                }
                broken = true;
                break;
            }
            sent += static_cast<std::size_t>(n);
        }
        std::size_t used = 0;
        std::size_t head_end = std::string::npos;
        while (!broken && head_end == std::string::npos) {
            if (in_.size() < used + 65536) {
                in_.resize(used + 65536);
            }
            const ssize_t n = ::recv(fd_, in_.data() + used, in_.size() - used, 0);
            if (n < 0 && errno == EINTR) {
                continue;
            }
            if (n <= 0) {
                if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                    close();
                    throw std::runtime_error("response deadline exceeded");
                }
                broken = true;
                break;
            }
            used += static_cast<std::size_t>(n);
            head_end = std::string_view(in_.data(), used).find("\r\n\r\n");
        }
        if (broken) {
            close();
            if (attempt == 0 && used == 0) {
                continue;
            }
            throw std::runtime_error("connection closed mid-response");
        }

        const std::string_view head(in_.data(), head_end);
        resp_ = Response{};
        std::size_t content_length = 0;
        bool close_after = false;
        std::size_t line_start = 0;
        bool first = true;
        while (line_start <= head.size()) {
            std::size_t line_end = head.find("\r\n", line_start);
            if (line_end == std::string_view::npos) {
                line_end = head.size();
            }
            const std::string_view line = head.substr(line_start, line_end - line_start);
            if (first) {
                // "HTTP/1.1 200 OK"
                const std::size_t sp = line.find(' ');
                if (sp == std::string_view::npos || line.size() < sp + 4) {
                    close();
                    throw std::runtime_error("malformed status line");
                }
                resp_.status = std::stoi(std::string(line.substr(sp + 1, 3)));
                first = false;
            } else if (const std::size_t colon = line.find(':');
                       colon != std::string_view::npos) {
                const std::string_view name = line.substr(0, colon);
                const std::string_view value = trim(line.substr(colon + 1));
                if (iequals(name, "content-length")) {
                    content_length = std::stoull(std::string(value));
                } else if (iequals(name, "etag")) {
                    resp_.etag = value;
                } else if (iequals(name, "x-rrs-scale")) {
                    resp_.scale = value;
                } else if (iequals(name, "x-rrs-offset")) {
                    resp_.offset = value;
                } else if (iequals(name, "x-rrs-fingerprint")) {
                    resp_.fingerprint = value;
                } else if (iequals(name, "connection")) {
                    close_after = iequals(value, "close");
                }
            }
            line_start = line_end + 2;
        }

        const std::size_t body_start = head_end + 4;
        const std::size_t total = body_start + content_length;
        if (in_.size() < total) {
            in_.resize(total);
        }
        while (used < total) {
            const ssize_t n = ::recv(fd_, in_.data() + used, total - used, 0);
            if (n < 0 && errno == EINTR) {
                continue;
            }
            if (n <= 0) {
                close();
                throw std::runtime_error("connection closed mid-body");
            }
            used += static_cast<std::size_t>(n);
        }
        resp_.body = std::string_view(in_.data() + body_start, content_length);
        if (close_after) {
            close();
        }
        return resp_;
    }
}

int get_once(std::uint16_t port, std::string_view target, std::string* body) {
    Conn conn(port);
    const Response& r = conn.get(target);
    if (body != nullptr) {
        body->assign(r.body);
    }
    return r.status;
}

}  // namespace perfbench
