#include "net/client.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <thread>

#include "core/error.hpp"
#include "fault/backoff.hpp"
#include "net/http.hpp"
#include "obs/metrics.hpp"

namespace rrs::net {

namespace {

[[noreturn]] void fail(const std::string& message) {
    throw IoError{message, {"net", "HttpClient"}};
}

std::string to_lower(std::string_view s) {
    std::string out(s);
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

std::string_view trim(std::string_view s) noexcept {
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
        s.remove_prefix(1);
    }
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
        s.remove_suffix(1);
    }
    return s;
}

/// A byte that must never appear inside a status or header line: any
/// control byte other than horizontal tab.  Catches embedded NUL and lone
/// CR/LF (the split below consumes well-formed "\r\n" pairs, so any CR or
/// LF still inside a line is a smuggling attempt or corruption).
bool forbidden_in_line(char ch) noexcept {
    const auto c = static_cast<unsigned char>(ch);
    return (c < 0x20 && c != '\t') || c == 0x7f;
}

}  // namespace

int retry_after_ms(const ClientResponse& resp) {
    const std::string* value = resp.header("retry-after");
    if (value == nullptr || value->empty() || value->size() > 4 ||
        !std::all_of(value->begin(), value->end(), [](unsigned char c) {
            return std::isdigit(c) != 0;
        })) {
        return -1;
    }
    return static_cast<int>(std::stoul(*value)) * 1000;
}

ClientResponse parse_response_head(std::string_view head) {
    ClientResponse resp;
    std::size_t eol = head.find("\r\n");
    const std::string_view line =
        eol == std::string_view::npos ? head : head.substr(0, eol);
    if (std::any_of(line.begin(), line.end(), forbidden_in_line)) {
        fail("control byte in status line");
    }
    if (line.substr(0, 5) != "HTTP/") {
        fail("malformed status line '" + std::string(line) + "'");
    }
    const std::size_t sp1 = line.find(' ');
    if (sp1 == std::string_view::npos || sp1 + 4 > line.size()) {
        fail("malformed status line '" + std::string(line) + "'");
    }
    const std::string_view code = line.substr(sp1 + 1, 3);
    if (code.size() != 3 ||
        !std::all_of(code.begin(), code.end(),
                     [](unsigned char c) { return std::isdigit(c) != 0; })) {
        fail("malformed status code in '" + std::string(line) + "'");
    }
    resp.status = (code[0] - '0') * 100 + (code[1] - '0') * 10 + (code[2] - '0');

    std::size_t pos = eol == std::string_view::npos ? head.size() : eol + 2;
    while (pos < head.size()) {
        eol = head.find("\r\n", pos);
        if (eol == std::string_view::npos) {
            eol = head.size();
        }
        const std::string_view raw = head.substr(pos, eol - pos);
        pos = eol + 2;
        if (raw.empty()) {
            continue;
        }
        if (std::any_of(raw.begin(), raw.end(), forbidden_in_line)) {
            fail("control byte in response header '" + std::string(raw) + "'");
        }
        const std::size_t colon = raw.find(':');
        if (colon == std::string_view::npos || colon == 0) {
            fail("malformed response header '" + std::string(raw) + "'");
        }
        resp.headers.emplace_back(to_lower(raw.substr(0, colon)),
                                  std::string(trim(raw.substr(colon + 1))));
    }
    return resp;
}

const std::string* ClientResponse::header(std::string_view name) const noexcept {
    for (const auto& [key, value] : headers) {
        if (key == name) {
            return &value;
        }
    }
    return nullptr;
}

HttpClient::HttpClient(std::string host, std::uint16_t port)
    : HttpClient(std::move(host), port, Options{}) {}

HttpClient::HttpClient(std::string host, std::uint16_t port, Options opt)
    : host_(std::move(host)), port_(port), opt_(opt) {
    if (opt_.timeout_ms <= 0) {
        throw ConfigError{"timeout_ms must be positive", {"net", "HttpClient"}};
    }
    if (opt_.retry.max_attempts < 1) {
        throw ConfigError{"retry.max_attempts must be >= 1", {"net", "HttpClient"}};
    }
    if (opt_.retry.deadline_ms < 0) {
        throw ConfigError{"retry.deadline_ms must be >= 0", {"net", "HttpClient"}};
    }
    if (opt_.retry.base_backoff_ms <= 0 ||
        opt_.retry.max_backoff_ms < opt_.retry.base_backoff_ms) {
        throw ConfigError{"retry backoff bounds must satisfy 0 < base <= max",
                          {"net", "HttpClient"}};
    }
    if (opt_.registry != nullptr) {
        retries_ = &opt_.registry->counter("net.client.retries");
        deadline_exhausted_ =
            &opt_.registry->counter("net.client.deadline_exhausted");
    }
}

void HttpClient::close() noexcept {
    sock_.close();
    carry_.clear();
}

void HttpClient::exhaust_deadline(const std::string& target) {
    if (deadline_exhausted_ != nullptr) {
        deadline_exhausted_->add();
    }
    throw DeadlineError{"deadline of " + std::to_string(opt_.retry.deadline_ms) +
                            " ms exhausted for '" + target + "'",
                        {"net", "HttpClient"}};
}

ClientResponse HttpClient::get(const std::string& target,
                               const HeaderList& headers) {
    using SteadyClock = std::chrono::steady_clock;
    const RetryPolicy& rp = opt_.retry;
    if (rp.max_attempts == 1 && rp.deadline_ms == 0) {
        return get_once(target, headers);  // historical fail-fast path
    }
    const bool budgeted = rp.deadline_ms > 0;
    const SteadyClock::time_point deadline =
        SteadyClock::now() + std::chrono::milliseconds(rp.deadline_ms);
    fault::Backoff backoff{
        fault::BackoffPolicy{rp.base_backoff_ms, rp.max_backoff_ms},
        rp.jitter_seed};
    for (int attempt = 1;; ++attempt) {
        const bool last = attempt >= rp.max_attempts;
        int wait_ms = 0;
        try {
            ClientResponse resp = get_once(target, headers);
            if (resp.status != 503 || last) {
                return resp;  // non-503 responses (incl. 4xx/5xx) are final
            }
            const int hinted = retry_after_ms(resp);
            wait_ms = hinted >= 0 ? hinted : backoff.next_ms();
        } catch (const DeadlineError&) {
            throw;  // IS-A IoError: must not be swallowed into a retry
        } catch (const IoError&) {
            if (last) {
                throw;
            }
            wait_ms = backoff.next_ms();
        }
        if (budgeted) {
            const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                                  deadline - SteadyClock::now())
                                  .count();
            if (left <= 0 || wait_ms > left) {
                exhaust_deadline(target);  // the wait would overrun the budget
            }
        }
        if (retries_ != nullptr) {
            retries_->add();
        }
        if (wait_ms > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
        }
    }
}

ClientResponse HttpClient::get_once(const std::string& target,
                                    const HeaderList& headers) {
    const bool reused = sock_.valid();
    if (!reused) {
        sock_ = connect_tcp(host_, port_, opt_.timeout_ms);
        carry_.clear();
    }
    try {
        return roundtrip(target, headers);
    } catch (const IoError&) {
        if (!reused) {
            throw;
        }
        // Stale keep-alive connection: the server closed it between
        // requests.  Reconnect once and retry on a fresh socket.
        close();
        sock_ = connect_tcp(host_, port_, opt_.timeout_ms);
        return roundtrip(target, headers);
    }
}

ClientResponse HttpClient::roundtrip(const std::string& target,
                                     const HeaderList& headers) {
    if (target.empty() || target.front() != '/') {
        throw ConfigError{"request target must start with '/'",
                          {"net", "HttpClient"}};
    }
    std::string request = "GET " + target + " HTTP/1.1\r\nHost: " + host_ + ":" +
                          std::to_string(port_) + "\r\nConnection: keep-alive\r\n";
    for (const auto& [name, value] : headers) {
        request += name + ": " + value + "\r\n";
    }
    request += "\r\n";
    if (!send_all(sock_, request.data(), request.size())) {
        close();
        fail("send failed for '" + target + "'");
    }
    std::string head;
    const HeadResult hr =
        read_head(sock_, carry_, /*max_bytes=*/std::size_t{64} << 10, head);
    if (hr.status != HeadStatus::kOk) {
        close();
        fail(hr.status == HeadStatus::kTimedOut
                 ? "timed out waiting for the response head"
                 : "connection closed before a response arrived");
    }
    ClientResponse resp = parse_response_head(head);

    std::size_t body_len = 0;
    if (const std::string* cl = resp.header("content-length")) {
        // 18 digits cap: anything longer would overflow (or absurdly exceed
        // any response cap) — reject before std::stoull can throw a
        // non-taxonomy std::out_of_range.
        if (cl->empty() || cl->size() > 18 ||
            !std::all_of(cl->begin(), cl->end(), [](unsigned char c) {
                return std::isdigit(c) != 0;
            })) {
            close();
            fail("malformed Content-Length '" + *cl + "'");
        }
        body_len = std::stoull(*cl);
    }
    if (body_len > opt_.max_response_bytes) {
        close();
        fail("response of " + std::to_string(body_len) +
             " bytes exceeds the client cap");
    }
    resp.body.reserve(body_len);
    if (!read_exact(sock_, carry_, body_len, &resp.body)) {
        close();
        fail("connection lost mid-body");
    }
    const std::string* connection = resp.header("connection");
    if (connection != nullptr && to_lower(*connection) == "close") {
        close();
    }
    return resp;
}

}  // namespace rrs::net
