#include "net/http.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "core/validate.hpp"

namespace rrs::net {

namespace {

bool is_token_char(char c) noexcept {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
        return true;
    }
    constexpr std::string_view kExtra = "!#$%&'*+-.^_`|~";
    return kExtra.find(c) != std::string_view::npos;
}

bool is_token(std::string_view s) noexcept {
    return !s.empty() && std::all_of(s.begin(), s.end(), is_token_char);
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

/// A byte that must never appear inside a request or header line: any
/// control byte other than horizontal tab.  Catches embedded NUL and lone
/// CR/LF (the head splitter consumes well-formed "\r\n" pairs, so any CR
/// or LF still inside a line is a smuggling attempt or corruption).
bool forbidden_in_line(char ch) noexcept {
    const auto c = static_cast<unsigned char>(ch);
    return (c < 0x20 && c != '\t') || c == 0x7f;
}

int hex_digit(char c) noexcept {
    if (c >= '0' && c <= '9') {
        return c - '0';
    }
    if (c >= 'a' && c <= 'f') {
        return c - 'a' + 10;
    }
    if (c >= 'A' && c <= 'F') {
        return c - 'A' + 10;
    }
    return -1;
}

/// Split the decoded query string into the request's parameter map.
void parse_query(std::string_view raw, std::map<std::string, std::string>& out) {
    std::size_t pos = 0;
    while (pos <= raw.size()) {
        std::size_t amp = raw.find('&', pos);
        if (amp == std::string_view::npos) {
            amp = raw.size();
        }
        const std::string_view item = raw.substr(pos, amp - pos);
        if (!item.empty()) {
            const std::size_t eq = item.find('=');
            if (eq == std::string_view::npos) {
                out[url_decode(item)] = "";
            } else {
                out[url_decode(item.substr(0, eq))] = url_decode(item.substr(eq + 1));
            }
        }
        pos = amp + 1;
    }
}

}  // namespace

const std::string* HttpRequest::header(std::string_view name) const noexcept {
    for (const auto& [key, value] : headers) {
        if (key == name) {
            return &value;
        }
    }
    return nullptr;
}

const std::string* HttpRequest::query_param(std::string_view name) const noexcept {
    const auto it = query.find(std::string(name));
    return it == query.end() ? nullptr : &it->second;
}

std::size_t HttpRequest::content_length() const {
    const std::string* raw = header("content-length");
    if (raw == nullptr) {
        return 0;
    }
    if (raw->empty() ||
        !std::all_of(raw->begin(), raw->end(),
                     [](unsigned char c) { return std::isdigit(c) != 0; })) {
        throw HttpError{400, "malformed Content-Length '" + *raw + "'"};
    }
    // 18 digits cap: longer values would overflow 64 bits (or absurdly
    // exceed any body limit) — reject before std::stoull can overflow.
    if (raw->size() > 18) {
        throw HttpError{413, "Content-Length overflows"};
    }
    return std::stoull(*raw);
}

void HttpResponse::set_body(std::string bytes) {
    auto owned = std::make_shared<const std::string>(std::move(bytes));
    body_ = *owned;
    body_owner_ = std::move(owned);
}

HttpResponse HttpResponse::text(int status, std::string body) {
    HttpResponse r;
    r.status = status;
    r.set_body(std::move(body));
    return r;
}

HttpResponse HttpResponse::json(int status, std::string body) {
    HttpResponse r;
    r.status = status;
    r.content_type = "application/json";
    r.set_body(std::move(body));
    return r;
}

HttpResponse HttpResponse::octets(std::string body) {
    HttpResponse r;
    r.content_type = "application/octet-stream";
    r.set_body(std::move(body));
    return r;
}

HttpResponse HttpResponse::octets(std::shared_ptr<const void> owner, std::string_view bytes) {
    HttpResponse r;
    r.content_type = "application/octet-stream";
    RRS_CHECK(owner != nullptr || bytes.empty(), "HttpResponse",
              "a non-empty body needs an owner");
    r.body_ = bytes;
    r.body_owner_ = std::move(owner);
    return r;
}

const char* status_reason(int status) noexcept {
    switch (status) {
        case 200: return "OK";
        case 204: return "No Content";
        case 400: return "Bad Request";
        case 404: return "Not Found";
        case 405: return "Method Not Allowed";
        case 408: return "Request Timeout";
        case 413: return "Content Too Large";
        case 414: return "URI Too Long";
        case 431: return "Request Header Fields Too Large";
        case 500: return "Internal Server Error";
        case 503: return "Service Unavailable";
        case 505: return "HTTP Version Not Supported";
        default: return "Unknown";
    }
}

std::string url_decode(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '+') {
            out += ' ';
        } else if (c == '%') {
            if (i + 2 >= s.size()) {
                throw HttpError{400, "truncated percent escape"};
            }
            const int hi = hex_digit(s[i + 1]);
            const int lo = hex_digit(s[i + 2]);
            if (hi < 0 || lo < 0) {
                throw HttpError{400, "malformed percent escape '%" +
                                         std::string(s.substr(i + 1, 2)) + "'"};
            }
            out += static_cast<char>(hi * 16 + lo);
            i += 2;
        } else {
            out += c;
        }
    }
    return out;
}

HttpRequest parse_request_head(std::string_view head, const RequestLimits& limits) {
    if (head.size() > limits.max_header_bytes) {
        throw HttpError{431, "request head exceeds " +
                                 std::to_string(limits.max_header_bytes) + " bytes"};
    }
    // --- request line ---------------------------------------------------
    std::size_t eol = head.find("\r\n");
    const std::string_view line =
        eol == std::string_view::npos ? head : head.substr(0, eol);
    if (std::any_of(line.begin(), line.end(), forbidden_in_line)) {
        throw HttpError{400, "control byte in request line"};
    }
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 = sp1 == std::string_view::npos
                                ? std::string_view::npos
                                : line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
        line.find(' ', sp2 + 1) != std::string_view::npos) {
        throw HttpError{400, "malformed request line '" + std::string(line) + "'"};
    }
    HttpRequest req;
    req.method = std::string(line.substr(0, sp1));
    req.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
    const std::string_view version = line.substr(sp2 + 1);
    if (!is_token(req.method)) {
        throw HttpError{400, "malformed method token"};
    }
    if (req.target.empty() || req.target.front() != '/') {
        throw HttpError{400, "request target must be an absolute path"};
    }
    if (version == "HTTP/1.1") {
        req.version_minor = 1;
    } else if (version == "HTTP/1.0") {
        req.version_minor = 0;
    } else if (version.substr(0, 5) == "HTTP/") {
        throw HttpError{505, "unsupported version '" + std::string(version) + "'"};
    } else {
        throw HttpError{400, "malformed request line '" + std::string(line) + "'"};
    }

    // --- target: path + query -------------------------------------------
    const std::string_view target = req.target;
    const std::size_t qmark = target.find('?');
    req.path = url_decode(target.substr(0, qmark));
    if (qmark != std::string_view::npos) {
        parse_query(target.substr(qmark + 1), req.query);
    }

    // --- headers ---------------------------------------------------------
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
            throw HttpError{400, "control byte in header line"};
        }
        const std::size_t colon = raw.find(':');
        if (colon == std::string_view::npos || colon == 0 ||
            !is_token(raw.substr(0, colon))) {
            throw HttpError{400, "malformed header line '" + std::string(raw) + "'"};
        }
        if (req.headers.size() >= limits.max_headers) {
            throw HttpError{431, "more than " + std::to_string(limits.max_headers) +
                                     " header fields"};
        }
        req.headers.emplace_back(to_lower(raw.substr(0, colon)),
                                 std::string(trim(raw.substr(colon + 1))));
    }

    // --- connection semantics --------------------------------------------
    req.keep_alive = req.version_minor >= 1;
    if (const std::string* connection = req.header("connection")) {
        const std::string value = to_lower(*connection);
        if (value.find("close") != std::string::npos) {
            req.keep_alive = false;
        } else if (value.find("keep-alive") != std::string::npos) {
            req.keep_alive = true;
        }
    }
    return req;
}

namespace {

/// The response head, in a string with room for `body_capacity` more bytes.
std::string head_with_room(const HttpResponse& r, bool keep_alive,
                           std::size_t body_capacity) {
    const std::string_view reason = status_reason(r.status);
    const std::string_view connection = keep_alive && !r.close ? "keep-alive" : "close";
    // Fixed text plus two decimal numbers of at most 20 digits each.
    std::size_t size = 96 + reason.size() + r.content_type.size() + connection.size();
    for (const auto& [name, value] : r.extra_headers) {
        size += name.size() + value.size() + 4;
    }
    std::string out;
    out.reserve(size + body_capacity);
    char num[24];
    const auto append_number = [&](auto v) {
        const auto res = std::to_chars(num, num + sizeof(num), v);
        out.append(num, res.ptr);
    };
    out += "HTTP/1.1 ";
    append_number(r.status);
    out += ' ';
    out += reason;
    out += "\r\nContent-Type: ";
    out += r.content_type;
    out += "\r\nContent-Length: ";
    append_number(r.body().size());
    out += "\r\nConnection: ";
    out += connection;
    out += "\r\n";
    for (const auto& [name, value] : r.extra_headers) {
        out += name;
        out += ": ";
        out += value;
        out += "\r\n";
    }
    out += "\r\n";
    return out;
}

}  // namespace

std::string serialize_head(const HttpResponse& r, bool keep_alive) {
    return head_with_room(r, keep_alive, 0);
}

std::string serialize_response(const HttpResponse& r, bool keep_alive) {
    std::string out = head_with_room(r, keep_alive, r.body().size());
    out += r.body();
    return out;
}

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    constexpr const char* kHex = "0123456789abcdef";
                    out += "\\u00";
                    out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xF];
                    out += kHex[static_cast<unsigned char>(c) & 0xF];
                } else {
                    out += c;
                }
        }
    }
    return out;
}

HttpResponse error_response(int status, std::string_view message) {
    HttpResponse r = HttpResponse::json(
        status, "{\"error\":" + std::to_string(status) + ",\"message\":\"" +
                    json_escape(message) + "\"}\n");
    return r;
}

}  // namespace rrs::net
