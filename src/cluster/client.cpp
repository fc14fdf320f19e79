#include "cluster/client.hpp"

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <cstring>
#include <future>
#include <utility>

#include "fault/inject.hpp"
#include "parallel/thread_pool.hpp"
#include "net/http.hpp"
#include "service/tile_service.hpp"

namespace rrs::cluster {

namespace {

/// Minimal JSON scanner for the scene index — just enough for the shape
/// handle_index emits, strict about everything else.
struct IndexScanner {
    std::string_view text;
    std::size_t pos = 0;

    [[noreturn]] void fail(const std::string& message) const {
        throw ConfigError{"scene index byte " + std::to_string(pos) + ": " + message,
                          {"cluster", "index"}};
    }

    void skip_ws() noexcept {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
                text[pos] == '\r')) {
            ++pos;
        }
    }

    bool peek(char c) {
        skip_ws();
        return pos < text.size() && text[pos] == c;
    }

    void expect(char c) {
        skip_ws();
        if (pos >= text.size() || text[pos] != c) {
            fail(std::string("expected '") + c + "'");
        }
        ++pos;
    }

    /// Parse a JSON string (pos at the opening quote), decoding the escapes
    /// json_escape produces.
    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= text.size()) {
                fail("unterminated string");
            }
            const char c = text[pos++];
            if (c == '"') {
                return out;
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size()) {
                fail("unterminated escape");
            }
            const char esc = text[pos++];
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': {
                    if (pos + 4 > text.size()) {
                        fail("truncated \\u escape");
                    }
                    unsigned value = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text[pos++];
                        value <<= 4;
                        if (h >= '0' && h <= '9') {
                            value |= static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            value |= static_cast<unsigned>(h - 'a' + 10);
                        } else if (h >= 'A' && h <= 'F') {
                            value |= static_cast<unsigned>(h - 'A' + 10);
                        } else {
                            fail("bad \\u escape digit");
                        }
                    }
                    if (value > 0xFF) {
                        fail("non-latin \\u escape unsupported in scene names");
                    }
                    out += static_cast<char>(value);
                    break;
                }
                default:
                    fail("unknown escape");
            }
        }
    }

    std::uint64_t parse_u64() {
        skip_ws();
        const std::size_t start = pos;
        while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
            ++pos;
        }
        if (pos == start || pos - start > 20) {
            fail("expected an unsigned integer");
        }
        std::uint64_t value = 0;
        for (std::size_t i = start; i < pos; ++i) {
            const auto digit = static_cast<std::uint64_t>(text[i] - '0');
            if (value > (UINT64_MAX - digit) / 10) {
                fail("integer overflows 64 bits");
            }
            value = value * 10 + digit;
        }
        return value;
    }

    /// Skip one arbitrary JSON value (for keys we don't consume).
    void skip_value() {
        skip_ws();
        if (pos >= text.size()) {
            fail("expected a value");
        }
        const char c = text[pos];
        if (c == '"') {
            (void)parse_string();
            return;
        }
        if (c == '[' || c == '{') {
            const char open = c;
            const char close = open == '[' ? ']' : '}';
            ++pos;
            int depth = 1;
            while (pos < text.size() && depth > 0) {
                const char d = text[pos];
                if (d == '"') {
                    (void)parse_string();
                    continue;
                }
                if (d == open) {
                    ++depth;
                } else if (d == close) {
                    --depth;
                }
                ++pos;
            }
            if (depth != 0) {
                fail("unterminated value");
            }
            return;
        }
        // number / literal: consume the token.
        while (pos < text.size() && text[pos] != ',' && text[pos] != '}' &&
               text[pos] != ']' && text[pos] != ' ' && text[pos] != '\n' &&
               text[pos] != '\r' && text[pos] != '\t') {
            ++pos;
        }
    }
};

/// Does `status` mean the peer spoke but declined?  (Used by ready().)
bool transport_ok(int status) noexcept { return status > 0; }

}  // namespace

std::map<std::string, SceneInfo> parse_scene_index(std::string_view body) {
    IndexScanner s{body};
    s.expect('{');
    std::map<std::string, SceneInfo> out;
    bool saw_scenes = false;
    if (!s.peek('}')) {
        while (true) {
            const std::string key = s.parse_string();
            s.expect(':');
            if (key == "scenes") {
                if (saw_scenes) {
                    s.fail("duplicate scenes array");
                }
                saw_scenes = true;
                s.expect('[');
                if (!s.peek(']')) {
                    while (true) {
                        s.expect('{');
                        std::string name;
                        bool have_name = false;
                        bool have_nx = false;
                        bool have_ny = false;
                        bool have_fp = false;
                        SceneInfo info;
                        if (!s.peek('}')) {
                            while (true) {
                                const std::string field = s.parse_string();
                                s.expect(':');
                                if (field == "name") {
                                    name = s.parse_string();
                                    have_name = true;
                                } else if (field == "tile_nx") {
                                    info.shape.nx =
                                        static_cast<std::int64_t>(s.parse_u64());
                                    have_nx = true;
                                } else if (field == "tile_ny") {
                                    info.shape.ny =
                                        static_cast<std::int64_t>(s.parse_u64());
                                    have_ny = true;
                                } else if (field == "fingerprint") {
                                    info.fingerprint = s.parse_u64();
                                    have_fp = true;
                                } else {
                                    s.skip_value();
                                }
                                if (s.peek(',')) {
                                    s.expect(',');
                                    continue;
                                }
                                break;
                            }
                        }
                        s.expect('}');
                        if (!have_name || !have_nx || !have_ny || !have_fp) {
                            s.fail("scene entry missing "
                                   "name/tile_nx/tile_ny/fingerprint");
                        }
                        if (info.shape.nx <= 0 || info.shape.ny <= 0) {
                            s.fail("scene tile shape must be positive");
                        }
                        if (out.count(name) != 0) {
                            s.fail("duplicate scene '" + name + "'");
                        }
                        out.emplace(std::move(name), info);
                        if (s.peek(',')) {
                            s.expect(',');
                            continue;
                        }
                        break;
                    }
                }
                s.expect(']');
            } else {
                s.skip_value();
            }
            if (s.peek(',')) {
                s.expect(',');
                continue;
            }
            break;
        }
    }
    s.expect('}');
    if (!saw_scenes) {
        s.fail("no scenes array");
    }
    return out;
}

Array2D<double> decode_tile_f64(std::string_view body, std::int64_t nx,
                                std::int64_t ny) {
    if (nx <= 0 || ny <= 0) {
        throw ConfigError{"decode_tile_f64 requires positive extents",
                          {"cluster", "client"}};
    }
    const auto expected = static_cast<std::size_t>(nx) *
                          static_cast<std::size_t>(ny) * sizeof(double);
    if (body.size() != expected) {
        throw IoError{"f64 tile body is " + std::to_string(body.size()) +
                          " bytes, expected " + std::to_string(expected),
                      {"cluster", "client"}};
    }
    Array2D<double> out(static_cast<std::size_t>(nx), static_cast<std::size_t>(ny));
    double* dst = out.data();
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(dst, body.data(), expected);
    } else {
        const auto* src = reinterpret_cast<const unsigned char*>(body.data());
        for (std::size_t i = 0; i < out.size(); ++i) {
            std::uint64_t bits = 0;
            for (std::size_t b = 0; b < 8; ++b) {
                bits |= static_cast<std::uint64_t>(src[i * 8 + b]) << (8 * b);
            }
            static_assert(sizeof(bits) == sizeof(double));
            std::memcpy(&dst[i], &bits, sizeof(bits));
        }
    }
    return out;
}

std::string url_encode(std::string_view s) {
    static constexpr char kHex[] = "0123456789ABCDEF";
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        const bool plain = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                           (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                           c == '~' || c == '-';
        if (plain) {
            out += c;
        } else {
            const auto u = static_cast<unsigned char>(c);
            out += '%';
            out += kHex[u >> 4];
            out += kHex[u & 0xF];
        }
    }
    return out;
}

/// Per-node connection pool + breaker + counters.  The pool is hard-capped:
/// borrowers beyond `connections_per_node` block on the condition variable
/// until a connection frees (never a new socket — HttpServer workers are
/// sticky per connection).
struct ClusterClient::NodeState {
    NodeState(const NodeSpec& node_spec, const ClusterOptions& opt,
              obs::MetricsRegistry& registry, const std::string& prefix)
        : spec(node_spec),
          fault_site("cluster.forward." + node_spec.name),
          breaker(fault::CircuitBreaker::Options{
              opt.breaker_failures, opt.breaker_open_ms,
              opt.breaker_half_open_successes,
              &registry.gauge(prefix + "breaker.state." + node_spec.name),
              &registry.counter(prefix + "breaker.opened")}),
          requests(registry.counter(prefix + "node." + node_spec.name + ".requests")),
          failures(registry.counter(prefix + "node." + node_spec.name + ".failures")) {}

    NodeSpec spec;
    std::string fault_site;
    fault::CircuitBreaker breaker;
    obs::Counter& requests;
    obs::Counter& failures;

    std::mutex mutex;
    std::condition_variable cv;
    std::vector<std::unique_ptr<net::HttpClient>> idle;
    std::size_t total = 0;
};

ClusterClient::ClusterClient(Topology topology, ClusterOptions opt,
                             const std::string& metric_prefix)
    : map_(std::move(topology)),
      opt_(opt),
      registry_(opt.registry != nullptr ? opt.registry
                                        : &obs::MetricsRegistry::global()) {
    if (opt_.timeout_ms <= 0 || opt_.ready_timeout_ms <= 0) {
        throw ConfigError{"cluster timeouts must be positive",
                          {"cluster", "client"}};
    }
    if (opt_.connections_per_node == 0 || opt_.fanout_threads == 0) {
        throw ConfigError{"connections_per_node and fanout_threads must be > 0",
                          {"cluster", "client"}};
    }
    nodes_.reserve(map_.size());
    for (std::size_t i = 0; i < map_.size(); ++i) {
        nodes_.push_back(
            std::make_unique<NodeState>(map_.node(i), opt_, *registry_, metric_prefix));
    }
    fanout_ = std::make_unique<ThreadPool>(opt_.fanout_threads);
    forwards_ = &registry_->counter(metric_prefix + "forwards");
    windows_ = &registry_->counter(metric_prefix + "windows");
    short_circuited_ = &registry_->counter(metric_prefix + "short_circuited");
    registry_->gauge(metric_prefix + "nodes").set(static_cast<std::int64_t>(map_.size()));
}

ClusterClient::~ClusterClient() = default;

ClusterClient::Borrowed ClusterClient::borrow(NodeState& node) {
    std::unique_lock lock(node.mutex);
    node.cv.wait(lock, [&] {
        return !node.idle.empty() || node.total < opt_.connections_per_node;
    });
    if (!node.idle.empty()) {
        Borrowed out{std::move(node.idle.back())};
        node.idle.pop_back();
        return out;
    }
    ++node.total;
    lock.unlock();
    net::HttpClient::Options copt;
    copt.timeout_ms = opt_.timeout_ms;
    copt.retry = opt_.retry;
    copt.registry = registry_;
    return Borrowed{std::make_unique<net::HttpClient>(node.spec.host,
                                                      node.spec.port, copt)};
}

void ClusterClient::give_back(NodeState& node, Borrowed conn) noexcept {
    std::lock_guard lock(node.mutex);
    node.idle.push_back(std::move(conn.client));
    node.cv.notify_one();
}

void ClusterClient::drop(NodeState& node) noexcept {
    std::lock_guard lock(node.mutex);
    --node.total;
    node.cv.notify_one();
}

net::ClientResponse ClusterClient::forward(
    std::size_t node, const std::string& target,
    const net::HttpClient::HeaderList& headers) {
    if (node >= nodes_.size()) {
        throw ConfigError{"forward to out-of-range node index",
                          {"cluster", "client"}};
    }
    NodeState& st = *nodes_[node];
    if (!st.breaker.allow()) {
        short_circuited_->add();
        throw NodeUnavailableError{
            st.spec.name,
            "node '" + st.spec.name + "' circuit breaker open",
            st.breaker.open_remaining_ms()};
    }
    st.requests.add();
    forwards_->add();
    Borrowed conn = borrow(st);
    try {
        if (fault::inject(st.fault_site.c_str())) {
            throw IoError{"injected cluster.forward fault",
                          {"cluster", st.spec.name}};
        }
        net::ClientResponse resp = conn.client->get(target, headers);
        // Any response — 2xx or not — means the node is alive and speaking;
        // only transport failures count against the breaker.
        st.breaker.record_success();
        give_back(st, std::move(conn));
        return resp;
    } catch (const IoError& e) {
        drop(st);
        st.breaker.record_failure();
        st.failures.add();
        throw NodeUnavailableError{
            st.spec.name,
            "node '" + st.spec.name + "' (" + st.spec.endpoint() +
                ") unreachable: " + e.what()};
    } catch (...) {
        // Non-transport escape (allocation, programming error): release the
        // pool slot but leave the breaker alone — the node did nothing wrong.
        drop(st);
        st.breaker.record_success();
        throw;
    }
}

void ClusterClient::discover_locked() {
    std::map<std::string, SceneInfo> agreed;
    std::string agreed_node;
    bool have = false;
    std::string errors;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        net::ClientResponse resp;
        try {
            resp = forward(i, "/");
        } catch (const IoError& e) {
            errors += std::string(errors.empty() ? "" : "; ") + e.what();
            continue;
        }
        if (resp.status != 200) {
            errors += std::string(errors.empty() ? "" : "; ") + "node '" +
                      map_.node(i).name + "' answered " +
                      std::to_string(resp.status) + " for /";
            continue;
        }
        std::map<std::string, SceneInfo> scenes = parse_scene_index(resp.body);
        if (!have) {
            agreed = std::move(scenes);
            agreed_node = map_.node(i).name;
            have = true;
        } else if (scenes != agreed) {
            throw ConfigError{"scene index disagreement between nodes '" +
                                  agreed_node + "' and '" + map_.node(i).name +
                                  "' — the fleet must serve identical scenes",
                              {"cluster", "client"}};
        }
    }
    if (!have) {
        throw UnavailableError{"no cluster node reachable for scene discovery: " + errors,
                               {"cluster", "client"}};
    }
    scenes_ = std::move(agreed);
    discovered_.store(true, std::memory_order_release);
}

const std::map<std::string, SceneInfo>& ClusterClient::scenes() {
    if (!discovered_.load(std::memory_order_acquire)) {
        std::lock_guard lock(discovery_mutex_);
        if (!discovered_.load(std::memory_order_acquire)) {
            discover_locked();
        }
    }
    return scenes_;
}

TilePtr ClusterClient::fetch_tile_f64(std::size_t node, const std::string& scene,
                                      std::uint64_t expected_fingerprint,
                                      const TileShape& shape, const TileKey& key,
                                      bool cached_only) {
    std::string target = "/v1/tile?scene=" + url_encode(scene) +
                         "&tx=" + std::to_string(key.tx) +
                         "&ty=" + std::to_string(key.ty) +
                         "&z=" + std::to_string(key.z) + "&q=f64";
    if (cached_only) {
        target += "&cached=1";
    }
    const net::ClientResponse resp = forward(node, target);
    if (cached_only && resp.status == 404) {
        return nullptr;  // the peer-fill miss: the peer simply has no copy
    }
    if (resp.status == 503) {  // alive but shedding or breaker-open
        throw NodeUnavailableError{
            map_.node(node).name,
            "node '" + map_.node(node).name + "' answered 503 for " + target,
            std::max(net::retry_after_ms(resp), 0)};
    }
    if (!resp.ok()) {
        throw net::HttpError{resp.status >= 400 ? resp.status : 502,
                             "node '" + map_.node(node).name + "' answered " +
                                 std::to_string(resp.status) + " for " + target};
    }
    if (const std::string* fp = resp.header("x-rrs-fingerprint");
        fp == nullptr || *fp != std::to_string(expected_fingerprint)) {
        throw IoError{"node '" + map_.node(node).name +
                          "' served a different fingerprint for scene '" + scene +
                          "' — fleet scene files disagree",
                      {"cluster", "client"}};
    }
    return std::make_shared<const Array2D<double>>(
        decode_tile_f64(resp.body, shape.nx, shape.ny));
}

Array2D<double> ClusterClient::window(const std::string& scene, const Rect& region) {
    windows_->add();
    if (region.nx < 0 || region.ny < 0) {
        throw ConfigError{"window extents must be non-negative",
                          {"cluster", "client"}};
    }
    if (region.nx == 0 || region.ny == 0) {
        return Array2D<double>(static_cast<std::size_t>(region.nx),
                               static_cast<std::size_t>(region.ny));
    }
    const std::map<std::string, SceneInfo>& all = scenes();
    const auto it = all.find(scene);
    if (it == all.end()) {
        throw net::HttpError{404, "unknown scene '" + scene + "'"};
    }
    const SceneInfo info = it->second;
    const std::vector<TileKey> keys = covering_tiles(info.shape, region);
    std::vector<std::future<TilePtr>> futures;
    futures.reserve(keys.size());
    for (const TileKey& key : keys) {
        futures.push_back(fanout_->submit([this, &scene, info, key] {
            return fetch_tile_f64(map_.owner(info.fingerprint, key), scene,
                                  info.fingerprint, info.shape, key);
        }));
    }
    return stitch_window(info.shape, region, keys, settle_tiles(futures));
}

ClusterClient::FleetReady ClusterClient::ready() {
    FleetReady out;
    out.nodes.resize(nodes_.size());
    std::vector<std::future<void>> probes;
    probes.reserve(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        probes.push_back(fanout_->submit([this, i, &out] {
            NodeHealth& health = out.nodes[i];
            health.name = map_.node(i).name;
            try {
                // Fresh connection, short deadline, no retries: a probe
                // must answer quickly even when the node is wedged, and
                // must not consume (or poison) the pooled connections.
                net::HttpClient::Options copt;
                copt.timeout_ms = opt_.ready_timeout_ms;
                net::HttpClient probe(map_.node(i).host, map_.node(i).port, copt);
                const net::ClientResponse resp = probe.get("/readyz");
                health.status = resp.status;
                health.detail = resp.body;
                health.ready = resp.status == 200 && transport_ok(resp.status);
            } catch (const IoError& e) {
                health.status = 0;
                health.detail = e.what();
                health.ready = false;
            }
        }));
    }
    for (auto& probe : probes) {
        probe.get();
    }
    out.ready = true;
    for (const NodeHealth& health : out.nodes) {
        out.ready = out.ready && health.ready;
    }
    return out;
}

fault::CircuitBreaker::State ClusterClient::breaker_state(std::size_t node) const {
    if (node >= nodes_.size()) {
        throw ConfigError{"breaker_state of out-of-range node index",
                          {"cluster", "client"}};
    }
    return nodes_[node]->breaker.state();
}

}  // namespace rrs::cluster
