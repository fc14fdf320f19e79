#pragma once

/// \file client.hpp
/// ClusterClient — fan-out transport over a sharded rrsd fleet
/// (DESIGN.md §17).
///
/// Wraps one ShardMap plus a per-node connection layer and gives callers
/// the fleet as a single logical tile server:
///
///  * `forward()` — one GET to a chosen node over a bounded keep-alive
///    connection pool (at most `connections_per_node` sticky sockets per
///    node — HttpServer is thread-per-connection, so pooled connections
///    must never exceed a node's worker count; excess borrowers block until
///    a connection frees).  Each node sits behind its own
///    fault::CircuitBreaker: transport failures open it, an open breaker
///    short-circuits into NodeUnavailableError without burning a socket,
///    and the rest of the fleet is untouched — per-shard degradation, not
///    global outage.  Every forward passes the per-node fault-injection
///    site `cluster.forward.<name>` (chaos tier).
///  * Scene discovery — the fleet's `/` index is fetched once (from every
///    reachable node; all responders must agree on names, shapes, and
///    fingerprints) so the client can compute tile ownership locally.
///  * `fetch_tile_f64()` — one base tile from a node as bit-exact `q=f64`.
///    The routing proxy (cluster/proxy.hpp) uses it, aimed at each tile's
///    owner, as the base-tile source of its TileServices; peer fill
///    (cluster/peer_fill.hpp) uses it with `cached=1`.
///  * `window()` — fans the covering tiles out to their owners and
///    stitches them with TileService's own settle_tiles/stitch_window, so
///    it reproduces single-node generation byte-for-byte once re-encoded.
///  * `ready()` — probes every node's /readyz with a short deadline and
///    aggregates: the fleet is ready iff every node is.
///
/// Retry/backoff reuses net::RetryPolicy inside each pooled HttpClient;
/// GET-only idempotence is what makes cross-node retries safe.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/shard_map.hpp"
#include "cluster/topology.hpp"
#include "fault/circuit_breaker.hpp"
#include "grid/array2d.hpp"
#include "grid/rect.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "service/tile_cache.hpp"
#include "service/tile_key.hpp"

namespace rrs {
class ThreadPool;
}  // namespace rrs

namespace rrs::cluster {

/// A node could not serve: its circuit breaker is open, the transport
/// failed (connect/send/recv/deadline), or it answered 503.  IS-A
/// UnavailableError (so HttpServer answers 503 + Retry-After); `node()`
/// names the shard so callers degrade per-shard instead of failing the
/// fleet.
class NodeUnavailableError : public UnavailableError {
public:
    NodeUnavailableError(std::string node, std::string message,
                         int retry_after_ms = 0)
        : UnavailableError(std::move(message), {"cluster", "client"}, retry_after_ms),
          node_(std::move(node)) {}

    const std::string& node() const noexcept { return node_; }

private:
    std::string node_;
};

/// One scene as the fleet's `/` index advertises it.
struct SceneInfo {
    TileShape shape;
    std::uint64_t fingerprint = 0;

    friend bool operator==(const SceneInfo&, const SceneInfo&) = default;
};

/// Parse the scene index JSON served at `/` (tile_routes.cpp handle_index)
/// into name → SceneInfo.  Pure parse over untrusted peer bytes: throws
/// ConfigError (context {"cluster", "index"}) on anything malformed.
std::map<std::string, SceneInfo> parse_scene_index(std::string_view body);

/// Decode a `q=f64` tile body (row-major little-endian float64, the
/// bit-exact wire encoding) into an Array2D.  Throws IoError when the body
/// size does not match nx·ny·8.
Array2D<double> decode_tile_f64(std::string_view body, std::int64_t nx,
                                std::int64_t ny);

/// Percent-encode a query value (everything outside [A-Za-z0-9_.~-]).
std::string url_encode(std::string_view s);

struct ClusterOptions {
    int timeout_ms = 5000;       ///< per-request connect/recv/send deadline
    net::RetryPolicy retry;      ///< transport retry inside each connection
    /// Sticky keep-alive connections per node, and therefore the per-node
    /// forward concurrency.  Must not exceed the node's HttpServer worker
    /// count — its admission cap, beyond which it sheds with 503.
    std::size_t connections_per_node = net::HttpServer::Options{}.workers;
    int breaker_failures = 3;    ///< consecutive failures that open a node
    int breaker_open_ms = 1000;
    int breaker_half_open_successes = 1;
    int ready_timeout_ms = 750;  ///< per-node /readyz probe deadline
    std::size_t fanout_threads = 8;  ///< window tile fan-out concurrency
    /// Metrics sink (cluster.* counters); nullptr = the global registry.
    obs::MetricsRegistry* registry = nullptr;
};

/// See file comment.  Thread-safe: all entry points may be called
/// concurrently (the proxy serves them from HttpServer workers).
class ClusterClient {
public:
    explicit ClusterClient(Topology topology, ClusterOptions opt = {});
    ~ClusterClient();

    ClusterClient(const ClusterClient&) = delete;
    ClusterClient& operator=(const ClusterClient&) = delete;

    const ShardMap& map() const noexcept { return map_; }
    const ClusterOptions& options() const noexcept { return opt_; }

    /// Scene table from fleet discovery (first call probes the fleet; all
    /// responding nodes must agree).  Throws UnavailableError when no node
    /// responds, ConfigError on disagreement.
    const std::map<std::string, SceneInfo>& scenes();

    /// One GET to node `node`.  Returns whatever the node answered (any
    /// status — a 4xx/5xx response is the node speaking, not a transport
    /// failure).  Throws NodeUnavailableError when the node's breaker is
    /// open or the transport fails.
    net::ClientResponse forward(std::size_t node, const std::string& target,
                                const net::HttpClient::HeaderList& headers = {});

    /// Fetch one tile from `node` as bit-exact f64 and decode it.
    /// `cached_only` adds `cached=1` (the peer-fill protocol: the node may
    /// only answer from RAM/L2, never generate) and returns nullptr on its
    /// 404 miss.  Throws NodeUnavailableError on transport failure or a 503
    /// answer (carrying the node's Retry-After), HttpError on any other
    /// unexpected status, IoError on a fingerprint or size mismatch.
    TilePtr fetch_tile_f64(std::size_t node, const std::string& scene,
                           std::uint64_t expected_fingerprint,
                           const TileShape& shape, const TileKey& key,
                           bool cached_only = false);

    /// Assemble a lattice window by fanning covering tiles out to their
    /// owners (f64 wire) and stitching — bit-identical to the doubles a
    /// single-node TileService::window produces.  Throws the first tile
    /// failure after every in-flight tile settles.  Uncached.
    Array2D<double> window(const std::string& scene, const Rect& region);

    struct NodeHealth {
        std::string name;
        bool ready = false;
        int status = 0;       ///< HTTP status, 0 on transport failure
        std::string detail;   ///< response body or failure message
    };
    struct FleetReady {
        bool ready = false;   ///< every node answered /readyz with 200
        std::vector<NodeHealth> nodes;
    };

    /// Probe every node's /readyz (short deadline, fresh connection, in
    /// parallel) and aggregate.  Never throws on node failure — an
    /// unreachable node is simply not ready.
    FleetReady ready();

    /// Breaker state of one node (for tests and the proxy's index page).
    fault::CircuitBreaker::State breaker_state(std::size_t node) const;

    /// The `fanout_threads` pool (also the proxy services' batch pool).
    ThreadPool& fanout_pool() const noexcept { return *fanout_; }

private:
    struct NodeState;

    /// RAII'd borrowed connection (returned or dropped exactly once).
    struct Borrowed {
        std::unique_ptr<net::HttpClient> client;
    };

    Borrowed borrow(NodeState& node);
    void give_back(NodeState& node, Borrowed conn) noexcept;
    void drop(NodeState& node) noexcept;
    void discover_locked();

    ShardMap map_;
    ClusterOptions opt_;
    obs::MetricsRegistry* registry_;
    std::vector<std::unique_ptr<NodeState>> nodes_;
    std::unique_ptr<ThreadPool> fanout_;

    std::mutex discovery_mutex_;
    std::atomic<bool> discovered_{false};
    std::map<std::string, SceneInfo> scenes_;

    obs::Counter* forwards_ = nullptr;         ///< cluster.forwards
    obs::Counter* windows_ = nullptr;          ///< cluster.windows
    obs::Counter* short_circuited_ = nullptr;  ///< cluster.short_circuited
};

}  // namespace rrs::cluster
