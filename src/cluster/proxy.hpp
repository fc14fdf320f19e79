#pragma once

/// \file proxy.hpp
/// The cluster routing tier: `make_cluster_router` builds the Router an
/// `rrsd --cluster TOPOLOGY` proxy serves (DESIGN.md §17).  The proxy is
/// an ordinary tile server whose source is remote.  On the first
/// successful fleet discovery it builds one TileService per advertised
/// scene, with the fleet-agreed fingerprint and tile shape, whose base-tile
/// source is ClusterClient::fetch_tile_f64 aimed at the tile's owner
/// (rendezvous hashing over (fingerprint, key)).  Those services are served
/// by the very routes a shard runs (net/tile_routes.hpp), so /v1/tile,
/// /v1/window, /v1/pyramid, ETags, 304s, encodings and zoom derivation are
/// one code path:
///
///   GET /v1/tile     RAM hit, or a coalesced owner fetch (z = 0); zoom
///                    tiles derive from their base tiles at the proxy, so
///                    every base tile is generated only by its owner.
///                    Conditional GETs are answered 304 at the proxy.
///   GET /v1/window   covering tiles fan out to their owners, stitched —
///                    byte-identical to a single node (tests/test_cluster.cpp)
///   GET /v1/pyramid  derived at the proxy from owner-fetched base tiles
///   GET /healthz, /metrics, /tracez   as on a single node
///
/// The proxy adds only two routes of its own:
///
///   GET /            the shards' scene index plus a `cluster` block
///                    (epoch, nodes, weights) — still parseable by
///                    parse_scene_index, so a ClusterClient can be pointed
///                    at a proxy.
///   GET /readyz      fleet aggregation: 200 iff every node's /readyz is
///                    200, else 503 + per-node detail JSON.
///
/// Degradation is per shard: the routes run without a scene breaker
/// (`breaker_failures = 0`) because ClusterClient's per-node breakers
/// already isolate shards.  A dead shard's tiles still in the proxy's RAM
/// cache — its last-known-good store — are served as ordinary hits; its
/// cold tiles throw NodeUnavailableError, which HttpServer answers 503 +
/// Retry-After.  Other shards' tiles are unaffected.  Until discovery
/// first succeeds, every tile route answers 503 + Retry-After.
///
/// All handlers are thread-safe and run on HttpServer workers.

#include <cstddef>
#include <memory>

#include "cluster/client.hpp"
#include "net/router.hpp"
#include "obs/metrics.hpp"
#include "service/tile_service.hpp"

namespace rrs::cluster {

/// Build the proxy route table over `client` (shared — handlers run
/// concurrently).  `registry` backs /metrics and the routes' `net.*`
/// counters; nullptr = the global registry.  `cache_bytes` sizes each
/// scene's RAM cache; batch fan-out runs on the client's fan-out pool.
/// Throws ConfigError on a null client.
net::Router make_cluster_router(
    std::shared_ptr<ClusterClient> client, obs::MetricsRegistry* registry = nullptr,
    std::size_t cache_bytes = TileService::Options{}.cache_bytes);

}  // namespace rrs::cluster
