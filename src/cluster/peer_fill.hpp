#pragma once

/// \file peer_fill.hpp
/// Peer cache-fill across topology epochs (DESIGN.md §17.4).
///
/// When a fleet reshards (epoch N-1 → N), every key that changed owner is
/// cold on its new node — naively, a reshard triggers a cold-generation
/// storm exactly when the fleet is most fragile.  Peer fill warms from
/// neighbors instead: a node's base-tile source first asks the key's
/// *previous* owner (computed from the prior epoch's ShardMap) for its
/// copy, and only generates when the peer doesn't have one either.
///
/// Peer fill is a TileSource wrapper, not a TileService feature: the
/// service's miss chain stays RAM → L2 → source, and the source it is
/// handed is `peer_fill_source(..., local_source(...))`.  A tile is a pure
/// function of (fingerprint, key), so a peer's copy is one more source of
/// the same bytes; the service counts it as a generation and shape-checks
/// it like any other source output.
///
/// Protocol (one GET, reusing the tile wire format end-to-end):
///
///     GET /v1/tile?scene=S&tx=..&ty=..&z=0&q=f64&cached=1
///
///  * `q=f64` — the bit-exact encoding, so a peer-filled tile is
///    byte-identical to local generation (asserted in tests).
///  * `cached=1` — "only-if-cached": the peer answers from its RAM cache
///    or L2 store and 404s otherwise, *never* generates and never
///    peer-fills in turn — the recursion/storm terminator.
///  * The X-RRS-Fingerprint response header must match the local scene
///    fingerprint, or the fill is rejected (a fleet with disagreeing scene
///    files must not cross-pollinate).
///
/// Any failure — peer miss, peer unreachable or breaker-open, protocol or
/// fingerprint mismatch — falls back to the local source; a key this node
/// already owned in the previous epoch goes straight to it.  The previous
/// epoch's peers are reached through one ClusterClient per process, shared
/// by every scene: one connection pool and one circuit breaker per peer,
/// so a decommissioned previous owner degrades into fast local generation
/// instead of per-tile connect timeouts, and its breaker gauge has a
/// single writer.  rrsd names that client's own metrics `cluster.prev.*`
/// (`cluster.prev.nodes`, `cluster.prev.breaker.state.<node>`,
/// `cluster.prev.node.<node>.requests`), apart from a proxy's fleet.
///
/// Counters (in the client's registry): `cluster.peer_fills` (tiles served
/// from a peer — the reshard acceptance counter), `cluster.peer_fill_misses`
/// (peer answered 404), `cluster.peer_fill_errors` (transport/protocol
/// failures, fallen back from).

#include <cstdint>
#include <memory>
#include <string>

#include "cluster/client.hpp"
#include "service/tile_service.hpp"

namespace rrs::cluster {

/// Wrap `local` in a peer fill for scene `scene` (wire name) on the node
/// named `self`, asking each key's owner under `previous` — a client over
/// the *previous* epoch's topology — for its cached copy first (file
/// comment).  `fingerprint`/`shape` describe the scene the wrapping
/// TileService serves.  A `self` absent from the previous topology (a
/// brand-new node) peer-fills every key.  Throws ConfigError on a null
/// client, an empty scene name, a zero fingerprint, a non-positive shape,
/// or an empty local source.
TileSource peer_fill_source(std::shared_ptr<ClusterClient> previous,
                            const std::string& self, std::string scene,
                            std::uint64_t fingerprint, TileShape shape,
                            TileSource local);

}  // namespace rrs::cluster
