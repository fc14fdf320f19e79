#pragma once

/// \file tile_routes.hpp
/// The tile API: a Router wiring TileService instances (one per named
/// scene) plus the operational endpoints every deployment of the daemon
/// needs.  Route table (DESIGN.md §12):
///
///   GET /            JSON index: scenes, tile shape, endpoint list
///   GET /healthz     liveness probe — "ok" once routable (never degrades:
///                    a live-but-not-ready process must not be restarted)
///   GET /readyz      readiness probe — 200 while the server accepts
///                    traffic (net.ready gauge) and no scene breaker is
///                    open; 503 + Retry-After otherwise
///   GET /metrics     MetricsRegistry snapshot as JSON
///   GET /tracez      Chrome trace JSON (404 while tracing is disabled)
///   GET /v1/tile?scene=NAME&tx=I&ty=J[&z=Z][&q=f32|i16|f64]
///                    one tile, row-major little-endian; dimensions ride in
///                    X-RRS-* response headers.  `z` selects a zoom-pyramid
///                    level (default 0 = base lattice); `q` the body
///                    encoding — f32 (default), i16 (int16 quantized, the
///                    dequantization scale/offset ride in X-RRS-Scale /
///                    X-RRS-Offset), or f64 (bit-exact escape hatch)
///   GET /v1/window?scene=NAME&x0=I&y0=J&nx=W&ny=H[&q=...]
///                    arbitrary lattice window, same wire format
///   GET /v1/pyramid?scene=NAME&tx=I&ty=J&z=Z[&min_z=M][&q=f32|f64]
///                    tile (tx,ty,z) plus every descendant down to zoom
///                    `min_z` (default 0): concatenated tile bodies in
///                    level order, top tile first, each parent's four
///                    children row-major (i16 is rejected — quantization
///                    parameters are per-tile).  X-RRS-Tiles counts them.
///
/// Conditional GETs (DESIGN.md §14): /v1/tile responses carry a strong ETag
/// that is a pure function of (generator fingerprint, tile key, zoom,
/// encoding) — tiles are deterministic, so the ETag never has to see the
/// body.  A request whose If-None-Match matches is answered 304 (counted in
/// `net.not_modified`) *before* any cache/store/generator work.
///
/// `scene` may be omitted when exactly one scene is registered.  Parameter
/// errors are HttpError(400), unknown scenes HttpError(404), and windows
/// larger than `TileRoutesOptions::max_window_points` HttpError(413) — the
/// window cap is the router-level admission control that keeps one request
/// from monopolizing the generation pool.  Zoomed tiles are admission-
/// checked against the same cap on their *base-lattice footprint*
/// (nx·ny·4^z points is what a cold zoom-z tile costs to derive), and
/// pyramids against their total response points.
///
/// Resilience (DESIGN.md §13): each scene's tile, window and pyramid work
/// runs as one guarded call behind a fault::CircuitBreaker (gauge
/// `net.breaker.state.<scene>`, trip counter `net.breaker.opened`, denial
/// counter `net.breaker.short_circuited`).  An open breaker throws
/// UnavailableError, which HttpServer answers 503 + Retry-After — except
/// that /v1/tile first degrades to TileService::peek: a tile RAM or the L2
/// store still holds is served with `X-RRS-Stale: 1` (counted in
/// `net.stale_served`).  The same fallback covers a source that is itself
/// unavailable.  Windows and pyramids have no single last-known-good body,
/// so they get the 503.
///
/// The same routes serve a shard and the cluster proxy (cluster/proxy.hpp):
/// there the services' base-tile source is an owner fetch, and the proxy
/// passes `breaker_failures = 0` because its per-node breakers already
/// isolate shards.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "grid/array2d.hpp"
#include "grid/rect.hpp"
#include "net/http.hpp"
#include "net/query.hpp"
#include "net/router.hpp"
#include "obs/metrics.hpp"
#include "service/tile_service.hpp"

namespace rrs::net {

/// Limits the tile router imposes beyond the server's own.
struct TileRoutesOptions {
    /// Maximum nx*ny lattice points one /v1/window request may ask for
    /// (default 16 Mi points = 64 MiB on the wire).
    std::size_t max_window_points = std::size_t{16} << 20;
    /// Consecutive generation failures that open a scene's circuit breaker
    /// (0 disables the breakers entirely).
    int breaker_failures = 5;
    /// How long an open breaker denies before half-open probing.
    int breaker_open_ms = 1000;
    /// Successful half-open probes required to re-close.
    int breaker_half_open_successes = 1;
};

/// Map of scene name -> the service answering for it.  Services are shared
/// because handlers run concurrently on server workers.
using SceneServices = std::map<std::string, std::shared_ptr<TileService>>;

/// Build the full route table over `scenes`.  `registry` backs /metrics
/// (nullptr = the global registry — pass the server's registry so one JSON
/// document carries both service and transport counters).  Throws
/// ConfigError when `scenes` is empty or any service is null.
Router make_tile_router(SceneServices scenes,
                        obs::MetricsRegistry* registry = nullptr,
                        TileRoutesOptions opt = {});

/// Encode an array as the wire format served by /v1/tile and /v1/window:
/// row-major float32, little-endian, no header (dimensions travel in HTTP
/// headers).  Doubles are narrowed to float — the wire format trades
/// precision for half the bytes, which tests account for when comparing.
std::string encode_tile_f32(const Array2D<double>& a);

/// Bit-exact escape hatch (`?q=f64`): row-major float64, little-endian —
/// the full double lattice, byte-for-byte reproducible across restarts.
std::string encode_tile_f64(const Array2D<double>& a);

/// Quantized body (`?q=i16`) plus the affine decode parameters:
/// value ≈ offset + scale·q with q the little-endian int16 samples.
struct QuantizedTile {
    std::string body;
    double scale = 1.0;
    double offset = 0.0;
};

/// Encode as int16 + scale/offset: offset = midrange, scale sized so the
/// extremes land on ±32767 (scale 1, all-zero body for a constant tile).
/// Quarter the bytes of f64 at ~4.6 digits of dynamic range — plenty for
/// display pipelines, not for resuming computation (use f64 for that).
QuantizedTile encode_tile_i16(const Array2D<double>& a);

/// Strong ETag for a tile body: pure function of (generator fingerprint,
/// key, zoom, encoding name) — quoted, as it appears on the wire.
std::string tile_etag(std::uint64_t fingerprint, const TileKey& key,
                      std::string_view encoding);

/// Wrap an encoded surface window into the binary wire response served by
/// /v1/tile and /v1/window — body per `enc`, dimensions/scene/fingerprint
/// in X-RRS-* headers.  Exposed so in-process callers (tests, benches)
/// can build the exact bytes a server answers.
HttpResponse surface_response(const Array2D<double>& a, const Rect& r,
                              const std::string& scene, std::uint64_t fingerprint,
                              WireEncoding enc = WireEncoding::kF32);

}  // namespace rrs::net
