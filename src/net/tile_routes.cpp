#include "net/tile_routes.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/error.hpp"
#include "fault/circuit_breaker.hpp"
#include "net/http.hpp"
#include "net/query.hpp"
#include "obs/trace.hpp"
#include "service/tile_key.hpp"

namespace rrs::net {

namespace {

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "the wire encoders need a little- or big-endian host");

/// Samples a block encoder converts on the stack before one copy out.
constexpr std::size_t kBlock = 512;

/// Write `n` values to `dst` as little-endian bytes: one memcpy on a
/// little-endian host, each value's bytes reversed on a big-endian one.
template <typename Word>
void store_le(const Word* words, std::size_t n, char* dst) {
    if (n == 0) {
        return;  // an empty tile's data() may be null, which memcpy must not see
    }
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(dst, words, n * sizeof(Word));
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            char bytes[sizeof(Word)];
            std::memcpy(bytes, &words[i], sizeof(Word));
            for (std::size_t b = 0; b < sizeof(Word); ++b) {
                dst[i * sizeof(Word) + b] = bytes[sizeof(Word) - 1 - b];
            }
        }
    }
}

void encode_f32_into(const double* src, std::size_t n, char* dst) {
    float block[kBlock];
    for (std::size_t i0 = 0; i0 < n; i0 += kBlock) {
        const std::size_t m = n - i0 < kBlock ? n - i0 : kBlock;
        for (std::size_t i = 0; i < m; ++i) {
            block[i] = static_cast<float>(src[i0 + i]);
        }
        store_le(block, m, dst + i0 * sizeof(float));
    }
}

/// value ≈ offset + scale·q: round half away from zero after clamping to
/// ±32767.  Adding copysign(0.5, q) is the same arithmetic as `q < 0 ?
/// q − 0.5 : q + 0.5` (−0.0 truncates to 0 either way) without a branch,
/// so the loop vectorizes.
void quantize_i16_into(const double* src, std::size_t n, double offset, double scale,
                       char* dst) {
    const double inv_scale = 1.0 / scale;
    std::int16_t block[kBlock];
    for (std::size_t i0 = 0; i0 < n; i0 += kBlock) {
        const std::size_t m = n - i0 < kBlock ? n - i0 : kBlock;
        for (std::size_t i = 0; i < m; ++i) {
            double q = (src[i0 + i] - offset) * inv_scale;
            q = q < -32767.0 ? -32767.0 : (q > 32767.0 ? 32767.0 : q);
            block[i] = static_cast<std::int16_t>(
                static_cast<std::int32_t>(q + std::copysign(0.5, q)));
        }
        store_le(block, m, dst + i0 * sizeof(std::int16_t));
    }
}

/// Shortest round-trippable decimal (max_digits10), so decoding the i16
/// scale/offset headers reproduces the server's doubles exactly.
std::string exact_decimal(double v) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    return num;
}

/// `a` in `enc`, with the headers the encoding adds.
EncodedBody encode_body(const Array2D<double>& a, WireEncoding enc) {
    EncodedBody out;
    switch (enc) {
        case WireEncoding::kI16: {
            QuantizedTile q = encode_tile_i16(a);
            out.bytes = std::move(q.body);
            out.headers.emplace_back("X-RRS-Scale", exact_decimal(q.scale));
            out.headers.emplace_back("X-RRS-Offset", exact_decimal(q.offset));
            break;
        }
        case WireEncoding::kF64:
            out.bytes = encode_tile_f64(a);
            break;
        case WireEncoding::kF32:
            out.bytes = encode_tile_f32(a);
            break;
    }
    return out;
}

/// An encoded body as a binary response: its bytes, then its headers.
HttpResponse body_response(const EncodedBodyPtr& body) {
    HttpResponse resp = HttpResponse::octets(body, body->bytes);
    resp.extra_headers = body->headers;
    return resp;
}

/// The dimensions, scene and fingerprint of a surface body, in X-RRS-*
/// headers after the encoding's own.
void add_surface_headers(HttpResponse& resp, const Rect& r, const std::string& scene,
                         std::uint64_t fingerprint, WireEncoding enc) {
    resp.extra_headers.emplace_back("X-RRS-Encoding", encoding_name(enc));
    resp.extra_headers.emplace_back("X-RRS-Nx", std::to_string(r.nx));
    resp.extra_headers.emplace_back("X-RRS-Ny", std::to_string(r.ny));
    resp.extra_headers.emplace_back("X-RRS-X0", std::to_string(r.x0));
    resp.extra_headers.emplace_back("X-RRS-Y0", std::to_string(r.y0));
    resp.extra_headers.emplace_back("X-RRS-Scene", scene);
    resp.extra_headers.emplace_back("X-RRS-Fingerprint", std::to_string(fingerprint));
}

/// The body of the tile at `address` in `enc`, whose bytes the address
/// fixes: an f64 body on a little-endian host is the tile's own storage;
/// an f32 or i16 body is encoded on the address's first request and kept
/// on the tile's cache entry (a big-endian host encodes f64 per request).
HttpResponse tile_body(TileCache& cache, const TileAddress& address, const TilePtr& tile,
                       WireEncoding enc) {
    if (enc == WireEncoding::kF64) {
        if constexpr (std::endian::native == std::endian::little) {
            return HttpResponse::octets(tile, {reinterpret_cast<const char*>(tile->data()),
                                               tile->size() * sizeof(double)});
        }
        return body_response(std::make_shared<const EncodedBody>(encode_body(*tile, enc)));
    }
    const std::size_t slot = enc == WireEncoding::kF32 ? 0 : 1;
    EncodedBodyPtr body = cache.find_body(address, slot);
    if (body == nullptr) {
        body = std::make_shared<const EncodedBody>(encode_body(*tile, enc));
        cache.attach_body(address, slot, body);
    }
    return body_response(body);
}

/// Shared routing state, captured by every handler.  Structurally immutable
/// after make_tile_router; the breakers are internally synchronized, so
/// concurrent handlers share them freely.
struct RouteState {
    SceneServices scenes;
    obs::MetricsRegistry* registry = nullptr;
    TileRoutesOptions opt;
    /// Per-scene generation breakers (empty when breaker_failures == 0).
    std::map<std::string, std::unique_ptr<fault::CircuitBreaker>> breakers;
    obs::Counter* short_circuited = nullptr;  ///< net.breaker.short_circuited
    obs::Counter* stale_served = nullptr;     ///< net.stale_served
    obs::Counter* not_modified = nullptr;     ///< net.not_modified (304 answers)
    obs::Gauge* ready = nullptr;              ///< net.ready (set by HttpServer)

    /// Resolve the scene a request addresses: explicit `scene=` parameter,
    /// or the sole registered scene when there is exactly one.
    std::pair<const std::string*, TileService*> resolve(const HttpRequest& req) const {
        const std::string* name = req.query_param("scene");
        if (name == nullptr) {
            if (scenes.size() == 1) {
                const auto& [only_name, only_service] = *scenes.begin();
                return {&only_name, only_service.get()};
            }
            throw HttpError{400,
                            "query parameter 'scene' is required when more "
                            "than one scene is served"};
        }
        const auto it = scenes.find(*name);
        if (it == scenes.end()) {
            throw HttpError{404, "unknown scene '" + *name + "'"};
        }
        return {&it->first, it->second.get()};
    }

    /// Run `serve` behind the scene's breaker.  An open breaker throws
    /// UnavailableError (503 + Retry-After) without running it; a taxonomy
    /// failure counts against the breaker, a request-shaped one (HttpError)
    /// does not — the source is fine, the request was bad.
    template <typename Serve>
    auto guarded(const std::string& scene, Serve&& serve) const {
        const auto it = breakers.find(scene);
        if (it == breakers.end()) {
            return serve();
        }
        fault::CircuitBreaker& breaker = *it->second;
        if (!breaker.allow()) {
            short_circuited->add();
            throw UnavailableError{"circuit breaker open", {"net", "scene '" + scene + "'"},
                                   breaker.open_remaining_ms()};
        }
        try {
            auto out = serve();
            breaker.record_success();
            return out;
        } catch (const HttpError&) {
            breaker.record_success();
            throw;
        } catch (const Error&) {
            breaker.record_failure();
            throw;
        }
    }
};

/// 413 unless the base-lattice footprint behind `points` zoom-z samples
/// fits the window cap — a cold zoom tile costs its whole footprint to
/// derive, so it is admission-checked like the equivalent window.
void check_footprint(std::uint64_t points, std::int32_t z, std::uint64_t cap) {
    std::uint64_t footprint = points;
    for (std::int32_t i = 0; i < z && footprint <= cap; ++i) {
        footprint *= 4;
    }
    if (footprint > cap) {
        throw HttpError{413, "zoom-" + std::to_string(z) +
                                 " request covers more than the cap of " +
                                 std::to_string(cap) + " base-lattice points"};
    }
}

HttpResponse handle_tile(const RouteState& state, const HttpRequest& req) {
    const auto [scene, service] = state.resolve(req);
    const TileQuery query = parse_tile_query(req);
    const TileKey& key = query.key;
    const auto tile_points =
        static_cast<std::uint64_t>(service->shape().nx * service->shape().ny);
    check_footprint(tile_points, key.z, state.opt.max_window_points);
    // Conditional GET first: the ETag is a pure function of the address, so
    // a match answers 304 without touching cache, store, or source.
    const std::string etag =
        tile_etag(service->fingerprint(), key, encoding_name(query.encoding));
    if (const std::string* inm = req.header("if-none-match");
        inm != nullptr && etag_matches(*inm, etag)) {
        state.not_modified->add();
        HttpResponse resp;
        resp.status = 304;  // empty body; the validator rides in ETag
        resp.extra_headers.emplace_back("ETag", etag);
        return resp;
    }
    TilePtr tile;
    bool stale = false;
    if (query.cached_only) {
        // Only-if-cached (`cached=1`, DESIGN.md §17): answer from the RAM
        // cache or the L2 store, 404 otherwise — never generate.  Cluster
        // peer fill relies on this to terminate (a peek can never recurse
        // into another peer), and a peek cannot fail the way a generation
        // can, so the breaker is bypassed.
        tile = service->peek(key);
        if (tile == nullptr) {
            throw HttpError{404, "tile not cached"};
        }
    } else {
        try {
            tile = state.guarded(*scene, [&] { return service->get(key); });
        } catch (const UnavailableError&) {
            // Degrade: what RAM or L2 still holds is the truth (tiles are
            // pure, so the ETag holds too), marked stale because the
            // source behind it is not serving.
            tile = service->peek(key);
            if (tile == nullptr) {
                throw;
            }
            stale = true;
            state.stale_served->add();
        }
    }
    HttpResponse resp = tile_body(*service->cache(), TileAddress{service->fingerprint(), key},
                                  tile, query.encoding);
    add_surface_headers(resp, tile_rect(service->shape(), key), *scene,
                        service->fingerprint(), query.encoding);
    resp.extra_headers.emplace_back("ETag", etag);
    if (stale) {
        resp.extra_headers.emplace_back("X-RRS-Stale", "1");
    }
    return resp;
}

HttpResponse handle_pyramid(const RouteState& state, const HttpRequest& req) {
    const auto [scene, service] = state.resolve(req);
    const PyramidQuery query = parse_pyramid_query(req);
    const TileKey& top = query.top;
    const std::int32_t z = top.z;
    const std::int32_t min_z = query.min_z;
    const WireEncoding enc = query.encoding;
    // Admission: total response points across all levels (which also bounds
    // the base-footprint generation cost from above).
    const auto tile_points =
        static_cast<std::uint64_t>(service->shape().nx * service->shape().ny);
    const auto cap = static_cast<std::uint64_t>(state.opt.max_window_points);
    std::uint64_t total_points = 0;
    std::uint64_t level_tiles = 1;
    for (std::int32_t lvl = z; lvl >= min_z; --lvl) {
        total_points += level_tiles * tile_points;
        if (total_points > cap) {
            throw HttpError{413, "pyramid of " + std::to_string(total_points) +
                                     "+ points exceeds the cap of " +
                                     std::to_string(cap) + " points"};
        }
        level_tiles *= 4;
    }
    // No stale fallback: a pyramid has no single last-known-good body.
    const auto tiles = state.guarded(*scene, [&] { return service->pyramid(top, min_z); });
    const std::size_t width = enc == WireEncoding::kF64 ? sizeof(double) : sizeof(float);
    // Sized from the tiles themselves, so the writes below stay in bounds
    // whatever shape a tile has.
    std::size_t points = 0;
    for (const auto& entry : tiles) {
        points += entry.second->size();
    }
    std::string body(points * width, '\0');
    char* out = body.data();
    for (const auto& [key, tile] : tiles) {
        if (enc == WireEncoding::kF64) {
            store_le(tile->data(), tile->size(), out);
        } else {
            encode_f32_into(tile->data(), tile->size(), out);
        }
        out += tile->size() * width;
    }
    HttpResponse resp = HttpResponse::octets(std::move(body));
    resp.extra_headers.emplace_back("X-RRS-Encoding", encoding_name(enc));
    resp.extra_headers.emplace_back("X-RRS-Nx", std::to_string(service->shape().nx));
    resp.extra_headers.emplace_back("X-RRS-Ny", std::to_string(service->shape().ny));
    resp.extra_headers.emplace_back("X-RRS-Zoom", std::to_string(z));
    resp.extra_headers.emplace_back("X-RRS-MinZoom", std::to_string(min_z));
    resp.extra_headers.emplace_back("X-RRS-Tiles", std::to_string(tiles.size()));
    resp.extra_headers.emplace_back("X-RRS-Scene", *scene);
    resp.extra_headers.emplace_back("X-RRS-Fingerprint",
                                    std::to_string(service->fingerprint()));
    return resp;
}

HttpResponse handle_window(const RouteState& state, const HttpRequest& req) {
    const auto [scene, service] = state.resolve(req);
    const WindowQuery query = parse_window_query(req);
    const Rect& region = query.region;
    const auto cap = static_cast<std::uint64_t>(state.opt.max_window_points);
    if (region.nx > 0 && region.ny > 0) {
        const auto nx = static_cast<std::uint64_t>(region.nx);
        const auto ny = static_cast<std::uint64_t>(region.ny);
        if (nx > cap || ny > cap / nx) {
            throw HttpError{413, "window of " + std::to_string(region.nx) + "x" +
                                     std::to_string(region.ny) +
                                     " points exceeds the cap of " +
                                     std::to_string(cap) + " points"};
        }
    }
    // No stale fallback: windows are arbitrary shapes with no
    // last-known-good body.
    const Array2D<double> window =
        state.guarded(*scene, [&] { return service->window(region); });
    return surface_response(window, region, *scene, service->fingerprint(),
                            query.encoding);
}

HttpResponse handle_index(const RouteState& state) {
    std::string body = "{\"scenes\":[";
    bool first = true;
    for (const auto& [name, service] : state.scenes) {
        if (!first) {
            body += ',';
        }
        first = false;
        body += "{\"name\":\"" + json_escape(name) +
                "\",\"tile_nx\":" + std::to_string(service->shape().nx) +
                ",\"tile_ny\":" + std::to_string(service->shape().ny) +
                ",\"fingerprint\":" + std::to_string(service->fingerprint()) + "}";
    }
    body +=
        "],\"endpoints\":[\"/\",\"/healthz\",\"/readyz\",\"/metrics\","
        "\"/tracez\",\"/v1/tile\",\"/v1/window\",\"/v1/pyramid\"]}";
    return HttpResponse::json(200, std::move(body));
}

/// Readiness: serving traffic AND no scene breaker open.  Distinct from
/// /healthz (liveness): a draining or breaker-open process is still alive —
/// take it out of rotation, don't restart it.
HttpResponse handle_readyz(const RouteState& state) {
    if (state.ready != nullptr && state.ready->value() != 1) {
        HttpResponse resp =
            HttpResponse::json(503, "{\"ready\":false,\"reason\":\"draining\"}");
        resp.extra_headers.emplace_back("Retry-After", "1");
        return resp;
    }
    for (const auto& [name, breaker] : state.breakers) {
        if (breaker->state() == fault::CircuitBreaker::State::kOpen) {
            HttpResponse resp = HttpResponse::json(
                503, "{\"ready\":false,\"reason\":\"breaker open: " +
                         json_escape(name) + "\"}");
            const int secs = (breaker->open_remaining_ms() + 999) / 1000;
            resp.extra_headers.emplace_back("Retry-After",
                                            std::to_string(secs > 0 ? secs : 1));
            return resp;
        }
    }
    return HttpResponse::json(200, "{\"ready\":true}");
}

}  // namespace

HttpResponse surface_response(const Array2D<double>& a, const Rect& r,
                              const std::string& scene, std::uint64_t fingerprint,
                              WireEncoding enc) {
    HttpResponse resp = body_response(std::make_shared<const EncodedBody>(encode_body(a, enc)));
    add_surface_headers(resp, r, scene, fingerprint, enc);
    return resp;
}

std::string encode_tile_f32(const Array2D<double>& a) {
    std::string out(a.size() * sizeof(float), '\0');
    encode_f32_into(a.data(), a.size(), out.data());
    return out;
}

std::string encode_tile_f64(const Array2D<double>& a) {
    std::string out(a.size() * sizeof(double), '\0');
    store_le(a.data(), a.size(), out.data());
    return out;
}

QuantizedTile encode_tile_i16(const Array2D<double>& a) {
    QuantizedTile out;
    double lo = 0.0;
    double hi = 0.0;
    if (!a.empty()) {
        lo = hi = a.data()[0];
        for (std::size_t i = 1; i < a.size(); ++i) {
            const double v = a.data()[i];
            lo = v < lo ? v : lo;
            hi = v > hi ? v : hi;
        }
    }
    out.offset = 0.5 * (lo + hi);
    const double half_range = 0.5 * (hi - lo);
    out.scale = half_range > 0.0 ? half_range / 32767.0 : 1.0;
    out.body.assign(a.size() * sizeof(std::int16_t), '\0');
    quantize_i16_into(a.data(), a.size(), out.offset, out.scale, out.body.data());
    return out;
}

std::string tile_etag(std::uint64_t fingerprint, const TileKey& key,
                      std::string_view encoding) {
    // Fold the encoding name and zoom into the salt: same tile, different
    // body bytes ⇒ different ETag, as HTTP strong validators require.
    std::uint64_t salt = 0xE7A6u ^ (static_cast<std::uint64_t>(
                                        static_cast<std::uint32_t>(key.z))
                                    << 16);
    for (const char c : encoding) {
        salt = (salt << 8) ^ static_cast<unsigned char>(c);
    }
    const std::uint64_t h = hash_coords(fingerprint, key.tx, key.ty, salt);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\"%016llx\"",
                  static_cast<unsigned long long>(h));
    return std::string(buf);
}

Router make_tile_router(SceneServices scenes, obs::MetricsRegistry* registry,
                        TileRoutesOptions opt) {
    if (scenes.empty()) {
        throw ConfigError{"make_tile_router requires at least one scene",
                          {"net", "tile_routes"}};
    }
    for (const auto& [name, service] : scenes) {
        if (service == nullptr) {
            throw ConfigError{"scene '" + name + "' has a null service",
                              {"net", "tile_routes"}};
        }
    }
    if (opt.breaker_failures < 0 || opt.breaker_open_ms <= 0 ||
        opt.breaker_half_open_successes <= 0) {
        throw ConfigError{"invalid circuit breaker configuration",
                          {"net", "tile_routes"}};
    }
    RouteState st;
    st.scenes = std::move(scenes);
    st.registry = registry != nullptr ? registry : &obs::MetricsRegistry::global();
    st.opt = opt;
    st.short_circuited = &st.registry->counter("net.breaker.short_circuited");
    st.stale_served = &st.registry->counter("net.stale_served");
    st.not_modified = &st.registry->counter("net.not_modified");
    st.ready = &st.registry->gauge("net.ready");
    if (opt.breaker_failures > 0) {
        obs::Counter& opened = st.registry->counter("net.breaker.opened");
        for (const auto& [name, service] : st.scenes) {
            fault::CircuitBreaker::Options bopt;
            bopt.failure_threshold = opt.breaker_failures;
            bopt.open_ms = opt.breaker_open_ms;
            bopt.half_open_successes = opt.breaker_half_open_successes;
            bopt.state_gauge = &st.registry->gauge("net.breaker.state." + name);
            bopt.opened = &opened;
            st.breakers.emplace(name,
                                std::make_unique<fault::CircuitBreaker>(bopt));
        }
    }
    auto state = std::make_shared<const RouteState>(std::move(st));

    Router router;
    router.add("/healthz",
               [](const HttpRequest&) { return HttpResponse::text(200, "ok\n"); });
    router.add("/readyz",
               [state](const HttpRequest&) { return handle_readyz(*state); });
    router.add("/metrics", [state](const HttpRequest&) {
        return HttpResponse::json(200, state->registry->to_json());
    });
    router.add("/tracez", [](const HttpRequest&) {
        if (!obs::trace_enabled()) {
            throw HttpError{404, "tracing disabled — start the server with tracing on"};
        }
        return HttpResponse::json(200, obs::chrome_trace_json());
    });
    router.add("/", [state](const HttpRequest&) { return handle_index(*state); });
    router.add("/v1/tile", [state](const HttpRequest& req) {
        return handle_tile(*state, req);
    });
    router.add("/v1/window", [state](const HttpRequest& req) {
        return handle_window(*state, req);
    });
    router.add("/v1/pyramid", [state](const HttpRequest& req) {
        return handle_pyramid(*state, req);
    });
    return router;
}

}  // namespace rrs::net
