// Tests for src/net/: HTTP parsing (every negative path is pure and
// socket-free), the router, and the served tile API end-to-end — a real
// HttpServer over a real scene's TileService, driven by net::HttpClient.
//
// The two core acceptance properties of DESIGN.md §12 are asserted here:
//  * a tile fetched over HTTP is bit-identical (after the documented
//    float32 narrowing) to the tile served by TileService directly, and
//  * the metrics accounting identity
//      net.requests == net.status_2xx + net.status_4xx + net.status_5xx
//                      + net.shed
//    holds after a mixed workload including errors and shed connections.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "grid/array2d.hpp"
#include "io/scene.hpp"
#include "net/client.hpp"
#include "net/http.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/tile_routes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/tile_service.hpp"

namespace rrs::net {
namespace {

// ---------------------------------------------------------------- parsing

TEST(HttpParse, SimpleGetRequest) {
    const HttpRequest req = parse_request_head(
        "GET /v1/tile?tx=3&ty=-2&name=a%20b HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "X-Custom:  spaced value \r\n");
    EXPECT_EQ(req.method, "GET");
    EXPECT_EQ(req.path, "/v1/tile");
    EXPECT_EQ(req.version_minor, 1);
    EXPECT_TRUE(req.keep_alive);
    ASSERT_NE(req.query_param("tx"), nullptr);
    EXPECT_EQ(*req.query_param("tx"), "3");
    EXPECT_EQ(*req.query_param("ty"), "-2");
    EXPECT_EQ(*req.query_param("name"), "a b");
    ASSERT_NE(req.header("x-custom"), nullptr);
    EXPECT_EQ(*req.header("x-custom"), "spaced value");
    EXPECT_EQ(req.query_param("absent"), nullptr);
    EXPECT_EQ(req.header("absent"), nullptr);
}

TEST(HttpParse, KeepAliveDefaults) {
    EXPECT_FALSE(parse_request_head("GET / HTTP/1.0\r\n").keep_alive);
    EXPECT_TRUE(parse_request_head(
                    "GET / HTTP/1.0\r\nConnection: keep-alive\r\n")
                    .keep_alive);
    EXPECT_TRUE(parse_request_head("GET / HTTP/1.1\r\n").keep_alive);
    EXPECT_FALSE(
        parse_request_head("GET / HTTP/1.1\r\nConnection: close\r\n").keep_alive);
}

/// Expect an HttpError with a given status from a parse.
template <typename Fn>
void expect_http_error(int status, Fn&& fn) {
    try {
        std::forward<Fn>(fn)();
        FAIL() << "expected HttpError(" << status << ")";
    } catch (const HttpError& e) {
        EXPECT_EQ(e.status(), status) << e.what();
    }
}

TEST(HttpParse, MalformedRequestLinesAre400) {
    expect_http_error(400, [] { parse_request_head("GET /\r\n"); });
    expect_http_error(400, [] { parse_request_head("GET / HTTP/1.1 x\r\n"); });
    expect_http_error(400, [] { parse_request_head("\r\n"); });
    expect_http_error(400, [] { parse_request_head("GET noslash HTTP/1.1\r\n"); });
    expect_http_error(400, [] { parse_request_head("GE T / HTTP/1.1\r\n"); });
    expect_http_error(400, [] { parse_request_head("GET / FTP/1.1\r\n"); });
}

TEST(HttpParse, UnsupportedHttpVersionIs505) {
    expect_http_error(505, [] { parse_request_head("GET / HTTP/2.0\r\n"); });
    expect_http_error(505, [] { parse_request_head("GET / HTTP/0.9\r\n"); });
}

TEST(HttpParse, HeaderLimitsAre431) {
    RequestLimits limits;
    limits.max_headers = 2;
    expect_http_error(431, [&] {
        parse_request_head("GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n", limits);
    });
    RequestLimits tiny;
    tiny.max_header_bytes = 32;
    expect_http_error(431, [&] {
        parse_request_head(
            "GET / HTTP/1.1\r\nX-Long: " + std::string(64, 'x') + "\r\n", tiny);
    });
}

TEST(HttpParse, MalformedHeaderLineIs400) {
    expect_http_error(400, [] {
        parse_request_head("GET / HTTP/1.1\r\nno-colon-here\r\n");
    });
    expect_http_error(400, [] {
        parse_request_head("GET / HTTP/1.1\r\n: empty-name\r\n");
    });
}

TEST(HttpParse, ContentLengthValidation) {
    EXPECT_EQ(parse_request_head("GET / HTTP/1.1\r\n").content_length(), 0u);
    EXPECT_EQ(parse_request_head("GET / HTTP/1.1\r\nContent-Length: 42\r\n")
                  .content_length(),
              42u);
    expect_http_error(400, [] {
        parse_request_head("GET / HTTP/1.1\r\nContent-Length: nope\r\n")
            .content_length();
    });
    expect_http_error(413, [] {
        parse_request_head("GET / HTTP/1.1\r\nContent-Length: "
                           "99999999999999999999999999\r\n")
            .content_length();
    });
}

TEST(HttpParse, ControlBytesInHeadAre400) {
    // Embedded NUL smuggled into the request target.
    expect_http_error(400, [] {
        parse_request_head(std::string_view("GET /\0x HTTP/1.1\r\n", 18));
    });
    // NUL inside a header value.
    expect_http_error(400, [] {
        parse_request_head(
            std::string_view("GET / HTTP/1.1\r\nX-A: a\0b\r\n", 26));
    });
    // Lone CR inside a header value (response-splitting shape): the head
    // splitter consumes well-formed "\r\n" pairs, so a CR still inside a
    // line is an injection attempt.
    expect_http_error(400, [] {
        parse_request_head("GET / HTTP/1.1\r\nX-A: a\rInjected: 1\r\n");
    });
    // Bare-LF line endings: the LF is a control byte inside the "line".
    expect_http_error(400, [] {
        parse_request_head("GET / HTTP/1.1\nHost: x\n");
    });
    // Horizontal tab stays legal inside values.
    const HttpRequest ok = parse_request_head("GET / HTTP/1.1\r\nX-A: a\tb\r\n");
    ASSERT_NE(ok.header("x-a"), nullptr);
    EXPECT_EQ(*ok.header("x-a"), "a\tb");
}

TEST(HttpParse, ContentLengthDigitBoundary) {
    // 18 digits is the longest accepted run (cannot overflow uint64);
    // 19 digits is rejected before std::stoull ever runs.
    EXPECT_EQ(parse_request_head("GET / HTTP/1.1\r\nContent-Length: "
                                 "999999999999999999\r\n")
                  .content_length(),
              999999999999999999u);
    expect_http_error(413, [] {
        parse_request_head("GET / HTTP/1.1\r\nContent-Length: "
                           "9999999999999999999\r\n")
            .content_length();
    });
}

TEST(HttpParse, UrlDecode) {
    EXPECT_EQ(url_decode("a%20b+c"), "a b c");
    EXPECT_EQ(url_decode("%2Fpath%3f"), "/path?");
    expect_http_error(400, [] { url_decode("bad%2"); });
    expect_http_error(400, [] { url_decode("bad%zz"); });
}

TEST(HttpParse, ErrorsAreConfigErrors) {
    // HttpError slots into the taxonomy: catchable as ConfigError (client
    // fault), rrs::Error, and std::invalid_argument.
    const HttpError e{418, "teapot"};
    EXPECT_EQ(e.status(), 418);
    EXPECT_NE(dynamic_cast<const ConfigError*>(&e), nullptr);
    EXPECT_NE(dynamic_cast<const Error*>(&e), nullptr);
    EXPECT_NE(dynamic_cast<const std::invalid_argument*>(&e), nullptr);
    EXPECT_THROW(parse_request_head("junk\r\n"), ConfigError);
}

TEST(HttpSerialize, ResponseWireFormat) {
    HttpResponse r = HttpResponse::text(200, "hello");
    const std::string keep = serialize_response(r, /*keep_alive=*/true);
    EXPECT_EQ(keep.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << keep;
    EXPECT_NE(keep.find("Content-Length: 5\r\n"), std::string::npos);
    EXPECT_NE(keep.find("Connection: keep-alive\r\n"), std::string::npos);
    EXPECT_EQ(keep.substr(keep.size() - 5), "hello");
    const std::string close = serialize_response(r, /*keep_alive=*/false);
    EXPECT_NE(close.find("Connection: close\r\n"), std::string::npos);
}

TEST(HttpSerialize, JsonEscape) {
    EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

// ------------------------------------------------- client response parsing

TEST(ClientParse, ResponseHeadParses) {
    const ClientResponse r = parse_response_head(
        "HTTP/1.1 503 Service Unavailable\r\n"
        "Retry-After: 2\r\n"
        "Content-Length: 0\r\n");
    EXPECT_EQ(r.status, 503);
    ASSERT_NE(r.header("retry-after"), nullptr);
    EXPECT_EQ(*r.header("retry-after"), "2");
    EXPECT_FALSE(r.ok());
}

TEST(ClientParse, MalformedResponseHeadIsIoError) {
    // Server bytes are untrusted input too: every malformed shape must
    // surface as IoError, never as an escape from the taxonomy.
    EXPECT_THROW(parse_response_head("ICY 200 OK\r\n"), IoError);
    EXPECT_THROW(parse_response_head("HTTP/1.1 20x OK\r\n"), IoError);
    EXPECT_THROW(parse_response_head("HTTP/1.1\r\n"), IoError);
    EXPECT_THROW(parse_response_head(""), IoError);
    EXPECT_THROW(parse_response_head("HTTP/1.1 200 OK\r\nno-colon\r\n"),
                 IoError);
    EXPECT_THROW(parse_response_head("HTTP/1.1 200 OK\r\n: empty\r\n"),
                 IoError);
}

TEST(ClientParse, ControlBytesInResponseHeadAreIoError) {
    EXPECT_THROW(parse_response_head(
                     std::string_view("HTTP/1.1 200 OK\r\nX: a\0b\r\n", 25)),
                 IoError);
    EXPECT_THROW(parse_response_head("HTTP/1.1 200 OK\r\nX: a\rb\r\n"), IoError);
    EXPECT_THROW(parse_response_head(
                     std::string_view("HTTP/1.1 200\0OK\r\n", 17)),
                 IoError);
}

// ----------------------------------------------------------------- router

TEST(RouterTest, DispatchAndErrors) {
    Router router;
    router.add("/ping", [](const HttpRequest&) {
        return HttpResponse::text(200, "pong");
    });
    EXPECT_THROW(router.add("/ping", [](const HttpRequest&) {
        return HttpResponse{};
    }),
                 StateError);
    EXPECT_THROW(router.add("no-slash", [](const HttpRequest&) {
        return HttpResponse{};
    }),
                 ConfigError);
    HttpRequest req;
    req.path = "/ping";
    EXPECT_EQ(router.dispatch(req).body(), "pong");
    req.path = "/absent";
    expect_http_error(404, [&] { router.dispatch(req); });
}

// ------------------------------------------------------------- end-to-end

constexpr const char* kTestScene = R"(seed = 11
kernel_grid = 64 64
region = 0 0 64 64
tail_eps = 1e-6

[spectrum field]
family = gaussian
h = 1.0
cl = 6

[spectrum pond]
family = exponential
h = 0.3
cl = 6

[map]
type = circle
center = 0 0
radius = 40
transition = 12
inside = pond
outside = field
)";

std::shared_ptr<TileService> make_scene_service(std::int64_t tile = 32) {
    const Scene scene = parse_scene_text(kTestScene);
    auto gen = std::make_shared<InhomogeneousGenerator>(make_scene_generator(scene));
    TileService::Options opt;
    opt.shape = TileShape{tile, tile};
    opt.cache_bytes = std::size_t{16} << 20;
    return TileService::owning(std::move(gen), opt);
}

/// Decode the wire format (little-endian float32, row-major).
std::vector<float> decode_f32(std::string_view body) {
    EXPECT_EQ(body.size() % 4, 0u);
    std::vector<float> out(body.size() / 4);
    for (std::size_t i = 0; i < out.size(); ++i) {
        const auto* p = reinterpret_cast<const unsigned char*>(body.data()) + i * 4;
        const std::uint32_t bits = static_cast<std::uint32_t>(p[0]) |
                                   (static_cast<std::uint32_t>(p[1]) << 8) |
                                   (static_cast<std::uint32_t>(p[2]) << 16) |
                                   (static_cast<std::uint32_t>(p[3]) << 24);
        std::memcpy(&out[i], &bits, sizeof(float));
    }
    return out;
}

/// One running server over the test scene with a private registry.
class TileServerTest : public ::testing::Test {
protected:
    void SetUp() override {
        service_ = make_scene_service();
        SceneServices scenes;
        scenes.emplace("scene", service_);
        HttpServer::Options opt;
        opt.workers = 4;
        opt.registry = &registry_;
        server_ = std::make_unique<HttpServer>(
            make_tile_router(std::move(scenes), &registry_), opt);
        server_->start();
    }

    void TearDown() override { server_->stop(); }

    std::uint64_t counter(const char* name) {
        return registry_.counter(name).value();
    }

    /// requests == 2xx + 4xx + 5xx + shed must hold at any quiescent point.
    void expect_accounting_identity() {
        EXPECT_EQ(counter("net.requests"),
                  counter("net.status_2xx") + counter("net.status_4xx") +
                      counter("net.status_5xx") + counter("net.shed"));
    }

    obs::MetricsRegistry registry_;
    std::shared_ptr<TileService> service_;
    std::unique_ptr<HttpServer> server_;
};

TEST_F(TileServerTest, HealthzAndIndex) {
    HttpClient client("127.0.0.1", server_->port());
    const ClientResponse health = client.get("/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(health.body, "ok\n");
    const ClientResponse index = client.get("/");
    EXPECT_EQ(index.status, 200);
    EXPECT_NE(index.body.find("\"scenes\""), std::string::npos);
    EXPECT_NE(index.body.find("\"scene\""), std::string::npos);
}

TEST_F(TileServerTest, ServedTileIsBitIdenticalToDirectService) {
    HttpClient client("127.0.0.1", server_->port());
    const ClientResponse resp = client.get("/v1/tile?scene=scene&tx=0&ty=1");
    ASSERT_EQ(resp.status, 200) << resp.body;
    ASSERT_NE(resp.header("x-rrs-nx"), nullptr);
    EXPECT_EQ(*resp.header("x-rrs-nx"), "32");
    EXPECT_EQ(*resp.header("x-rrs-ny"), "32");
    EXPECT_EQ(*resp.header("x-rrs-y0"), "32");
    EXPECT_EQ(*resp.header("x-rrs-fingerprint"),
              std::to_string(service_->fingerprint()));

    const std::vector<float> wire = decode_f32(resp.body);
    const TilePtr direct = service_->get(TileKey{0, 1});
    ASSERT_EQ(wire.size(), direct->size());
    for (std::size_t iy = 0; iy < direct->ny(); ++iy) {
        for (std::size_t ix = 0; ix < direct->nx(); ++ix) {
            const auto expected = static_cast<float>((*direct)(ix, iy));
            ASSERT_EQ(wire[iy * direct->nx() + ix], expected)
                << "mismatch at (" << ix << "," << iy << ")";
        }
    }
}

TEST_F(TileServerTest, CachedOnlyServesWarmTilesAndNeverGenerates) {
    HttpClient client("127.0.0.1", server_->port());
    // cached=1 is the cluster peer-fill protocol (DESIGN.md §17): a cold
    // tile is 404, never a generation.
    const ClientResponse cold = client.get("/v1/tile?tx=2&ty=2&cached=1");
    EXPECT_EQ(cold.status, 404);
    EXPECT_NE(cold.body.find("tile not cached"), std::string::npos);
    EXPECT_EQ(service_->metrics().generations, 0u);

    // Warm it through the normal path, then the peek must serve the exact
    // bytes the generating request served — ETag included.
    const ClientResponse warm = client.get("/v1/tile?tx=2&ty=2&q=f64");
    ASSERT_EQ(warm.status, 200);
    const ClientResponse peeked = client.get("/v1/tile?tx=2&ty=2&q=f64&cached=1");
    ASSERT_EQ(peeked.status, 200);
    EXPECT_EQ(peeked.body, warm.body);
    ASSERT_NE(peeked.header("etag"), nullptr);
    EXPECT_EQ(*peeked.header("etag"), *warm.header("etag"));
    EXPECT_EQ(service_->metrics().generations, 1u);

    // cached takes only 0 or 1.
    EXPECT_EQ(client.get("/v1/tile?tx=2&ty=2&cached=2").status, 400);
    EXPECT_EQ(client.get("/v1/tile?tx=2&ty=2&cached=0").status, 200);
}

TEST_F(TileServerTest, WindowMatchesDirectWindow) {
    HttpClient client("127.0.0.1", server_->port());
    // Straddles four tiles and negative coordinates.
    const ClientResponse resp =
        client.get("/v1/window?x0=-5&y0=-7&nx=40&ny=20");
    ASSERT_EQ(resp.status, 200) << resp.body;
    const std::vector<float> wire = decode_f32(resp.body);
    const Array2D<double> direct = service_->window(Rect{-5, -7, 40, 20});
    ASSERT_EQ(wire.size(), direct.size());
    for (std::size_t i = 0; i < wire.size(); ++i) {
        ASSERT_EQ(wire[i], static_cast<float>(direct.data()[i])) << "at " << i;
    }
}

TEST_F(TileServerTest, SceneResolutionDefaultsAndFailures) {
    HttpClient client("127.0.0.1", server_->port());
    // Single registered scene: the parameter is optional.
    EXPECT_EQ(client.get("/v1/tile?tx=0&ty=0").status, 200);
    const ClientResponse unknown = client.get("/v1/tile?scene=nope&tx=0&ty=0");
    EXPECT_EQ(unknown.status, 404);
    EXPECT_NE(unknown.body.find("unknown scene"), std::string::npos);
}

TEST_F(TileServerTest, ParameterErrorsAre400) {
    HttpClient client("127.0.0.1", server_->port());
    EXPECT_EQ(client.get("/v1/tile?tx=0").status, 400);           // missing ty
    EXPECT_EQ(client.get("/v1/tile?tx=zero&ty=0").status, 400);   // not an int
    EXPECT_EQ(client.get("/v1/window?x0=0&y0=0&nx=-1&ny=4").status, 400);
    const ClientResponse missing = client.get("/v1/nope");
    EXPECT_EQ(missing.status, 404);
    EXPECT_NE(missing.body.find("no route"), std::string::npos);
}

TEST_F(TileServerTest, MetricsEndpointAndAccountingIdentity) {
    HttpClient client("127.0.0.1", server_->port());
    // Mixed workload: successes and client errors.
    EXPECT_EQ(client.get("/healthz").status, 200);
    EXPECT_EQ(client.get("/v1/tile?tx=0&ty=0").status, 200);
    EXPECT_EQ(client.get("/v1/tile?tx=bad&ty=0").status, 400);
    EXPECT_EQ(client.get("/absent").status, 404);

    const ClientResponse metrics = client.get("/metrics");
    ASSERT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("\"net.requests\""), std::string::npos);
    EXPECT_NE(metrics.body.find("\"net.latency\""), std::string::npos);

    EXPECT_EQ(counter("net.status_2xx"), 3u);  // healthz, tile, metrics
    EXPECT_EQ(counter("net.status_4xx"), 2u);
    EXPECT_GE(counter("net.bytes_out"), 1u);
    expect_accounting_identity();
}

TEST_F(TileServerTest, KeepAliveReusesOneConnection) {
    HttpClient client("127.0.0.1", server_->port());
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(client.get("/healthz").status, 200);
    }
    EXPECT_TRUE(client.connected());
    EXPECT_EQ(counter("net.accepted"), 1u);
    EXPECT_EQ(counter("net.requests"), 3u);
}

TEST_F(TileServerTest, OversizedWindowIs413) {
    SceneServices scenes;
    scenes.emplace("scene", service_);
    TileRoutesOptions ropt;
    ropt.max_window_points = 100;
    obs::MetricsRegistry registry;
    HttpServer::Options opt;
    opt.registry = &registry;
    HttpServer capped(make_tile_router(std::move(scenes), &registry, ropt), opt);
    capped.start();
    HttpClient client("127.0.0.1", capped.port());
    EXPECT_EQ(client.get("/v1/window?x0=0&y0=0&nx=10&ny=10").status, 200);
    const ClientResponse big = client.get("/v1/window?x0=0&y0=0&nx=11&ny=10");
    EXPECT_EQ(big.status, 413);
    EXPECT_NE(big.body.find("exceeds the cap"), std::string::npos);
    capped.stop();
}

TEST_F(TileServerTest, TracezRequiresTracing) {
    HttpClient client("127.0.0.1", server_->port());
    obs::trace_disable();
    EXPECT_EQ(client.get("/tracez").status, 404);
    obs::trace_reset();
    obs::trace_enable();
    EXPECT_EQ(client.get("/healthz").status, 200);  // records net.* spans
    const ClientResponse trace = client.get("/tracez");
    obs::trace_disable();
    ASSERT_EQ(trace.status, 200);
    EXPECT_NE(trace.body.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.body.find("net.handle"), std::string::npos);
}

TEST_F(TileServerTest, ClientSurvivesIdleTimeoutClose) {
    // A keep-alive connection the server idle-times-out must be
    // transparently re-dialled by the client on the next get().
    SceneServices scenes;
    scenes.emplace("scene", service_);
    obs::MetricsRegistry registry;
    HttpServer::Options opt;
    opt.registry = &registry;
    opt.read_timeout_ms = 100;
    HttpServer server(make_tile_router(std::move(scenes), &registry), opt);
    server.start();
    HttpClient client("127.0.0.1", server.port());
    EXPECT_EQ(client.get("/healthz").status, 200);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_EQ(client.get("/healthz").status, 200);
    EXPECT_EQ(registry.counter("net.accepted").value(), 2u);
    server.stop();
}

// ------------------------------------------------- raw-socket wire tests

/// Send raw bytes, optionally half-close the write side, read to EOF/deadline.
std::string raw_exchange(std::uint16_t port, std::string_view bytes,
                         bool half_close, int timeout_ms = 3000) {
    Socket s = connect_tcp("127.0.0.1", port, timeout_ms);
    set_recv_timeout(s, timeout_ms);
    EXPECT_TRUE(send_all(s, bytes.data(), bytes.size()));
    if (half_close) {
        ::shutdown(s.fd(), SHUT_WR);
    }
    std::string out;
    char buf[4096];
    for (;;) {
        const RecvResult r = recv_some(s, buf, sizeof buf);
        if (r.n > 0) {
            out.append(buf, r.n);
            continue;
        }
        break;  // closed or timed out
    }
    return out;
}

TEST_F(TileServerTest, TruncatedRequestLineIs400) {
    const std::string resp =
        raw_exchange(server_->port(), "GET /healthz HTT", /*half_close=*/true);
    EXPECT_EQ(resp.rfind("HTTP/1.1 400 ", 0), 0u) << resp;
    EXPECT_NE(resp.find("truncated request"), std::string::npos);
    EXPECT_EQ(counter("net.status_4xx"), 1u);
    expect_accounting_identity();
}

TEST_F(TileServerTest, BadMethodTokenIs400) {
    const std::string resp = raw_exchange(
        server_->port(), "GE T /healthz HTTP/1.1\r\n\r\n", /*half_close=*/false);
    EXPECT_EQ(resp.rfind("HTTP/1.1 400 ", 0), 0u) << resp;
}

TEST_F(TileServerTest, UnsupportedVersionIs505) {
    const std::string resp = raw_exchange(
        server_->port(), "GET /healthz HTTP/2.0\r\n\r\n", /*half_close=*/false);
    EXPECT_EQ(resp.rfind("HTTP/1.1 505 ", 0), 0u) << resp;
}

TEST_F(TileServerTest, OversizedHeaderIs431) {
    std::string huge = "GET / HTTP/1.1\r\nX-Big: ";
    huge += std::string(server_->options().max_header_bytes, 'x');
    const std::string resp =
        raw_exchange(server_->port(), huge, /*half_close=*/false);
    EXPECT_EQ(resp.rfind("HTTP/1.1 431 ", 0), 0u) << resp;
    expect_accounting_identity();
}

TEST_F(TileServerTest, SlowLorisIs408) {
    SceneServices scenes;
    scenes.emplace("scene", service_);
    obs::MetricsRegistry registry;
    HttpServer::Options opt;
    opt.registry = &registry;
    opt.read_timeout_ms = 150;  // the slow-loris bound under test
    HttpServer server(make_tile_router(std::move(scenes), &registry), opt);
    server.start();
    // Send a partial head, then stall past the read deadline.
    const std::string resp = raw_exchange(server.port(), "GET /healthz HTTP/1.",
                                          /*half_close=*/false,
                                          /*timeout_ms=*/3000);
    EXPECT_EQ(resp.rfind("HTTP/1.1 408 ", 0), 0u) << resp;
    EXPECT_EQ(registry.counter("net.status_4xx").value(), 1u);
    server.stop();
}

// -------------------------------------------------- shedding and drain

TEST(TileServerAdmission, ConnectionCapSheds503) {
    Router router;
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::atomic<int> entered{0};
    router.add("/slow", [gate, &entered](const HttpRequest&) {
        entered.fetch_add(1, std::memory_order_acq_rel);
        gate.wait();
        return HttpResponse::text(200, "done");
    });
    obs::MetricsRegistry registry;
    HttpServer::Options opt;
    opt.workers = 1;
    opt.max_connections = 1;
    opt.registry = &registry;
    HttpServer server(std::move(router), opt);
    server.start();

    std::thread holder([&] {
        HttpClient client("127.0.0.1", server.port());
        const ClientResponse resp = client.get("/slow");
        EXPECT_EQ(resp.status, 200);
        EXPECT_EQ(resp.body, "done");
    });
    while (entered.load(std::memory_order_acquire) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // The admission gate is full: an extra connection is answered 503
    // immediately — it never waits for the busy worker.
    HttpClient extra("127.0.0.1", server.port());
    const ClientResponse shed = extra.get("/healthz");
    EXPECT_EQ(shed.status, 503);
    ASSERT_NE(shed.header("retry-after"), nullptr);
    EXPECT_EQ(*shed.header("retry-after"), "1");

    release.set_value();
    holder.join();
    server.stop();
    EXPECT_EQ(registry.counter("net.shed").value(), 1u);
    EXPECT_EQ(registry.counter("net.requests").value(),
              registry.counter("net.status_2xx").value() +
                  registry.counter("net.status_4xx").value() +
                  registry.counter("net.status_5xx").value() +
                  registry.counter("net.shed").value());
}

TEST(TileServerDrain, GracefulStopFinishesInFlightRequests) {
    Router router;
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::atomic<int> entered{0};
    router.add("/slow", [gate, &entered](const HttpRequest&) {
        entered.fetch_add(1, std::memory_order_acq_rel);
        gate.wait();
        return HttpResponse::text(200, "finished");
    });
    obs::MetricsRegistry registry;
    HttpServer::Options opt;
    opt.workers = 2;
    opt.registry = &registry;
    HttpServer server(std::move(router), opt);
    server.start();
    const std::uint16_t port = server.port();

    std::thread requester([&] {
        HttpClient client("127.0.0.1", port);
        const ClientResponse resp = client.get("/slow");
        EXPECT_EQ(resp.status, 200);
        EXPECT_EQ(resp.body, "finished");
        // Drain answers with Connection: close.
        ASSERT_NE(resp.header("connection"), nullptr);
        EXPECT_EQ(*resp.header("connection"), "close");
    });
    while (entered.load(std::memory_order_acquire) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    std::atomic<bool> stop_returned{false};
    std::thread stopper([&] {
        server.stop();
        stop_returned.store(true, std::memory_order_release);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // stop() must wait for the in-flight request, not abandon it.
    EXPECT_FALSE(stop_returned.load(std::memory_order_acquire));

    release.set_value();
    stopper.join();
    EXPECT_TRUE(stop_returned.load(std::memory_order_acquire));
    requester.join();

    // Fully drained: new connections are refused.
    EXPECT_THROW(connect_tcp("127.0.0.1", port, 500), IoError);
    EXPECT_EQ(registry.counter("net.status_2xx").value(), 1u);
    EXPECT_EQ(registry.gauge("net.active").value(), 0);
}

TEST(TileServerLifecycle, StartStopStateMachine) {
    Router router;
    router.add("/", [](const HttpRequest&) { return HttpResponse::text(200, "x"); });
    obs::MetricsRegistry registry;
    HttpServer::Options opt;
    opt.registry = &registry;
    HttpServer server(std::move(router), opt);
    EXPECT_FALSE(server.running());
    server.start();
    EXPECT_TRUE(server.running());
    EXPECT_THROW(server.start(), StateError);
    server.stop();
    server.stop();  // idempotent
    EXPECT_FALSE(server.running());
}

// ------------------------------------------------- client resilience

/// Scripted raw server: accepts one connection per script entry, reads the
/// request head, answers with the exact scripted bytes, and closes the
/// connection — the tool for dissecting how HttpClient handles truncation
/// and retryable failures without a cooperating HttpServer.
void run_scripted_server(const Socket& listener,
                         const std::vector<std::string>& scripts) {
    for (const std::string& script : scripts) {
        Socket conn = accept_with_timeout(listener, 5000);
        if (!conn.valid()) {
            ADD_FAILURE() << "scripted server: accept timed out";
            return;
        }
        char buf[1024];
        (void)recv_some(conn, buf, sizeof buf);
        EXPECT_TRUE(send_all(conn, script.data(), script.size()));
    }  // each conn closes on scope exit — mid-body for truncated scripts
}

TEST(HttpClientTruncation, MidBodyCloseIsIoErrorAndPoisonedConnIsNotReused) {
    Socket listener = listen_tcp("127.0.0.1", 0);
    const std::uint16_t port = local_port(listener);
    std::thread server(run_scripted_server, std::cref(listener),
                       std::vector<std::string>{
                           "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
                           "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
                       });

    HttpClient client("127.0.0.1", port);
    // The peer closes after 3 of 10 promised body bytes: that must be an
    // IoError, never a silently short body.
    EXPECT_THROW(client.get("/x"), IoError);
    // The poisoned keep-alive socket must not be reused for the next
    // request — the client reconnects and succeeds on a fresh connection.
    EXPECT_FALSE(client.connected());
    const ClientResponse resp = client.get("/x");
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body, "ok");
    server.join();
}

TEST(HttpClientRetry, RetryRecoversFromTruncatedResponse) {
    Socket listener = listen_tcp("127.0.0.1", 0);
    const std::uint16_t port = local_port(listener);
    std::thread server(run_scripted_server, std::cref(listener),
                       std::vector<std::string>{
                           "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
                           "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
                       });

    obs::MetricsRegistry registry;
    HttpClient::Options copt;
    copt.retry.max_attempts = 3;
    copt.retry.base_backoff_ms = 1;
    copt.retry.max_backoff_ms = 5;
    copt.registry = &registry;
    HttpClient client("127.0.0.1", port, copt);
    const ClientResponse resp = client.get("/x");
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body, "ok");
    EXPECT_EQ(registry.counter("net.client.retries").value(), 1u);
    server.join();
}

TEST(HttpClientRetry, RetryAfterHintedServiceUnavailableIsRetried) {
    Socket listener = listen_tcp("127.0.0.1", 0);
    const std::uint16_t port = local_port(listener);
    std::thread server(
        run_scripted_server, std::cref(listener),
        std::vector<std::string>{
            "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n"
            "Retry-After: 0\r\n\r\n",
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
        });

    obs::MetricsRegistry registry;
    HttpClient::Options copt;
    copt.retry.max_attempts = 2;
    copt.registry = &registry;
    HttpClient client("127.0.0.1", port, copt);
    const ClientResponse resp = client.get("/x");
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body, "ok");
    EXPECT_EQ(registry.counter("net.client.retries").value(), 1u);
    server.join();
}

TEST(HttpClientRetry, ExhaustedAttemptsSurfaceTheFinalStatus) {
    Socket listener = listen_tcp("127.0.0.1", 0);
    const std::uint16_t port = local_port(listener);
    std::thread server(
        run_scripted_server, std::cref(listener),
        std::vector<std::string>{
            "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n"
            "Retry-After: 0\r\n\r\n",
            "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n"
            "Retry-After: 0\r\n\r\n",
        });

    HttpClient::Options copt;
    copt.retry.max_attempts = 2;
    HttpClient client("127.0.0.1", port, copt);
    // Both attempts answer 503: the client returns the response rather than
    // inventing an exception — a non-2xx *response* is data, not an error.
    EXPECT_EQ(client.get("/x").status, 503);
    server.join();
}

TEST(HttpClientRetry, DeadlineBudgetExhaustionThrowsDeadlineError) {
    // Grab an ephemeral port, then close the listener: connections to it are
    // refused fast, so every attempt fails and only the deadline can stop
    // the retry loop.
    std::uint16_t port = 0;
    {
        const Socket listener = listen_tcp("127.0.0.1", 0);
        port = local_port(listener);
    }

    obs::MetricsRegistry registry;
    HttpClient::Options copt;
    copt.timeout_ms = 500;
    copt.retry.max_attempts = 50;
    copt.retry.base_backoff_ms = 20;
    copt.retry.max_backoff_ms = 40;
    copt.retry.deadline_ms = 100;
    copt.registry = &registry;
    HttpClient client("127.0.0.1", port, copt);
    EXPECT_THROW(client.get("/x"), DeadlineError);
    EXPECT_EQ(registry.counter("net.client.deadline_exhausted").value(), 1u);
    // Far fewer than 50 attempts ran: the budget cut the loop short.
    EXPECT_LT(registry.counter("net.client.retries").value(), 49u);
}

TEST(TileServiceOwning, KeepsGeneratorAliveAndRejectsNull) {
    std::shared_ptr<TileService> service;
    {
        const Scene scene = parse_scene_text(kTestScene);
        auto gen =
            std::make_shared<InhomogeneousGenerator>(make_scene_generator(scene));
        service = TileService::owning(gen, TileService::Options{});
        // The caller's reference goes away; the service keeps the generator.
    }
    const TilePtr tile = service->get(TileKey{0, 0});
    EXPECT_EQ(tile->nx(), 256u);
    EXPECT_THROW(TileService::owning(std::shared_ptr<InhomogeneousGenerator>{}),
                 ConfigError);
}

// ------------------------------------------------ conditional GET & encodings

/// Decode the f64 exactness escape hatch (little-endian float64, row-major).
std::vector<double> decode_f64(std::string_view body) {
    EXPECT_EQ(body.size() % 8, 0u);
    std::vector<double> out(body.size() / 8);
    for (std::size_t i = 0; i < out.size(); ++i) {
        const auto* p = reinterpret_cast<const unsigned char*>(body.data()) + i * 8;
        std::uint64_t bits = 0;
        for (int b = 7; b >= 0; --b) {
            bits = (bits << 8) | p[b];
        }
        std::memcpy(&out[i], &bits, sizeof(double));
    }
    return out;
}

/// Decode the i16 quantized body (little-endian int16, row-major).
std::vector<std::int16_t> decode_i16(std::string_view body) {
    EXPECT_EQ(body.size() % 2, 0u);
    std::vector<std::int16_t> out(body.size() / 2);
    for (std::size_t i = 0; i < out.size(); ++i) {
        const auto* p = reinterpret_cast<const unsigned char*>(body.data()) + i * 2;
        const auto bits = static_cast<std::uint16_t>(
            static_cast<std::uint16_t>(p[0]) |
            (static_cast<std::uint16_t>(p[1]) << 8));
        std::memcpy(&out[i], &bits, sizeof(std::int16_t));
    }
    return out;
}

TEST_F(TileServerTest, ConditionalGetAnswers304ForMatchingETag) {
    HttpClient client("127.0.0.1", server_->port());
    const ClientResponse first = client.get("/v1/tile?tx=0&ty=0");
    ASSERT_EQ(first.status, 200);
    const std::string* etag = first.header("etag");
    ASSERT_NE(etag, nullptr);
    EXPECT_EQ(etag->front(), '"');
    EXPECT_EQ(etag->back(), '"');

    // A matching validator short-circuits to 304 with no body.
    const ClientResponse cond =
        client.get("/v1/tile?tx=0&ty=0", {{"If-None-Match", *etag}});
    EXPECT_EQ(cond.status, 304);
    EXPECT_TRUE(cond.body.empty());
    ASSERT_NE(cond.header("etag"), nullptr);
    EXPECT_EQ(*cond.header("etag"), *etag);
    EXPECT_EQ(counter("net.not_modified"), 1u);

    // Comma lists and `*` match; weak validators and strangers do not.
    EXPECT_EQ(client
                  .get("/v1/tile?tx=0&ty=0",
                       {{"If-None-Match", "\"deadbeef\", " + *etag}})
                  .status,
              304);
    EXPECT_EQ(client.get("/v1/tile?tx=0&ty=0", {{"If-None-Match", "*"}}).status,
              304);
    EXPECT_EQ(client
                  .get("/v1/tile?tx=0&ty=0", {{"If-None-Match", "W/" + *etag}})
                  .status,
              200);
    EXPECT_EQ(client
                  .get("/v1/tile?tx=0&ty=0", {{"If-None-Match", "\"deadbeef\""}})
                  .status,
              200);
    expect_accounting_identity();
}

TEST_F(TileServerTest, ETagIsAPureFunctionOfAddressAndEncoding) {
    HttpClient client("127.0.0.1", server_->port());
    auto etag_of = [&](const std::string& target) {
        const ClientResponse resp = client.get(target);
        EXPECT_EQ(resp.status, 200) << target << ": " << resp.body;
        const std::string* e = resp.header("etag");
        return e == nullptr ? std::string{} : *e;
    };
    const std::string base = etag_of("/v1/tile?tx=0&ty=0");
    // Stable across repeated requests (a strong validator must be).
    EXPECT_EQ(etag_of("/v1/tile?tx=0&ty=0"), base);
    // ... and distinct across tile, zoom, and encoding.
    EXPECT_NE(etag_of("/v1/tile?tx=1&ty=0"), base);
    EXPECT_NE(etag_of("/v1/tile?tx=0&ty=0&z=1"), base);
    EXPECT_NE(etag_of("/v1/tile?tx=0&ty=0&q=f64"), base);
}

TEST_F(TileServerTest, ZoomedTileOverHttpMatchesDirectService) {
    HttpClient client("127.0.0.1", server_->port());
    const ClientResponse resp = client.get("/v1/tile?tx=0&ty=0&z=1");
    ASSERT_EQ(resp.status, 200) << resp.body;
    ASSERT_NE(resp.header("x-rrs-nx"), nullptr);
    EXPECT_EQ(*resp.header("x-rrs-nx"), "32");
    const std::vector<float> wire = decode_f32(resp.body);
    const TilePtr direct = service_->get(TileKey{0, 0, 1});
    ASSERT_EQ(wire.size(), direct->size());
    for (std::size_t i = 0; i < wire.size(); ++i) {
        ASSERT_EQ(wire[i], static_cast<float>(direct->data()[i])) << "at " << i;
    }
    // Out-of-range zoom is a client error, not a crash.
    EXPECT_EQ(client.get("/v1/tile?tx=0&ty=0&z=-1").status, 400);
    EXPECT_EQ(client.get("/v1/tile?tx=0&ty=0&z=25").status, 400);
    EXPECT_EQ(client.get("/v1/tile?tx=0&ty=0&z=abc").status, 400);
}

TEST_F(TileServerTest, QuantizedI16BodyReconstructsWithinHalfAStep) {
    HttpClient client("127.0.0.1", server_->port());
    const ClientResponse resp = client.get("/v1/tile?tx=0&ty=0&q=i16");
    ASSERT_EQ(resp.status, 200) << resp.body;
    ASSERT_NE(resp.header("x-rrs-encoding"), nullptr);
    EXPECT_EQ(*resp.header("x-rrs-encoding"), "i16");
    ASSERT_NE(resp.header("x-rrs-scale"), nullptr);
    ASSERT_NE(resp.header("x-rrs-offset"), nullptr);
    const double scale = std::stod(*resp.header("x-rrs-scale"));
    const double offset = std::stod(*resp.header("x-rrs-offset"));
    ASSERT_GT(scale, 0.0);

    const std::vector<std::int16_t> wire = decode_i16(resp.body);
    const TilePtr direct = service_->get(TileKey{0, 0});
    ASSERT_EQ(wire.size(), direct->size());
    for (std::size_t i = 0; i < wire.size(); ++i) {
        const double rebuilt = offset + scale * static_cast<double>(wire[i]);
        ASSERT_NEAR(rebuilt, direct->data()[i], scale * 0.5 + 1e-12)
            << "at " << i;
    }
    // Half the bytes of the default f32 body.
    const ClientResponse f32 = client.get("/v1/tile?tx=0&ty=0");
    EXPECT_EQ(resp.body.size() * 2, f32.body.size());
    // Unknown encodings are client errors.
    EXPECT_EQ(client.get("/v1/tile?tx=0&ty=0&q=f16").status, 400);
}

TEST_F(TileServerTest, Float64EscapeHatchIsBitExact) {
    HttpClient client("127.0.0.1", server_->port());
    const ClientResponse resp = client.get("/v1/tile?tx=0&ty=0&q=f64");
    ASSERT_EQ(resp.status, 200) << resp.body;
    EXPECT_EQ(*resp.header("x-rrs-encoding"), "f64");
    const std::vector<double> wire = decode_f64(resp.body);
    const TilePtr direct = service_->get(TileKey{0, 0});
    ASSERT_EQ(wire.size(), direct->size());
    for (std::size_t i = 0; i < wire.size(); ++i) {
        ASSERT_EQ(wire[i], direct->data()[i]) << "f64 must be exact, at " << i;
    }
}

TEST_F(TileServerTest, PyramidConcatenatesLevelsTopFirst) {
    HttpClient client("127.0.0.1", server_->port());
    const ClientResponse resp = client.get("/v1/pyramid?tx=0&ty=0&z=1");
    ASSERT_EQ(resp.status, 200) << resp.body;
    ASSERT_NE(resp.header("x-rrs-tiles"), nullptr);
    EXPECT_EQ(*resp.header("x-rrs-tiles"), "5");
    EXPECT_EQ(*resp.header("x-rrs-zoom"), "1");
    EXPECT_EQ(*resp.header("x-rrs-minzoom"), "0");
    const std::size_t tile_floats = 32 * 32;
    ASSERT_EQ(resp.body.size(), 5 * tile_floats * 4);
    const std::vector<float> wire = decode_f32(resp.body);
    // The first tile is the top (coarse) level; the rest are its children
    // in the same level-order walk pyramid() documents.
    const TilePtr top = service_->get(TileKey{0, 0, 1});
    for (std::size_t i = 0; i < tile_floats; ++i) {
        ASSERT_EQ(wire[i], static_cast<float>(top->data()[i])) << "at " << i;
    }
    const auto direct = service_->pyramid(TileKey{0, 0, 1}, 0);
    ASSERT_EQ(direct.size(), 5u);
    for (std::size_t t = 0; t < direct.size(); ++t) {
        for (std::size_t i = 0; i < tile_floats; ++i) {
            ASSERT_EQ(wire[t * tile_floats + i],
                      static_cast<float>(direct[t].second->data()[i]))
                << "tile " << t << " sample " << i;
        }
    }
    // Quantization is per-tile, so i16 cannot describe a pyramid body.
    EXPECT_EQ(client.get("/v1/pyramid?tx=0&ty=0&z=1&q=i16").status, 400);
    // min_z above the top zoom is malformed.
    EXPECT_EQ(client.get("/v1/pyramid?tx=0&ty=0&z=1&min_z=2").status, 400);
    expect_accounting_identity();
}

TEST_F(TileServerTest, PyramidF64IsTheTilesConcatenated) {
    HttpClient client("127.0.0.1", server_->port());
    const ClientResponse resp = client.get("/v1/pyramid?tx=0&ty=0&z=1&q=f64");
    ASSERT_EQ(resp.status, 200) << resp.body;
    std::string expect;
    for (const auto& [key, tile] : service_->pyramid(TileKey{0, 0, 1}, 0)) {
        expect += encode_tile_f64(*tile);
    }
    EXPECT_EQ(resp.body, expect);
}

// ------------------------------------------- wire encoders vs byte oracle

// The byte-at-a-time encoders the word-wise ones replaced, kept as the
// oracle: explicit little-endian bytes, whatever the host.
std::string oracle_f32(const Array2D<double>& a) {
    std::string out(a.size() * 4, '\0');
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto f = static_cast<float>(a.data()[i]);
        std::uint32_t bits = 0;
        std::memcpy(&bits, &f, sizeof(bits));
        for (std::size_t b = 0; b < 4; ++b) {
            out[i * 4 + b] = static_cast<char>((bits >> (8 * b)) & 0xffu);
        }
    }
    return out;
}

std::string oracle_f64(const Array2D<double>& a) {
    std::string out(a.size() * 8, '\0');
    for (std::size_t i = 0; i < a.size(); ++i) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &a.data()[i], sizeof(bits));
        for (std::size_t b = 0; b < 8; ++b) {
            out[i * 8 + b] = static_cast<char>((bits >> (8 * b)) & 0xffu);
        }
    }
    return out;
}

QuantizedTile oracle_i16(const Array2D<double>& a) {
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
    out.body.resize(a.size() * 2);
    const double inv_scale = 1.0 / out.scale;
    for (std::size_t i = 0; i < a.size(); ++i) {
        double q = (a.data()[i] - out.offset) * inv_scale;
        q = q < -32767.0 ? -32767.0 : (q > 32767.0 ? 32767.0 : q);
        const auto s = static_cast<std::int16_t>(q < 0.0 ? q - 0.5 : q + 0.5);
        const auto bits = static_cast<std::uint16_t>(s);
        out.body[i * 2 + 0] = static_cast<char>(bits & 0xffu);
        out.body[i * 2 + 1] = static_cast<char>((bits >> 8) & 0xffu);
    }
    return out;
}

/// Samples of mixed sign and magnitude (1e-3 to 1e30); with `specials`
/// every seventh is NaN, ±Inf, −0.0, a double or float subnormal, or a
/// double that overflows float.  i16 gets no specials: its quantizer casts
/// out-of-range doubles to int16, which is undefined, and tiles never hold
/// them (the health guard).
Array2D<double> encoder_input(std::size_t nx, std::size_t ny, bool specials) {
    static constexpr double kScales[] = {1e-3, 1.0, 7.0, 1e5, 1e30};
    static constexpr double kSpecials[] = {
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        -4.9e-320,
        1e-40,  // subnormal as a float
        1e39,   // overflows float
    };
    Array2D<double> a(nx, ny);
    std::uint64_t state = 0x9E3779B97F4A7C15ULL;
    for (std::size_t i = 0; i < a.size(); ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const double unit = static_cast<double>(state >> 11) * 0x1.0p-53 - 0.5;
        a.data()[i] = unit * kScales[i % std::size(kScales)];
        if (specials && i % 7 == 3) {
            a.data()[i] = kSpecials[(i / 7) % std::size(kSpecials)];
        }
    }
    return a;
}

TEST(WireEncoders, MatchTheByteLoopOracle) {
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {0, 1}, {1, 1}, {3, 1}, {255, 1}, {257, 1}, {256, 256}};
    for (const auto& [nx, ny] : shapes) {
        SCOPED_TRACE(std::to_string(nx) + "x" + std::to_string(ny));
        const Array2D<double> special = encoder_input(nx, ny, /*specials=*/true);
        EXPECT_EQ(encode_tile_f32(special), oracle_f32(special));
        EXPECT_EQ(encode_tile_f64(special), oracle_f64(special));
        const Array2D<double> finite = encoder_input(nx, ny, /*specials=*/false);
        const QuantizedTile got = encode_tile_i16(finite);
        const QuantizedTile want = oracle_i16(finite);
        EXPECT_EQ(got.body, want.body);
        EXPECT_EQ(std::memcmp(&got.scale, &want.scale, sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(&got.offset, &want.offset, sizeof(double)), 0);
    }
    // −0.0 and subnormals are finite, so the quantizer must match on them too.
    Array2D<double> tiny(4, 1);
    tiny.data()[0] = -0.0;
    tiny.data()[1] = std::numeric_limits<double>::denorm_min();
    tiny.data()[2] = -4.9e-320;
    tiny.data()[3] = 1e-310;
    EXPECT_EQ(encode_tile_i16(tiny).body, oracle_i16(tiny).body);
}

TEST(WireEncoders, ConstantTileQuantizesToZerosAtScaleOne) {
    const Array2D<double> flat(5, 3, 2.5);
    const QuantizedTile q = encode_tile_i16(flat);
    EXPECT_EQ(q.scale, 1.0);
    EXPECT_EQ(q.offset, 2.5);
    EXPECT_EQ(q.body, std::string(flat.size() * 2, '\0'));
    EXPECT_EQ(q.body, oracle_i16(flat).body);
}

// ------------------------------------------ stored bodies in the tile cache

HttpRequest tile_request(const std::string& query) {
    return parse_request_head("GET /v1/tile?" + query + " HTTP/1.1\r\n");
}

TEST(StoredBodies, CacheStaysWithinBudgetUnderMixedEncodingStorm) {
    // 32² tiles: 8 KiB of doubles, 4 KiB f32 and 2 KiB i16 bodies; a 96 KiB
    // budget over 4 shards holds a few fully encoded tiles, not the 48.
    const Scene scene = parse_scene_text(kTestScene);
    auto gen = std::make_shared<InhomogeneousGenerator>(make_scene_generator(scene));
    TileService::Options opt;
    opt.shape = TileShape{32, 32};
    auto cache = std::make_shared<TileCache>(std::size_t{96} << 10, 4);
    std::shared_ptr<TileService> service = TileService::owning(std::move(gen), opt, cache);
    SceneServices scenes;
    scenes.emplace("scene", service);
    obs::MetricsRegistry registry;
    const Router router = make_tile_router(std::move(scenes), &registry);

    const char* encodings[] = {"f32", "i16", "f64"};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 96; ++i) {
                const int tile = (i * 7 + t * 5) % 48;
                const std::string q = encodings[(i + t) % 3];
                const HttpResponse resp = router.dispatch(tile_request(
                    "tx=" + std::to_string(tile % 8) + "&ty=" + std::to_string(tile / 8) +
                    "&q=" + q));
                ASSERT_EQ(resp.status, 200);
                const TilePtr direct = service->get(TileKey{tile % 8, tile / 8, 0});
                const std::string expect = q == "f32"   ? encode_tile_f32(*direct)
                                           : q == "i16" ? encode_tile_i16(*direct).body
                                                        : encode_tile_f64(*direct);
                ASSERT_EQ(resp.body(), expect) << "tile " << tile << " q=" << q;
                EXPECT_LE(cache->stats().bytes, cache->byte_budget());
            }
        });
    }
    for (std::thread& th : threads) {
        th.join();
    }
    const TileCache::Stats stats = cache->stats();
    EXPECT_LE(stats.bytes, cache->byte_budget());
    EXPECT_GT(stats.evictions, 0u);
}

TEST(StoredBodies, BodiesAreChargedEvictedWithTheirTileAndOutliveEviction) {
    const Scene scene = parse_scene_text(kTestScene);
    auto gen = std::make_shared<InhomogeneousGenerator>(make_scene_generator(scene));
    TileService::Options opt;
    opt.shape = TileShape{32, 32};
    auto cache = std::make_shared<TileCache>(std::size_t{1} << 20, 1);
    std::shared_ptr<TileService> service = TileService::owning(std::move(gen), opt, cache);
    SceneServices scenes;
    scenes.emplace("scene", service);
    obs::MetricsRegistry registry;
    const Router router = make_tile_router(std::move(scenes), &registry);
    const std::size_t tile_bytes = 32 * 32 * sizeof(double);

    const HttpResponse f64 = router.dispatch(tile_request("tx=1&ty=2&q=f64"));
    EXPECT_EQ(cache->stats().bytes, tile_bytes);  // f64 is the tile's own storage
    const HttpResponse f32 = router.dispatch(tile_request("tx=1&ty=2&q=f32"));
    EXPECT_EQ(cache->stats().bytes, tile_bytes + 32 * 32 * 4);
    const HttpResponse i16 = router.dispatch(tile_request("tx=1&ty=2&q=i16"));
    const std::size_t with_bodies = cache->stats().bytes;
    EXPECT_GT(with_bodies, tile_bytes + 32 * 32 * 6);  // plus the scale/offset headers
    // A second request serves the stored body: the same bytes, no new charge.
    const HttpResponse again = router.dispatch(tile_request("tx=1&ty=2&q=f32"));
    EXPECT_EQ(again.body().data(), f32.body().data());
    EXPECT_EQ(cache->stats().bytes, with_bodies);

    const TilePtr tile = service->get(TileKey{1, 2, 0});
    const std::string want_f32 = encode_tile_f32(*tile);
    const QuantizedTile want_i16 = encode_tile_i16(*tile);
    const std::string want_f64 = encode_tile_f64(*tile);
    // Eviction frees the tile and its bodies together; the responses still
    // hold theirs (a use after free here fails the sanitize preset).
    cache->clear();
    EXPECT_EQ(cache->stats().bytes, 0u);
    EXPECT_EQ(f32.body(), want_f32);
    EXPECT_EQ(i16.body(), want_i16.body);
    EXPECT_EQ(f64.body(), want_f64);

    // A body attached after its tile left the cache is served, then dropped.
    const TileAddress address{service->fingerprint(), TileKey{1, 2, 0}};
    cache->attach_body(address, 0, std::make_shared<const EncodedBody>());
    EXPECT_EQ(cache->find_body(address, 0), nullptr);
    EXPECT_EQ(cache->stats().bytes, 0u);
}

TEST(GatherWrite, SlowReaderGetsTheWholeBodyAndBytesOutCountsIt) {
    // 512 KiB of patterned bytes to a reader with a small receive buffer
    // that drains it in about half a second: longer than the write
    // deadline, so a blocked sendmsg returns short writes and the server's
    // gather loop must resume them, across the head/body boundary, without
    // a byte lost.
    std::string payload(std::size_t{512} << 10, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<char>((i * 131 + (i >> 9)) & 0xff);
    }
    Router router;
    router.add("/big", [&payload](const HttpRequest&) {
        return HttpResponse::octets(payload);
    });
    obs::MetricsRegistry registry;
    HttpServer::Options opt;
    opt.registry = &registry;
    opt.write_timeout_ms = 300;
    HttpServer server(std::move(router), opt);
    server.start();

    Socket s{::socket(AF_INET, SOCK_STREAM, 0)};
    ASSERT_TRUE(s.valid());
    const int rcvbuf = 4096;
    ASSERT_EQ(::setsockopt(s.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)), 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(s.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    set_recv_timeout(s, 3000);
    const std::string request = "GET /big HTTP/1.1\r\nConnection: close\r\n\r\n";
    ASSERT_TRUE(send_all(s, request.data(), request.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let the buffers fill
    std::string wire;
    char buf[2048];
    for (;;) {
        const RecvResult r = recv_some(s, buf, sizeof buf);
        if (r.n == 0) {
            break;
        }
        wire.append(buf, r.n);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    server.stop();

    const std::size_t blank = wire.find("\r\n\r\n");
    ASSERT_NE(blank, std::string::npos);
    EXPECT_NE(wire.find("Content-Length: 524288\r\n"), std::string::npos);
    ASSERT_EQ(wire.size(), blank + 4 + payload.size());
    EXPECT_TRUE(wire.compare(blank + 4, payload.size(), payload) == 0);
    EXPECT_EQ(registry.counter("net.bytes_out").value(), wire.size());
}

}  // namespace
}  // namespace rrs::net
