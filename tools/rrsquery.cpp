// rrsquery — one-shot HTTP client for an rrsd tile server.
//
//   rrsquery HOST:PORT TARGET [options]
//   rrsquery --cluster TOPOLOGY TARGET [options]
//
//   rrsquery 127.0.0.1:8080 /healthz
//   rrsquery 127.0.0.1:8080 "/v1/tile?tx=0&ty=0" --stats
//   rrsquery 127.0.0.1:8080 /metrics
//   rrsquery --cluster fleet.topo "/v1/window?x0=0&y0=0&nx=512&ny=512" --stats
//
// With `--cluster TOPOLOGY` (a src/cluster/topology.hpp file) the client
// routes fleet-side without a proxy: /v1/tile, /v1/window, /v1/pyramid and
// /readyz are answered by the routing proxy's own router (cluster/proxy.hpp)
// dispatched in-process — base tiles fetched from their owning shards
// (rendezvous hashing, DESIGN.md §17), zoom tiles, windows and pyramids
// derived byte-identically to single-node serving, /readyz aggregated over
// every shard — and anything else is asked of the first node.  An
// unavailable shard, or a fleet where no node answers discovery, exits 3,
// like a connect failure.
//
// Prints the response body to stdout (binary surface bodies are summarised
// unless --out or --stats asks otherwise) and exits 0 iff the response
// status is 2xx — which makes it a usable smoke-test probe in shell scripts.
//
//   --out FILE       write the raw response body to FILE
//   --stats          decode a float32 surface body (X-RRS-Nx/Ny headers)
//                    and print one JSON line: {"nx":..,"ny":..,"min":..,
//                    "max":..,"mean":..,"rms":..}
//   --headers        also print status line + response headers to stderr
//   --zoom N         shorthand: append z=N to the request target's query
//                    string (zoom-pyramid level, /v1/tile and /v1/pyramid)
//   --if-none-match ETAG
//                    send an If-None-Match header; a 304 Not Modified
//                    answer prints "not modified" and exits 0 — the cached
//                    copy named by ETAG is still valid
//   --timeout-ms N   connect/read/write deadline (default 5000)
//   --retries N      retry transport failures / 503s up to N extra times
//                    with jittered exponential backoff (default 0)
//   --deadline-ms N  overall budget across all attempts (default: none)
//
// Exit codes: 0 = 2xx response or 304 Not Modified; 1 = HTTP error or
// transport failure; 2 = usage; 3 = could not connect; 4 = retry deadline
// exhausted.

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "cluster/client.hpp"
#include "cluster/proxy.hpp"
#include "cluster/topology.hpp"
#include "core/error.hpp"
#include "net/client.hpp"
#include "net/http.hpp"
#include "obs/metrics.hpp"

#include "flags.hpp"

namespace {

int usage() {
    std::cerr << "usage: rrsquery HOST:PORT TARGET [options]\n"
                 "       rrsquery --cluster TOPOLOGY TARGET [options]\n"
                 "  --out FILE     write the raw response body to FILE\n"
                 "  --stats        decode a float32 surface body, print stats\n"
                 "  --headers      also print status + headers to stderr\n"
                 "  --zoom N       append z=N to the target query string\n"
                 "  --if-none-match ETAG  conditional GET; 304 exits 0\n"
                 "  --timeout-ms N connect/read/write deadline (default 5000)\n"
                 "  --retries N    extra attempts on transport failure / 503\n"
                 "  --deadline-ms N overall retry budget (default: none)\n"
                 "exit codes: 0 = 2xx or 304, 1 = HTTP/transport error,\n"
                 "            2 = usage, 3 = connect failure / shard "
                 "unavailable,\n"
                 "            4 = deadline exhausted\n";
    return 2;
}

std::string lower(std::string s) {
    for (char& c : s) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return s;
}

/// Little-endian float32 at `p`.
float read_f32(const unsigned char* p) noexcept {
    const std::uint32_t bits =
        static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
        (static_cast<std::uint32_t>(p[2]) << 16) |
        (static_cast<std::uint32_t>(p[3]) << 24);
    float f = 0.0F;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

int print_surface_stats(const rrs::net::ClientResponse& resp) {
    const std::string* nx_h = resp.header("x-rrs-nx");
    const std::string* ny_h = resp.header("x-rrs-ny");
    if (nx_h == nullptr || ny_h == nullptr) {
        std::cerr << "rrsquery: response has no X-RRS-Nx/Ny headers\n";
        return 1;
    }
    const std::uint64_t nx = std::strtoull(nx_h->c_str(), nullptr, 10);
    const std::uint64_t ny = std::strtoull(ny_h->c_str(), nullptr, 10);
    if (resp.body.size() != nx * ny * 4) {
        std::cerr << "rrsquery: body is " << resp.body.size() << " bytes, want "
                  << nx * ny * 4 << " for " << nx << "x" << ny << " float32\n";
        return 1;
    }
    double lo = 0.0;
    double hi = 0.0;
    double sum = 0.0;
    double sum_sq = 0.0;
    const auto* p = reinterpret_cast<const unsigned char*>(resp.body.data());
    const std::uint64_t n = nx * ny;
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto v = static_cast<double>(read_f32(p + i * 4));
        lo = i == 0 ? v : std::min(lo, v);
        hi = i == 0 ? v : std::max(hi, v);
        sum += v;
        sum_sq += v * v;
    }
    const double denom = n == 0 ? 1.0 : static_cast<double>(n);
    std::cout << "{\"nx\":" << nx << ",\"ny\":" << ny << ",\"min\":" << lo
              << ",\"max\":" << hi << ",\"mean\":" << sum / denom
              << ",\"rms\":" << std::sqrt(sum_sq / denom) << "}\n";
    return 0;
}

/// Re-cast a server-side HttpResponse (a route answered in-process) as
/// the ClientResponse the shared printing path expects — header names
/// lower-cased, the way parse_response_head does.
rrs::net::ClientResponse synthesize(rrs::net::HttpResponse resp) {
    rrs::net::ClientResponse out;
    out.status = resp.status;
    out.body = std::string(resp.body());
    out.headers.emplace_back("content-type", std::move(resp.content_type));
    for (auto& [name, value] : resp.extra_headers) {
        out.headers.emplace_back(lower(std::move(name)), std::move(value));
    }
    return out;
}

/// Fleet-side routing for --cluster (file comment): the proxy's own router,
/// dispatched in-process.  Errors propagate (an unavailable shard or fleet
/// is an UnavailableError, exit 3) instead of becoming status codes.
rrs::net::ClientResponse cluster_fetch(const std::string& topology_file,
                                       const std::string& target,
                                       const rrs::net::HttpClient::HeaderList& extra,
                                       const rrs::net::HttpClient::Options& copt) {
    using namespace rrs;
    cluster::ClusterOptions opt;
    opt.timeout_ms = copt.timeout_ms;
    opt.retry = copt.retry;
    opt.connections_per_node = 2;  // one-shot tool: stay well under shard workers
    opt.fanout_threads = 4;
    obs::MetricsRegistry registry;
    opt.registry = &registry;
    auto client = std::make_shared<cluster::ClusterClient>(
        cluster::load_topology(topology_file), opt);
    // Borrow the server's own request parser so the target grammar (path,
    // %XX decoding, query split) is exactly the wire grammar.
    net::HttpRequest req = net::parse_request_head("GET " + target + " HTTP/1.1");
    if (req.path != "/readyz" && req.path != "/v1/tile" && req.path != "/v1/window" &&
        req.path != "/v1/pyramid") {
        // /, /healthz, /metrics, ...: fleet-global reads — any node will do.
        return client->forward(0, target, extra);
    }
    for (const auto& [name, value] : extra) {
        req.headers.emplace_back(lower(name), value);
    }
    registry.gauge("net.ready").set(1);  // this process is serving, not draining
    return synthesize(cluster::make_cluster_router(client, &registry).dispatch(req));
}

}  // namespace

int main(int argc, char** argv) {
    using namespace rrs;
    if (argc < 3) {
        return usage();
    }
    std::string host_port;
    std::string cluster_file;
    int first_option = 3;
    std::string target;
    if (std::string(argv[1]) == "--cluster") {
        if (argc < 4) {
            return usage();
        }
        cluster_file = argv[2];
        target = argv[3];
        first_option = 4;
    } else {
        host_port = argv[1];
        target = argv[2];
    }
    std::string out_file;
    std::string zoom;
    std::string if_none_match;
    bool stats = false;
    bool show_headers = false;
    net::HttpClient::Options copt;

    for (int i = first_option; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "rrsquery: " << flag << " needs a value\n";
                return nullptr;
            }
            return argv[++i];
        };
        auto numeric_value = [&](auto& out) {
            const char* v = next_value(arg.c_str());
            return v != nullptr && tools::parse_flag("rrsquery", arg, v, out);
        };
        if (arg == "--out") {
            const char* v = next_value("--out");
            if (v == nullptr) {
                return usage();
            }
            out_file = v;
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--headers") {
            show_headers = true;
        } else if (arg == "--zoom") {
            const char* v = next_value("--zoom");
            if (v == nullptr) {
                return usage();
            }
            zoom = v;
        } else if (arg == "--if-none-match") {
            const char* v = next_value("--if-none-match");
            if (v == nullptr) {
                return usage();
            }
            if_none_match = v;
        } else if (arg == "--timeout-ms") {
            if (!numeric_value(copt.timeout_ms)) {
                return usage();
            }
        } else if (arg == "--retries") {
            const char* v = next_value("--retries");
            int retries = 0;
            if (v == nullptr ||
                !tools::parse_flag("rrsquery", arg, v, retries, 0,
                                   std::numeric_limits<int>::max() - 1)) {
                return usage();
            }
            copt.retry.max_attempts = retries + 1;
        } else if (arg == "--deadline-ms") {
            if (!numeric_value(copt.retry.deadline_ms)) {
                return usage();
            }
        } else {
            std::cerr << "rrsquery: unrecognised argument '" << arg << "'\n";
            return usage();
        }
    }

    std::string host;
    std::uint16_t port = 0;
    if (cluster_file.empty()) {
        const std::size_t colon = host_port.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 >= host_port.size()) {
            std::cerr << "rrsquery: first argument must be HOST:PORT\n";
            return usage();
        }
        host = host_port.substr(0, colon);
        if (!tools::parse_int(std::string_view(host_port).substr(colon + 1), port,
                              std::uint16_t{1})) {
            std::cerr << "rrsquery: '" << host_port << "' has no valid port\n";
            return usage();
        }
    }

    if (!zoom.empty()) {
        target += (target.find('?') == std::string::npos ? '?' : '&');
        target += "z=" + zoom;
    }

    try {
        net::HttpClient::HeaderList extra;
        if (!if_none_match.empty()) {
            extra.emplace_back("If-None-Match", if_none_match);
        }
        net::ClientResponse resp;
        if (!cluster_file.empty()) {
            resp = cluster_fetch(cluster_file, target, extra, copt);
        } else {
            net::HttpClient client(host, port, copt);
            resp = client.get(target, extra);
        }
        if (show_headers) {
            std::cerr << "HTTP " << resp.status << "\n";
            for (const auto& [name, value] : resp.headers) {
                std::cerr << name << ": " << value << "\n";
            }
        }
        if (!out_file.empty()) {
            std::ofstream out(out_file, std::ios::binary);
            if (!out) {
                std::cerr << "rrsquery: cannot write '" << out_file << "'\n";
                return 1;
            }
            out.write(resp.body.data(),
                      static_cast<std::streamsize>(resp.body.size()));
        }
        if (resp.status == 304) {
            // The conditional GET succeeded: the client's copy is current.
            std::cout << "not modified\n";
            return 0;
        }
        if (stats) {
            const int rc = print_surface_stats(resp);
            if (rc != 0) {
                return rc;
            }
        } else if (out_file.empty()) {
            const std::string* type = resp.header("content-type");
            const bool binary =
                type != nullptr && type->rfind("application/octet-stream", 0) == 0;
            if (binary) {
                std::cout << "(" << resp.body.size()
                          << " bytes of application/octet-stream; use --out or "
                             "--stats)\n";
            } else {
                std::cout << resp.body;
                if (!resp.body.empty() && resp.body.back() != '\n') {
                    std::cout << "\n";
                }
            }
        }
        if (!resp.ok()) {
            std::cerr << "rrsquery: HTTP " << resp.status << " for " << target
                      << "\n";
            return 1;
        }
    } catch (const net::DeadlineError& e) {
        std::cerr << "rrsquery: deadline exhausted: " << e.what() << "\n";
        return 4;
    } catch (const UnavailableError& e) {
        // A shard (NodeUnavailableError) or the whole fleet (discovery
        // found no node) could not serve.
        std::cerr << "rrsquery: unavailable: " << e.what() << "\n";
        return 3;
    } catch (const net::ConnectError& e) {
        std::cerr << "rrsquery: connect failed: " << e.what() << "\n";
        return 3;
    } catch (const Error& e) {
        std::cerr << "rrsquery: error: " << e.what() << "\n";
        return 1;
    } catch (const std::exception& e) {
        std::cerr << "rrsquery: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
