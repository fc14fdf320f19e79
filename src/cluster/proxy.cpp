#include "cluster/proxy.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>

#include "core/error.hpp"
#include "net/http.hpp"
#include "net/tile_routes.hpp"

namespace rrs::cluster {

namespace {

struct ProxyState {
    std::shared_ptr<ClusterClient> client;
    obs::MetricsRegistry* registry = nullptr;
    std::size_t cache_bytes = 0;
    obs::Gauge* ready = nullptr;  ///< net.ready (set by HttpServer)

    std::mutex build_mutex;
    std::atomic<bool> built{false};
    net::Router routes;  ///< the shards' tile routes; valid once `built`

    /// The tile routes over one owner-fetching TileService per scene,
    /// built on the first successful discovery.  Until then discovery
    /// throws UnavailableError and the request is answered 503.
    const net::Router& tile_routes() {
        if (!built.load(std::memory_order_acquire)) {
            std::lock_guard lock(build_mutex);
            if (!built.load(std::memory_order_relaxed)) {
                net::SceneServices services;
                for (const auto& [name, info] : client->scenes()) {
                    TileService::Options opt;
                    opt.shape = info.shape;
                    opt.cache_bytes = cache_bytes;
                    opt.pool = &client->fanout_pool();
                    TileSource owner_fetch = [client = client, name = name,
                                              info = info](const TileKey& key) {
                        return client->fetch_tile_f64(
                            client->map().owner(info.fingerprint, key), name,
                            info.fingerprint, info.shape, key);
                    };
                    services.emplace(name, std::make_shared<TileService>(
                                               std::move(owner_fetch),
                                               info.fingerprint, opt, nullptr));
                }
                net::TileRoutesOptions ropt;
                // The per-node breakers already isolate shards; a scene
                // breaker would let one dead shard close every shard's tiles.
                ropt.breaker_failures = 0;
                routes = net::make_tile_router(std::move(services), registry, ropt);
                built.store(true, std::memory_order_release);
            }
        }
        return routes;
    }
};

/// `{"epoch":E,"nodes":[{"name":..,"endpoint":..,"weight":..},...]}`.
std::string fleet_json(const ShardMap& map) {
    std::string body = "{\"epoch\":" + std::to_string(map.epoch()) + ",\"nodes\":[";
    for (std::size_t i = 0; i < map.size(); ++i) {
        const NodeSpec& spec = map.node(i);
        if (i > 0) {
            body += ',';
        }
        char weight[64];
        std::snprintf(weight, sizeof(weight), "%.17g", spec.weight);
        body += "{\"name\":\"" + net::json_escape(spec.name) +
                "\",\"endpoint\":\"" + net::json_escape(spec.endpoint()) +
                "\",\"weight\":" + weight + "}";
    }
    return body + "]}";
}

/// Fleet readiness: this proxy must itself be accepting (net.ready) AND
/// every shard's /readyz must answer 200.  The per-node detail rides in
/// the body so operators see *which* shard is the problem.
net::HttpResponse handle_readyz(ProxyState& state) {
    if (state.ready->value() != 1) {
        net::HttpResponse resp = net::HttpResponse::json(
            503, "{\"ready\":false,\"reason\":\"draining\"}");
        resp.extra_headers.emplace_back("Retry-After", "1");
        return resp;
    }
    const ClusterClient::FleetReady fleet = state.client->ready();
    std::string body = std::string("{\"ready\":") +
                       (fleet.ready ? "true" : "false") + ",\"nodes\":[";
    bool first = true;
    for (const ClusterClient::NodeHealth& node : fleet.nodes) {
        if (!first) {
            body += ',';
        }
        first = false;
        body += "{\"name\":\"" + net::json_escape(node.name) +
                "\",\"ready\":" + (node.ready ? "true" : "false") +
                ",\"status\":" + std::to_string(node.status) + "}";
    }
    body += "]}";
    net::HttpResponse resp =
        net::HttpResponse::json(fleet.ready ? 200 : 503, std::move(body));
    if (!fleet.ready) {
        resp.extra_headers.emplace_back("Retry-After", "1");
    }
    return resp;
}

}  // namespace

net::Router make_cluster_router(std::shared_ptr<ClusterClient> client,
                                obs::MetricsRegistry* registry,
                                std::size_t cache_bytes) {
    if (client == nullptr) {
        throw ConfigError{"make_cluster_router requires a non-null client",
                          {"cluster", "proxy"}};
    }
    auto state = std::make_shared<ProxyState>();
    state->client = std::move(client);
    state->registry =
        registry != nullptr ? registry : &obs::MetricsRegistry::global();
    state->cache_bytes = cache_bytes;
    state->ready = &state->registry->gauge("net.ready");

    // /healthz and /metrics answer before discovery: a proxy in front of a
    // fleet that is still booting must stay up.
    net::Router router;
    router.add("/healthz", [](const net::HttpRequest&) {
        return net::HttpResponse::text(200, "ok\n");
    });
    router.add("/metrics", [state](const net::HttpRequest&) {
        return net::HttpResponse::json(200, state->registry->to_json());
    });
    router.add("/readyz",
               [state](const net::HttpRequest&) { return handle_readyz(*state); });
    router.add("/", [state](const net::HttpRequest& req) {
        // The shards' own index document, with the fleet block spliced in
        // before its closing brace.
        net::HttpResponse resp = state->tile_routes().dispatch(req);
        resp.body.insert(resp.body.size() - 1,
                         ",\"cluster\":" + fleet_json(state->client->map()));
        return resp;
    });
    for (const char* path : {"/tracez", "/v1/tile", "/v1/window", "/v1/pyramid"}) {
        router.add(path, [state](const net::HttpRequest& req) {
            return state->tile_routes().dispatch(req);
        });
    }
    return router;
}

}  // namespace rrs::cluster
