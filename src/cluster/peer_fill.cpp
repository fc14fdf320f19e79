#include "cluster/peer_fill.hpp"

#include <utility>

namespace rrs::cluster {

TileSource peer_fill_source(std::shared_ptr<ClusterClient> previous,
                            const std::string& self, std::string scene,
                            std::uint64_t fingerprint, TileShape shape,
                            TileSource local) {
    if (previous == nullptr) {
        throw ConfigError{"peer fill requires a previous-epoch client",
                          {"cluster", "peer_fill"}};
    }
    if (scene.empty()) {
        throw ConfigError{"peer fill requires a scene name",
                          {"cluster", "peer_fill"}};
    }
    if (fingerprint == 0) {
        throw ConfigError{"peer fill requires a nonzero fingerprint",
                          {"cluster", "peer_fill"}};
    }
    check_tile_shape(shape);
    if (!local) {
        throw ConfigError{"peer fill requires a local source",
                          {"cluster", "peer_fill"}};
    }
    obs::MetricsRegistry& registry = previous->registry();
    obs::Counter& fills = registry.counter("cluster.peer_fills");
    obs::Counter& misses = registry.counter("cluster.peer_fill_misses");
    obs::Counter& errors = registry.counter("cluster.peer_fill_errors");
    const std::size_t self_index = previous->map().index_of(self);
    return [previous = std::move(previous), self_index, scene = std::move(scene),
            fingerprint, shape, local = std::move(local), &fills, &misses,
            &errors](const TileKey& key) -> TilePtr {
        const std::size_t prev_owner = previous->map().owner(fingerprint, key);
        if (prev_owner == self_index) {
            // This node already owned the key last epoch: if it isn't in
            // our own RAM/L2 (the service just checked), nobody has it.
            return local(key);
        }
        try {
            if (TilePtr tile = previous->fetch_tile_f64(prev_owner, scene, fingerprint,
                                                        shape, key,
                                                        /*cached_only=*/true)) {
                fills.add();
                return tile;
            }
            misses.add();
        } catch (const Error&) {
            // Peer down, breaker open, protocol or fingerprint mismatch:
            // degrade to local generation.
            errors.add();
        }
        return local(key);
    };
}

}  // namespace rrs::cluster
