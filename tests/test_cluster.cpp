// Tests for src/cluster/: topology parsing (pure, fuzz-contract), the
// weighted-rendezvous ShardMap (balance, minimal disruption, cross-process
// determinism), the scene-index/wire parsers, and the fleet end-to-end —
// real HttpServers as shards behind a real proxy Router, asserting the two
// cluster acceptance properties of DESIGN.md §17:
//  * a window served through the proxy is byte-identical to the same
//    window served by a single node (stitching contract), and
//  * a reshard with peer fill re-homes only the removed node's keys and
//    serves the moved keys from the previous owner without regeneration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/client.hpp"
#include "cluster/peer_fill.hpp"
#include "cluster/proxy.hpp"
#include "cluster/shard_map.hpp"
#include "cluster/topology.hpp"
#include "core/error.hpp"
#include "grid/array2d.hpp"
#include "io/scene.hpp"
#include "net/client.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "net/tile_routes.hpp"
#include "obs/metrics.hpp"
#include "service/tile_service.hpp"

namespace rrs::cluster {
namespace {

// ------------------------------------------------------------- topology

TEST(TopologyParse, FullGrammar) {
    const Topology topo = parse_topology(
        "# fleet of three\n"
        "\n"
        "epoch = 7\n"
        "node alpha 10.0.0.1:8801 weight=2\n"
        "node beta  10.0.0.2:8801\n"
        "node g-0.2_x 127.0.0.1:65535 weight=0.5\n");
    EXPECT_EQ(topo.epoch, 7u);
    ASSERT_EQ(topo.nodes.size(), 3u);
    EXPECT_EQ(topo.nodes[0].name, "alpha");
    EXPECT_EQ(topo.nodes[0].host, "10.0.0.1");
    EXPECT_EQ(topo.nodes[0].port, 8801);
    EXPECT_DOUBLE_EQ(topo.nodes[0].weight, 2.0);
    EXPECT_DOUBLE_EQ(topo.nodes[1].weight, 1.0);  // default
    EXPECT_EQ(topo.nodes[2].name, "g-0.2_x");
    EXPECT_EQ(topo.nodes[2].port, 65535);
    ASSERT_NE(topo.find("beta"), nullptr);
    EXPECT_EQ(topo.find("beta")->endpoint(), "10.0.0.2:8801");
    EXPECT_EQ(topo.find("nope"), nullptr);
}

TEST(TopologyParse, EpochWithoutSpacesAndDefault) {
    EXPECT_EQ(parse_topology("epoch=42\nnode a h:1\n").epoch, 42u);
    EXPECT_EQ(parse_topology("node a h:1\n").epoch, 0u);
}

TEST(TopologyParse, ErrorsCarryLineNumbersAndTaxonomy) {
    try {
        parse_topology("# ok\nnode a h:1\nnode a h:2\n");
        FAIL() << "duplicate name must throw";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
            << e.what();
    }
}

struct BadTopology {
    const char* text;
    const char* why;
};

TEST(TopologyParse, RejectsEveryGrammarViolation) {
    const BadTopology cases[] = {
        {"", "empty fleet"},
        {"# only comments\n", "empty fleet"},
        {"epoch = 1\n", "empty fleet"},
        {"node\n", "missing fields"},
        {"node a\n", "missing endpoint"},
        {"node a h:1 weight=1 extra\n", "trailing token"},
        {"node a h\n", "no port separator"},
        {"node a :1\n", "empty host"},
        {"node a h:\n", "empty port"},
        {"node a h:0\n", "port 0"},
        {"node a h:65536\n", "port overflow"},
        {"node a h:1x\n", "port trailing garbage"},
        {"node a! h:1\n", "bad name char"},
        {"node a h?:1\n", "bad host char"},
        {"node a h:1 weight=0\n", "weight zero"},
        {"node a h:1 weight=-1\n", "weight negative"},
        {"node a h:1 weight=inf\n", "weight infinite"},
        {"node a h:1 weight=nan\n", "weight nan"},
        {"node a h:1 weight=\n", "weight empty"},
        {"node a h:1 wait=2\n", "unknown option"},
        {"node a h:1\nnode b h:1\n", "duplicate endpoint"},
        {"epoch = 1\nepoch = 2\nnode a h:1\n", "epoch twice"},
        {"epoch = x\nnode a h:1\n", "epoch garbage"},
        {"widget a h:1\n", "unknown directive"},
    };
    for (const BadTopology& c : cases) {
        EXPECT_THROW(parse_topology(c.text), ConfigError) << c.why;
    }
}

TEST(TopologyParse, NameLengthAndNodeCountBounds) {
    EXPECT_NO_THROW(parse_topology("node " + std::string(64, 'a') + " h:1\n"));
    EXPECT_THROW(parse_topology("node " + std::string(65, 'a') + " h:1\n"),
                 ConfigError);
    std::string big;
    for (std::size_t i = 0; i <= kMaxNodes; ++i) {
        big += "node n" + std::to_string(i) + " h:" + std::to_string(1 + i % 65000) +
               "\n";
    }
    EXPECT_THROW(parse_topology(big), ConfigError);
}

TEST(TopologyParse, LoadFromFileAndIoError) {
    EXPECT_THROW(load_topology("/nonexistent/fleet.topo"), IoError);
    const std::string path = ::testing::TempDir() + "rrs_cluster_topo_test";
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("epoch = 3\nnode a 127.0.0.1:9000\n", f);
        std::fclose(f);
    }
    const Topology topo = load_topology(path);
    EXPECT_EQ(topo.epoch, 3u);
    ASSERT_EQ(topo.nodes.size(), 1u);
    std::remove(path.c_str());
}

// ------------------------------------------------------------- shard map

Topology make_fleet(const std::vector<std::pair<std::string, double>>& nodes,
                    std::uint64_t epoch = 1) {
    Topology topo;
    topo.epoch = epoch;
    std::uint16_t port = 9000;
    for (const auto& [name, weight] : nodes) {
        NodeSpec spec;
        spec.name = name;
        spec.host = "10.0.0.1";
        spec.port = port++;
        spec.weight = weight;
        topo.nodes.push_back(std::move(spec));
    }
    return topo;
}

std::vector<TileKey> key_grid(std::int64_t extent, std::int32_t z = 0) {
    std::vector<TileKey> keys;
    keys.reserve(static_cast<std::size_t>(extent * extent));
    for (std::int64_t ty = 0; ty < extent; ++ty) {
        for (std::int64_t tx = 0; tx < extent; ++tx) {
            keys.push_back(TileKey{tx, ty, z});
        }
    }
    return keys;
}

TEST(ShardMap, DeterministicAcrossInstancesAndNodeOrder) {
    const std::uint64_t fp = 0xFEEDFACE12345678ull;
    const ShardMap a(make_fleet({{"n1", 1.0}, {"n2", 1.0}, {"n3", 2.0}}));
    const ShardMap b(make_fleet({{"n1", 1.0}, {"n2", 1.0}, {"n3", 2.0}}));
    // Same fleet listed in a different file order: owner *names* must not
    // change — salts derive from names, never list positions.
    Topology reordered = make_fleet({{"n3", 2.0}, {"n1", 1.0}, {"n2", 1.0}});
    const ShardMap c(std::move(reordered));
    for (const TileKey& key : key_grid(16)) {
        const std::size_t i = a.owner(fp, key);
        EXPECT_EQ(i, b.owner(fp, key));
        EXPECT_EQ(a.node(i).name, c.node(c.owner(fp, key)).name);
    }
}

TEST(ShardMap, GoldenOwnersPinCrossProcessDeterminism) {
    // Dev-time golden: FNV-1a over the owner indices of a fixed fleet and
    // key grid.  A changed value means ownership moved for *every deployed
    // fleet* — bump it only with a migration story (DESIGN.md §17).
    const ShardMap map(make_fleet({{"alpha", 1.0}, {"beta", 1.0}, {"gamma", 2.0}}));
    std::uint64_t h = 1469598103934665603ull;
    for (std::int32_t z = 0; z <= 2; ++z) {
        for (const TileKey& key : key_grid(8, z)) {
            h ^= map.owner(0x9E3779B97F4A7C15ull, key);
            h *= 1099511628211ull;
        }
    }
    EXPECT_EQ(h, 6215319321763378537ull);
}

TEST(ShardMap, UniformBalanceChiSquare) {
    const ShardMap map(
        make_fleet({{"n1", 1.0}, {"n2", 1.0}, {"n3", 1.0}, {"n4", 1.0}}));
    const std::vector<TileKey> keys = key_grid(64);
    std::vector<double> counts(map.size(), 0.0);
    for (const TileKey& key : keys) {
        counts[map.owner(42, key)] += 1.0;
    }
    const double expected = static_cast<double>(keys.size()) / 4.0;
    double chi2 = 0.0;
    for (const double c : counts) {
        chi2 += (c - expected) * (c - expected) / expected;
    }
    // df=3; 16.27 is the 99.9th percentile — a uniform assignment fails
    // this once in a thousand reruns, and the draw is deterministic.
    EXPECT_LT(chi2, 16.27) << "counts: " << counts[0] << " " << counts[1] << " "
                           << counts[2] << " " << counts[3];
}

TEST(ShardMap, WeightedBalanceTracksCapacity) {
    const ShardMap map(make_fleet({{"small", 1.0}, {"mid", 1.0}, {"big", 2.0}}));
    const std::vector<TileKey> keys = key_grid(64);
    std::vector<double> counts(map.size(), 0.0);
    for (const TileKey& key : keys) {
        counts[map.owner(7, key)] += 1.0;
    }
    const auto n = static_cast<double>(keys.size());
    EXPECT_NEAR(counts[0] / n, 0.25, 0.03);
    EXPECT_NEAR(counts[1] / n, 0.25, 0.03);
    EXPECT_NEAR(counts[2] / n, 0.50, 0.03);
}

TEST(ShardMap, RemovalMovesOnlyTheRemovedNodesKeys) {
    const std::uint64_t fp = 99;
    const ShardMap before(
        make_fleet({{"n1", 1.0}, {"n2", 1.0}, {"n3", 1.0}, {"n4", 1.0}}));
    const ShardMap after(make_fleet({{"n1", 1.0}, {"n2", 1.0}, {"n3", 1.0}}));
    const std::vector<TileKey> keys = key_grid(64);
    std::size_t moved = 0;
    for (const TileKey& key : keys) {
        const std::string& was = before.node(before.owner(fp, key)).name;
        const std::string& now = after.node(after.owner(fp, key)).name;
        if (was == "n4") {
            ++moved;  // orphaned keys must re-home somewhere
        } else {
            // The minimal-disruption property: a key never moves between
            // survivors — its survivor scores are unchanged.
            EXPECT_EQ(was, now) << "key (" << key.tx << "," << key.ty
                                << ") moved between survivors";
        }
    }
    const double frac = static_cast<double>(moved) / static_cast<double>(keys.size());
    EXPECT_GT(frac, 0.18);  // ≈1/4 of the keyspace was n4's
    EXPECT_LT(frac, 0.32);  // and nothing else moved (ISSUE cap: ≤30% + slack)
}

TEST(ShardMap, AdditionOnlyPullsKeysToTheNewNode) {
    const std::uint64_t fp = 5;
    const ShardMap before(make_fleet({{"n1", 1.0}, {"n2", 1.0}, {"n3", 1.0}}));
    const ShardMap after(
        make_fleet({{"n1", 1.0}, {"n2", 1.0}, {"n3", 1.0}, {"n4", 1.0}}));
    for (const TileKey& key : key_grid(48)) {
        const std::string& was = before.node(before.owner(fp, key)).name;
        const std::string& now = after.node(after.owner(fp, key)).name;
        if (now != "n4") {
            EXPECT_EQ(was, now);
        }
    }
}

TEST(ShardMap, OwnershipVariesWithFingerprintAndZoom) {
    const ShardMap map(make_fleet({{"n1", 1.0}, {"n2", 1.0}}));
    std::size_t fp_diff = 0;
    std::size_t z_diff = 0;
    for (const TileKey& key : key_grid(32)) {
        fp_diff += map.owner(1, key) != map.owner(2, key) ? 1u : 0u;
        z_diff += map.owner(1, key) !=
                          map.owner(1, TileKey{key.tx, key.ty, key.z + 1})
                      ? 1u
                      : 0u;
    }
    // Independent draws disagree about half the time; zero disagreement
    // would mean the salt ignores the dimension.
    EXPECT_GT(fp_diff, 256u);
    EXPECT_GT(z_diff, 256u);
}

TEST(ShardMap, AccessorsAndSalts) {
    const ShardMap map(make_fleet({{"a", 1.0}, {"b", 1.0}}, 9));
    EXPECT_EQ(map.size(), 2u);
    EXPECT_EQ(map.epoch(), 9u);
    EXPECT_EQ(map.index_of("a"), 0u);
    EXPECT_EQ(map.index_of("b"), 1u);
    EXPECT_EQ(map.index_of("zz"), map.size());
    const TileKey key{3, -4, 0};
    EXPECT_EQ(map.owner_node(1, key).name, map.node(map.owner(1, key)).name);
    EXPECT_NE(node_salt("a"), node_salt("b"));
    EXPECT_EQ(node_salt("a"), node_salt("a"));
    EXPECT_THROW(ShardMap(Topology{}), ConfigError);
}

TEST(ShardMapWork, TileWorkIsTheHaloedFootprint) {
    EXPECT_DOUBLE_EQ(tile_work(TileShape{64, 64}, 0, 0), 64.0 * 64.0);
    EXPECT_DOUBLE_EQ(tile_work(TileShape{64, 32}, 8, 4), 80.0 * 40.0);
    EXPECT_THROW(tile_work(TileShape{0, 64}, 1, 1), ConfigError);
    EXPECT_THROW(tile_work(TileShape{64, 64}, -1, 0), ConfigError);
}

TEST(ShardMapWork, SharesTrackWeightsEvenWithConcentratedCost) {
    const ShardMap map(make_fleet({{"n1", 1.0}, {"n2", 1.0}, {"n3", 2.0}}));
    const std::vector<TileKey> keys = key_grid(64);
    const std::vector<double> uniform = work_shares(map, 11, keys);
    ASSERT_EQ(uniform.size(), 3u);
    EXPECT_NEAR(uniform[0] + uniform[1] + uniform[2], 1.0, 1e-12);
    EXPECT_NEAR(uniform[2], 0.5, 0.04);
    // A contiguous heavy region (4x the kernel halo cost in the lower-left
    // quadrant — the paper's inhomogeneous-parameter scenario): rendezvous
    // scatter spreads it, so shares still track the declared weights.
    const auto cost = [](const TileKey& key) {
        return key.tx < 32 && key.ty < 32
                   ? tile_work(TileShape{64, 64}, 48, 48)
                   : tile_work(TileShape{64, 64}, 8, 8);
    };
    const std::vector<double> heavy = work_shares(map, 11, keys, cost);
    EXPECT_NEAR(heavy[2], 0.5, 0.05);
    EXPECT_NEAR(heavy[0], 0.25, 0.05);
    EXPECT_THROW(work_shares(map, 11, {}), ConfigError);
    EXPECT_THROW(work_shares(map, 11, keys, [](const TileKey&) { return 0.0; }),
                 ConfigError);
}

// ------------------------------------------------- index / wire parsers

TEST(SceneIndexParse, RoundTripOfServedIndex) {
    // Exactly the shape tile_routes.cpp handle_index emits.
    const auto scenes = parse_scene_index(
        "{\"scenes\":[{\"name\":\"pond\",\"tile_nx\":64,\"tile_ny\":32,"
        "\"fingerprint\":12345678901234567890},"
        "{\"name\":\"field\",\"tile_nx\":256,\"tile_ny\":256,"
        "\"fingerprint\":7}],"
        "\"endpoints\":[\"/\",\"/healthz\"]}");
    ASSERT_EQ(scenes.size(), 2u);
    EXPECT_EQ(scenes.at("pond").shape.nx, 64);
    EXPECT_EQ(scenes.at("pond").shape.ny, 32);
    EXPECT_EQ(scenes.at("pond").fingerprint, 12345678901234567890ull);
    EXPECT_EQ(scenes.at("field").fingerprint, 7u);
}

TEST(SceneIndexParse, ToleratesUnknownKeysAndEscapes) {
    const auto scenes = parse_scene_index(
        "{\"extra\":{\"nested\":[1,2,{}]},\"scenes\":[{\"future\":true,"
        "\"name\":\"a\\\"b\",\"tile_nx\":8,\"tile_ny\":8,\"fingerprint\":1}]}");
    ASSERT_EQ(scenes.size(), 1u);
    EXPECT_EQ(scenes.begin()->first, "a\"b");
}

TEST(SceneIndexParse, RejectsMalformedDocuments) {
    const char* bad[] = {
        "",
        "not json",
        "{}",                                     // no scenes array
        "{\"scenes\":{}}",                        // scenes not an array
        "{\"scenes\":[{\"name\":\"a\"}]}",        // missing shape/fingerprint
        "{\"scenes\":[{\"tile_nx\":8,\"tile_ny\":8,\"fingerprint\":1}]}",
        "{\"scenes\":[{\"name\":\"a\",\"tile_nx\":0,\"tile_ny\":8,"
        "\"fingerprint\":1}]}",                   // non-positive shape
        "{\"scenes\":[{\"name\":\"a\",\"tile_nx\":8,\"tile_ny\":8,"
        "\"fingerprint\":1},{\"name\":\"a\",\"tile_nx\":8,\"tile_ny\":8,"
        "\"fingerprint\":1}]}",                   // duplicate name
        "{\"scenes\":[{\"name\":\"a\",\"tile_nx\":8,\"tile_ny\":8,"
        "\"fingerprint\":99999999999999999999999999}]}",  // u64 overflow
    };
    for (const char* doc : bad) {
        EXPECT_THROW(parse_scene_index(doc), ConfigError) << doc;
    }
}

TEST(WireHelpers, DecodeTileF64RoundTripsAndValidates) {
    Array2D<double> a(3, 2);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a.data()[i] = 0.5 * static_cast<double>(i) - 1.0;
    }
    const std::string body = net::encode_tile_f64(a);
    const Array2D<double> back = decode_tile_f64(body, 3, 2);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(back.data()[i], a.data()[i]);
    }
    EXPECT_THROW(decode_tile_f64(body, 3, 3), IoError);
    EXPECT_THROW(decode_tile_f64("short", 3, 2), IoError);
}

TEST(WireHelpers, UrlEncodePercentEncodesReservedBytes) {
    EXPECT_EQ(url_encode("plain-0.9_~"), "plain-0.9_~");
    EXPECT_EQ(url_encode("a b&c=d%"), "a%20b%26c%3Dd%25");
}

// ---------------------------------------------------------- end to end

// Same inhomogeneous two-spectrum scene test_net.cpp serves — every shard
// of a fleet runs an identical generator, which is what makes cluster
// stitching bit-exact.
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

/// One in-process shard: a scene service behind a real HttpServer.
struct Shard {
    std::shared_ptr<TileService> service;
    std::unique_ptr<obs::MetricsRegistry> registry;
    std::unique_ptr<net::HttpServer> server;

    std::uint16_t port() const { return server->port(); }
};

Shard boot_shard() {
    Shard shard;
    shard.service = make_scene_service();
    shard.registry = std::make_unique<obs::MetricsRegistry>();
    net::SceneServices scenes;
    scenes.emplace("scene", shard.service);
    net::HttpServer::Options opt;
    opt.workers = 4;
    opt.registry = shard.registry.get();
    shard.server = std::make_unique<net::HttpServer>(
        net::make_tile_router(std::move(scenes), shard.registry.get()), opt);
    shard.server->start();
    return shard;
}

Topology local_fleet(const std::vector<std::pair<std::string, std::uint16_t>>& nodes,
                     std::uint64_t epoch = 1) {
    Topology topo;
    topo.epoch = epoch;
    for (const auto& [name, port] : nodes) {
        NodeSpec spec;
        spec.name = name;
        spec.host = "127.0.0.1";
        spec.port = port;
        topo.nodes.push_back(std::move(spec));
    }
    return topo;
}

/// Three live shards of the same scene plus a proxy server over them.
class ClusterEndToEnd : public ::testing::Test {
protected:
    void SetUp() override {
        for (int i = 0; i < 3; ++i) {
            shards_.push_back(boot_shard());
        }
        const Topology topo = local_fleet({{"n1", shards_[0].port()},
                                           {"n2", shards_[1].port()},
                                           {"n3", shards_[2].port()}});
        ClusterOptions copt;
        copt.connections_per_node = 4;  // stay under the shards' 4 workers
        copt.fanout_threads = 4;
        copt.registry = &proxy_registry_;
        client_ = std::make_shared<ClusterClient>(topo, copt);
        net::HttpServer::Options opt;
        opt.workers = 4;
        opt.registry = &proxy_registry_;
        proxy_ = std::make_unique<net::HttpServer>(
            make_cluster_router(client_, &proxy_registry_), opt);
        proxy_->start();
    }

    void TearDown() override {
        proxy_->stop();
        for (Shard& shard : shards_) {
            shard.server->stop();
        }
    }

    std::vector<Shard> shards_;
    obs::MetricsRegistry proxy_registry_;
    std::shared_ptr<ClusterClient> client_;
    std::unique_ptr<net::HttpServer> proxy_;
};

TEST_F(ClusterEndToEnd, IndexAggregatesFleetAndScenes) {
    net::HttpClient http("127.0.0.1", proxy_->port());
    const net::ClientResponse index = http.get("/");
    ASSERT_EQ(index.status, 200) << index.body;
    // The proxy index is itself a valid scene index — a ClusterClient can
    // be pointed at a proxy.
    const auto scenes = parse_scene_index(index.body);
    ASSERT_EQ(scenes.size(), 1u);
    EXPECT_EQ(scenes.at("scene").fingerprint, shards_[0].service->fingerprint());
    EXPECT_NE(index.body.find("\"cluster\""), std::string::npos);
    EXPECT_NE(index.body.find("\"n2\""), std::string::npos);
}

TEST_F(ClusterEndToEnd, ProxiedWindowIsByteIdenticalToSingleNode) {
    net::HttpClient http("127.0.0.1", proxy_->port());
    const Rect region{-7, -5, 70, 50};
    const Array2D<double> direct = shards_[0].service->window(region);
    const std::string target =
        "/v1/window?x0=-7&y0=-5&nx=70&ny=50";
    for (const char* q : {"f32", "f64", "i16"}) {
        const net::ClientResponse resp =
            http.get(target + std::string("&q=") + q);
        ASSERT_EQ(resp.status, 200) << resp.body;
        const net::HttpResponse expect = net::surface_response(
            direct, region, "scene", shards_[0].service->fingerprint(),
            *q == 'f' ? (q[1] == '3' ? net::WireEncoding::kF32
                                     : net::WireEncoding::kF64)
                      : net::WireEncoding::kI16);
        EXPECT_EQ(resp.body, expect.body) << "encoding " << q;
    }
}

TEST_F(ClusterEndToEnd, TilesForwardToOwnersAndSpreadTraffic) {
    net::HttpClient http("127.0.0.1", proxy_->port());
    for (std::int64_t ty = 0; ty < 3; ++ty) {
        for (std::int64_t tx = 0; tx < 3; ++tx) {
            const std::string target = "/v1/tile?tx=" + std::to_string(tx) +
                                       "&ty=" + std::to_string(ty) + "&q=f64";
            const net::ClientResponse resp = http.get(target);
            ASSERT_EQ(resp.status, 200) << resp.body;
            // Byte-exact against the scene service (f64 is the bit-exact
            // encoding; every shard runs the identical generator).
            const TilePtr tile = shards_[0].service->get(TileKey{tx, ty, 0});
            EXPECT_EQ(resp.body, net::encode_tile_f64(*tile));
        }
    }
    int shards_hit = 0;
    for (const char* name : {"n1", "n2", "n3"}) {
        if (proxy_registry_
                .counter(std::string("cluster.node.") + name + ".requests")
                .value() > 0) {
            ++shards_hit;
        }
    }
    EXPECT_GE(shards_hit, 2) << "9 tiles landed on a single shard";
}

TEST_F(ClusterEndToEnd, ConditionalGetIsAnsweredAtTheProxy) {
    net::HttpClient http("127.0.0.1", proxy_->port());
    const net::ClientResponse first = http.get("/v1/tile?tx=0&ty=0");
    ASSERT_EQ(first.status, 200);
    const std::string* etag = first.header("etag");
    ASSERT_NE(etag, nullptr);
    const std::uint64_t forwards_before =
        proxy_registry_.counter("cluster.forwards").value();
    const net::ClientResponse second =
        http.get("/v1/tile?tx=0&ty=0", {{"If-None-Match", *etag}});
    EXPECT_EQ(second.status, 304);
    EXPECT_TRUE(second.body.empty());
    // The 304 must not have touched any shard.
    EXPECT_EQ(proxy_registry_.counter("cluster.forwards").value(),
              forwards_before);
    EXPECT_EQ(proxy_registry_.counter("net.not_modified").value(), 1u);
}

TEST_F(ClusterEndToEnd, ReadyzAggregatesAndDegradesPerFleet) {
    net::HttpClient http("127.0.0.1", proxy_->port());
    const net::ClientResponse up = http.get("/readyz");
    EXPECT_EQ(up.status, 200) << up.body;
    EXPECT_NE(up.body.find("\"ready\":true"), std::string::npos);

    shards_[1].server->stop();
    const net::ClientResponse degraded = http.get("/readyz");
    EXPECT_EQ(degraded.status, 503);
    EXPECT_NE(degraded.body.find("\"ready\":false"), std::string::npos);
    EXPECT_NE(degraded.body.find("\"n2\""), std::string::npos);
    ASSERT_NE(degraded.header("retry-after"), nullptr);
}

TEST_F(ClusterEndToEnd, DeadShardDegradesOnlyItsOwnTiles) {
    net::HttpClient http("127.0.0.1", proxy_->port());
    // Find one tile per shard, then kill n3 and re-request both: n3's warm
    // tile is still served from the proxy's cache, its cold tiles get 503,
    // the other shard's tile keeps serving 200.
    TileKey dead_key{-1, -1, 0};
    TileKey live_key{-1, -1, 0};
    const std::uint64_t fp = shards_[0].service->fingerprint();
    for (std::int64_t tx = 0; tx < 16 && (dead_key.tx < 0 || live_key.tx < 0);
         ++tx) {
        const TileKey key{tx, 0, 0};
        const std::size_t owner = client_->map().owner(fp, key);
        if (client_->map().node(owner).name == "n3") {
            dead_key = key;
        } else if (live_key.tx < 0) {
            live_key = key;
        }
    }
    ASSERT_GE(dead_key.tx, 0);
    ASSERT_GE(live_key.tx, 0);
    const auto tile_target = [](const TileKey& key) {
        return "/v1/tile?tx=" + std::to_string(key.tx) +
               "&ty=" + std::to_string(key.ty);
    };
    // Warm the doomed tile through the proxy: it lands in the proxy's cache.
    const net::ClientResponse warm = http.get(tile_target(dead_key));
    ASSERT_EQ(warm.status, 200);
    shards_[2].server->stop();

    // A hit in the proxy's cache — its last-known-good store — never asks
    // the dead owner.
    const std::uint64_t forwards_before =
        proxy_registry_.counter("cluster.forwards").value();
    const net::ClientResponse cached = http.get(tile_target(dead_key));
    EXPECT_EQ(cached.status, 200);
    EXPECT_EQ(cached.body, warm.body);
    EXPECT_EQ(proxy_registry_.counter("cluster.forwards").value(), forwards_before);

    // A cold tile of the dead shard has no stale body: 503 + Retry-After.
    TileKey cold_key{-1, -1, 0};
    for (std::int64_t tx = 0; tx < 64; ++tx) {
        const TileKey key{tx, 7, 0};
        if (client_->map().node(client_->map().owner(fp, key)).name == "n3") {
            cold_key = key;
            break;
        }
    }
    ASSERT_GE(cold_key.tx, 0);
    const net::ClientResponse down = http.get(tile_target(cold_key));
    EXPECT_EQ(down.status, 503);
    ASSERT_NE(down.header("retry-after"), nullptr);

    // The rest of the fleet is untouched.
    EXPECT_EQ(http.get(tile_target(live_key)).status, 200);
}

TEST_F(ClusterEndToEnd, PyramidIsDerivedAtTheProxy) {
    // The proxy fetches the four base tiles from their owners and derives
    // the top tile itself.
    net::HttpClient http("127.0.0.1", proxy_->port());
    const net::ClientResponse resp = http.get("/v1/pyramid?tx=0&ty=0&z=1");
    ASSERT_EQ(resp.status, 200) << resp.body;
    ASSERT_NE(resp.header("x-rrs-tiles"), nullptr);
    EXPECT_EQ(*resp.header("x-rrs-tiles"), "5");  // 1 top + 4 children
}

TEST_F(ClusterEndToEnd, ProxiedTilesAndPyramidsMatchASingleShard) {
    // Zoom tiles and pyramids are derived at the proxy from owner-fetched
    // base tiles; every body must still be the bytes one node serves.  The
    // reference node is outside the fleet, so no pooled proxy connection
    // competes with this test's own for its workers.
    Shard single = boot_shard();
    net::HttpClient proxy("127.0.0.1", proxy_->port());
    net::HttpClient direct("127.0.0.1", single.port());
    for (const std::string target :
         {"/v1/tile?tx=1&ty=-1&z=0", "/v1/tile?tx=-1&ty=0&z=1",
          "/v1/tile?tx=0&ty=0&z=1", "/v1/pyramid?tx=0&ty=-1&z=1"}) {
        for (const std::string q : {"f32", "i16", "f64"}) {
            if (target.rfind("/v1/pyramid", 0) == 0 && q == "i16") {
                continue;  // pyramids reject i16 (per-tile quantization)
            }
            const std::string request = target + "&q=" + q;
            const net::ClientResponse via_proxy = proxy.get(request);
            const net::ClientResponse expect = direct.get(request);
            ASSERT_EQ(via_proxy.status, 200) << request << ": " << via_proxy.body;
            ASSERT_EQ(expect.status, 200) << request << ": " << expect.body;
            EXPECT_EQ(via_proxy.body, expect.body) << request;
            EXPECT_FALSE(via_proxy.body.empty()) << request;
        }
    }
    single.server->stop();
}

// Default options end to end: a default ClusterOptions proxy must never
// hold more pooled connections to a shard than a default shard admits, or
// the shard sheds the excess with 503.
TEST(ClusterDefaults, ConcurrentWindowsThroughDefaultProxyAreNeverShed) {
    std::vector<Shard> shards;
    for (int i = 0; i < 3; ++i) {
        shards.push_back(boot_shard());
        ASSERT_EQ(shards.back().server->options().workers,
                  net::HttpServer::Options{}.workers)
            << "the shards must run a default shard's admission cap";
    }
    const Topology topo = local_fleet({{"n1", shards[0].port()},
                                       {"n2", shards[1].port()},
                                       {"n3", shards[2].port()}});
    auto client = std::make_shared<ClusterClient>(topo);  // default options
    obs::MetricsRegistry proxy_registry;
    constexpr int kWindows = 16;
    net::HttpServer::Options popt;
    popt.workers = kWindows;  // the proxy itself admits every window at once
    popt.registry = &proxy_registry;
    net::HttpServer proxy(make_cluster_router(client, &proxy_registry), popt);
    proxy.start();

    const std::uint64_t fp = shards[0].service->fingerprint();
    std::vector<Rect> windows;
    for (int i = 0; i < kWindows; ++i) {
        // Distinct 128x128 windows (16 cold tiles each), never overlapping.
        windows.push_back(Rect{160 * (i % 4) - 320, 160 * (i / 4) - 320, 128, 128});
        std::set<std::size_t> owners;
        for (const TileKey& key : covering_tiles(TileShape{32, 32}, windows.back())) {
            owners.insert(client->map().owner(fp, key));
        }
        ASSERT_GE(owners.size(), 2u) << "window " << i << " spans one shard";
    }
    std::vector<int> statuses(kWindows, 0);
    std::vector<std::thread> drivers;
    for (int i = 0; i < kWindows; ++i) {
        drivers.emplace_back([&, i] {
            const Rect& w = windows[static_cast<std::size_t>(i)];
            try {
                net::HttpClient http("127.0.0.1", proxy.port());
                statuses[static_cast<std::size_t>(i)] =
                    http.get("/v1/window?x0=" + std::to_string(w.x0) +
                             "&y0=" + std::to_string(w.y0) + "&nx=128&ny=128")
                        .status;
            } catch (const Error&) {
                statuses[static_cast<std::size_t>(i)] = -1;
            }
        });
    }
    for (std::thread& d : drivers) {
        d.join();
    }
    for (int i = 0; i < kWindows; ++i) {
        EXPECT_EQ(statuses[static_cast<std::size_t>(i)], 200) << "window " << i;
    }
    proxy.stop();
    for (Shard& shard : shards) {
        shard.server->stop();
    }
}

// ------------------------------------------------------------ peer fill

TEST(PeerFill, ReshardServesMovedKeysFromPreviousOwnerWithoutRegeneration) {
    // Epoch 1: {A, B}.  Epoch 2: {B} — every key A owned must re-home to B.
    Shard a = boot_shard();
    const Topology previous =
        local_fleet({{"A", a.port()}, {"B", 1}}, /*epoch=*/1);
    const ShardMap prev_map(previous);

    const std::uint64_t fp = a.service->fingerprint();
    const std::vector<TileKey> keys = key_grid(4);
    std::size_t a_owned = 0;
    for (const TileKey& key : keys) {
        if (prev_map.node(prev_map.owner(fp, key)).name == "A") {
            ++a_owned;
            a.service->get(key);  // warm A's cache: the peer must have it
        }
    }
    ASSERT_GT(a_owned, 0u);
    ASSERT_LT(a_owned, keys.size());

    // B is a *fresh* node (cold cache, no store) taking over the keyspace.
    obs::MetricsRegistry fill_registry;
    PeerFillOptions fopt;
    fopt.registry = &fill_registry;
    auto b = make_scene_service();
    b->set_remote_fill(make_peer_filler(previous, "B", "scene", fp,
                                        b->shape(), fopt));
    for (const TileKey& key : keys) {
        const TilePtr mine = b->get(key);
        const TilePtr theirs = a.service->get(key);
        ASSERT_EQ(mine->size(), theirs->size());
        for (std::size_t i = 0; i < mine->size(); ++i) {
            ASSERT_EQ(mine->data()[i], theirs->data()[i])
                << "peer-filled tile differs from the origin";
        }
    }
    const MetricsSnapshot m = b->metrics();
    // The reshard acceptance property: every key A owned was served from
    // A's cache (remote fill), every key B already owned was generated —
    // no moved key was regenerated.
    EXPECT_EQ(m.remote_fills, a_owned);
    EXPECT_EQ(m.generations, keys.size() - a_owned);
    EXPECT_EQ(fill_registry.counter("cluster.peer_fills").value(), a_owned);
    EXPECT_EQ(fill_registry.counter("cluster.peer_fill_errors").value(), 0u);
    // Identity with the remote-fill term (service/metrics.hpp).
    EXPECT_EQ(m.generations + m.coalesced + m.l2_promotions + m.remote_fills,
              m.cache_misses);
    a.server->stop();
}

TEST(PeerFill, ColdPeerMissesFallBackToLocalGeneration) {
    Shard a = boot_shard();  // cold: nothing cached
    const Topology previous = local_fleet({{"A", a.port()}, {"B", 1}}, 1);
    obs::MetricsRegistry fill_registry;
    PeerFillOptions fopt;
    fopt.registry = &fill_registry;
    auto b = make_scene_service();
    const std::uint64_t fp = b->fingerprint();
    b->set_remote_fill(make_peer_filler(previous, "B", "scene", fp, b->shape(),
                                        fopt));
    for (const TileKey& key : key_grid(3)) {
        EXPECT_NE(b->get(key), nullptr);
    }
    const MetricsSnapshot m = b->metrics();
    EXPECT_EQ(m.remote_fills, 0u);
    EXPECT_EQ(m.generations, 9u);  // peer had nothing cached — all local
    EXPECT_EQ(fill_registry.counter("cluster.peer_fills").value(), 0u);
    EXPECT_GT(fill_registry.counter("cluster.peer_fill_misses").value(), 0u);
    a.server->stop();
}

TEST(PeerFill, UnreachablePeerDegradesToLocalGenerationSilently) {
    // Port 1 refuses connections: every fill errors, every error is
    // swallowed, every tile still generates locally.
    const Topology previous = local_fleet({{"A", 1}, {"B", 2}}, 1);
    obs::MetricsRegistry fill_registry;
    PeerFillOptions fopt;
    fopt.registry = &fill_registry;
    fopt.timeout_ms = 200;
    auto b = make_scene_service();
    b->set_remote_fill(make_peer_filler(previous, "B", "scene",
                                        b->fingerprint(), b->shape(), fopt));
    std::size_t foreign = 0;
    const ShardMap prev_map(previous);
    for (const TileKey& key : key_grid(3)) {
        foreign += prev_map.node(prev_map.owner(b->fingerprint(), key)).name == "A"
                       ? 1u
                       : 0u;
        EXPECT_NE(b->get(key), nullptr);
    }
    const MetricsSnapshot m = b->metrics();
    EXPECT_EQ(m.generations, 9u);
    EXPECT_EQ(m.remote_fills, 0u);
    EXPECT_EQ(fill_registry.counter("cluster.peer_fill_errors").value(), foreign);
}

TEST(PeerFill, RejectsInvalidConfiguration) {
    const Topology previous = local_fleet({{"A", 1}}, 1);
    EXPECT_THROW(
        make_peer_filler(previous, "B", "", 1, TileShape{8, 8}),
        ConfigError);
    EXPECT_THROW(
        make_peer_filler(previous, "B", "scene", 0, TileShape{8, 8}),
        ConfigError);
    EXPECT_THROW(
        make_peer_filler(previous, "B", "scene", 1, TileShape{0, 8}),
        ConfigError);
}

// --------------------------------------------------------- client knobs

TEST(ClusterClientConfig, RejectsInvalidOptions) {
    const Topology topo = local_fleet({{"a", 1}});
    ClusterOptions bad;
    bad.timeout_ms = 0;
    EXPECT_THROW(ClusterClient(topo, bad), ConfigError);
    bad = ClusterOptions{};
    bad.connections_per_node = 0;
    EXPECT_THROW(ClusterClient(topo, bad), ConfigError);
    bad = ClusterOptions{};
    bad.fanout_threads = 0;
    EXPECT_THROW(ClusterClient(topo, bad), ConfigError);
    EXPECT_THROW(make_cluster_router(nullptr), ConfigError);
}

TEST(ClusterClientConfig, BreakerOpensForDeadNodeOnly) {
    Shard live = boot_shard();
    const Topology topo =
        local_fleet({{"live", live.port()}, {"dead", 1}});
    ClusterOptions copt;
    copt.timeout_ms = 300;
    copt.breaker_failures = 2;
    copt.breaker_open_ms = 60'000;  // stays open for the rest of the test
    obs::MetricsRegistry registry;
    copt.registry = &registry;
    ClusterClient client(topo, copt);
    EXPECT_EQ(client.forward(0, "/healthz").status, 200);
    for (int i = 0; i < 2; ++i) {
        EXPECT_THROW(client.forward(1, "/healthz"), NodeUnavailableError);
    }
    // Third failure short-circuits on the open breaker — no socket burned.
    EXPECT_THROW(client.forward(1, "/healthz"), NodeUnavailableError);
    EXPECT_EQ(client.breaker_state(1), fault::CircuitBreaker::State::kOpen);
    EXPECT_EQ(client.breaker_state(0), fault::CircuitBreaker::State::kClosed);
    EXPECT_GE(registry.counter("cluster.short_circuited").value(), 1u);
    // The live node is untouched by its neighbour's outage.
    EXPECT_EQ(client.forward(0, "/healthz").status, 200);
    live.server->stop();
}

}  // namespace
}  // namespace rrs::cluster
