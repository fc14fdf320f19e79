#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <numbers>
#include <random>
#include <stdexcept>
#include <thread>

#include "cluster/client.hpp"
#include "http_load.hpp"
#include "json_scan.hpp"
#include "layers.hpp"
#include "net/tile_routes.hpp"
#include "procs.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kTile = 256;
constexpr std::size_t kTilePoints = static_cast<std::size_t>(kTile * kTile);
const char* const kFig1 = "fig1_quadrants";
const char* const kFig4 = "fig4_points";

// Connections of each closed loop (README "Connections").
constexpr int kHotConns = 4;
constexpr int kColdFig1Conns = 1;
constexpr int kColdFig4Conns = 2;
/// Fewer than the 4 workers of a default rrsd: a just-closed /readyz
/// connection can still hold one for a moment.
constexpr int kWarmConns = 3;
/// Set-ups per untraced hot_tiles run; the first is not counted.
constexpr int kSetups = 6;

// ---------------------------------------------------------------- helpers

double percentile(std::vector<double> v, double p) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

std::string tile_target(const rrs::TileKey& k, const char* q) {
    return "/v1/tile?tx=" + std::to_string(k.tx) + "&ty=" + std::to_string(k.ty) + "&q=" + q;
}

template <typename T>
std::vector<T> pick(std::vector<T> pool, std::size_t n, std::mt19937_64& rng) {
    if (pool.size() < n) {
        throw std::logic_error("candidate pool smaller than the draw");
    }
    std::shuffle(pool.begin(), pool.end(), rng);
    pool.resize(n);
    return pool;
}

/// The f32 wire body the server must send for a tile whose f64 body is
/// `f64`: every double narrowed to float, little-endian.
std::string narrow_f32(const std::string& f64) {
    const std::size_t n = f64.size() / 8;
    std::string out(n * 4, '\0');
    for (std::size_t i = 0; i < n; ++i) {
        double d = 0.0;
        std::memcpy(&d, f64.data() + i * 8, 8);
        const auto f = static_cast<float>(d);
        std::memcpy(out.data() + i * 4, &f, 4);
    }
    return out;
}

/// Output-check failures: counted, the first few described on stderr.
class Checks {
public:
    /// A failed operation: counted in `failed`, not an output error.
    void note(const std::string& what) {
        const std::lock_guard lock(mutex_);
        if (notes_++ < 20) {
            std::cerr << "perfbench: failed: " << what << "\n";
        }
    }
    void fail(const std::string& what) {
        const std::lock_guard lock(mutex_);
        if (count_ < 20) {
            std::cerr << "perfbench: check failed: " << what << "\n";
        }
        ++count_;
    }
    bool ok() const {
        const std::lock_guard lock(mutex_);
        return count_ == 0;
    }

private:
    mutable std::mutex mutex_;
    std::uint64_t count_ = 0;
    std::uint64_t notes_ = 0;
};

// ------------------------------------------------------------ closed loop

struct Request {
    std::string target;
    std::string if_none_match;
    std::size_t item = 0;  ///< workload-specific index (tile, window)
    int kind = 0;          ///< workload-specific request kind
};

enum class Verdict { kOk, kFailed, kWrong };
using Checker = std::function<Verdict(const Request&, const Response&, std::string& why)>;

/// What one timed phase measured.
struct Phase {
    std::vector<double> latency_ms;
    std::vector<double> done_s;  ///< completion time of each request, from phase start
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double wall_s = 0.0;

    void append(const Phase& o) {
        latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
        for (const double t : o.done_s) {
            done_s.push_back(wall_s + t);
        }
        attempted += o.attempted;
        failed += o.failed;
        wall_s += o.wall_s;
    }
};

/// `conns` connections take requests from `round` in order, each sending
/// its next request only after its previous reply, and stop at the first
/// round boundary after `seconds` (so a run always attempts whole rounds;
/// `seconds` = 0 runs exactly one round).
Phase closed_loop(std::uint16_t port, const std::vector<Request>& round, int conns,
                  double seconds, const Checker& check, Checks& checks) {
    std::mutex mutex;
    std::uint64_t next = 0;
    bool stop = false;
    const std::uint64_t R = round.size();
    auto t0 = Clock::now();
    auto take = [&]() -> std::int64_t {
        const std::lock_guard lock(mutex);
        if (stop || (next > 0 && next % R == 0 && seconds_since(t0) >= seconds)) {
            stop = true;
            return -1;
        }
        return static_cast<std::int64_t>(next++);
    };
    // Connect before the clock starts.  A connection the client closed just
    // before (set-up, /metrics) can hold a server worker for a moment, and
    // a connection beyond the worker count is shed with 503, so each new
    // connection is retried until admitted.
    std::vector<std::unique_ptr<Conn>> open;
    for (int c = 0; c < conns; ++c) {
        open.push_back(std::make_unique<Conn>(port));
        for (int attempt = 0; open.back()->get("/healthz").status != 200; ++attempt) {
            if (attempt == 100) {
                throw std::runtime_error("connection not admitted within a second");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    }
    std::vector<Phase> per(static_cast<std::size_t>(conns));
    std::vector<std::thread> threads;
    t0 = Clock::now();
    for (int c = 0; c < conns; ++c) {
        threads.emplace_back([&, c] {
            Phase& mine = per[static_cast<std::size_t>(c)];
            Conn& conn = *open[static_cast<std::size_t>(c)];
            for (std::int64_t k = take(); k >= 0; k = take()) {
                const Request& rq = round[static_cast<std::uint64_t>(k) % R];
                ++mine.attempted;
                const auto s = Clock::now();
                try {
                    const Response& r = conn.get(rq.target, rq.if_none_match);
                    const auto e = Clock::now();
                    const double ms = std::chrono::duration<double, std::milli>(e - s).count();
                    const double done = std::chrono::duration<double>(e - t0).count();
                    std::string why;
                    switch (check(rq, r, why)) {
                        case Verdict::kOk:
                            mine.latency_ms.push_back(ms);
                            mine.done_s.push_back(done);
                            break;
                        case Verdict::kFailed:
                            ++mine.failed;
                            checks.note(rq.target + ": " + why);
                            break;
                        case Verdict::kWrong:
                            mine.latency_ms.push_back(ms);
                            mine.done_s.push_back(done);
                            checks.fail(rq.target + ": " + why);
                            break;
                    }
                } catch (const std::exception& e) {
                    ++mine.failed;
                    checks.note(rq.target + ": " + e.what());
                }
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    Phase out;
    for (const Phase& p : per) {
        out.append(p);
    }
    out.wall_s = seconds_since(t0);
    return out;
}

/// GET every target (status 200 required) over `conns` parallel
/// connections; returns the bodies in target order.
std::vector<std::string> fetch_all(std::uint16_t port, const std::vector<std::string>& targets,
                                   int conns, std::string* fingerprint = nullptr) {
    std::vector<std::string> bodies(targets.size());
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::string error;
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c) {
        threads.emplace_back([&] {
            Conn conn(port);
            for (std::size_t i = next++; i < targets.size(); i = next++) {
                try {
                    const Response& r = conn.get(targets[i]);
                    if (r.status != 200) {
                        throw std::runtime_error("status " + std::to_string(r.status));
                    }
                    bodies[i].assign(r.body);
                    if (fingerprint != nullptr && i == 0) {
                        const std::lock_guard lock(mutex);
                        *fingerprint = r.fingerprint;
                    }
                } catch (const std::exception& e) {
                    const std::lock_guard lock(mutex);
                    error = targets[i] + ": " + e.what();
                }
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    if (!error.empty()) {
        throw std::runtime_error("warm-up fetch failed: " + error);
    }
    return bodies;
}

/// GET an operational endpoint.  Right after a load phase the server may
/// still count a just-closed connection against its admission cap and shed
/// this one with 503, so that is retried for up to a second.
std::string fetch_endpoint(std::uint16_t port, const char* path) {
    std::string body;
    for (int attempt = 0;; ++attempt) {
        const int status = get_once(port, path, &body);
        if (status == 200) {
            return body;
        }
        if (status != 503 || attempt == 100) {
            throw std::runtime_error(std::string(path) + " answered " + std::to_string(status));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

Counters fetch_counters(std::uint16_t port) {
    return parse_counters(fetch_endpoint(port, "/metrics"));
}

std::map<std::string, double> fetch_self_ms(std::uint16_t port) {
    return span_self_ms(fetch_endpoint(port, "/tracez"));
}

void add_into(std::map<std::string, double>& into, const std::map<std::string, double>& from) {
    for (const auto& [k, v] : from) {
        into[k] += v;
    }
}

// --------------------------------------------------------------- one pass

/// Everything one pass of a workload measured.
struct Pass {
    Phase phase;
    std::vector<double> setup_s;  ///< each counted set-up
    std::vector<double> ready_s;  ///< launch -> /readyz 200, each server
    std::vector<double> rss_mib;  ///< VmHWM summed over servers, after each timed phase
    Counters front;               ///< timed phase, server the client talks to
    Counters back;                ///< timed phase, summed over generating servers
    Counters gen;                 ///< over every generation of the pass
    std::map<std::string, double> self_ms;  ///< span self time, traced passes
    ProcCounters proc;            ///< timed phase, summed over servers
    double client_cpu_s = 0.0;

    double throughput() const {
        return phase.wall_s > 0.0
                   ? static_cast<double>(phase.attempted - phase.failed) / phase.wall_s
                   : 0.0;
    }
};

/// Per-layer inputs a traced pass leaves behind for the in-process timings.
struct LayerInputs {
    std::vector<std::string> heads;
    std::string f64_body;       ///< one 256² tile, f64 wire body
    std::string response_body;  ///< the workload's typical response body
    std::vector<rrs::Rect> gen_rects;  ///< tiles to generate in-process
};

struct Ctx {
    const RunConfig& cfg;
    std::mt19937_64 rng;
    Checks checks;
    SceneModel scene;
    std::string scene_path;
    LayerInputs inputs;
    LayerMetrics layers;
    SpanLog spans;

    Ctx(const RunConfig& c, const char* scene_name)
        : cfg(c),
          rng(c.seed * 0x9E3779B97F4A7C15ULL + std::hash<std::string>{}(c.workload)),
          scene_path(c.scenes + "/" + scene_name + ".rrs") {
        scene = load_scene(scene_path);
    }

    std::vector<std::string> server_args(bool traced, std::vector<std::string> extra = {}) const {
        std::vector<std::string> a{scene_path};
        if (traced) {
            a.emplace_back("--trace");
        }
        a.insert(a.end(), extra.begin(), extra.end());
        return a;
    }
};

/// The served f64 body of `key` must be what the generator built in this
/// process from the same sources yields, byte for byte (the host and the
/// wire are both little-endian).
void check_against_generator(Ctx& c, const rrs::TileKey& key, const std::string& body) {
    on_pool_worker([&] {
        const rrs::Array2D<double> mine =
            c.scene.gen->generate(rrs::tile_rect(rrs::TileShape{kTile, kTile}, key));
        if (body.size() != mine.size() * sizeof(double) ||
            std::memcmp(body.data(), mine.data(), body.size()) != 0) {
            c.checks.fail(c.cfg.workload + ": served tile " + tile_target(key, "f64") +
                          " differs from an in-process generation");
        }
    });
}

std::vector<std::string> heads_of(const std::vector<Request>& round) {
    std::vector<std::string> heads;
    for (const Request& r : round) {
        heads.push_back(Conn::request_head(r.target, r.if_none_match));
    }
    return heads;
}

// -------------------------------------------------------------- hot_tiles

enum HotKind { kHotF32, kHotI16, kHotF64, kHot304 };

struct HotSet {
    std::vector<rrs::TileKey> keys;  ///< working set: a 6 × 6 tile block
    std::vector<Request> round;
};

HotSet hot_inputs(Ctx& c) {
    HotSet s;
    std::uniform_int_distribution<int> origin(-4, -2);
    const int ox = origin(c.rng);
    const int oy = origin(c.rng);
    for (int ty = oy; ty < oy + 6; ++ty) {
        for (int tx = ox; tx < ox + 6; ++tx) {
            s.keys.push_back(rrs::TileKey{tx, ty, 0});
        }
    }
    // 200 requests a round: 140 f32, 20 i16, 20 f64, 20 conditional f32.
    std::vector<int> kinds;
    kinds.insert(kinds.end(), 140, kHotF32);
    kinds.insert(kinds.end(), 20, kHotI16);
    kinds.insert(kinds.end(), 20, kHotF64);
    kinds.insert(kinds.end(), 20, kHot304);
    std::shuffle(kinds.begin(), kinds.end(), c.rng);
    std::uniform_int_distribution<std::size_t> tile(0, s.keys.size() - 1);
    for (const int kind : kinds) {
        Request r;
        r.item = tile(c.rng);
        r.kind = kind;
        const char* q = kind == kHotI16 ? "i16" : kind == kHotF64 ? "f64" : "f32";
        r.target = tile_target(s.keys[r.item], q);
        if (kind == kHot304) {
            // The scene fingerprint is a pure function of the scene, so the
            // in-process generator knows the ETag rrsd must send.
            r.if_none_match =
                rrs::net::tile_etag(c.scene.gen->fingerprint(), s.keys[r.item], "f32");
        }
        s.round.push_back(std::move(r));
    }
    return s;
}

Pass hot_pass(Ctx& c, const HotSet& set, bool traced, double seconds, int setups,
              bool layers) {
    Pass p;
    std::vector<std::string> f64_targets;
    for (const rrs::TileKey& k : set.keys) {
        f64_targets.push_back(tile_target(k, "f64"));
    }
    std::unique_ptr<Server> srv;
    std::vector<std::string> f64;
    std::string fp_text;
    Counters booted;
    for (int s = 0; s < setups; ++s) {
        srv.reset();
        const auto t0 = Clock::now();
        srv = std::make_unique<Server>(c.cfg.rrsd, c.server_args(traced), c.cfg.run_dir, "hot");
        p.ready_s.push_back(srv->wait_ready());
        if (traced) {
            booted = fetch_counters(srv->port());  // scene load counts too
        }
        std::vector<std::string> bodies = fetch_all(srv->port(), f64_targets, kWarmConns, &fp_text);
        p.setup_s.push_back(seconds_since(t0));
        if (!f64.empty() && bodies != f64) {
            c.checks.fail("hot_tiles: f64 tiles differ between two boots");
        }
        f64 = std::move(bodies);
    }
    // The first boot of a run is not counted (binary and scene files cold).
    if (p.setup_s.size() > 1) {
        p.setup_s.erase(p.setup_s.begin());
    }
    check_against_generator(c, set.keys[0], f64[0]);
    const std::uint64_t fp = std::strtoull(fp_text.c_str(), nullptr, 10);
    if (fp != c.scene.gen->fingerprint()) {
        c.checks.fail("hot_tiles: served fingerprint differs from the scene's");
    }
    std::vector<std::string> f32;
    std::vector<std::string> etag;
    for (std::size_t i = 0; i < set.keys.size(); ++i) {
        f32.push_back(narrow_f32(f64[i]));
        etag.push_back(rrs::net::tile_etag(fp, set.keys[i], "f32"));
    }

    // Full-body answers: each is one service hit; a 304 is answered from
    // the ETag alone.
    std::atomic<std::uint64_t> full_answers{0};
    const Checker check = [&](const Request& rq, const Response& r, std::string& why) {
        const std::size_t t = rq.item;
        if (rq.kind == kHot304) {
            if (r.status != 304) {
                why = "status " + std::to_string(r.status);
                return Verdict::kFailed;
            }
            if (!r.body.empty() || r.etag != etag[t]) {
                why = "304 with a body or a different ETag";
                return Verdict::kWrong;
            }
            return Verdict::kOk;
        }
        ++full_answers;
        if (r.status != 200) {
            why = "status " + std::to_string(r.status);
            return Verdict::kFailed;
        }
        switch (rq.kind) {
            case kHotF32:
                if (r.body != f32[t] || r.etag != etag[t]) {
                    why = "f32 body is not the f64 body narrowed, or its ETag differs";
                    return Verdict::kWrong;
                }
                break;
            case kHotF64:
                if (r.body != f64[t]) {
                    why = "f64 body differs from the warm-up body";
                    return Verdict::kWrong;
                }
                break;
            default: {  // i16: every sample within one quantum of the double
                const double scale = std::strtod(r.scale.c_str(), nullptr);
                const double offset = std::strtod(r.offset.c_str(), nullptr);
                if (r.body.size() != kTilePoints * 2 || !(scale > 0.0)) {
                    why = "i16 body size or scale";
                    return Verdict::kWrong;
                }
                for (std::size_t i = 0; i < kTilePoints; ++i) {
                    std::int16_t q = 0;
                    double v = 0.0;
                    std::memcpy(&q, r.body.data() + 2 * i, 2);
                    std::memcpy(&v, f64[t].data() + 8 * i, 8);
                    if (std::fabs(offset + scale * q - v) > scale) {
                        why = "i16 sample off by more than one quantum";
                        return Verdict::kWrong;
                    }
                }
            }
        }
        return Verdict::kOk;
    };

    const Counters before = fetch_counters(srv->port());
    if (traced) {
        p.gen = delta(before, booted);  // the generations of the warm-up
        p.self_ms = fetch_self_ms(srv->port());
    }
    const ProcCounters proc0 = srv->counters();
    const double cpu0 = self_cpu_seconds();
    p.phase = closed_loop(srv->port(), set.round, kHotConns, seconds, check, c.checks);
    p.client_cpu_s = self_cpu_seconds() - cpu0;
    const ProcCounters proc1 = srv->counters();
    p.proc = proc1 - proc0;
    p.rss_mib.push_back(proc1.hwm_mib);
    p.front = delta(fetch_counters(srv->port()), before);
    p.back = p.front;
    if (value(p.back, "service.tile.generations") != 0.0) {
        c.checks.fail("hot_tiles: the timed phase generated tiles");
    }
    if (value(p.back, "service.tile.hits") != static_cast<double>(full_answers.load())) {
        c.checks.fail("hot_tiles: service hits differ from the full-body answers");
    }
    if (layers) {
        LayerInputs& in = c.inputs;
        in.heads = heads_of(set.round);
        in.f64_body = f64[0];
        in.response_body = f32[0];
        for (std::size_t i = 0; i < 4; ++i) {
            in.gen_rects.push_back(rrs::tile_rect(rrs::TileShape{kTile, kTile}, set.keys[i * 7]));
        }
        // A 2 × 2-tile window inside the warm block.
        const rrs::TileKey& k = set.keys[0];
        const rrs::Rect window{k.tx * kTile + 64, k.ty * kTile + 64, 384, 384};
        measure_cluster(c.spans, in.f64_body, set.keys, fp, {srv->port()}, kFig1, window,
                        c.layers);
    }
    return p;
}

// ------------------------------------------------------------ cold tiles

/// One round's tiles and the class of each (README "Workloads").
struct ColdSet {
    std::vector<rrs::TileKey> keys;
    std::vector<std::string> cls;
    std::vector<Request> round;
};

/// Candidates: the 8 × 8 tiles of the scene's 2048² viewport around the
/// origin, classed by the regions they touch.
ColdSet cold_inputs(Ctx& c, bool fig4) {
    const rrs::InhomogeneousGenerator& gen = *c.scene.gen;
    std::vector<bool> fft_region;
    for (const auto& k : gen.kernels()) {
        fft_region.push_back(!k.separable().has_value());
    }
    std::map<std::string, std::vector<rrs::TileKey>> pool;
    for (std::int64_t ty = -4; ty < 4; ++ty) {
        for (std::int64_t tx = -4; tx < 4; ++tx) {
            const rrs::TileKey key{tx, ty, 0};
            const auto regions =
                regions_touching(gen, rrs::tile_rect(rrs::TileShape{kTile, kTile}, key));
            bool fft = false;
            for (const std::size_t m : regions) {
                fft = fft || fft_region[m];
            }
            std::string cls;
            if (fig4) {
                cls = fft ? "fft" : regions.size() == 1 ? "one-region" : "transition";
            } else {
                cls = regions.size() == 1   ? "interior/q" + std::to_string(regions[0])
                      : regions.size() == 2 ? "seam"
                                            : "corner";
            }
            pool[cls].push_back(key);
        }
    }
    // Fixed counts per class, and a fixed slot order of classes; the seed
    // picks the tiles.
    std::vector<std::pair<std::string, std::size_t>> plan;
    std::vector<std::string> slots;
    if (fig4) {
        // 16 tiles: 4 FFT (25%) so p50 sits in the separable mode and p90
        // in the FFT mode.
        plan = {{"fft", 4}, {"one-region", 6}, {"transition", 6}};
        slots = {"fft", "one-region", "transition", "one-region",
                 "fft", "transition", "one-region", "transition",
                 "fft", "one-region", "transition", "one-region",
                 "fft", "transition", "one-region", "transition"};
    } else {
        // 32 tiles: 24 interior (6 per quadrant), 6 seam, 2 corner.
        plan = {{"interior/q0", 6}, {"interior/q1", 6}, {"interior/q2", 6},
                {"interior/q3", 6}, {"seam", 6},        {"corner", 2}};
        for (int i = 0; i < 2; ++i) {
            slots.insert(slots.end(), {"interior/q0", "interior/q1", "seam", "interior/q2",
                                       "interior/q3", "interior/q0", "seam", "interior/q1",
                                       "interior/q2", "corner", "interior/q3", "interior/q0",
                                       "seam", "interior/q1", "interior/q2", "interior/q3"});
        }
    }
    std::map<std::string, std::vector<rrs::TileKey>> drawn;
    for (const auto& [cls, n] : plan) {
        drawn[cls] = pick(pool[cls], n, c.rng);
    }
    ColdSet s;
    for (const std::string& cls : slots) {
        std::vector<rrs::TileKey>& from = drawn.at(cls);
        s.keys.push_back(from.back());
        s.cls.push_back(cls);
        from.pop_back();
    }
    for (std::size_t i = 0; i < s.keys.size(); ++i) {
        Request r;
        r.item = i;
        r.target = tile_target(s.keys[i], "f64");
        s.round.push_back(std::move(r));
    }
    return s;
}

/// Reference tolerance: the served FFT/separable result against the
/// literal per-point kernel sums of eqs. (37)/(46).
constexpr double kReferenceTol = 1e-9;

constexpr std::uint64_t kMinColdSamples = 110;

Pass cold_pass(Ctx& c, const ColdSet& set, int conns, bool traced, double seconds,
               bool layers, std::vector<std::string>& bodies) {
    Pass p;
    bodies.assign(set.keys.size(), std::string());
    std::mutex bodies_mutex;
    const Checker check = [&](const Request& rq, const Response& r, std::string& why) {
        if (r.status != 200) {
            why = "status " + std::to_string(r.status);
            return Verdict::kFailed;
        }
        if (r.body.size() != kTilePoints * 8) {
            why = "f64 body of " + std::to_string(r.body.size()) + " bytes";
            return Verdict::kWrong;
        }
        const std::lock_guard lock(bodies_mutex);
        std::string& seen = bodies[rq.item];
        if (seen.empty()) {
            seen.assign(r.body);
        } else if (seen != r.body) {
            why = "tile differs between two fresh servers";
            return Verdict::kWrong;
        }
        return Verdict::kOk;
    };
    const double round_generations = static_cast<double>(set.round.size());
    // Whole rounds until `seconds` have passed, and enough of them that p90
    // keeps more than ten samples beyond it on a slow machine.
    while (p.phase.wall_s < seconds || p.phase.attempted < kMinColdSamples) {
        Server srv(c.cfg.rrsd, c.server_args(traced), c.cfg.run_dir, "cold");
        const double ready = srv.wait_ready();
        p.ready_s.push_back(ready);
        p.setup_s.push_back(ready);
        const Counters before = fetch_counters(srv.port());
        const ProcCounters proc0 = srv.counters();
        const double cpu0 = self_cpu_seconds();
        p.phase.append(closed_loop(srv.port(), set.round, conns, 0.0, check, c.checks));
        p.client_cpu_s += self_cpu_seconds() - cpu0;
        const ProcCounters proc1 = srv.counters();
        p.proc += proc1 - proc0;
        p.rss_mib.push_back(proc1.hwm_mib);
        const Counters d = delta(fetch_counters(srv.port()), before);
        if (value(d, "service.tile.generations") != round_generations ||
            value(d, "service.tile.hits") != 0.0) {
            c.checks.fail("cold: a round did not generate every tile exactly once");
        }
        add_into(p.front, d);
        add_into(p.gen, d);
        if (traced) {
            add_into(p.self_ms, fetch_self_ms(srv.port()));
        }
        if (layers && p.phase.wall_s >= seconds && p.phase.attempted >= kMinColdSamples) {
            // Last round: the cluster client against this node, on a window
            // inside one tile it has just served.
            const rrs::TileKey& k = set.keys[0];
            const rrs::Rect window{k.tx * kTile + 32, k.ty * kTile + 32, 192, 192};
            measure_cluster(c.spans, bodies[0], set.keys, c.scene.gen->fingerprint(),
                            {srv.port()}, c.scene_path.find(kFig4) != std::string::npos
                                              ? kFig4
                                              : kFig1,
                            window, c.layers);
        }
    }
    p.back = p.front;
    // The first boot of a run is not counted (binary and scene files cold).
    if (p.setup_s.size() > 1) {
        p.setup_s.erase(p.setup_s.begin());
    }
    return p;
}

/// Property and reference checks on the tiles cold rounds served.
void check_cold_tiles(Ctx& c, const ColdSet& set, const std::vector<std::string>& bodies) {
    const rrs::InhomogeneousGenerator& gen = *c.scene.gen;
    const rrs::TileShape shape{kTile, kTile};
    // 1. A seeded 3 × 3 sub-window of every tile of the round against the
    //    literal kernel sums, so every region and transition the round
    //    serves is compared with the reference.
    std::uniform_int_distribution<std::int64_t> at(0, kTile - 3);
    for (std::size_t i = 0; i < set.keys.size(); ++i) {
        if (bodies[i].empty()) {
            continue;
        }
        const rrs::Rect tile = rrs::tile_rect(shape, set.keys[i]);
        const std::int64_t ox = at(c.rng);
        const std::int64_t oy = at(c.rng);
        const rrs::Array2D<double> ref =
            gen.generate_reference(rrs::Rect{tile.x0 + ox, tile.y0 + oy, 3, 3});
        const rrs::Array2D<double> served = rrs::cluster::decode_tile_f64(bodies[i], kTile, kTile);
        bool matches = true;
        for (std::size_t y = 0; y < 3; ++y) {
            for (std::size_t x = 0; x < 3; ++x) {
                const double s = served(static_cast<std::size_t>(ox) + x,
                                        static_cast<std::size_t>(oy) + y);
                const double r = ref(x, y);
                matches = matches &&
                          std::fabs(s - r) <= kReferenceTol * std::max(1.0, std::fabs(r));
            }
        }
        if (!matches) {
            c.checks.fail("cold: tile " + set.round[i].target +
                          " departs from the reference kernel sums");
        }
    }
    // 2. Pooled variance of the interior tiles of each region against h².
    //    A 256² tile of a field with correlation length cl holds about
    //    N / (π cl²) independent samples, so its mean square has a relative
    //    standard error of about cl·sqrt(π/N); pooled over k tiles, that
    //    over sqrt(k).  Tolerance: four standard errors.
    const std::size_t M = gen.map().region_count();
    std::vector<double> sum_sq(M, 0.0);
    std::vector<std::size_t> tiles(M, 0);
    for (std::size_t i = 0; i < set.keys.size(); ++i) {
        const rrs::Rect rect = rrs::tile_rect(shape, set.keys[i]);
        const auto regions = regions_touching(gen, rect);
        if (regions.size() != 1 || bodies[i].empty()) {
            continue;
        }
        const rrs::Array2D<double> a = rrs::cluster::decode_tile_f64(bodies[i], kTile, kTile);
        double s = 0.0;
        for (const double v : a) {
            s += v * v;
        }
        sum_sq[regions[0]] += s / static_cast<double>(kTilePoints);
        ++tiles[regions[0]];
    }
    for (std::size_t m = 0; m < M; ++m) {
        if (tiles[m] == 0) {
            continue;
        }
        const rrs::SurfaceParams& sp = gen.map().spectrum(m)->params();
        const double k = static_cast<double>(tiles[m]);
        const double ratio = sum_sq[m] / k / (sp.h * sp.h);
        const double cl = std::sqrt(sp.clx * sp.cly);
        const double se = cl * std::sqrt(std::numbers::pi / static_cast<double>(kTilePoints)) / std::sqrt(k);
        if (std::fabs(ratio - 1.0) > 4.0 * se) {
            c.checks.fail("cold: region " + std::to_string(m) + " interior variance is " +
                          std::to_string(ratio) + " h² over " + std::to_string(tiles[m]) +
                          " tiles (tolerance ±" + std::to_string(4.0 * se) + ")");
        }
    }
}

// ------------------------------------------------------------- reporting

/// Requests a 1-s slice must hold for per-slice statistics: p90 then has
/// ten samples beyond it.
constexpr std::size_t kSliceMin = 100;

void end_to_end(const Pass& p, Outcome& out) {
    // Throughput and percentiles per 1-s slice of the timed phase, and the
    // median slice, when every whole slice is large enough: a few seconds of
    // interference from other tenants of the machine then move nothing.
    // Otherwise (cold tiles) over the whole run.
    const auto n_slices = static_cast<std::size_t>(p.phase.wall_s);
    std::vector<std::vector<double>> slices(n_slices);
    for (std::size_t i = 0; i < p.phase.done_s.size(); ++i) {
        const auto k = static_cast<std::size_t>(p.phase.done_s[i]);
        if (k < n_slices) {
            slices[k].push_back(p.phase.latency_ms[i]);
        }
    }
    bool sliced = n_slices >= 3;
    for (const auto& sl : slices) {
        sliced = sliced && sl.size() >= kSliceMin;
    }
    double rps = p.throughput();
    double p50 = percentile(p.phase.latency_ms, 0.5);
    double p90 = percentile(p.phase.latency_ms, 0.9);
    if (sliced) {
        std::vector<double> r, a, b;
        for (const auto& sl : slices) {
            r.push_back(static_cast<double>(sl.size()));
            a.push_back(percentile(sl, 0.5));
            b.push_back(percentile(sl, 0.9));
        }
        rps = median(r);
        p50 = median(a);
        p90 = median(b);
    }
    out.metrics.push_back({"throughput_rps", rps, "1/s"});
    out.metrics.push_back({"latency_p50_ms", p50, "ms"});
    out.metrics.push_back({"latency_p90_ms", p90, "ms"});
    out.metrics.push_back({"setup_s", median(p.setup_s), "s"});
    out.metrics.push_back({"peak_rss_mb", median(p.rss_mib), "MiB"});
}

const char* const kSpans[] = {"noise.fill",     "inhom.weights", "inhom.blend", "conv.separable",
                              "conv.fft",       "fft.forward",   "fft.inverse"};

void per_layer(Ctx& c, const Pass& plain, const Pass& traced, Outcome& out) {
    const LayerInputs& in = c.inputs;
    const rrs::Array2D<double> tile = rrs::cluster::decode_tile_f64(in.f64_body, kTile, kTile);
    measure_net(c.spans, in.heads, tile, in.response_body, c.layers);
    measure_service_hit(c.spans, tile, c.layers);
    measure_core(c.spans, *c.scene.gen, in.gen_rects, c.layers);

    const double req = static_cast<double>(traced.phase.attempted);
    const double tiles = std::max(1.0, value(traced.gen, "inhom.tiles"));
    std::vector<double> ready_ms;
    for (const Pass* p : {&plain, &traced}) {
        for (const double s : p->ready_s) {
            ready_ms.push_back(s * 1e3);
        }
    }
    LayerMetrics& L = c.layers;
    auto add = [&](const std::string& name, double v, const char* unit) {
        out.metrics.push_back({name, v, unit});
    };
    add("net.parse_us", L.at("net.parse_us"), "us");
    add("net.encode_f32_us", L.at("net.encode_f32_us"), "us");
    add("net.encode_i16_us", L.at("net.encode_i16_us"), "us");
    add("net.encode_f64_us", L.at("net.encode_f64_us"), "us");
    add("net.serialize_us", L.at("net.serialize_us"), "us");
    add("net.bytes_out_per_req", value(traced.front, "net.bytes_out") / req, "B");
    add("net.ready_ms", median(ready_ms), "ms");
    add("service.hit_us", L.at("service.hit_us"), "us");
    add("service.generations_per_req", value(traced.back, "service.tile.generations") / req,
        "count");
    add("service.hits_per_req", value(traced.back, "service.tile.hits") / req, "count");
    add("core.generate_ms_per_tile", L.at("core.generate_ms_per_tile"), "ms");
    add("core.blend_weights_ms_per_tile", L.at("core.blend_weights_ms_per_tile"), "ms");
    for (const char* span : kSpans) {
        const auto it = traced.self_ms.find(span);
        add(std::string("core.self_ms_per_tile.") + span,
            it == traced.self_ms.end() ? 0.0 : it->second / tiles, "ms");
    }
    add("core.noise_points_per_tile", value(traced.gen, "noise.points") / tiles, "count");
    add("core.conv_points_per_tile", value(traced.gen, "conv.points") / tiles, "count");
    add("core.fft_calls_per_tile",
        (value(traced.gen, "fft.forward") + value(traced.gen, "fft.inverse")) / tiles, "count");
    add("core.kernel_build_ms", c.scene.kernel_build_ms, "ms");
    add("io.scene_build_ms", c.scene.parse_ms, "ms");
    add("cluster.forwards_per_window", value(traced.front, "cluster.forwards") / req, "count");
    add("cluster.client_window_ms", L.at("cluster.client_window_ms"), "ms");
    add("cluster.decode_f64_us", L.at("cluster.decode_f64_us"), "us");
    add("cluster.owner_ns", L.at("cluster.owner_ns"), "ns");
    add("server.cpu_us_per_req", traced.proc.cpu_s * 1e6 / req, "us");
    add("server.minor_faults_per_req", static_cast<double>(traced.proc.minor_faults) / req,
        "count");
    add("server.ctx_switches_per_req", static_cast<double>(traced.proc.ctx_switches) / req,
        "count");
    add("client.cpu_share", traced.client_cpu_s / traced.phase.wall_s, "share");
    add("trace.overhead_pct", (plain.throughput() / traced.throughput() - 1.0) * 100.0, "%");
}

/// Untraced: one pass, end-to-end metrics.  Traced: an untraced and a
/// traced pass of half the time each; per-layer metrics from the traced
/// one, tracing overhead from the pair.
template <typename RunPass>
Outcome finish(Ctx& c, RunPass&& run_pass) {
    Outcome out;
    if (!c.cfg.trace) {
        const Pass p = run_pass(false, c.cfg.seconds, false);
        out.attempted = p.phase.attempted;
        out.failed = p.phase.failed;
        end_to_end(p, out);
    } else {
        const Pass plain = run_pass(false, c.cfg.seconds / 2, false);
        const Pass traced = run_pass(true, c.cfg.seconds / 2, true);
        out.attempted = plain.phase.attempted + traced.phase.attempted;
        out.failed = plain.phase.failed + traced.phase.failed;
        per_layer(c, plain, traced, out);
    }
    out.correct = c.checks.ok();
    return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names{"hot_tiles", "cold_fig1", "cold_fig4"};
    return names;
}

Outcome run_workload(const RunConfig& cfg) {
    if (cfg.workload == "hot_tiles") {
        Ctx c(cfg, kFig1);
        const HotSet set = hot_inputs(c);
        return finish(c, [&](bool traced, double seconds, bool layers) {
            return hot_pass(c, set, traced, seconds, traced ? 1 : kSetups, layers);
        });
    }
    if (cfg.workload == "cold_fig1" || cfg.workload == "cold_fig4") {
        const bool fig4 = cfg.workload == "cold_fig4";
        Ctx c(cfg, fig4 ? kFig4 : kFig1);
        const ColdSet set = cold_inputs(c, fig4);
        const int conns = fig4 ? kColdFig4Conns : kColdFig1Conns;
        return finish(c, [&](bool traced, double seconds, bool layers) {
            std::vector<std::string> bodies;
            Pass p = cold_pass(c, set, conns, traced, seconds, layers, bodies);
            if (layers) {
                LayerInputs& in = c.inputs;
                in.heads = heads_of(set.round);
                in.f64_body = bodies[0];
                in.response_body = bodies[0];
                // Slots 0 and 2: an FFT and a transition tile on Fig. 4,
                // an interior and a seam tile on Fig. 1.
                for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
                    in.gen_rects.push_back(rrs::tile_rect(rrs::TileShape{kTile, kTile}, set.keys[i]));
                }
            }
            check_cold_tiles(c, set, bodies);
            return p;
        });
    }
    throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
}

}  // namespace perfbench
