#pragma once

/// \file layers.hpp
/// Per-layer timings taken in-process, from outside each layer: the
/// benchmark calls the layer's public functions on the workload's own
/// inputs and records one span per sample around the call.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/inhomogeneous.hpp"
#include "grid/array2d.hpp"
#include "grid/rect.hpp"
#include "service/tile_key.hpp"

namespace perfbench {

/// The benchmark's own spans: every sample of a timed call, by name.
class SpanLog {
public:
    /// Time `samples` samples of `batch` calls each; records per-call
    /// nanoseconds of each sample under `name`.
    void time(const std::string& name, int samples, int batch,
              const std::function<void()>& call);

    /// Median per-call duration recorded under `name`, in `unit_ns`
    /// nanoseconds (1e3 for µs, 1e6 for ms).
    double median(const std::string& name, double unit_ns = 1e3) const;

private:
    std::map<std::string, std::vector<double>> ns_;
};

/// A scene parsed and built in-process, with the cost of each step.
struct SceneModel {
    std::shared_ptr<const rrs::InhomogeneousGenerator> gen;
    double parse_ms = 0.0;         ///< io: parse_scene (spectra, region map)
    double kernel_build_ms = 0.0;  ///< core: make_scene_generator (kernels)
};
SceneModel load_scene(const std::string& path);

/// Regions whose blend weight is positive somewhere in `rect`, found on a
/// 4-point sub-grid plus the last row and column (transition bands are tens
/// of points wide, so the sub-grid cannot step over one).
std::vector<std::size_t> regions_touching(const rrs::InhomogeneousGenerator& gen,
                                          const rrs::Rect& rect);

/// Run `f` on a one-worker rrs::ThreadPool, as rrsd runs generation on its
/// HTTP workers: library loops run serially inside a pool worker.
void on_pool_worker(const std::function<void()>& f);

/// Metric name -> value, as the run prints them.
using LayerMetrics = std::map<std::string, double>;

/// net: request-head parse (+ tile or window query parse) over `heads`,
/// the three tile encoders on `tile`, and serialization of a response with
/// `response_body`.
void measure_net(SpanLog& log, const std::vector<std::string>& heads,
                 const rrs::Array2D<double>& tile, const std::string& response_body,
                 LayerMetrics& out);

/// service: TileService::get on a warm key (the RAM-hit path).
void measure_service_hit(SpanLog& log, const rrs::Array2D<double>& tile, LayerMetrics& out);

/// core: InhomogeneousGenerator::generate and the summed blend_weights over
/// `rects`, one at a time on a pool worker.
void measure_core(SpanLog& log, const rrs::InhomogeneousGenerator& gen,
                  const std::vector<rrs::Rect>& rects, LayerMetrics& out);

/// cluster: f64 body decode, ShardMap ownership over `keys` on a two-node
/// map, and ClusterClient::window of `window` against the live nodes
/// `ports` serving `scene`.
void measure_cluster(SpanLog& log, const std::string& f64_body,
                     const std::vector<rrs::TileKey>& keys, std::uint64_t fingerprint,
                     const std::vector<std::uint16_t>& ports, const std::string& scene,
                     const rrs::Rect& window, LayerMetrics& out);

}  // namespace perfbench
