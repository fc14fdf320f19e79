#pragma once

/// \file workloads.hpp
/// The tile-serving workloads (README.md describes their inputs).

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string rrsd;     ///< daemon binary
    std::string scenes;   ///< directory holding fig1_quadrants.rrs, fig4_points.rrs
    std::string run_dir;  ///< scratch directory for port files and logs
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Outcome {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
};

const std::vector<std::string>& workload_names();

/// Run one workload end to end.  Without tracing the metrics are the
/// end-to-end ones; with tracing, the per-layer ones.  Throws on set-up
/// failures (a server that will not start); output-check failures clear
/// `correct` and are described on stderr.
Outcome run_workload(const RunConfig& cfg);

}  // namespace perfbench
