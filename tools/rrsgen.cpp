// rrsgen — command-line rough-surface generator.
//
// Reads a scene description (see src/io/scene.hpp for the format), renders
// the surface with the inhomogeneous convolution method, prints summary
// statistics, and writes the declared outputs.
//
//   rrsgen SCENE.rrs [--seed N] [--print-stats] [--health MODE]
//                    [--engine NAME] [--trace FILE] [--metrics]
//   rrsgen --example            # print a ready-to-run example scene
//
// --health MODE (throw | report | ignore) overrides the scene's numeric
// health policy: `throw` aborts on NaN/Inf or implausible statistics,
// `report` prints a diagnostic and keeps going, `ignore` skips the guards.
// --engine NAME (auto | direct | fft | separable) overrides the scene's
// kernel engine (engine.hpp).
// --trace FILE enables span tracing for the render and writes a Chrome
// trace_event JSON file (load in chrome://tracing or Perfetto);
// --metrics prints the library metrics registry as one JSON line.

#include <cstring>
#include <fstream>
#include <iostream>

#include "core/error.hpp"
#include "io/scene.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats/moments.hpp"

#include "flags.hpp"

namespace {

constexpr const char* kExampleScene = R"(# Example scene: an exponential pond inside a gaussian field (paper Fig. 3).
seed = 42
kernel_grid = 512 512
region = -512 -512 1024 1024
tail_eps = 1e-6
output = pond.pgm pond.npy

[spectrum field]
family = gaussian
h = 1.0
cl = 50

[spectrum pond]
family = exponential
h = 0.2
cl = 50

[map]
type = circle
center = 0 0
radius = 300
transition = 60
inside = pond
outside = field
)";

int usage() {
    std::cerr << "usage: rrsgen SCENE.rrs [--seed N] [--print-stats] [--health MODE]\n"
                 "                        [--engine NAME] [--trace FILE] [--metrics]\n"
                 "       rrsgen --example   (print an example scene file)\n"
                 "  --health MODE   numeric health policy: throw | report | ignore\n"
                 "                  (default: the scene's 'health =' key, else report)\n"
                 "  --engine NAME   kernel engine: auto | direct | fft | separable\n"
                 "                  (default: the scene's 'engine =' key, else auto)\n"
                 "  --trace FILE    record pipeline spans, write Chrome trace JSON\n"
                 "  --metrics       print the metrics registry as one JSON line\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace rrs;
    if (argc < 2) {
        return usage();
    }
    if (std::strcmp(argv[1], "--example") == 0) {
        std::cout << kExampleScene;
        return 0;
    }

    bool print_stats = false;
    bool print_metrics = false;
    bool override_seed = false;
    bool override_health = false;
    bool override_engine = false;
    HealthPolicy health = HealthPolicy::kReport;
    KernelEngine engine = KernelEngine::kAuto;
    std::uint64_t seed = 0;
    std::string trace_path;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--print-stats") == 0) {
            print_stats = true;
        } else if (std::strcmp(argv[i], "--metrics") == 0) {
            print_metrics = true;
        } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            override_seed = true;
            if (!tools::parse_flag("rrsgen", "--seed", argv[++i], seed)) {
                return usage();
            }
        } else if (std::strcmp(argv[i], "--health") == 0 && i + 1 < argc) {
            override_health = true;
            try {
                health = parse_health_policy(argv[++i]);
            } catch (const std::exception& e) {
                std::cerr << "rrsgen: " << e.what() << "\n";
                return usage();
            }
        } else if (std::strcmp(argv[i], "--engine") == 0 && i + 1 < argc) {
            override_engine = true;
            try {
                engine = parse_kernel_engine(argv[++i]);
            } catch (const std::exception& e) {
                std::cerr << "rrsgen: " << e.what() << "\n";
                return usage();
            }
        } else {
            return usage();
        }
    }

    std::ifstream in(argv[1]);
    if (!in) {
        std::cerr << "rrsgen: cannot open '" << argv[1] << "'\n";
        return 1;
    }
    try {
        Scene scene = parse_scene(in);
        if (override_seed) {
            scene.seed = seed;
        }
        if (override_health) {
            scene.health = health;
        }
        if (override_engine) {
            scene.engine = engine;
        }
        std::cerr << "rrsgen: rendering " << scene.region.nx << "x" << scene.region.ny
                  << " surface (" << scene.map->region_count() << " region(s), seed "
                  << scene.seed << ", health " << health_policy_name(scene.health)
                  << ", engine " << kernel_engine_name(scene.engine) << ")\n";
        if (!trace_path.empty()) {
            obs::trace_enable();
        }
        const Array2D<double> f = render_scene(scene);
        if (!trace_path.empty()) {
            obs::trace_disable();
            std::ofstream trace_out(trace_path);
            if (!trace_out) {
                std::cerr << "rrsgen: cannot write trace to '" << trace_path << "'\n";
                return 1;
            }
            obs::write_chrome_trace(trace_out);
            std::cerr << "rrsgen: wrote trace " << trace_path << " ("
                      << obs::trace_events().size() << " spans";
            if (obs::trace_dropped() != 0) {
                std::cerr << ", " << obs::trace_dropped() << " dropped";
            }
            std::cerr << ")\n";
        }
        write_scene_outputs(scene, f);
        for (const auto& path : scene.outputs) {
            std::cerr << "rrsgen: wrote " << path << "\n";
        }
        if (print_stats || (scene.outputs.empty() && !print_metrics)) {
            const Moments m = compute_moments({f.data(), f.size()});
            std::cout << "points " << m.count << "\nmean " << m.mean << "\nstddev "
                      << m.stddev << "\nmin " << m.min << "\nmax " << m.max << "\n";
        }
        if (print_metrics) {
            std::cout << obs::MetricsRegistry::global().to_json() << "\n";
        }
    } catch (const Error& e) {
        // Taxonomy errors already render their context chain in what().
        std::cerr << "rrsgen: error: " << e.what() << "\n";
        return 1;
    } catch (const std::exception& e) {
        std::cerr << "rrsgen: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
