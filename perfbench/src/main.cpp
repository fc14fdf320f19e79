// perfbench_load — drives rrsd over loopback HTTP for one workload and
// prints one JSON line of metrics (see ../README.md).
//
//   perfbench_load --workload NAME --seed N --seconds S --trace 0|1
//                  [--rrsd PATH] [--scenes DIR] [--run-dir DIR]

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include <csignal>

#include "workloads.hpp"

namespace {

int usage() {
    std::cerr << "usage: perfbench_load --workload NAME --seed N --seconds S --trace 0|1\n"
                 "                      [--rrsd PATH] [--scenes DIR] [--run-dir DIR]\n"
                 "workloads:";
    for (const std::string& w : perfbench::workload_names()) {
        std::cerr << " " << w;
    }
    std::cerr << "\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::RunConfig cfg;
    cfg.rrsd = PERFBENCH_RRSD;
    cfg.scenes = PERFBENCH_SCENES;
    cfg.run_dir = ".bench_run";
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string v = argv[i + 1];
        if (flag == "--workload") {
            cfg.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            cfg.seconds = std::strtod(v.c_str(), nullptr);
        } else if (flag == "--trace") {
            cfg.trace = v == "1";
        } else if (flag == "--rrsd") {
            cfg.rrsd = v;
        } else if (flag == "--scenes") {
            cfg.scenes = v;
        } else if (flag == "--run-dir") {
            cfg.run_dir = v;
        } else {
            return usage();
        }
    }
    if (argc % 2 != 1 || !have_workload || !(cfg.seconds > 0.0)) {
        return usage();
    }
    std::signal(SIGPIPE, SIG_IGN);
    try {
        std::filesystem::create_directories(cfg.run_dir);
        const perfbench::Outcome out = perfbench::run_workload(cfg);
        std::string json = "{\"correct\": ";
        json += out.correct ? "true" : "false";
        json += ", \"attempted\": " + std::to_string(out.attempted);
        json += ", \"failed\": " + std::to_string(out.failed);
        json += ", \"metrics\": {";
        bool first = true;
        for (const perfbench::Metric& m : out.metrics) {
            char num[64];
            std::snprintf(num, sizeof(num), "%.17g", m.value);
            json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + num +
                    ", \"unit\": \"" + m.unit + "\"}";
            first = false;
        }
        json += "}}";
        std::cout << json << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "perfbench_load: " << e.what() << "\n";
        return 1;
    }
}
