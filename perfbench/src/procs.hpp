#pragma once

/// \file procs.hpp
/// Launching and stopping rrsd processes, and reading their /proc counters.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process-wide counters of one server, from /proc/<pid>/{stat,status}.
struct ProcCounters {
    double cpu_s = 0.0;                ///< utime + stime, all threads
    std::uint64_t minor_faults = 0;
    std::uint64_t ctx_switches = 0;    ///< voluntary + involuntary, all threads
    double hwm_mib = 0.0;              ///< VmHWM (peak resident set)

    ProcCounters& operator+=(const ProcCounters& o);
    friend ProcCounters operator-(ProcCounters a, const ProcCounters& b);
};

/// One rrsd child process.  The constructor launches it with an ephemeral
/// port (`--port 0 --port-file`); `wait_ready` blocks until /readyz answers
/// 200.  The destructor stops it (SIGTERM, then SIGKILL after 10 s) and
/// reaps it, so no process outlives its owner.
class Server {
public:
    /// `args` follow the rrsd binary name; `run_dir` holds the port file
    /// and the log (stderr) of this process under `tag`.
    Server(const std::string& rrsd, std::vector<std::string> args,
           const std::string& run_dir, const std::string& tag);
    ~Server();
    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Seconds from launch until /readyz answered 200.  Throws when the
    /// process exits or 60 s pass first.
    double wait_ready();

    std::uint16_t port() const noexcept { return port_; }
    pid_t pid() const noexcept { return pid_; }
    ProcCounters counters() const;
    void stop() noexcept;

private:
    std::string port_file_;
    std::string log_file_;
    Clock::time_point launched_;
    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
};

/// CPU seconds (user + system) this process has used so far.
double self_cpu_seconds();

}  // namespace perfbench
