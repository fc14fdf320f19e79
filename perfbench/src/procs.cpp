#include "procs.hpp"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "http_load.hpp"

namespace perfbench {

namespace {

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::uint64_t status_field(const std::string& status, const char* key) {
    const std::size_t at = status.find(key);
    if (at == std::string::npos) {
        return 0;
    }
    return std::strtoull(status.c_str() + at + std::strlen(key), nullptr, 10);
}

std::string tail(const std::string& text, std::size_t n) {
    return text.size() <= n ? text : text.substr(text.size() - n);
}

}  // namespace

ProcCounters& ProcCounters::operator+=(const ProcCounters& o) {
    cpu_s += o.cpu_s;
    minor_faults += o.minor_faults;
    ctx_switches += o.ctx_switches;
    hwm_mib += o.hwm_mib;
    return *this;
}

ProcCounters operator-(ProcCounters a, const ProcCounters& b) {
    a.cpu_s -= b.cpu_s;
    a.minor_faults -= b.minor_faults;
    a.ctx_switches -= b.ctx_switches;
    a.hwm_mib -= b.hwm_mib;
    return a;
}

Server::Server(const std::string& rrsd, std::vector<std::string> args,
               const std::string& run_dir, const std::string& tag)
    : port_file_(run_dir + "/" + tag + ".port"), log_file_(run_dir + "/" + tag + ".log") {
    std::filesystem::remove(port_file_);
    args.insert(args.begin(), rrsd);
    args.insert(args.end(), {"--port", "0", "--port-file", port_file_, "--quiet"});
    std::vector<char*> argv;
    for (std::string& a : args) {
        argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    // rrsd runs with RRS_THREADS=1, so its start-up (kernel builds) is
    // serial.  Tile generation runs on pool workers, which are serial
    // anyway; only start-up would use an OpenMP team, and a team on every
    // vCPU of a shared virtual machine makes boot time follow the steal
    // time of the whole machine (README "Steadiness").
    std::vector<std::string> env_store;
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "RRS_THREADS=", 12) != 0) {
            env_store.emplace_back(*e);
        }
    }
    env_store.emplace_back("RRS_THREADS=1");
    std::vector<char*> envp;
    for (std::string& e : env_store) {
        envp.push_back(e.data());
    }
    envp.push_back(nullptr);
    launched_ = Clock::now();
    pid_ = ::fork();
    if (pid_ < 0) {
        throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    }
    if (pid_ == 0) {
        const int devnull = ::open("/dev/null", O_RDWR);
        const int log = ::open(log_file_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (devnull >= 0) {
            ::dup2(devnull, 0);
            ::dup2(devnull, 1);  // rrsd prints its metrics JSON on exit
        }
        if (log >= 0) {
            ::dup2(log, 2);
        }
        ::execve(argv[0], argv.data(), envp.data());
        ::_exit(127);
    }
}

Server::~Server() { stop(); }

double Server::wait_ready() {
    const auto deadline = launched_ + std::chrono::seconds(60);
    auto exited = [this] {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error("rrsd exited during start-up: " +
                                     tail(read_file(log_file_), 400));
        }
    };
    while (port_ == 0) {
        const std::string text = read_file(port_file_);
        if (!text.empty() && text.back() == '\n') {
            port_ = static_cast<std::uint16_t>(std::strtoul(text.c_str(), nullptr, 10));
            break;
        }
        exited();
        if (Clock::now() > deadline) {
            throw std::runtime_error("rrsd did not bind within 60 s");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    for (;;) {
        try {
            if (get_once(port_, "/readyz") == 200) {
                return seconds_since(launched_);
            }
        } catch (const std::runtime_error&) {
            // not accepting yet
        }
        exited();
        if (Clock::now() > deadline) {
            throw std::runtime_error("rrsd not ready within 60 s");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

ProcCounters Server::counters() const {
    ProcCounters c;
    if (pid_ <= 0) {
        return c;
    }
    const std::string proc = "/proc/" + std::to_string(pid_);
    const std::string stat = read_file(proc + "/stat");
    const std::size_t paren = stat.rfind(')');
    if (paren != std::string::npos) {
        // Fields after "pid (comm)": state(3) ... minflt(10) ... utime(14) stime(15).
        std::istringstream fields(stat.substr(paren + 2));
        std::vector<std::string> f;
        for (std::string tok; fields >> tok;) {
            f.push_back(tok);
        }
        if (f.size() > 12) {
            const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
            c.minor_faults = std::strtoull(f[7].c_str(), nullptr, 10);
            c.cpu_s = static_cast<double>(std::strtoull(f[11].c_str(), nullptr, 10) +
                                          std::strtoull(f[12].c_str(), nullptr, 10)) /
                      tick;
        }
    }
    c.hwm_mib = static_cast<double>(status_field(read_file(proc + "/status"), "VmHWM:")) /
                1024.0;
    // Context switches are per thread: sum over the live tasks.
    std::error_code ec;
    for (const auto& task : std::filesystem::directory_iterator(proc + "/task", ec)) {
        const std::string s = read_file(task.path().string() + "/status");
        c.ctx_switches += status_field(s, "voluntary_ctxt_switches:") +
                          status_field(s, "nonvoluntary_ctxt_switches:");
    }
    return c;
}

void Server::stop() noexcept {
    if (pid_ <= 0) {
        return;
    }
    ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (Clock::now() > deadline) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
}

double self_cpu_seconds() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

}  // namespace perfbench
