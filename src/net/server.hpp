#pragma once

/// \file server.hpp
/// HttpServer — a production-shaped HTTP/1.1-subset server over POSIX
/// sockets: one acceptor thread, a fixed ThreadPool of connection workers,
/// per-connection read/write deadlines, a hard connection cap with 503
/// shedding, and graceful drain.  DESIGN.md §12 documents the concurrency
/// model; the `race` test tier exercises it under ThreadSanitizer.
///
/// Lifecycle: construct with a Router, `start()`, serve, `stop()` (also run
/// by the destructor).  `stop()` is the graceful drain: stop accepting,
/// nudge idle keep-alive connections closed, let every request already
/// being handled finish and be answered (with `Connection: close`), then
/// join all threads.  A server is one-shot — `start()` after `stop()` is a
/// StateError.
///
/// Admission control: at most `max_connections` connections are admitted
/// concurrently (default: one per worker, so admitted connections never
/// queue behind each other).  Excess connections receive an immediate
/// `503 Service Unavailable` + `Retry-After` and are closed — load is shed
/// at the door within one write deadline instead of queueing unboundedly.
///
/// Errors escaping a handler become statuses in one place: HttpError →
/// its own status, UnavailableError → 503 + `Retry-After` (its hint),
/// ConfigError/BoundsError → 400, anything else → 500.
///
/// Metrics (recorded into `Options::registry`, default the global one):
///   net.accepted       connections accepted (admitted or shed)
///   net.active         gauge: connections currently admitted
///   net.requests       responses produced == net.status_2xx + net.status_4xx
///                      + net.status_5xx + net.shed (the accounting identity
///                      tests assert)
///   net.status_2xx/4xx/5xx  responses by status class
///   net.shed           connections answered 503 at the admission gate
///   net.ready          gauge: 1 while accepting traffic, 0 once draining
///                      or after listener breakage (feeds /readyz)
///   net.bytes_out      response bytes actually written (head + body)
///   net.latency        µs from complete request head to response written
/// Spans: net.accept, net.parse, net.handle, net.write.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/router.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace rrs::net {

/// See file comment.
class HttpServer {
public:
    struct Options {
        std::string host = "127.0.0.1";
        std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
        std::size_t workers = 4;
        /// Connection cap for admission control; 0 = `workers` (admitted
        /// connections then never wait for a worker).  Values above
        /// `workers` allow up to cap-workers connections to queue.
        std::size_t max_connections = 0;
        int read_timeout_ms = 5000;   ///< per-recv deadline (slow-loris bound)
        int write_timeout_ms = 5000;  ///< per-send deadline
        std::size_t max_header_bytes = 8192;
        std::size_t max_body_bytes = 65536;  ///< GET bodies are drained, capped
        int listen_backlog = 64;
        /// Metrics sink; nullptr = obs::MetricsRegistry::global().
        obs::MetricsRegistry* registry = nullptr;
    };

    HttpServer(Router router, Options opt);
    ~HttpServer();

    HttpServer(const HttpServer&) = delete;
    HttpServer& operator=(const HttpServer&) = delete;

    /// Bind, listen, and start the acceptor + worker pool.  Throws IoError
    /// when the address cannot be bound, StateError on reuse.
    void start();

    /// Graceful drain; idempotent, safe to call concurrently with serving.
    void stop();

    /// The bound port (valid after start(); resolves ephemeral port 0).
    std::uint16_t port() const noexcept {
        return port_.load(std::memory_order_acquire);
    }

    bool running() const noexcept {
        return started_.load(std::memory_order_acquire) &&
               !stopping_.load(std::memory_order_acquire);
    }

    /// Connections currently admitted (gauge; for tests and admin).
    std::size_t active_connections() const noexcept {
        return static_cast<std::size_t>(active_.load(std::memory_order_acquire));
    }

    const Options& options() const noexcept { return opt_; }

private:
    /// One admitted connection, shared between its worker and the drain
    /// sweep.  `fd` is immutable until the worker unregisters the slot and
    /// closes it, so stop() can safely shutdown() registered fds.
    struct ConnSlot {
        explicit ConnSlot(int descriptor) noexcept : fd(descriptor) {}
        const int fd;
        /// Guarded by conns_mutex_: true while a fully-received request is
        /// being handled (drain must let it finish), false while waiting
        /// for (more of) a request head (drain may shut the socket down).
        bool handling = false;
    };

    void accept_loop();
    void serve_connection(const std::shared_ptr<ConnSlot>& slot);
    void shed_connection(Socket conn);
    void unregister(const std::shared_ptr<ConnSlot>& slot);
    void set_handling(const std::shared_ptr<ConnSlot>& slot, bool handling);

    /// Send `resp` as its head plus its shared body in one gather write;
    /// adds the bytes to net.bytes_out.  False when the peer went away or
    /// the write deadline expired.
    bool write_response(const Socket& sock, const HttpResponse& resp, bool keep_alive);

    /// Count one produced response into the requests/status identity.
    void count_response(int status) noexcept;

    Router router_;
    Options opt_;

    Socket listener_;
    std::atomic<std::uint16_t> port_{0};
    std::thread acceptor_;
    std::unique_ptr<ThreadPool> pool_;

    std::atomic<bool> started_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> stopped_{false};
    std::atomic<std::int64_t> active_{0};
    std::mutex stop_mutex_;  ///< serializes stop() callers (incl. the destructor)

    std::mutex conns_mutex_;
    std::list<std::shared_ptr<ConnSlot>> conns_;
    std::condition_variable drained_cv_;

    // Metric references resolve once; recording is then wait-free.
    obs::MetricsRegistry& registry_;
    obs::Counter& m_accepted_;
    obs::Counter& m_requests_;
    obs::Counter& m_shed_;
    obs::Counter& m_2xx_;
    obs::Counter& m_4xx_;
    obs::Counter& m_5xx_;
    obs::Counter& m_bytes_out_;
    obs::Gauge& m_active_;
    obs::Gauge& m_ready_;  ///< net.ready: 1 while accepting, 0 once draining
    obs::Log2Histogram& m_latency_;
};

}  // namespace rrs::net
