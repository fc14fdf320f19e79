#include "net/server.hpp"

#include <chrono>

#include "core/error.hpp"
#include "core/validate.hpp"
#include "obs/trace.hpp"

namespace rrs::net {

namespace {

std::uint64_t now_us() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

}  // namespace

HttpServer::HttpServer(Router router, Options opt)
    : router_(std::move(router)),
      opt_(std::move(opt)),
      registry_(opt_.registry != nullptr ? *opt_.registry
                                         : obs::MetricsRegistry::global()),
      m_accepted_(registry_.counter("net.accepted")),
      m_requests_(registry_.counter("net.requests")),
      m_shed_(registry_.counter("net.shed")),
      m_2xx_(registry_.counter("net.status_2xx")),
      m_4xx_(registry_.counter("net.status_4xx")),
      m_5xx_(registry_.counter("net.status_5xx")),
      m_bytes_out_(registry_.counter("net.bytes_out")),
      m_active_(registry_.gauge("net.active")),
      m_ready_(registry_.gauge("net.ready")),
      m_latency_(registry_.histogram("net.latency")) {
    check_positive_count(static_cast<std::int64_t>(opt_.workers), "workers",
                         {"net", "HttpServer"});
    check_positive_count(opt_.read_timeout_ms, "read_timeout_ms",
                         {"net", "HttpServer"});
    check_positive_count(opt_.write_timeout_ms, "write_timeout_ms",
                         {"net", "HttpServer"});
    check_positive_count(static_cast<std::int64_t>(opt_.max_header_bytes),
                         "max_header_bytes", {"net", "HttpServer"});
    if (opt_.max_connections == 0) {
        opt_.max_connections = opt_.workers;
    }
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
    if (started_.exchange(true, std::memory_order_acq_rel)) {
        throw StateError{"HttpServer::start on an already-started server",
                         {"net", "HttpServer"}};
    }
    try {
        listener_ = listen_tcp(opt_.host, opt_.port, opt_.listen_backlog);
        port_.store(local_port(listener_), std::memory_order_release);
        pool_ = std::make_unique<ThreadPool>(opt_.workers);
        acceptor_ = std::thread([this] { accept_loop(); });
        m_ready_.set(1);  // accepting traffic: /readyz may say yes
    } catch (...) {
        listener_.close();
        pool_.reset();
        started_.store(false, std::memory_order_release);
        throw;
    }
}

void HttpServer::stop() {
    const std::lock_guard stop_lock(stop_mutex_);
    if (!started_.load(std::memory_order_acquire) ||
        stopped_.load(std::memory_order_acquire)) {
        stopped_.store(true, std::memory_order_release);
        return;
    }
    stopping_.store(true, std::memory_order_release);
    m_ready_.set(0);  // draining: readiness drops before the drain begins
    if (acceptor_.joinable()) {
        acceptor_.join();  // no further admissions once joined
    }
    {
        // Nudge every connection that is NOT mid-request: a blocked reader
        // wakes immediately with EOF instead of waiting out its deadline.
        // Requests already being handled are left to finish and be answered.
        const std::lock_guard lock(conns_mutex_);
        for (const std::shared_ptr<ConnSlot>& slot : conns_) {
            if (!slot->handling) {
                shutdown_both(slot->fd);
            }
        }
    }
    {
        std::unique_lock lock(conns_mutex_);
        drained_cv_.wait(lock, [this] { return conns_.empty(); });
    }
    pool_.reset();  // joins the (now idle) workers
    listener_.close();
    stopped_.store(true, std::memory_order_release);
}

void HttpServer::accept_loop() {
    try {
        while (!stopping_.load(std::memory_order_acquire)) {
            Socket conn = accept_with_timeout(listener_, /*timeout_ms=*/50);
            if (!conn.valid()) {
                continue;
            }
            RRS_TRACE_SPAN("net.accept");
            m_accepted_.add();
            if (active_.load(std::memory_order_acquire) >=
                static_cast<std::int64_t>(opt_.max_connections)) {
                shed_connection(std::move(conn));
                continue;
            }
            active_.fetch_add(1, std::memory_order_acq_rel);
            m_active_.add(1);
            auto slot = std::make_shared<ConnSlot>(conn.release());
            {
                const std::lock_guard lock(conns_mutex_);
                conns_.push_back(slot);
            }
            try {
                pool_->submit([this, slot] { serve_connection(slot); });
            } catch (const StateError&) {
                // Pool refused (we are stopping): undo the admission.
                unregister(slot);
                Socket closer{slot->fd};
                closer.close();
                active_.fetch_sub(1, std::memory_order_acq_rel);
                m_active_.add(-1);
            }
        }
    } catch (const Error&) {
        // Listener breakage: the server can no longer accept; in-flight
        // connections keep being served and stop() still drains cleanly.
        m_ready_.set(0);
    }
}

void HttpServer::shed_connection(Socket conn) {
    try {
        set_send_timeout(conn, opt_.write_timeout_ms);
    } catch (const Error&) {
        return;  // connection already dead — nothing to shed a response to
    }
    HttpResponse resp =
        error_response(503, "server at connection capacity — retry shortly");
    resp.close = true;
    resp.extra_headers.emplace_back("Retry-After", "1");
    m_requests_.add();
    m_shed_.add();
    write_response(conn, resp, /*keep_alive=*/false);
    // `conn` closes on return.
}

bool HttpServer::write_response(const Socket& sock, const HttpResponse& resp,
                                bool keep_alive) {
    const std::string head = serialize_head(resp, keep_alive);
    if (!send_gather(sock, head, resp.body())) {
        return false;
    }
    m_bytes_out_.add(head.size() + resp.body().size());
    return true;
}

void HttpServer::count_response(int status) noexcept {
    m_requests_.add();
    if (status < 400) {
        m_2xx_.add();
    } else if (status < 500) {
        m_4xx_.add();
    } else {
        m_5xx_.add();
    }
}

void HttpServer::set_handling(const std::shared_ptr<ConnSlot>& slot, bool handling) {
    const std::lock_guard lock(conns_mutex_);
    slot->handling = handling;
}

void HttpServer::unregister(const std::shared_ptr<ConnSlot>& slot) {
    const std::lock_guard lock(conns_mutex_);
    conns_.remove(slot);
    if (conns_.empty()) {
        drained_cv_.notify_all();
    }
}

void HttpServer::serve_connection(const std::shared_ptr<ConnSlot>& slot) {
    Socket sock{slot->fd};
    try {
        set_recv_timeout(sock, opt_.read_timeout_ms);
        set_send_timeout(sock, opt_.write_timeout_ms);
        std::string carry;
        bool close_now = false;
        while (!close_now) {
            std::string head;
            const HeadResult hr =
                read_head(sock, carry, opt_.max_header_bytes, head);

            if (hr.status != HeadStatus::kOk) {
                // A peer that never sent a byte of this request is owed
                // nothing (idle keep-alive close / idle timeout / drain
                // nudge); a peer caught mid-head gets the matching 4xx.
                if (hr.got_bytes) {
                    int status = 400;
                    const char* message = "truncated request";
                    if (hr.status == HeadStatus::kTimedOut) {
                        status = 408;
                        message = "timed out waiting for the request head";
                    } else if (hr.status == HeadStatus::kTooLarge) {
                        status = 431;
                        message = "request head too large";
                    }
                    count_response(status);
                    write_response(sock, error_response(status, message),
                                   /*keep_alive=*/false);
                }
                break;
            }

            // Full head received: this request is now in-flight — the drain
            // sweep will let it finish.
            set_handling(slot, true);
            const std::uint64_t t0 = now_us();
            HttpResponse resp;
            bool request_keep_alive = false;
            bool aborted = false;
            try {
                HttpRequest req;
                {
                    RRS_TRACE_SPAN("net.parse");
                    req = parse_request_head(
                        head, RequestLimits{opt_.max_header_bytes, 100});
                    request_keep_alive = req.keep_alive;
                    const std::size_t body_len = req.content_length();
                    if (body_len > opt_.max_body_bytes) {
                        throw HttpError{413, "request body exceeds " +
                                                 std::to_string(opt_.max_body_bytes) +
                                                 " bytes"};
                    }
                    if (body_len > 0 &&
                        !read_exact(sock, carry, body_len, nullptr)) {
                        aborted = true;  // body never arrived — owe nothing
                    }
                }
                if (!aborted) {
                    RRS_TRACE_SPAN("net.handle");
                    if (req.method != "GET") {
                        resp = error_response(
                            405, "method " + req.method + " not supported");
                        resp.extra_headers.emplace_back("Allow", "GET");
                    } else {
                        resp = router_.dispatch(req);
                    }
                }
            } catch (const HttpError& e) {
                resp = error_response(e.status(), e.what());
            } catch (const UnavailableError& e) {
                resp = error_response(503, e.what());
                resp.extra_headers.emplace_back("Retry-After",
                                                std::to_string(e.retry_after_s()));
            } catch (const ConfigError& e) {
                resp = error_response(400, e.what());
            } catch (const BoundsError& e) {
                resp = error_response(400, e.what());
            } catch (const Error& e) {
                resp = error_response(500, e.what());
            } catch (const std::exception& e) {
                resp = error_response(500, e.what());
            }
            if (aborted) {
                set_handling(slot, false);
                break;
            }

            const bool keep_alive =
                request_keep_alive && !resp.close &&
                !stopping_.load(std::memory_order_acquire);
            // Count BEFORE writing: once the peer can observe the response,
            // the accounting identity must already include it.
            count_response(resp.status);
            {
                RRS_TRACE_SPAN("net.write");
                if (!write_response(sock, resp, keep_alive)) {
                    close_now = true;  // peer gone or write deadline expired
                }
            }
            m_latency_.record(now_us() - t0);
            set_handling(slot, false);
            if (!keep_alive) {
                close_now = true;
            }
        }
    } catch (...) {
        // Connection-local failure (e.g. setsockopt on a dead socket):
        // abandon this connection; the accounting below still runs.
    }
    unregister(slot);
    sock.close();  // after unregister, so the drain sweep never sees a stale fd
    active_.fetch_sub(1, std::memory_order_acq_rel);
    m_active_.add(-1);
}

}  // namespace rrs::net
