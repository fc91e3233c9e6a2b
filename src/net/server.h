#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "net/http.h"
#include "net/router.h"

namespace smartflux::obs {
class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
}  // namespace smartflux::obs

namespace smartflux::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; the bound port is readable via Server::port() after
  /// start().
  std::uint16_t port = 0;
  PollerBackend backend = PollerBackend::kAuto;
  HttpLimits limits{};
  /// Pending response bytes per connection above which the peer is treated
  /// as a slow reader and disconnected — the bound that keeps one stalled
  /// client from buffering the server into the ground. Streaming responses
  /// pause their producer at half this bound, so they never trip it.
  std::size_t max_write_buffer = 256 * 1024;
  /// Connections beyond this (across all loops) are accepted and
  /// immediately closed (counted as refused) so the kernel backlog cannot
  /// grow unread.
  std::size_t max_connections = 1024;
  /// listen(2) backlog.
  int listen_backlog = 128;
  /// Event-loop threads. Each loop owns its own SO_REUSEPORT listener (the
  /// kernel load-balances accepts across them) and every connection it
  /// accepted — shared-nothing: per-loop accept, per-loop connection table,
  /// per-loop stats merged on snapshot. Where SO_REUSEPORT is unavailable
  /// (or reuse_port is false) all loops share one listener behind a lock.
  /// 0 is treated as 1; 1 keeps the exact single-loop shape.
  std::size_t loop_threads = 1;
  /// Force the shared-listener fallback even where SO_REUSEPORT exists
  /// (test hook; also the safe setting on exotic kernels).
  bool reuse_port = true;
  /// Keep-alive connections with no socket activity for this long are
  /// reaped (counted as idle_disconnects), so an idle client cannot hold a
  /// max_connections slot forever. 0 disables reaping.
  std::size_t idle_timeout_ms = 60'000;
  /// A connection that has sat *mid-request* (partial head, or an
  /// incomplete declared/chunked body) for longer than this is answered
  /// 408 and closed by the idle sweep — the slow-loris bound. Enforced
  /// within one sweep tick (<= min(idle_timeout, this)/4, capped at 250ms)
  /// past the deadline. 0 disables.
  std::size_t request_read_timeout_ms = 30'000;
  /// After this many requests on one connection the response carries
  /// `Connection: close` and the connection ends — bounds how long a
  /// single peer can pin a connection slot with legitimate-looking
  /// keep-alive traffic. 0 = unlimited.
  std::size_t max_requests_per_connection = 0;
  /// Optional metrics registry (not owned): sf_net_* counters/gauges plus a
  /// request duration histogram. Null = no instrumentation cost.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Lifetime counters, readable from any thread while the loops run. With
/// loop_threads > 1 each loop counts shared-nothing; stats() merges.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_refused = 0;  ///< over max_connections
  std::uint64_t connections_closed = 0;
  std::uint64_t active_connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t slow_disconnects = 0;
  std::uint64_t idle_disconnects = 0;    ///< reaped past idle_timeout_ms
  std::uint64_t read_timeouts = 0;       ///< 408s for requests trickled past the deadline
  std::uint64_t streams_started = 0;     ///< chunked streaming responses begun
  std::uint64_t streams_completed = 0;   ///< ... that ran to the final chunk
  std::uint64_t streams_aborted = 0;     ///< ... abandoned by close/stop mid-pull
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  /// Largest pending write buffer any single connection ever held — the
  /// bound streaming mode is designed to keep at ~max_write_buffer/2.
  std::uint64_t peak_write_buffer = 0;
};

/// Asynchronous HTTP/1.1 server over N shared-nothing event loops. Each
/// loop thread drives its own non-blocking listener (SO_REUSEPORT sharding;
/// locked shared accept as the fallback) and every connection it accepted:
/// reads, incremental parsing, handler dispatch, and vectored buffered
/// writes (header + body + stream chunks go out through one writev-style
/// sendmsg, never concatenated). Keep-alive and pipelining come from the
/// RequestParser; responses go out in request order per connection —
/// streaming (chunked) responses hold the order until their final chunk.
/// Handlers execute on the owning loop thread — see Router's contract.
///
/// Threading: start() spawns the loop threads; stop() (and the destructor)
/// wakes and joins them, then closes every connection. port(), stats() and
/// loop_count() are safe from any thread.
class Server {
 public:
  Server(Router router, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and launches the loop threads. Throws Error when the
  /// address cannot be bound.
  void start();
  /// Idempotent; joins the loop threads and closes all sockets. Active
  /// streaming responses are abandoned (counted as streams_aborted) —
  /// drain() first for a graceful end.
  void stop();

  /// Graceful shutdown: stops accepting (within one sweep tick each
  /// listener's backlog is accepted and the listener closed), reaps idle
  /// keep-alive connections with no request bytes pending, answers
  /// in-flight requests with `Connection: close`, and lets active streaming
  /// responses run to their final chunk. Once every connection has drained — or
  /// `deadline_ms` elapsed, whichever comes first — the loops stop
  /// (stragglers are aborted), and then `flush` (optional) runs from the
  /// calling thread: the hook where the application drains its staged
  /// ingest into one final wave with no loop thread left to stage more.
  /// Returns true when every connection drained inside the deadline.
  /// Idempotent; a later stop() is a no-op.
  bool drain(std::size_t deadline_ms, const std::function<void()>& flush = {});
  bool draining() const noexcept { return draining_.load(std::memory_order_acquire); }

  bool running() const noexcept { return running_.load(std::memory_order_acquire); }
  /// Actual bound port (after start()).
  std::uint16_t port() const noexcept { return port_.load(std::memory_order_acquire); }
  const char* backend_name() const noexcept;

  std::size_t loop_count() const noexcept { return loops_.size(); }
  /// True after start() when each loop owns its own SO_REUSEPORT listener
  /// (false = single-loop or the locked shared-listener fallback).
  bool reuse_port_active() const noexcept {
    return reuse_port_active_.load(std::memory_order_acquire);
  }

  ServerStats stats() const noexcept;

 private:
  struct Connection;  ///< per-connection state (server.cpp)
  struct Loop;        ///< one event loop + its connections + counters (server.cpp)
  struct Metrics;     ///< pre-resolved sf_net_* metric handles (server.cpp)

  void bind_listeners();
  void loop_main(Loop& loop);
  void on_accept(Loop& loop);
  void on_connection_event(Loop& loop, int fd, bool readable, bool writable, bool error);
  /// Drains completed requests from the parser into the write queue; parked
  /// while a streaming response owns the response order.
  void process_requests(Loop& loop, Connection& conn);
  /// Appends one response to the connection's chunk queue (head and body as
  /// separate chunks — the body is moved, not copied) or begins a stream.
  void enqueue(Loop& loop, Connection& conn, Response&& response, bool keep_alive,
               int version_minor);
  /// Pulls stream chunks while pending bytes sit under the stream watermark.
  void pump_stream(Loop& loop, Connection& conn);
  /// Writes what the socket accepts via vectored sendmsg, refilling from an
  /// active stream as the buffer drains; updates write interest; enforces
  /// the slow-reader bound. Returns false when the connection was closed.
  bool flush(Loop& loop, Connection& conn);
  void push_chunk(Loop& loop, Connection& conn, std::string data);
  void close_connection(Loop& loop, int fd);
  void sweep_idle(Loop& loop);
  /// Sweep cadence: fine enough that idle/read deadlines are enforced
  /// within a quarter of the shorter timeout, capped at 250ms.
  int sweep_tick_ms() const;

  Router router_;
  ServerOptions options_;
  std::unique_ptr<Metrics> metrics_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  /// Loops that stopped accepting during drain (backlog accepted, listener
  /// closed or the shared one unwatched). With a shared listener the last
  /// one closes the fd; drain() counts connections only once every loop is
  /// in, since until then the backlog may hold connections it cannot see.
  std::atomic<std::size_t> loops_not_accepting_{0};
  std::atomic<std::uint16_t> port_{0};
  std::atomic<bool> reuse_port_active_{false};
  /// Global connection count (the max_connections bound spans all loops).
  std::atomic<std::size_t> total_connections_{0};
  /// Fallback path: one listener shared by every loop, accepts serialized.
  std::mutex accept_mutex_;
  int shared_listen_fd_ = -1;
};

}  // namespace smartflux::net
