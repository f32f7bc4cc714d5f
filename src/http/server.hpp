// HTTP server: epoll reactor front end + adaptive inline / worker-pool
// request execution.
//
// The paper's PClarens runs inside Apache's event-driven front end with a
// pool of worker processes; this server mirrors that shape and then
// erases the mandatory handoff for the paper's hot path (small
// authenticated RPCs, §4):
//
//   * a single reactor thread owns the listening socket and every
//     connection fd (non-blocking, plaintext and TLS alike), accepts,
//     reads, and feeds the incremental request parser; TLS bytes pass
//     through a per-connection sans-IO tls::Engine, so handshakes and
//     record decryption are driven by readiness events, never by a
//     blocking read;
//   * complete requests are queued per connection. A request the embedder
//     marks cheap runs *inline* on the reactor thread while its body is
//     small and this epoll tick's wall-clock budget lasts (DESIGN.md
//     "Dispatch policy"), with its response written non-blockingly — any
//     unsent tail parks in a per-connection outbox drained on EPOLLOUT.
//     Everything else spills to the `util::ThreadPool` workers that run
//     the handler and write the response blockingly (keep-alive
//     pipelining and per-connection ordering preserved in both modes, and
//     across mode switches);
//   * connection teardown is always executed on the reactor thread
//     (workers schedule it via Reactor::post), so an fd is never closed
//     while the reactor might still act on it.
//
// File-region responses stream through net::Stream::send_file —
// sendfile(2) on plaintext connections, the zero-copy path §2.3 credits
// for file throughput, and a pread loop through the record layer on TLS —
// optionally wrapped in an RPC envelope (FileRegion::head/tail) so large
// file.read responses bypass the serialization arena entirely.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "http/message.hpp"
#include "http/parser.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "tls/channel.hpp"
#include "tls/engine.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace clarens::http {

/// What the transport layer knows about the requester.
struct Peer {
  /// TLS-verified identity, when the connection is encrypted and the
  /// client presented a certificate.
  std::optional<pki::TrustStore::Result> tls_identity;
  std::vector<pki::Certificate> chain;
  bool encrypted = false;
};

using HandlerFn = std::function<Response(const Request&, const Peer&)>;

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral
  std::optional<tls::TlsConfig> tls;
  std::size_t max_connections = 1024;
  /// Inline-dispatch predicate (DESIGN.md "Dispatch policy"): true when
  /// the request's handler is in-memory and cheap. The reactor runs a
  /// request inline iff this says yes, the body is at most 16 KiB, and
  /// this epoll tick's 5 ms wall-clock budget is not spent; otherwise it
  /// spills to the worker pool. Unset = inline dispatch disabled: only the
  /// embedder knows which handlers are safe to run on the reactor thread.
  std::function<bool(const Request&)> inline_ok;
};

class Server {
 public:
  Server(ServerOptions options, HandlerFn handler);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen and spawn the reactor + worker pool. Throws on bind
  /// failure.
  void start();

  /// Close the listener and all live connections; join every thread.
  void stop();

  std::uint16_t port() const { return port_; }
  bool running() const { return running_.load(); }

  /// Served request count (all connections).
  std::uint64_t requests_served() const { return requests_.load(); }

  /// Requests executed inline on the reactor thread (subset of
  /// requests_served; dispatch-policy telemetry).
  std::uint64_t requests_inlined() const { return inlined_.load(); }

 private:
  /// Per-connection state. The reactor thread owns `tcp` reads, `parser`,
  /// the TLS engine's read side, and `outbox`; at most one drainer at a
  /// time (a worker, or the reactor running inline) owns writes and the
  /// front of `ready` — the `busy` flag is that ownership token. While
  /// `outbox` is non-empty the reactor owns the write side exclusively
  /// and no drainer is dispatched.
  struct Conn {
    explicit Conn(net::TcpConnection c) : tcp(std::move(c)) {}
    net::TcpConnection tcp;
    Peer peer;
    /// Reactor thread only: latches the one-shot post-handshake peer
    /// assignment. Field values can't serve as the guard — an anonymous
    /// TLS peer leaves them empty, and re-assigning on every readable
    /// event would race a worker reading `peer` in the handler.
    bool peer_set = false;
    RequestParser parser;  // reactor thread only
    /// Sans-IO TLS state machine; null on plaintext connections. Read
    /// side (feed/read_plain) is reactor-only; write side (encrypt) is
    /// serialized by the drainer token.
    std::unique_ptr<tls::Engine> engine;
    /// Unwritten response/handshake bytes (reactor thread only).
    util::Buffer outbox;
    bool want_write = false;  // reactor thread only: EPOLLOUT armed

    /// A parsed request plus the embedder's inline verdict (computed once
    /// on the reactor at parse time).
    struct Pending {
      Request request;
      bool inline_ok = false;
    };

    util::Mutex mutex{util::LockLevel::kHttpConn};
    /// Parsed, not yet handled.
    std::deque<Pending> ready CLARENS_GUARDED_BY(mutex);
    /// A drainer (worker or inline) owns writes + the ready front.
    bool busy CLARENS_GUARDED_BY(mutex) = false;
    /// Drain then close; no new dispatch.
    bool closing CLARENS_GUARDED_BY(mutex) = false;
    /// Malformed stream: answer 400 when drained.
    bool bad CLARENS_GUARDED_BY(mutex) = false;
  };

  // Reactor-thread handlers.
  void on_acceptable();
  void admit(net::TcpConnection tcp);
  void on_event(const std::shared_ptr<Conn>& conn, std::uint32_t ready);
  void on_readable(const std::shared_ptr<Conn>& conn);
  void maybe_dispatch(const std::shared_ptr<Conn>& conn);
  void inline_drain(const std::shared_ptr<Conn>& conn);
  void flush_outbox(const std::shared_ptr<Conn>& conn);
  void arm_write(Conn& conn, bool on);
  /// Non-blocking write; parks the unsent tail in the outbox and arms
  /// EPOLLOUT. Returns true when fully written.
  bool write_or_park(const std::shared_ptr<Conn>& conn,
                     std::span<const std::string_view> chunks);
  void close_conn(const std::shared_ptr<Conn>& conn);  // reactor thread only
  /// On a malformed stream, a best-effort "400 malformed request" before
  /// teardown: one non-blocking write, skipped while the outbox holds
  /// bytes that would have to go first. Caller is the only writer.
  static void refuse_if_malformed(Conn& conn);

  /// Dispatch policy: the embedder's verdict and this tick's budget.
  bool inline_eligible(const Conn::Pending& item);

  // Worker-side.
  void worker_drain(std::shared_ptr<Conn> conn);
  /// Blocking send by the connection's drainer. Seals the connection when
  /// the write fails or `close_after` is set; returns false when sealed.
  static bool send_or_seal(Conn& conn, const Request& request,
                           const Response& response, bool close_after);
  void request_close(const std::shared_ptr<Conn>& conn);

  /// Drain then close: no further request on `conn` is dispatched.
  static void seal(Conn& conn);
  /// Runs the handler (a throw becomes a 500) and marks the response
  /// "Connection: close" when the request does not keep the connection.
  Response run_handler(const Request& request, const Peer& peer);
  std::size_t live_connections();

  ServerOptions options_;
  HandlerFn handler_;
  net::TcpListener listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> inlined_{0};

  std::unique_ptr<net::Reactor> reactor_;
  util::Thread reactor_thread_;
  std::unique_ptr<util::ThreadPool> pool_;

  util::Mutex conns_mutex_{util::LockLevel::kHttpServerConns};
  std::unordered_map<int, std::shared_ptr<Conn>> conns_
      CLARENS_GUARDED_BY(conns_mutex_);

  // Inline budget accounting; reactor thread only.
  std::uint64_t budget_tick_ = 0;
  double budget_spent_us_ = 0;
};

}  // namespace clarens::http
