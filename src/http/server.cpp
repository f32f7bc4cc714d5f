#include "http/server.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>

#include <algorithm>
#include <array>

#include "http/parser.hpp"
#include "util/buffer.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace clarens::http {

namespace {

/// Worker-side stream over an established TLS connection: encrypts through
/// the connection's engine (write side — the drainer token serializes it
/// against other writers) and writes blockingly on the raw socket. Reads
/// stay on the reactor, which owns the engine's read side.
struct TlsStream final : net::Stream {
  net::TcpConnection& tcp;
  tls::Engine& engine;

  TlsStream(net::TcpConnection& t, tls::Engine& e) : tcp(t), engine(e) {}

  std::size_t read(std::span<std::uint8_t>) override {
    throw SystemError("TLS reads are reactor-side");
  }

  using net::Stream::write_all;

  void write_all(std::span<const std::uint8_t> data) override {
    thread_local util::Buffer wire;
    wire.clear();
    engine.encrypt(data, wire);
    tcp.write_all(wire.peek());
  }

  void write_vec(std::span<const std::string_view> chunks) override {
    thread_local util::Buffer wire;
    wire.clear();
    engine.encrypt(chunks, wire);
    tcp.write_all(wire.peek());
  }

  void close() override { tcp.close(); }
};

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// Inline-dispatch policy (DESIGN.md "Dispatch policy").
/// Requests with bodies above this never run inline.
constexpr std::size_t kInlineMaxBody = 16 * 1024;
/// Wall-clock inline handler time allowed per epoll tick (microseconds);
/// past it the remainder of the tick spills, bounding how long the
/// reactor defers its read loop.
constexpr double kInlineBudgetUs = 5000.0;

/// Status line + headers for an in-memory response, serialized into
/// `head`, and the body (none for HEAD): the chunks of one vectored write.
std::array<std::string_view, 2> wire_chunks(const Request& request,
                                            const Response& response,
                                            util::Buffer& head) {
  std::string_view body = response.effective_body();
  head.clear();
  response.serialize_head_into(head, body.size());
  return {head.peek_view(),
          request.method != "HEAD" ? body : std::string_view()};
}

/// Blocking write of one response. The body, often a view of the
/// handler's serialization arena, is never copied into a combined wire
/// string. A file region streams through Stream::send_file: on an RPC
/// envelope (non-empty FileRegion::head) the handler already clamped the
/// region and head/tail carry the serialized framing around the raw
/// bytes; a GET region is clamped to the file here. Throws SystemError
/// when the connection can no longer carry a well-framed response.
void send_response(net::Stream& stream, const Request& request,
                   const Response& response) {
  thread_local util::Buffer head;
  if (!response.file) {
    stream.write_vec(wire_chunks(request, response, head));
    return;
  }
  const Response::FileRegion& region = *response.file;
  net::Fd file(::open(region.path.c_str(), O_RDONLY | O_CLOEXEC));
  if (!file.valid()) {
    stream.write_all(Response::make(404, "file not found\n").serialize());
    return;
  }
  struct stat st{};
  if (::fstat(file.get(), &st) != 0 || !S_ISREG(st.st_mode)) {
    stream.write_all(Response::make(404, "not a regular file\n").serialize());
    return;
  }
  std::int64_t offset = region.offset;
  std::int64_t length = region.length;
  if (region.head.empty()) {
    offset = std::clamp<std::int64_t>(offset, 0, st.st_size);
    if (length < 0 || length > st.st_size - offset) {
      length = st.st_size - offset;
    }
  }
  std::size_t count = static_cast<std::size_t>(length);
  head.clear();
  response.serialize_head_into(
      head, region.head.size() + count + region.tail.size());
  if (request.method == "HEAD") {
    stream.write_all(head.peek_view());
    return;
  }
  std::array<std::string_view, 2> opening = {head.peek_view(), region.head};
  stream.write_vec(opening);
  if (stream.send_file(file.get(), offset, count) != count) {
    // The Content-Length is committed; a file that shrank between resolve
    // and send can only be answered by killing the connection.
    throw SystemError("file region shrank mid-response");
  }
  stream.write_all(region.tail);
}

}  // namespace

Server::Server(ServerOptions options, HandlerFn handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.exchange(true)) return;
  listener_ = net::TcpListener::listen(options_.port, options_.host);
  port_ = listener_.local_port();
  listener_.set_nonblocking(true);

  // The reactor thread occupies one core; handlers get the rest. On a
  // single-core host one worker minimizes scheduler churn between the
  // reader and the handler.
  std::size_t cores = util::Thread::hardware_concurrency();
  pool_ = std::make_unique<util::ThreadPool>(cores > 1 ? cores - 1 : 1);
  reactor_ = std::make_unique<net::Reactor>();
  reactor_->add(listener_.fd(), net::Reactor::kRead,
                [this](std::uint32_t) { on_acceptable(); });
  reactor_thread_ = util::Thread([this] { reactor_->run(); });
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  // Quiesce the reactor first: once it has joined, no thread reads
  // connection fds, runs inline handlers, or dispatches new work, so the
  // teardown below cannot race with accepts or parser feeds.
  listener_.shutdown();
  reactor_->stop();
  // clarens-lint: allow(reactor-blocking): stop() runs on a control thread, never on the reactor it is joining.
  if (reactor_thread_.joinable()) reactor_thread_.join();

  // Signal every live connection (shutdown leaves the fds intact for
  // workers mid-write; their next write fails and they bail out).
  {
    util::LockGuard lock(conns_mutex_);
    for (auto& [fd, conn] : conns_) ::shutdown(fd, SHUT_RDWR);
  }

  // Join handler workers (their posted close tasks are now no-ops).
  pool_.reset();

  // Nothing references the connections any more; RAII closes the fds.
  {
    util::LockGuard lock(conns_mutex_);
    conns_.clear();
  }
  reactor_.reset();
  listener_.close();
}

std::size_t Server::live_connections() {
  util::LockGuard lock(conns_mutex_);
  return conns_.size();
}

void Server::on_acceptable() {
  for (;;) {
    std::optional<net::TcpConnection> tcp;
    try {
      tcp = listener_.accept_nonblocking();
    } catch (const SystemError&) {
      return;  // listener shut down, or transient accept failure
    }
    if (!tcp) return;
    if (!running_.load()) return;

    if (live_connections() >= options_.max_connections) {
      // Shed load. Best-effort and non-blocking, with no server lock
      // held: a slow or hostile client must not stall the accept path.
      try {
        tcp->set_nonblocking(true);
        std::string wire = Response::make(503, "server busy\n").serialize();
        tcp->write_some(as_bytes(wire));
      } catch (const SystemError&) {
      }
      continue;  // destructor closes; client sees 503 then EOF
    }
    admit(std::move(*tcp));
  }
}

void Server::admit(net::TcpConnection tcp) {
  try {
    tcp.set_nonblocking(true);
    // RPC traffic is small request/response pairs; never batch them
    // behind Nagle while the peer sits on a delayed ACK.
    tcp.set_nodelay(true);
  } catch (const SystemError&) {
    return;
  }
  auto conn = std::make_shared<Conn>(std::move(tcp));
  if (options_.tls) {
    // TLS connections join the reactor like plaintext ones: the sans-IO
    // engine turns readable ciphertext into handshake flights and
    // plaintext without ever blocking for the peer.
    conn->engine =
        std::make_unique<tls::Engine>(tls::Engine::Role::Server, *options_.tls);
    conn->peer.encrypted = true;
  }
  int fd = conn->tcp.fd();
  {
    util::LockGuard lock(conns_mutex_);
    conns_[fd] = conn;
  }
  reactor_->add(fd, net::Reactor::kRead, [this, conn](std::uint32_t ready) {
    on_event(conn, ready);
  });
}

void Server::on_event(const std::shared_ptr<Conn>& conn, std::uint32_t ready) {
  if (!conn->tcp.valid()) return;
  if (ready & net::Reactor::kWrite) flush_outbox(conn);
  if (!conn->tcp.valid()) return;  // flush may have sealed the connection
  if (ready & net::Reactor::kRead) on_readable(conn);
}

void Server::on_readable(const std::shared_ptr<Conn>& conn) {
  bool eof = false;
  bool bad = false;
  std::vector<Conn::Pending> parsed;
  std::array<std::uint8_t, 64 * 1024> chunk;

  auto drain_parser = [&] {
    std::optional<Request> request;
    while ((request = conn->parser.next())) {
      Conn::Pending item;
      item.inline_ok = options_.inline_ok &&
                       request->body.size() <= kInlineMaxBody &&
                       options_.inline_ok(*request);
      item.request = std::move(*request);
      parsed.push_back(std::move(item));
    }
  };

  for (;;) {
    std::optional<std::size_t> n;
    try {
      n = conn->tcp.read_some(chunk);
    } catch (const SystemError&) {
      eof = true;
      break;
    }
    if (!n) break;  // drained the socket buffer
    if (*n == 0) {
      eof = true;  // client closed
      break;
    }

    if (conn->engine) {
      thread_local util::Buffer flight;
      flight.clear();
      try {
        conn->engine->feed(std::span<const std::uint8_t>(chunk.data(), *n),
                           flight);
      } catch (const Error& e) {
        CLARENS_LOG(Debug) << "TLS failure: " << e.what();
        if (flight.readable() != 0) {
          // Best-effort alert; never park bytes on a dead handshake. A
          // busy drainer may be mid-write on this fd, and parked outbox
          // bytes must go first — in either case just drop the alert
          // (the connection is being torn down anyway) rather than
          // interleave with another writer.
          bool drainer_active;
          {
            util::LockGuard lock(conn->mutex);
            drainer_active = conn->busy;
          }
          if (!drainer_active && conn->outbox.readable() == 0) {
            try {
              conn->tcp.write_some(flight.peek());
            } catch (const SystemError&) {
            }
          }
        }
        eof = true;
        break;
      }
      if (flight.readable() != 0) {
        std::array<std::string_view, 1> out = {flight.peek_view()};
        try {
          write_or_park(conn, out);
        } catch (const SystemError&) {
          eof = true;
          break;
        }
      }
      if (conn->engine->handshake_done() && !conn->peer_set) {
        conn->peer_set = true;
        conn->peer.tls_identity = conn->engine->peer();
        conn->peer.chain = conn->engine->peer_chain();
      }
      try {
        while (conn->engine->plain_available() > 0) {
          std::size_t m = conn->engine->read_plain(chunk);
          conn->parser.feed(std::span<const std::uint8_t>(chunk.data(), m));
          drain_parser();
        }
      } catch (const ParseError&) {
        bad = true;
        eof = true;
        break;
      }
    } else {
      try {
        conn->parser.feed(std::span<const std::uint8_t>(chunk.data(), *n));
        drain_parser();
      } catch (const ParseError&) {
        bad = true;
        eof = true;
        break;
      }
    }
    // A short read almost always means the buffer is drained; skip the
    // EAGAIN probe. Level-triggered epoll re-reports any residue.
    if (*n < chunk.size()) break;
  }

  {
    util::LockGuard lock(conn->mutex);
    if (conn->closing) return;  // a worker already sealed this connection
    for (auto& item : parsed) conn->ready.push_back(std::move(item));
    if (bad) conn->bad = true;
    if (eof) conn->closing = true;
  }
  maybe_dispatch(conn);
}

void Server::maybe_dispatch(const std::shared_ptr<Conn>& conn) {
  // While the outbox holds bytes the reactor owns the write side; any
  // dispatched drainer would interleave its response with the parked one.
  if (conn->outbox.readable() != 0) return;
  bool run_inline = false;
  bool spill = false;
  bool close_now = false;
  {
    util::LockGuard lock(conn->mutex);
    if (conn->busy) return;
    if (!conn->ready.empty()) {
      conn->busy = true;
      if (inline_eligible(conn->ready.front())) {
        run_inline = true;
      } else {
        spill = true;
      }
    } else if (conn->closing) {
      close_now = true;
    }
  }
  if (run_inline) {
    inline_drain(conn);
  } else if (spill) {
    pool_->submit([this, conn] { worker_drain(conn); });
  } else if (close_now) {
    refuse_if_malformed(*conn);
    close_conn(conn);
  }
}

bool Server::inline_eligible(const Conn::Pending& item) {
  if (!item.inline_ok) return false;
  std::uint64_t tick = reactor_->ticks();
  if (tick != budget_tick_) {
    budget_tick_ = tick;
    budget_spent_us_ = 0;
  }
  return budget_spent_us_ < kInlineBudgetUs;
}

Response Server::run_handler(const Request& request, const Peer& peer) {
  Response response;
  try {
    response = handler_(request, peer);
  } catch (const std::exception& e) {
    response = Response::make(500, std::string(e.what()) + "\n");
  }
  if (!request.keep_alive()) response.headers.set("Connection", "close");
  return response;
}

void Server::seal(Conn& conn) {
  util::LockGuard lock(conn.mutex);
  conn.closing = true;
  conn.ready.clear();
}

void Server::inline_drain(const std::shared_ptr<Conn>& conn) {
  // Reactor thread, holding the drainer token (busy). Each iteration runs
  // one eligible request and writes its response without blocking; the
  // first ineligible request (or an exhausted tick budget) hands the
  // token to a pool worker so the reactor returns to its fds.
  for (;;) {
    Conn::Pending item;
    {
      util::LockGuard lock(conn->mutex);
      if (conn->ready.empty()) {
        conn->busy = false;
        if (!conn->closing) return;
        break;  // drained a closing connection: finish below
      }
      if (!inline_eligible(conn->ready.front())) {
        // Spill the rest of the queue; the token transfers to the worker.
        pool_->submit([this, conn] { worker_drain(conn); });
        return;
      }
      item = std::move(conn->ready.front());
      conn->ready.pop_front();
    }

    requests_.fetch_add(1, std::memory_order_relaxed);
    inlined_.fetch_add(1, std::memory_order_relaxed);
    util::Stopwatch watch;
    Response response = run_handler(item.request, conn->peer);
    budget_spent_us_ += watch.seconds() * 1e6;
    bool close_after = !item.request.keep_alive();

    if (response.file) {
      // File regions stream with blocking I/O — hand both the send and
      // the drainer token to a worker.
      pool_->submit([this, conn, request = std::move(item.request),
                     response = std::move(response), close_after] {
        send_or_seal(*conn, request, response, close_after);
        worker_drain(conn);
      });
      return;
    }

    thread_local util::Buffer head;
    std::array<std::string_view, 2> chunks =
        wire_chunks(item.request, response, head);
    bool flushed = false;
    bool broken = false;
    try {
      if (conn->engine) {
        thread_local util::Buffer enc;
        enc.clear();
        conn->engine->encrypt(chunks, enc);
        std::array<std::string_view, 1> wire = {enc.peek_view()};
        flushed = write_or_park(conn, wire);
      } else {
        flushed = write_or_park(conn, chunks);
      }
    } catch (const SystemError&) {
      broken = true;  // peer vanished mid-write
    }

    if (flushed && !close_after) continue;
    if (broken || close_after) seal(*conn);
    {
      util::LockGuard lock(conn->mutex);
      conn->busy = false;
    }
    // Nothing parked: tear down now. Otherwise the reactor resumes this
    // queue (or closes, if sealed) once EPOLLOUT drains the outbox.
    if (broken || flushed) close_conn(conn);
    return;
  }

  // Drained a closing connection on the reactor: best-effort 400 if the
  // stream was malformed, then tear down. busy is already released, but
  // no other dispatcher can run — we are the dispatcher.
  refuse_if_malformed(*conn);
  close_conn(conn);
}

void Server::refuse_if_malformed(Conn& conn) {
  {
    util::LockGuard lock(conn.mutex);
    if (!conn.bad) return;
  }
  // Parked bytes must go first, and a blocking write would stall the
  // reactor (or pin a worker) on a full socket buffer; in either case
  // the connection is being torn down, so the refusal is simply dropped.
  if (conn.outbox.readable() != 0) return;
  if (conn.engine && !conn.engine->handshake_done()) return;
  std::string wire = Response::make(400, "malformed request\n").serialize();
  try {
    if (conn.engine) {
      thread_local util::Buffer enc;
      enc.clear();
      conn.engine->encrypt(as_bytes(wire), enc);
      conn.tcp.write_some(enc.peek());
    } else {
      conn.tcp.write_some(as_bytes(wire));
    }
  } catch (const SystemError&) {
  }
}

bool Server::write_or_park(const std::shared_ptr<Conn>& conn,
                           std::span<const std::string_view> chunks) {
  std::size_t written = 0;
  if (conn->outbox.readable() == 0) {
    written = conn->tcp.writev_some(chunks);
  }
  // Park whatever the socket did not take (everything, if earlier bytes
  // are already parked — ordering is the outbox's whole point).
  std::size_t skip = written;
  bool parked = false;
  for (std::string_view chunk : chunks) {
    if (skip >= chunk.size()) {
      skip -= chunk.size();
      continue;
    }
    conn->outbox.write(chunk.substr(skip));
    skip = 0;
    parked = true;
  }
  if (!parked) return true;
  arm_write(*conn, true);
  return false;
}

void Server::flush_outbox(const std::shared_ptr<Conn>& conn) {
  if (!conn->tcp.valid()) return;
  if (conn->outbox.readable() != 0) {
    try {
      std::size_t n = conn->tcp.write_some(conn->outbox.peek());
      conn->outbox.consume(n);
    } catch (const SystemError&) {
      seal(*conn);
      close_conn(conn);
      return;
    }
  }
  if (conn->outbox.readable() == 0) {
    conn->outbox.compact();
    arm_write(*conn, false);
    maybe_dispatch(conn);  // resume the queue (or close) now that writes drained
  }
}

void Server::arm_write(Conn& conn, bool on) {
  if (conn.want_write == on) return;
  if (!reactor_->watching(conn.tcp.fd())) return;
  std::uint32_t interest = net::Reactor::kRead;
  if (on) interest |= net::Reactor::kWrite;
  reactor_->modify(conn.tcp.fd(), interest);
  conn.want_write = on;
}

void Server::worker_drain(std::shared_ptr<Conn> conn) {
  for (;;) {
    Conn::Pending item;
    {
      util::LockGuard lock(conn->mutex);
      if (conn->ready.empty()) {
        if (!conn->closing) {
          conn->busy = false;  // reactor will redispatch on new input
          return;
        }
        break;  // drained a closing connection: finish below
      }
      item = std::move(conn->ready.front());
      conn->ready.pop_front();
    }

    requests_.fetch_add(1, std::memory_order_relaxed);
    Response response = run_handler(item.request, conn->peer);
    if (!send_or_seal(*conn, item.request, response,
                      !item.request.keep_alive())) {
      break;
    }
  }

  // Finishing a closing connection. `busy` is still held, so the
  // reactor cannot close the fd underneath the 400 write below.
  refuse_if_malformed(*conn);
  {
    util::LockGuard lock(conn->mutex);
    conn->busy = false;
  }
  request_close(conn);
}

bool Server::send_or_seal(Conn& conn, const Request& request,
                          const Response& response, bool close_after) {
  try {
    if (conn.engine) {
      TlsStream stream(conn.tcp, *conn.engine);
      send_response(stream, request, response);
    } else {
      send_response(conn.tcp, request, response);
    }
  } catch (const SystemError&) {
    close_after = true;  // peer vanished mid-write, or a short file region
  }
  if (close_after) seal(conn);
  return !close_after;
}

void Server::request_close(const std::shared_ptr<Conn>& conn) {
  reactor_->post([this, conn] { close_conn(conn); });
}

void Server::close_conn(const std::shared_ptr<Conn>& conn) {
  if (!conn->tcp.valid()) return;  // already torn down (idempotent)
  int fd = conn->tcp.fd();
  if (reactor_->watching(fd)) reactor_->remove(fd);
  conn->tcp.close();
  util::LockGuard lock(conns_mutex_);
  conns_.erase(fd);
}

}  // namespace clarens::http
