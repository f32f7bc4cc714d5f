#include "baseline/heavygrid.hpp"

#include <sys/socket.h>

#include <array>
#include <sstream>

#include "http/message.hpp"
#include "http/parser.hpp"
#include "rpc/fault.hpp"
#include "rpc/soap.hpp"
#include "rpc/xml.hpp"
#include "tls/channel.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace clarens::baseline {

namespace {

// A WSDD-like deployment descriptor of realistic size: GT3 containers
// re-processed service deployment metadata when instantiating services.
std::string make_wsdd() {
  std::ostringstream out;
  out << "<?xml version=\"1.0\"?><deployment xmlns=\"urn:heavygrid/wsdd\">";
  for (int i = 0; i < 64; ++i) {
    out << "<service name=\"service" << i << "\" provider=\"ogsa:rpc\">"
        << "<parameter name=\"className\" value=\"org.grid.Service" << i
        << "\"/><parameter name=\"allowedMethods\" value=\"*\"/>"
        << "<parameter name=\"scope\" value=\"PerCall\"/>"
        << "<operation name=\"echo\"><output name=\"result\"/></operation>"
        << "</service>";
  }
  out << "</deployment>";
  return out.str();
}

}  // namespace

HeavyGridServer::HeavyGridServer(HeavyGridOptions options)
    : options_(std::move(options)), wsdd_(make_wsdd()) {}

HeavyGridServer::~HeavyGridServer() { stop(); }

void HeavyGridServer::start() {
  if (running_.exchange(true)) return;
  listener_ = net::TcpListener::listen(options_.port, options_.host);
  port_ = listener_.local_port();
  acceptor_ = util::Thread([this] { accept_loop(); });
}

void HeavyGridServer::stop() {
  if (!running_.exchange(false)) return;
  listener_.shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<util::Thread> finished;
  {
    util::UniqueLock lock(mutex_);
    while (!conn_threads_.empty()) all_done_.wait(lock);
    finished = std::move(finished_);
    finished_.clear();
  }
  for (auto& thread : finished) thread.join();
  listener_.close();
}

void HeavyGridServer::accept_loop() {
  while (running_.load()) {
    net::TcpConnection tcp;
    try {
      tcp = listener_.accept();
    } catch (const SystemError&) {
      if (!running_.load()) return;
      continue;
    }
    util::LockGuard lock(mutex_);
    std::uint64_t id = ++conn_seq_;
    // The body blocks on mutex_ until the emplace below completes, so it
    // always finds its own handle in conn_threads_.
    util::Thread thread([this, id, conn = std::move(tcp)]() mutable {
      try {
        serve_one(std::move(conn));
      } catch (...) {
      }
      // This lambda body runs on the spawned connection thread; the
      // accept loop's guard is not held there, so the lexical nesting
      // below is not a real acquisition edge.
      // clarens-lint: allow(lock-order): lambda runs on its own thread
      util::LockGuard lk(mutex_);
      auto it = conn_threads_.find(id);
      if (it != conn_threads_.end()) {
        finished_.push_back(std::move(it->second));
        conn_threads_.erase(it);
      }
      all_done_.notify_all();
    });
    conn_threads_.emplace(id, std::move(thread));
    // Reap handles parked by connections that already finished.
    for (auto& done : finished_) done.join();
    finished_.clear();
  }
}

void HeavyGridServer::serve_one(net::TcpConnection tcp) {
  // Per-call handshake: mutual TLS, no resumption.
  tls::TlsConfig tls;
  tls.credential = options_.credential;
  tls.trust = &options_.trust;
  tls.require_peer_certificate = true;
  std::unique_ptr<net::Stream> stream;
  try {
    stream = tls::SecureChannel::accept(
        std::make_unique<net::TcpConnection>(std::move(tcp)), tls);
  } catch (const Error& e) {
    CLARENS_LOG(Debug) << "heavygrid: handshake failed: " << e.what();
    return;
  }
  auto* secure = static_cast<tls::SecureChannel*>(stream.get());

  // Read exactly one request (GT3 model: no keep-alive).
  http::RequestParser parser;
  std::array<std::uint8_t, 64 * 1024> chunk;
  std::optional<http::Request> request;
  while (!request) {
    std::size_t n = stream->read(chunk);
    if (n == 0) return;
    parser.feed(std::span<const std::uint8_t>(chunk.data(), n));
    request = parser.next();
  }

  rpc::Response rpc_response;
  try {
    // Container startup work per call:
    // (1) re-verify the client chain (the channel already did once — GT3
    //     layered GSI verification above the transport's).
    auto verdict =
        options_.trust.verify(secure->peer_chain(), util::unix_now());
    if (!verdict.ok) throw AuthError("GSI verification failed: " + verdict.error);
    // (2) grid-mapfile scan for authorization.
    std::string identity = verdict.identity.str();
    bool mapped = false;
    for (const auto& [dn, user] : options_.gridmap) {
      if (dn == identity) {
        mapped = true;
        break;
      }
    }
    if (!mapped) throw AccessError("identity not in grid-mapfile");
    // (3) service instantiation: parse the deployment descriptor.
    for (int i = 0; i < options_.container_work_factor; ++i) {
      rpc::XmlPullParser wsdd(wsdd_);
      int elements = 0;
      for (auto event = wsdd.next(); event != rpc::XmlPullParser::Event::Eof;
           event = wsdd.next()) {
        if (event == rpc::XmlPullParser::Event::StartTag) ++elements;
      }
      if (elements < 2) throw Error("empty deployment descriptor");
    }
    // (4) SOAP processing + dispatch of the trivial method.
    rpc::Request call = rpc::soap::parse_request(request->body);
    if (call.method == "echo") {
      rpc_response = rpc::Response::success(
          call.params.empty() ? rpc::Value() : call.params[0]);
    } else {
      throw rpc::Fault(rpc::kFaultBadMethod, "no such service operation");
    }
    calls_.fetch_add(1);
  } catch (const rpc::Fault& fault) {
    rpc_response = rpc::Response::fault(fault.code(), fault.what());
  } catch (const Error& error) {
    rpc_response = rpc::Response::fault(error.code(), error.what());
  }

  http::Response response = http::Response::make(
      200, rpc::soap::serialize_response(rpc_response), "application/soap+xml");
  response.headers.set("Connection", "close");
  try {
    stream->write_all(response.serialize());
  } catch (const SystemError&) {
  }
}

HeavyGridClient::HeavyGridClient(std::string host, std::uint16_t port,
                                 pki::Credential credential,
                                 const pki::TrustStore& trust)
    : host_(std::move(host)),
      port_(port),
      credential_(std::move(credential)),
      trust_(trust) {}

rpc::Value HeavyGridClient::call(const std::string& method,
                                 const std::vector<rpc::Value>& params) {
  // Connection + mutual handshake per call: the defining GT3 cost.
  auto tcp = std::make_unique<net::TcpConnection>(
      net::TcpConnection::connect(host_, port_));
  tls::TlsConfig tls;
  tls.credential = credential_;
  tls.trust = &trust_;
  auto stream = tls::SecureChannel::connect(std::move(tcp), tls);

  rpc::Request rpc_request;
  rpc_request.method = method;
  rpc_request.params = params;

  http::Request request;
  request.method = "POST";
  request.target = "/ogsa";
  request.headers.set("Host", host_);
  request.headers.set("Content-Type", "application/soap+xml");
  request.headers.set("Connection", "close");
  request.body = rpc::soap::serialize_request(rpc_request);
  stream->write_all(request.serialize());

  http::ResponseParser parser;
  std::array<std::uint8_t, 64 * 1024> chunk;
  for (;;) {
    if (auto response = parser.next()) {
      rpc::Response parsed = rpc::soap::parse_response(response->body);
      if (parsed.is_fault) {
        throw rpc::Fault(parsed.fault_code, parsed.fault_message);
      }
      return parsed.result;
    }
    std::size_t n = stream->read(chunk);
    if (n == 0) throw SystemError("heavygrid server closed early");
    parser.feed(std::span<const std::uint8_t>(chunk.data(), n));
  }
}

}  // namespace clarens::baseline
