// Tests for the client library: the synchronous client's transport
// behaviour (keep-alive reuse, transparent reconnect, GET ranges) and
// the asynchronous multi-connection driver used by the Figure-4 bench.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <optional>
#include <thread>
#include <vector>

#include "client/async_client.hpp"
#include "client/client.hpp"
#include "client/routed.hpp"
#include "core/server.hpp"
#include "http/parser.hpp"
#include "net/socket.hpp"
#include "rpc/fault.hpp"
#include "rpc/protocol.hpp"
#include "test_fixtures.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"

namespace clarens::client {
namespace {

using testing::TempDir;
using testing::TestPki;

core::ClarensConfig open_config(const TestPki& pki) {
  core::ClarensConfig config;
  config.trust = pki.trust;
  core::AclSpec anyone;
  anyone.allow_dns = {core::AclSpec::kAnyone};
  config.initial_method_acls = {{"system", anyone}, {"echo", anyone}};
  return config;
}

ClientOptions options_for(const TestPki& pki, std::uint16_t port) {
  ClientOptions options;
  options.port = port;
  options.credential = pki.alice;
  options.trust = &pki.trust;
  return options;
}

TEST(Client, KeepAliveReusesOneConnection) {
  const TestPki& pki = TestPki::instance();
  core::ClarensServer server(open_config(pki));
  server.start();
  ClarensClient client(options_for(pki, server.port()));
  client.connect();
  client.authenticate();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(client.call("echo.echo", {rpc::Value(i)}).as_int(), i);
  }
  // 50 echos + challenge + auth = 52 requests, all on one connection.
  EXPECT_EQ(server.requests_served(), 52u);
  server.stop();
}

TEST(Client, ReconnectsAfterServerRestartWithPersistentSessions) {
  const TestPki& pki = TestPki::instance();
  TempDir tmp;
  core::ClarensConfig config = open_config(pki);
  config.data_dir = tmp.sub("state");
  auto server = std::make_unique<core::ClarensServer>(std::move(config));
  server->start();
  std::uint16_t port = server->port();

  ClarensClient client(options_for(pki, port));
  client.connect();
  std::string session = client.authenticate();
  EXPECT_EQ(client.call("echo.echo", {rpc::Value(1)}).as_int(), 1);

  // Restart the server on the same port; the session store persists.
  server->stop();
  server.reset();
  core::ClarensConfig config2 = open_config(pki);
  config2.data_dir = tmp.path() + "/state";
  config2.port = port;
  core::ClarensServer restarted(std::move(config2));
  restarted.start();

  // The client notices the dead keep-alive connection and retries; the
  // old session token still works (the paper's restart-survival claim).
  EXPECT_EQ(client.call("echo.echo", {rpc::Value(2)}).as_int(), 2);
  EXPECT_EQ(client.session(), session);
  restarted.stop();
}

TEST(Client, AuthenticateWithoutCredentialFails) {
  const TestPki& pki = TestPki::instance();
  core::ClarensServer server(open_config(pki));
  server.start();
  ClientOptions options;
  options.port = server.port();
  options.trust = &pki.trust;
  ClarensClient client(options);
  client.connect();
  EXPECT_THROW(client.authenticate(), AuthError);
  server.stop();
}

TEST(Client, WrongKeyChallengeRejected) {
  const TestPki& pki = TestPki::instance();
  core::ClarensServer server(open_config(pki));
  server.start();
  // Credential whose certificate belongs to alice but whose key is bob's:
  // the challenge signature will not verify.
  pki::Credential frankenstein{pki.alice.certificate, pki.bob.private_key};
  ClientOptions options;
  options.port = server.port();
  options.credential = frankenstein;
  options.trust = &pki.trust;
  ClarensClient client(options);
  client.connect();
  EXPECT_THROW(client.authenticate(), rpc::Fault);
  server.stop();
}

// GET file serving over both transports: plaintext streams the region
// with sendfile(2), TLS with the base pread loop through the record layer.
class ClientGet : public ::testing::TestWithParam<bool> {};

TEST_P(ClientGet, RangeRequests) {
  const TestPki& pki = TestPki::instance();
  TempDir tmp;
  std::string dir = tmp.sub("files");
  {
    std::ofstream out(dir + "/blob.bin", std::ios::binary);
    out << "0123456789ABCDEF";
  }
  std::string big;
  for (int i = 0; i < 200000; ++i) big += static_cast<char>('a' + i % 19);
  std::ofstream(dir + "/big.bin", std::ios::binary) << big;
  core::ClarensConfig config = open_config(pki);
  config.file_roots = {{"/data", dir}};
  core::FileAcl facl;
  facl.read.allow_dns = {core::AclSpec::kAnyone};
  config.initial_file_acls = {{"/data", facl}};
  config.use_tls = GetParam();
  if (GetParam()) config.credential = pki.server;
  core::ClarensServer server(std::move(config));
  server.start();

  ClientOptions options = options_for(pki, server.port());
  options.use_tls = GetParam();
  ClarensClient client(options);
  client.connect();
  client.authenticate();
  EXPECT_EQ(client.get("/data/blob.bin").body, "0123456789ABCDEF");
  EXPECT_EQ(client.get("/data/blob.bin", 4, 4).body, "4567");
  EXPECT_EQ(client.get("/data/blob.bin", 10, -1).body, "ABCDEF");
  // Ranges are clamped to the file.
  EXPECT_EQ(client.get("/data/blob.bin", 12, 100).body, "CDEF");
  EXPECT_EQ(client.get("/data/blob.bin", 100, 4).body, "");
  EXPECT_TRUE(client.get("/data/big.bin").body == big);
  EXPECT_TRUE(client.get("/data/big.bin", 70000, 90000).body ==
              big.substr(70000, 90000));
  EXPECT_EQ(client.get("/data/ghost").status, 404);
  server.stop();
}

INSTANTIATE_TEST_SUITE_P(Transports, ClientGet, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Tls" : "Plain");
                         });

// Scripted keep-alive peer for the retry-policy tests: every request is
// answered with its 1-based sequence number, except request `drop_at`,
// which is read fully and then "answered" by closing the connection —
// the keep-alive teardown race ClarensClient::roundtrip must survive.
// When `partial` is set the dropped request first receives a torn
// response prefix. Fresh connections keep being accepted afterwards.
class FlakyServer {
 public:
  explicit FlakyServer(int drop_at, bool partial = false)
      : drop_at_(drop_at),
        partial_(partial),
        listener_(net::TcpListener::listen(0)),
        thread_([this] { serve(); }) {}
  ~FlakyServer() {
    running_.store(false);
    listener_.shutdown();
    if (thread_.joinable()) thread_.join();
  }

  std::uint16_t port() const { return listener_.local_port(); }
  int requests_seen() const { return requests_seen_.load(); }

 private:
  void serve() {
    while (running_.load()) {
      net::TcpConnection conn;
      try {
        conn = listener_.accept();
      } catch (const Error&) {
        return;  // shutdown() woke us
      }
      http::RequestParser parser;
      std::array<std::uint8_t, 16 * 1024> chunk;
      bool open = true;
      while (running_.load() && open) {
        std::optional<http::Request> request;
        try {
          while (!(request = parser.next())) {
            std::size_t n = conn.read(chunk);
            if (n == 0) {
              open = false;
              break;
            }
            parser.feed(std::span<const std::uint8_t>(chunk.data(), n));
          }
        } catch (const Error&) {
          open = false;
        }
        if (!request) break;
        int seq = ++requests_seen_;
        if (seq == drop_at_) {
          if (partial_) {
            conn.write_all(std::string("HTTP/1.1 200 OK\r\nContent-Le"));
          }
          conn.close();
          break;
        }
        rpc::Request rpc_request =
            rpc::parse_request(rpc::Protocol::XmlRpc, request->body);
        rpc::Response response =
            rpc::Response::success(rpc::Value(static_cast<std::int64_t>(seq)));
        response.id = rpc_request.id;
        http::Response out = http::Response::make(
            200, rpc::serialize_response(rpc::Protocol::XmlRpc, response),
            rpc::content_type(rpc::Protocol::XmlRpc));
        conn.write_all(out.serialize());
      }
    }
  }

  int drop_at_;
  bool partial_;
  std::atomic<bool> running_{true};
  std::atomic<int> requests_seen_{0};
  net::TcpListener listener_;
  util::Thread thread_;
};

ClientOptions plain_options(std::uint16_t port) {
  ClientOptions options;
  options.port = port;
  return options;
}

TEST(ClientRetry, IdempotentMethodTable) {
  EXPECT_TRUE(is_idempotent_method("echo.echo"));
  EXPECT_TRUE(is_idempotent_method("system.ping"));
  EXPECT_TRUE(is_idempotent_method("discovery.find_services"));
  EXPECT_TRUE(is_idempotent_method("file.read"));
  EXPECT_TRUE(is_idempotent_method("file.ls"));
  EXPECT_TRUE(is_idempotent_method("file.locate"));
  EXPECT_TRUE(is_idempotent_method("proxy.exists"));
  EXPECT_FALSE(is_idempotent_method("file.write"));
  EXPECT_FALSE(is_idempotent_method("file.mkdir"));
  EXPECT_FALSE(is_idempotent_method("file.rm"));
  EXPECT_FALSE(is_idempotent_method("job.submit"));
  EXPECT_FALSE(is_idempotent_method("proxy.logon"));
  EXPECT_FALSE(is_idempotent_method("filesystem"));  // prefix, not a match
}

TEST(ClientRetry, IdempotentCallReplayedOnceOnTornKeepAlive) {
  FlakyServer server(/*drop_at=*/2);
  ClarensClient client(plain_options(server.port()));
  client.connect();
  EXPECT_EQ(client.call("echo.echo", {rpc::Value(std::int64_t{1})}).as_int(),
            1);
  // Request 2 is read and dropped; the replay on a fresh connection is
  // request 3 and the call succeeds transparently.
  EXPECT_EQ(client.call("echo.echo", {rpc::Value(std::int64_t{2})}).as_int(),
            3);
  EXPECT_EQ(server.requests_seen(), 3);
}

TEST(ClientRetry, NonIdempotentCallIsNeverReplayed) {
  FlakyServer server(/*drop_at=*/2);
  ClarensClient client(plain_options(server.port()));
  client.connect();
  EXPECT_EQ(client
                .call("file.write",
                      {rpc::Value(std::string("/p")),
                       rpc::Value(std::string("x"))})
                .as_int(),
            1);
  // The server may have executed the dropped write before dying, so the
  // client must surface the failure instead of double-executing.
  EXPECT_THROW(client.call("file.write", {rpc::Value(std::string("/p")),
                                          rpc::Value(std::string("y"))}),
               SystemError);
  EXPECT_EQ(server.requests_seen(), 2);
}

TEST(ClientRetry, FreshConnectionFailureIsNotRetried) {
  FlakyServer server(/*drop_at=*/1);
  ClarensClient client(plain_options(server.port()));
  // No connect(): roundtrip dials a fresh connection, so its failure is
  // a real error, not a stale keep-alive — even for idempotent methods.
  EXPECT_THROW(client.call("echo.echo", {rpc::Value(std::int64_t{1})}),
               SystemError);
  EXPECT_EQ(server.requests_seen(), 1);
}

TEST(ClientRetry, TransportErrorCarriesMayHaveExecuted) {
  // Dropped after the full request was written: the server may have
  // executed the call before dying, and the error must say so.
  {
    FlakyServer server(/*drop_at=*/2);
    ClarensClient client(plain_options(server.port()));
    client.connect();
    client.call("file.write", {rpc::Value(std::string("/p")),
                               rpc::Value(std::string("x"))});
    try {
      client.call("file.write", {rpc::Value(std::string("/p")),
                                 rpc::Value(std::string("y"))});
      FAIL() << "expected TransportError";
    } catch (const TransportError& e) {
      EXPECT_TRUE(e.may_have_executed());
    }
  }
  // Connection refused: the request provably never reached a server, so
  // outer retry layers may replay even non-idempotent methods.
  {
    net::TcpListener closed = net::TcpListener::listen(0);
    std::uint16_t dead_port = closed.local_port();
    closed.shutdown();
    ClientOptions options;
    options.port = dead_port;
    ClarensClient client(options);
    try {
      client.call("file.write", {rpc::Value(std::string("/p")),
                                 rpc::Value(std::string("x"))});
      FAIL() << "expected TransportError";
    } catch (const TransportError& e) {
      EXPECT_FALSE(e.may_have_executed());
    }
  }
}

TEST(RoutedRetry, IdempotentCallRetriedThroughHead) {
  // The head drops the very first request after reading it; an
  // idempotent call rides out the failure via the retry loop.
  FlakyServer server(/*drop_at=*/1);
  ClientOptions base;
  RoutedClient client("http://127.0.0.1:" + std::to_string(server.port()) +
                          "/clarens",
                      base, /*max_attempts=*/4, /*retry_backoff_ms=*/10);
  EXPECT_EQ(client.call("echo.echo", {rpc::Value(std::int64_t{1})}).as_int(),
            2);
  EXPECT_EQ(server.requests_seen(), 2);
}

TEST(RoutedRetry, NonIdempotentThatMayHaveExecutedPropagates) {
  // Same failure, non-idempotent method: the request reached the server
  // (which may have executed it before dying), so RoutedClient must NOT
  // replay through the head — the transport error surfaces unchanged.
  FlakyServer server(/*drop_at=*/1);
  ClientOptions base;
  RoutedClient client("http://127.0.0.1:" + std::to_string(server.port()) +
                          "/clarens",
                      base, /*max_attempts=*/4, /*retry_backoff_ms=*/10);
  EXPECT_THROW(client.call("file.write", {rpc::Value(std::string("/p")),
                                          rpc::Value(std::string("x"))}),
               TransportError);
  EXPECT_EQ(server.requests_seen(), 1);
}

TEST(RoutedRetry, NonIdempotentRetriedWhenRequestNeverReachedServer) {
  // Dead head: every connect is refused, so nothing ever executed and
  // retrying is safe even for file.write — the retry budget is spent
  // (proving the calls were replayed, not propagated on first failure).
  net::TcpListener closed = net::TcpListener::listen(0);
  std::uint16_t dead_port = closed.local_port();
  closed.shutdown();
  ClientOptions base;
  RoutedClient client("http://127.0.0.1:" + std::to_string(dead_port) +
                          "/clarens",
                      base, /*max_attempts=*/3, /*retry_backoff_ms=*/10);
  try {
    client.call("file.write", {rpc::Value(std::string("/p")),
                               rpc::Value(std::string("x"))});
    FAIL() << "expected SystemError";
  } catch (const SystemError& e) {
    EXPECT_NE(std::string(e.what()).find("after 3 attempts"),
              std::string::npos)
        << e.what();
  }
}

TEST(ClientRetry, PartialResponseNeverReplayedEvenWhenIdempotent) {
  FlakyServer server(/*drop_at=*/2, /*partial=*/true);
  ClarensClient client(plain_options(server.port()));
  client.connect();
  EXPECT_EQ(client.call("echo.echo", {rpc::Value(std::int64_t{1})}).as_int(),
            1);
  // Response bytes arrived: the call definitely executed server-side, so
  // even an idempotent method must not be silently run twice.
  EXPECT_THROW(client.call("echo.echo", {rpc::Value(std::int64_t{2})}),
               SystemError);
  EXPECT_EQ(server.requests_seen(), 2);
}

TEST(FanOut, BlackholedTargetDoesNotStallHealthySiblings) {
  // A healthy node plus a port whose accept queue is deliberately full —
  // SYNs to it are dropped, so a *blocking* connect would hang for the
  // kernel's minutes-long handshake timeout. fan_out connects
  // non-blockingly under its own deadline: the healthy sibling answers
  // and the blackholed one fails, all within the fan-out timeout.
  FlakyServer healthy(/*drop_at=*/0);  // seq starts at 1: never drops
  net::TcpListener blackhole =
      net::TcpListener::listen(0, "127.0.0.1", /*backlog=*/1);
  std::vector<net::TcpConnection> filler;
  for (int i = 0; i < 4; ++i) {
    try {
      filler.push_back(net::TcpConnection::connect_nonblocking(
          "127.0.0.1", blackhole.local_port()));
    } catch (const Error&) {
      break;
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::vector<FanOutTarget> targets(2);
  targets[0].host = "127.0.0.1";
  targets[0].port = healthy.port();
  targets[1].host = "127.0.0.1";
  targets[1].port = blackhole.local_port();
  util::Stopwatch timer;
  std::vector<FanOutReply> replies =
      fan_out(targets, "echo.echo", {rpc::Value(std::int64_t{7})}, {},
              rpc::Protocol::XmlRpc, /*timeout_ms=*/1000);
  // Well under the kernel connect timeout the old blocking path hit
  // (sanitizer headroom on top of the 1 s fan-out deadline).
  EXPECT_LT(timer.seconds(), 30.0);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(replies[0].ok) << replies[0].error;
  EXPECT_EQ(replies[0].result.as_int(), 1);
  EXPECT_FALSE(replies[1].ok);
}

TEST(AsyncDriver, CompletesExactCallBudget) {
  const TestPki& pki = TestPki::instance();
  core::ClarensServer server(open_config(pki));
  server.start();
  std::string session = server.direct_login(
      pki.alice.certificate.subject().str()).id;

  AsyncCallDriver driver("127.0.0.1", server.port(), session,
                         "system.list_methods", {});
  AsyncRunResult result = driver.run(/*connections=*/8, /*total_calls=*/500);
  EXPECT_EQ(result.calls_completed, 500u);
  EXPECT_EQ(result.faults, 0u);
  EXPECT_GT(result.calls_per_second(), 0.0);
  server.stop();
}

TEST(AsyncDriver, SingleConnectionWorks) {
  const TestPki& pki = TestPki::instance();
  core::ClarensServer server(open_config(pki));
  server.start();
  std::string session = server.direct_login(
      pki.alice.certificate.subject().str()).id;
  AsyncCallDriver driver("127.0.0.1", server.port(), session, "echo.echo",
                         {rpc::Value(1)});
  AsyncRunResult result = driver.run(1, 50);
  EXPECT_EQ(result.calls_completed, 50u);
  EXPECT_EQ(result.faults, 0u);
  server.stop();
}

TEST(AsyncDriver, CountsFaultsWithoutStalling) {
  const TestPki& pki = TestPki::instance();
  core::ClarensServer server(open_config(pki));
  server.start();
  // Bogus session: every call faults but the run still completes.
  AsyncCallDriver driver("127.0.0.1", server.port(), "bogus-session",
                         "system.list_methods", {});
  AsyncRunResult result = driver.run(4, 100);
  EXPECT_EQ(result.calls_completed, 100u);
  EXPECT_EQ(result.faults, 100u);
  server.stop();
}

TEST(AsyncDriver, RejectsZeroConnections) {
  AsyncCallDriver driver("127.0.0.1", 1, "", "m", {});
  EXPECT_THROW(driver.run(0, 10), Error);
}

}  // namespace
}  // namespace clarens::client
