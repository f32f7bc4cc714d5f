// Reactor/worker-pool server behaviours that the basic end-to-end tests
// in http_test.cpp do not pin down: keep-alive pipelining (multiple
// requests in one TCP segment, responses in order), requests arriving in
// arbitrary partial pieces, Connection: close semantics, the non-blocking
// 503 load-shed path, many concurrent keep-alive connections, inline
// dispatch and its tick budget, file-region streaming over plaintext and
// TLS, the best-effort 400 refusal of a malformed stream, and prompt
// stop() with idle connections still open.
#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "http/message.hpp"
#include "http/parser.hpp"
#include "http/server.hpp"
#include "net/socket.hpp"
#include "test_fixtures.hpp"
#include "tls/channel.hpp"
#include "util/sync.hpp"

namespace clarens::http {
namespace {

Server make_echo_server(ServerOptions options = {}) {
  return Server(std::move(options), [](const Request& request, const Peer&) {
    return Response::make(200, "echo:" + request.body);
  });
}

/// Read responses off `conn` until `count` have parsed (or EOF).
std::vector<Response> read_responses(net::Stream& conn, std::size_t count) {
  std::vector<Response> out;
  ResponseParser parser;
  std::array<std::uint8_t, 8192> buf;
  while (out.size() < count) {
    while (auto response = parser.next()) {
      out.push_back(std::move(*response));
      if (out.size() == count) return out;
    }
    std::size_t n = conn.read(buf);
    if (n == 0) break;
    parser.feed(std::span<const std::uint8_t>(buf.data(), n));
  }
  while (auto response = parser.next()) out.push_back(std::move(*response));
  return out;
}

std::string post(const std::string& body) {
  return "POST / HTTP/1.1\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\n\r\n" + body;
}

TEST(ServerPipelining, TwoRequestsInOneSegmentAnsweredInOrder) {
  Server server = make_echo_server();
  server.start();
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  // One write_all → very likely one TCP segment; either way both requests
  // sit in the parser before the first response is produced.
  conn.write_all(post("one") + post("two"));
  std::vector<Response> responses = read_responses(conn, 2);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].body, "echo:one");
  EXPECT_EQ(responses[1].body, "echo:two");
  EXPECT_EQ(server.requests_served(), 2u);
  server.stop();
}

TEST(ServerPipelining, DeepPipelineStaysOrdered) {
  Server server = make_echo_server();
  server.start();
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  std::string wire;
  for (int i = 0; i < 20; ++i) wire += post("r" + std::to_string(i));
  conn.write_all(wire);
  std::vector<Response> responses = read_responses(conn, 20);
  ASSERT_EQ(responses.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(responses[i].body, "echo:r" + std::to_string(i));
  }
  server.stop();
}

TEST(ServerPipelining, PartialRequestAcrossManyWrites) {
  Server server = make_echo_server();
  server.start();
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  std::string wire = post("split-fed body");
  // Dribble the request a few bytes at a time; the reactor must keep the
  // parser state across reads and only dispatch once it completes.
  for (std::size_t i = 0; i < wire.size(); i += 5) {
    conn.write_all(std::string_view(wire).substr(i, 5));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<Response> responses = read_responses(conn, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body, "echo:split-fed body");
  server.stop();
}

TEST(ServerPipelining, ConnectionCloseHonored) {
  Server server = make_echo_server();
  server.start();
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  conn.write_all(std::string_view(
      "POST / HTTP/1.1\r\nConnection: close\r\nContent-Length: 3\r\n\r\nbye"));
  std::vector<Response> responses = read_responses(conn, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body, "echo:bye");
  EXPECT_EQ(responses[0].headers.get_or("Connection", ""), "close");
  // Server closes: the next read reaches EOF rather than blocking.
  std::array<std::uint8_t, 64> buf;
  EXPECT_EQ(conn.read(buf), 0u);
  server.stop();
}

TEST(ServerPipelining, Http10ImpliesClose) {
  Server server = make_echo_server();
  server.start();
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  conn.write_all(std::string_view("GET / HTTP/1.0\r\n\r\n"));
  std::vector<Response> responses = read_responses(conn, 1);
  ASSERT_EQ(responses.size(), 1u);
  std::array<std::uint8_t, 64> buf;
  EXPECT_EQ(conn.read(buf), 0u);
  server.stop();
}

TEST(ServerLoadShed, OverLimitConnectionGets503WithoutBlocking) {
  ServerOptions options;
  options.max_connections = 1;
  Server server = make_echo_server(std::move(options));
  server.start();

  // Complete a request on the first connection so it is fully admitted
  // before the second one arrives.
  net::TcpConnection first =
      net::TcpConnection::connect("127.0.0.1", server.port());
  first.write_all(post("hold"));
  ASSERT_EQ(read_responses(first, 1).size(), 1u);

  net::TcpConnection second =
      net::TcpConnection::connect("127.0.0.1", server.port());
  std::vector<Response> responses = read_responses(second, 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 503);
  // Shed connections are closed right after the refusal.
  std::array<std::uint8_t, 64> buf;
  EXPECT_EQ(second.read(buf), 0u);

  // The admitted connection keeps working.
  first.write_all(post("still here"));
  std::vector<Response> again = read_responses(first, 1);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].body, "echo:still here");
  server.stop();
}

TEST(ServerConcurrency, ManyKeepAliveConnectionsInParallel) {
  Server server = make_echo_server();
  server.start();
  constexpr int kClients = 8;
  constexpr int kRequestsEach = 10;
  std::atomic<int> failures{0};
  std::vector<util::Thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        net::TcpConnection conn =
            net::TcpConnection::connect("127.0.0.1", server.port());
        for (int i = 0; i < kRequestsEach; ++i) {
          std::string body = std::to_string(c) + ":" + std::to_string(i);
          conn.write_all(post(body));
          std::vector<Response> responses = read_responses(conn, 1);
          if (responses.size() != 1 || responses[0].body != "echo:" + body) {
            ++failures;
            return;
          }
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.requests_served(),
            static_cast<std::uint64_t>(kClients * kRequestsEach));
  server.stop();
}

// --- Inline dispatch ----------------------------------------------------
//
// Requests the inline_ok predicate accepts run directly on the reactor
// thread while the epoll tick's budget lasts; everything else (predicate
// says no, budget spent) takes the worker-pool handoff. The split must be
// invisible on the wire: per-connection ordering and response bytes are
// identical either way.

ServerOptions inline_options(std::function<bool(const Request&)> inline_ok) {
  ServerOptions options;
  options.inline_ok = std::move(inline_ok);
  return options;
}

bool always(const Request&) { return true; }

TEST(ServerInlineDispatch, CheapRequestsRunOnTheReactor) {
  Server server = make_echo_server(inline_options(always));
  server.start();
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  for (int i = 0; i < 10; ++i) {
    conn.write_all(post("ping" + std::to_string(i)));
    std::vector<Response> responses = read_responses(conn, 1);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].body, "echo:ping" + std::to_string(i));
  }
  EXPECT_EQ(server.requests_served(), 10u);
  // The echo handler is far under the tick budget, so every request
  // stays inline.
  EXPECT_EQ(server.requests_inlined(), 10u);
  server.stop();
}

TEST(ServerInlineDispatch, PipelinedMixOfInlineAndSpilledStaysOrdered) {
  // Odd-length bodies are refused by the predicate, forcing the
  // worker-pool path; even ones are inline-eligible. All 20 ride one TCP
  // segment, starting with an eligible request so the reactor takes the
  // queue first; the first odd body then hands the busy token (and the
  // rest of the queue) to a worker. Responses must come back in request
  // order regardless of which side produced them.
  Server server = make_echo_server(inline_options(
      [](const Request& request) { return request.body.size() % 2 == 0; }));
  server.start();
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  std::string wire;
  for (int i = 0; i < 20; ++i) {
    wire += post(std::string(static_cast<std::size_t>(i) + 2, 'a'));
  }
  conn.write_all(wire);
  std::vector<Response> responses = read_responses(conn, 20);
  ASSERT_EQ(responses.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(responses[i].body,
              "echo:" + std::string(static_cast<std::size_t>(i) + 2, 'a'));
  }
  EXPECT_EQ(server.requests_served(), 20u);
  std::uint64_t inlined = server.requests_inlined();
  EXPECT_GT(inlined, 0u);
  EXPECT_LT(inlined, 20u);
  server.stop();
}

TEST(ServerInlineDispatch, TickBudgetSpillsASlowPipelinedBurst) {
  // Every request is eligible, but each handler takes 3 ms of the tick's
  // 5 ms wall-clock budget: the burst starts inline and, once the budget
  // is spent, the rest of it spills to a worker — still in order.
  Server server(inline_options(always), [](const Request& request, const Peer&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    return Response::make(200, "echo:" + request.body);
  });
  server.start();
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  std::string wire;
  for (int i = 0; i < 8; ++i) wire += post("r" + std::to_string(i));
  conn.write_all(wire);
  std::vector<Response> responses = read_responses(conn, 8);
  ASSERT_EQ(responses.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(responses[i].body, "echo:r" + std::to_string(i));
  }
  EXPECT_EQ(server.requests_served(), 8u);
  EXPECT_GE(server.requests_inlined(), 1u);
  EXPECT_LT(server.requests_inlined(), 8u);
  server.stop();
}

TEST(ServerInlineDispatch, DisabledMeansEveryRequestTakesAWorker) {
  // No predicate = inline dispatch off.
  Server server = make_echo_server();
  server.start();
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  for (int i = 0; i < 5; ++i) {
    conn.write_all(post("x"));
    ASSERT_EQ(read_responses(conn, 1).size(), 1u);
  }
  EXPECT_EQ(server.requests_served(), 5u);
  EXPECT_EQ(server.requests_inlined(), 0u);
  server.stop();
}

// --- Malformed-stream refusal --------------------------------------------
//
// A stream that turns to garbage gets its valid requests answered in
// order, then one best-effort 400, then EOF — whichever drainer (the
// reactor inline, or a pool worker) finishes the connection, and over
// TLS as well as plaintext.

enum class Served { Inline, Worker, GarbageAlone };

struct RefusalCase {
  bool tls;
  Served served;
};

class ServerMalformedRefusal : public ::testing::TestWithParam<RefusalCase> {};

TEST_P(ServerMalformedRefusal, ValidResponseThen400ThenEof) {
  const RefusalCase param = GetParam();
  const clarens::testing::TestPki& pki = clarens::testing::TestPki::instance();
  ServerOptions options;
  if (param.tls) {
    tls::TlsConfig tls;
    tls.credential = pki.server;
    tls.trust = &pki.trust;
    options.tls = std::move(tls);
  }
  if (param.served == Served::Inline) options.inline_ok = always;
  Server server = make_echo_server(std::move(options));
  server.start();

  std::unique_ptr<net::Stream> conn = std::make_unique<net::TcpConnection>(
      net::TcpConnection::connect("127.0.0.1", server.port()));
  if (param.tls) {
    tls::TlsConfig client;
    client.trust = &pki.trust;
    conn = tls::SecureChannel::connect(std::move(conn), client);
  }
  bool has_valid = param.served != Served::GarbageAlone;
  conn->write_all((has_valid ? post("valid") : "") + "GARBAGE\r\n\r\n");

  std::size_t expected = has_valid ? 2 : 1;
  std::vector<Response> responses = read_responses(*conn, expected);
  ASSERT_EQ(responses.size(), expected);
  if (has_valid) {
    EXPECT_EQ(responses[0].status, 200);
    EXPECT_EQ(responses[0].body, "echo:valid");
  }
  EXPECT_EQ(responses.back().status, 400);
  std::array<std::uint8_t, 64> buf;
  EXPECT_EQ(conn->read(buf), 0u);
  EXPECT_EQ(server.requests_served(), has_valid ? 1u : 0u);
  EXPECT_EQ(server.requests_inlined(),
            param.served == Served::Inline ? 1u : 0u);
  server.stop();
}

INSTANTIATE_TEST_SUITE_P(
    Streams, ServerMalformedRefusal,
    ::testing::Values(RefusalCase{false, Served::Inline},
                      RefusalCase{false, Served::Worker},
                      RefusalCase{false, Served::GarbageAlone},
                      RefusalCase{true, Served::Inline},
                      RefusalCase{true, Served::Worker},
                      RefusalCase{true, Served::GarbageAlone}),
    [](const ::testing::TestParamInfo<RefusalCase>& info) {
      const char* served = info.param.served == Served::Inline   ? "Inline"
                           : info.param.served == Served::Worker ? "Worker"
                                                                 : "GarbageAlone";
      return std::string(info.param.tls ? "Tls" : "Plain") + served;
    });

// --- File regions -------------------------------------------------------
//
// File-region responses stream through Stream::send_file: sendfile(2) on
// plaintext, the base pread loop through the record layer on TLS. An
// inline handler's region is handed to a worker with the drainer token.

class ServerFileRegion : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    for (int i = 0; i < 300000; ++i) content_ += static_cast<char>('a' + i % 23);
    path_ = tmp_.path() + "/region.bin";
    std::ofstream(path_, std::ios::binary) << content_;
  }

  /// A server whose every request is inline-eligible: "/file" answers
  /// with `region` over path_, anything else echoes.
  std::unique_ptr<Server> start_server(Response::FileRegion region) {
    const clarens::testing::TestPki& pki = clarens::testing::TestPki::instance();
    ServerOptions options = inline_options(always);
    if (GetParam()) {
      tls::TlsConfig tls;
      tls.credential = pki.server;
      tls.trust = &pki.trust;
      options.tls = std::move(tls);
    }
    region.path = path_;
    auto server = std::make_unique<Server>(
        std::move(options), [region](const Request& request, const Peer&) {
          if (request.target != "/file") {
            return Response::make(200, "echo:" + request.body);
          }
          Response response = Response::make(200, "");
          response.file = region;
          return response;
        });
    server->start();
    return server;
  }

  std::unique_ptr<net::Stream> connect(const Server& server) {
    std::unique_ptr<net::Stream> conn = std::make_unique<net::TcpConnection>(
        net::TcpConnection::connect("127.0.0.1", server.port()));
    if (!GetParam()) return conn;
    tls::TlsConfig client;
    client.trust = &clarens::testing::TestPki::instance().trust;
    return tls::SecureChannel::connect(std::move(conn), client);
  }

  clarens::testing::TempDir tmp_;
  std::string path_;
  std::string content_;
};

TEST_P(ServerFileRegion, InlineRegionStreamsFromAWorkerThenThePipelineResumes) {
  std::unique_ptr<Server> server = start_server({"", 5, -1, "", ""});
  std::unique_ptr<net::Stream> conn = connect(*server);
  conn->write_all("GET /file HTTP/1.1\r\n\r\n" + post("after"));
  std::vector<Response> responses = read_responses(*conn, 2);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_TRUE(responses[0].body == content_.substr(5));
  EXPECT_EQ(responses[1].body, "echo:after");
  EXPECT_EQ(server->requests_served(), 2u);
  // The region's handler ran on the reactor; the worker that streamed it
  // kept the token and answered the next request itself.
  EXPECT_EQ(server->requests_inlined(), 1u);
  server->stop();
}

TEST_P(ServerFileRegion, EnvelopeLongerThanItsFileClosesTheConnection) {
  // The Content-Length promises 100 bytes the file does not have: the
  // server must close rather than let the next response fill the gap.
  std::int64_t size = static_cast<std::int64_t>(content_.size());
  std::unique_ptr<Server> server =
      start_server({"", 0, size + 100, "<head>", "<tail>"});
  std::unique_ptr<net::Stream> conn = connect(*server);
  conn->write_all("GET /file HTTP/1.1\r\n\r\n" + post("after"));
  std::string raw;
  std::array<std::uint8_t, 8192> buf;
  for (std::size_t n; (n = conn->read(buf)) != 0;) {
    raw.append(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  std::size_t body = raw.find("\r\n\r\n");
  ASSERT_NE(body, std::string::npos);
  EXPECT_TRUE(raw.substr(body + 4) == "<head>" + content_);
  EXPECT_EQ(raw.find("echo:after"), std::string::npos);
  server->stop();
}

INSTANTIATE_TEST_SUITE_P(Streams, ServerFileRegion, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Tls" : "Plain");
                         });

TEST(ServerStop, ReturnsPromptlyWithIdleConnectionOpen) {
  Server server = make_echo_server();
  server.start();
  net::TcpConnection idle =
      net::TcpConnection::connect("127.0.0.1", server.port());
  // Serve one request so the connection is definitely registered.
  idle.write_all(post("x"));
  ASSERT_EQ(read_responses(idle, 1).size(), 1u);

  auto begin = std::chrono::steady_clock::now();
  server.stop();
  auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  // The idle connection was torn down, not leaked to a detached thread.
  std::array<std::uint8_t, 64> buf;
  EXPECT_EQ(idle.read(buf), 0u);
}

}  // namespace
}  // namespace clarens::http
