// Unit tests for the HTTP layer: message model, URL codec, incremental
// parsers (byte-split invariance, chunked bodies), and the server
// end-to-end over real sockets including keep-alive and sendfile GETs.
#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <thread>

#include "http/message.hpp"
#include "http/parser.hpp"
#include "http/server.hpp"
#include "net/socket.hpp"
#include "test_fixtures.hpp"
#include "util/error.hpp"

namespace clarens::http {
namespace {

using clarens::testing::TempDir;

// ---------- message model ----------

TEST(Headers, CaseInsensitiveLookupOrderPreserving) {
  Headers headers;
  headers.add("Content-Type", "text/xml");
  headers.add("X-One", "1");
  EXPECT_EQ(headers.get("content-type"), "text/xml");
  EXPECT_EQ(headers.get("CONTENT-TYPE"), "text/xml");
  EXPECT_FALSE(headers.get("missing").has_value());
  headers.set("x-one", "2");
  EXPECT_EQ(headers.get("X-One"), "2");
  EXPECT_EQ(headers.all().size(), 2u);
}

TEST(Request, PathAndQueryDecoding) {
  Request request;
  request.target = "/data/my%20file.bin?offset=10&length=4&flag";
  EXPECT_EQ(request.path(), "/data/my file.bin");
  auto query = request.query();
  EXPECT_EQ(query["offset"], "10");
  EXPECT_EQ(query["length"], "4");
  EXPECT_EQ(query["flag"], "");
}

TEST(Request, KeepAliveSemantics) {
  Request r11;
  r11.version = "HTTP/1.1";
  EXPECT_TRUE(r11.keep_alive());
  r11.headers.set("Connection", "close");
  EXPECT_FALSE(r11.keep_alive());
  Request r10;
  r10.version = "HTTP/1.0";
  EXPECT_FALSE(r10.keep_alive());
  r10.headers.set("Connection", "keep-alive");
  EXPECT_TRUE(r10.keep_alive());
}

TEST(Url, EncodeDecodeRoundTrip) {
  std::string nasty = "a b+c/%25?&=#\x7f";
  EXPECT_EQ(url_decode(url_encode(nasty)), nasty);
  EXPECT_THROW(url_decode("%zz"), ParseError);
  EXPECT_THROW(url_decode("%1"), ParseError);
}

TEST(Response, SerializeSetsContentLength) {
  Response response = Response::make(200, "body12");
  std::string wire = response.serialize();
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 6\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\nbody12"), std::string::npos);
}

// ---------- request parser ----------

TEST(RequestParser, SimplePost) {
  RequestParser parser;
  parser.feed("POST /clarens HTTP/1.1\r\nContent-Length: 5\r\n"
              "Content-Type: text/xml\r\n\r\nhello");
  auto request = parser.next();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->method, "POST");
  EXPECT_EQ(request->target, "/clarens");
  EXPECT_EQ(request->body, "hello");
  EXPECT_FALSE(parser.next().has_value());
}

TEST(RequestParser, GetWithoutBody) {
  RequestParser parser;
  parser.feed("GET /x HTTP/1.1\r\nHost: h\r\n\r\n");
  auto request = parser.next();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->method, "GET");
  EXPECT_TRUE(request->body.empty());
}

TEST(RequestParser, PipelinedRequests) {
  RequestParser parser;
  parser.feed("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
  auto a = parser.next();
  auto b = parser.next();
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->target, "/a");
  EXPECT_EQ(b->target, "/b");
}

TEST(RequestParser, ChunkedBody) {
  RequestParser parser;
  parser.feed("POST /c HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
              "5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n");
  auto request = parser.next();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->body, "hello world");
}

TEST(RequestParser, ChunkedWithExtensionAndTrailer) {
  RequestParser parser;
  parser.feed("POST /c HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
              "4;ext=1\r\nwxyz\r\n0\r\nX-Trailer: v\r\n\r\n");
  auto request = parser.next();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->body, "wxyz");
}

TEST(RequestParser, MalformedInputsThrow) {
  {
    RequestParser parser;
    parser.feed("NOT A REQUEST\r\n\r\n");
    EXPECT_THROW(parser.next(), ParseError);
  }
  {
    RequestParser parser;
    parser.feed("GET /x HTTP/9.9\r\n\r\n");
    EXPECT_THROW(parser.next(), ParseError);
  }
  {
    RequestParser parser;
    parser.feed("GET /x HTTP/1.1\r\nBadHeaderNoColon\r\n\r\n");
    EXPECT_THROW(parser.next(), ParseError);
  }
  {
    RequestParser parser;
    parser.feed("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                "zz\r\n");
    EXPECT_THROW(parser.next(), ParseError);
  }
}

// Byte-split invariance: any split of the wire bytes yields the same
// parse. This is the property parsers get wrong most often.
class SplitInvariance : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SplitInvariance, RequestParsesIdenticallyAtEverySplit) {
  const std::string wire =
      "POST /clarens HTTP/1.1\r\nContent-Length: 11\r\n"
      "X-Clarens-Session: abc123\r\n\r\nhello world";
  std::size_t split = GetParam() % wire.size();
  RequestParser parser;
  parser.feed(std::string_view(wire).substr(0, split));
  EXPECT_FALSE(parser.next().has_value() && split < wire.size() - 11);
  parser.feed(std::string_view(wire).substr(split));
  auto request = parser.next();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->body, "hello world");
  EXPECT_EQ(request->headers.get("X-Clarens-Session"), "abc123");
}

INSTANTIATE_TEST_SUITE_P(Splits, SplitInvariance,
                         ::testing::Range<std::size_t>(1, 90, 7));

// ---------- response parser ----------

TEST(ResponseParser, StatusLineAndBody) {
  ResponseParser parser;
  parser.feed("HTTP/1.1 404 Not Found\r\nContent-Length: 3\r\n\r\nnop");
  auto response = parser.next();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 404);
  EXPECT_EQ(response->reason, "Not Found");
  EXPECT_EQ(response->body, "nop");
}

TEST(ResponseParser, ChunkedResponse) {
  ResponseParser parser;
  parser.feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
              "3\r\nabc\r\n0\r\n\r\n");
  auto response = parser.next();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->body, "abc");
}

// ---------- server end-to-end ----------

/// Send raw bytes, read until one complete response parses, and return
/// a "status reason\nheaders...\nbody" flattened form for substring
/// assertions.
std::string raw_roundtrip(std::uint16_t port, const std::string& wire) {
  net::TcpConnection conn = net::TcpConnection::connect("127.0.0.1", port);
  conn.write_all(wire);
  ResponseParser parser;
  std::array<std::uint8_t, 8192> buf;
  for (;;) {
    if (auto response = parser.next()) {
      std::string flat = "HTTP/1.1 " + std::to_string(response->status) + " " +
                         response->reason + "\r\n";
      for (const auto& [name, value] : response->headers.all()) {
        flat += name + ": " + value + "\r\n";
      }
      flat += "\r\n" + response->body;
      return flat;
    }
    std::size_t n = conn.read(buf);
    if (n == 0) return "";
    parser.feed(std::span<const std::uint8_t>(buf.data(), n));
  }
}

TEST(Server, ServesHandlerResponses) {
  Server server({}, [](const Request& request, const Peer&) {
    return Response::make(200, "echo:" + request.body);
  });
  server.start();
  std::string reply = raw_roundtrip(
      server.port(), "POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi");
  EXPECT_NE(reply.find("200 OK"), std::string::npos);
  EXPECT_NE(reply.find("echo:hi"), std::string::npos);
  EXPECT_EQ(server.requests_served(), 1u);
  server.stop();
}

TEST(Server, KeepAliveServesMultipleRequests) {
  Server server({}, [](const Request&, const Peer&) {
    return Response::make(200, "ok");
  });
  server.start();
  net::TcpConnection conn = net::TcpConnection::connect("127.0.0.1", server.port());
  for (int i = 0; i < 3; ++i) {
    conn.write_all(std::string_view("GET / HTTP/1.1\r\n\r\n"));
    std::string got;
    std::array<std::uint8_t, 1024> buf;
    while (got.find("ok") == std::string::npos) {
      std::size_t n = conn.read(buf);
      ASSERT_GT(n, 0u);
      got.append(buf.begin(), buf.begin() + n);
    }
  }
  EXPECT_EQ(server.requests_served(), 3u);
  server.stop();
}

TEST(Server, HandlerExceptionBecomes500) {
  Server server({}, [](const Request&, const Peer&) -> Response {
    throw clarens::Error("handler exploded");
  });
  server.start();
  std::string reply =
      raw_roundtrip(server.port(), "GET / HTTP/1.1\r\n\r\n");
  EXPECT_NE(reply.find("500"), std::string::npos);
  EXPECT_NE(reply.find("handler exploded"), std::string::npos);
  server.stop();
}

TEST(Server, SendfileServesFileRegion) {
  TempDir tmp;
  std::string path = tmp.path() + "/payload.bin";
  {
    std::ofstream out(path, std::ios::binary);
    for (int i = 0; i < 1000; ++i) out.put(static_cast<char>('A' + i % 26));
  }
  Server server({}, [&path](const Request&, const Peer&) {
    Response response = Response::make(200, "", "application/octet-stream");
    response.file = Response::FileRegion{path, 2, 10};
    return response;
  });
  server.start();
  std::string reply =
      raw_roundtrip(server.port(), "GET /f HTTP/1.1\r\n\r\n");
  EXPECT_NE(reply.find("Content-Length: 10"), std::string::npos);
  EXPECT_NE(reply.find("CDEFGHIJKL"), std::string::npos);
  server.stop();
}

TEST(Server, MissingFileRegionIs404) {
  Server server({}, [](const Request&, const Peer&) {
    Response response;
    response.file = Response::FileRegion{"/no/such/file", 0, -1};
    return response;
  });
  server.start();
  std::string reply =
      raw_roundtrip(server.port(), "GET /f HTTP/1.1\r\n\r\n");
  EXPECT_NE(reply.find("404"), std::string::npos);
  server.stop();
}

TEST(Server, StopIsIdempotentAndPrompt) {
  Server server({}, [](const Request&, const Peer&) {
    return Response::make(200, "ok");
  });
  server.start();
  server.stop();
  server.stop();
  SUCCEED();
}

}  // namespace
}  // namespace clarens::http
