// Unit tests for sockets and the epoll reactor.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"

namespace clarens::net {
namespace {

TEST(Tcp, ListenerPicksEphemeralPort) {
  TcpListener listener = TcpListener::listen(0);
  EXPECT_GT(listener.local_port(), 0);
}

TEST(Tcp, EchoRoundTrip) {
  TcpListener listener = TcpListener::listen(0);
  util::Thread server([&listener] {
    TcpConnection conn = listener.accept();
    std::array<std::uint8_t, 64> buf;
    std::size_t n = conn.read(buf);
    conn.write_all(std::span<const std::uint8_t>(buf.data(), n));
  });

  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.local_port());
  client.write_all(std::string_view("hello"));
  std::array<std::uint8_t, 64> buf;
  std::size_t n = client.read(buf);
  EXPECT_EQ(std::string(buf.begin(), buf.begin() + n), "hello");
  server.join();
}

TEST(Tcp, ReadReturnsZeroOnPeerClose) {
  TcpListener listener = TcpListener::listen(0);
  util::Thread server([&listener] {
    TcpConnection conn = listener.accept();
    conn.close();
  });
  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.local_port());
  std::array<std::uint8_t, 8> buf;
  EXPECT_EQ(client.read(buf), 0u);
  server.join();
}

TEST(Tcp, ConnectToClosedPortThrows) {
  TcpListener listener = TcpListener::listen(0);
  std::uint16_t dead_port = listener.local_port();
  listener.close();
  EXPECT_THROW(TcpConnection::connect("127.0.0.1", dead_port), SystemError);
}

TEST(Tcp, InvalidAddressThrows) {
  EXPECT_THROW(TcpConnection::connect("not-an-ip", 80), SystemError);
}

TEST(Tcp, NonblockingReadReturnsNulloptWhenEmpty) {
  TcpListener listener = TcpListener::listen(0);
  util::Thread server([&listener] {
    TcpConnection conn = listener.accept();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    conn.write_all(std::string_view("x"));
    // Hold the connection briefly so the client can read.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.local_port());
  client.set_nonblocking(true);
  std::array<std::uint8_t, 8> buf;
  EXPECT_EQ(client.read_some(buf), std::nullopt);  // nothing yet
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  auto n = client.read_some(buf);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 1u);
  server.join();
}

TEST(Udp, DatagramRoundTrip) {
  UdpSocket receiver = UdpSocket::bind(0);
  UdpSocket sender = UdpSocket::bind(0);
  sender.send_to("127.0.0.1", receiver.local_port(), std::string_view("ping"));
  auto got = receiver.recv(1000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "ping");
}

TEST(Udp, RecvTimesOut) {
  UdpSocket receiver = UdpSocket::bind(0);
  EXPECT_EQ(receiver.recv(50), std::nullopt);
}

TEST(Reactor, DispatchesReadEvents) {
  TcpListener listener = TcpListener::listen(0);
  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.local_port());
  TcpConnection served = listener.accept();
  served.set_nonblocking(true);

  Reactor reactor;
  std::atomic<int> events{0};
  reactor.add(served.fd(), Reactor::kRead, [&](std::uint32_t ready) {
    EXPECT_TRUE(ready & Reactor::kRead);
    std::array<std::uint8_t, 16> buf;
    served.read_some(buf);
    events.fetch_add(1);
  });
  EXPECT_TRUE(reactor.watching(served.fd()));

  client.write_all(std::string_view("a"));
  int handled = 0;
  for (int i = 0; i < 50 && events.load() == 0; ++i) {
    handled += reactor.poll(20);
  }
  EXPECT_EQ(events.load(), 1);
  EXPECT_GE(handled, 1);

  reactor.remove(served.fd());
  EXPECT_FALSE(reactor.watching(served.fd()));
}

TEST(Reactor, CallbackMayRemoveItself) {
  TcpListener listener = TcpListener::listen(0);
  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.local_port());
  TcpConnection served = listener.accept();

  Reactor reactor;
  reactor.add(served.fd(), Reactor::kRead, [&](std::uint32_t) {
    reactor.remove(served.fd());
  });
  client.write_all(std::string_view("x"));
  for (int i = 0; i < 50 && reactor.watched() > 0; ++i) reactor.poll(20);
  EXPECT_EQ(reactor.watched(), 0u);
}

TEST(Reactor, StopInterruptsRun) {
  Reactor reactor;
  util::Thread runner([&reactor] { reactor.run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  reactor.stop();
  runner.join();  // must return promptly
  SUCCEED();
}

TEST(Sendfile, TransfersFileRegion) {
  // Write a temp file, serve a slice of it via send_file (sendfile(2)).
  std::string path = "/tmp/clarens_sendfile_test.bin";
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fputs("0123456789abcdef", f);
    fclose(f);
  }
  TcpListener listener = TcpListener::listen(0);
  util::Thread server([&listener, &path] {
    TcpConnection conn = listener.accept();
    FILE* f = fopen(path.c_str(), "rb");
    EXPECT_EQ(conn.send_file(fileno(f), 4, 8), 8u);
    fclose(f);
  });
  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.local_port());
  std::string got;
  std::array<std::uint8_t, 64> buf;
  for (;;) {
    std::size_t n = client.read(buf);
    if (n == 0) break;
    got.append(buf.begin(), buf.begin() + n);
    if (got.size() >= 8) break;
  }
  EXPECT_EQ(got, "456789ab");
  server.join();
  remove(path.c_str());
}

/// Stream that records what it is asked to write.
struct RecordingStream final : Stream {
  std::string written;
  std::size_t read(std::span<std::uint8_t>) override { return 0; }
  void write_all(std::span<const std::uint8_t> data) override {
    written.append(data.begin(), data.end());
  }
  using Stream::write_all;
  void close() override {}
};

TEST(Sendfile, BaseStreamCopiesRegionAndStopsAtEof) {
  // The base send_file (what TLS streams inherit) reads with pread and
  // writes through write_all; a region past EOF comes back short.
  std::string path = "/tmp/clarens_send_file_base_test.bin";
  std::string content;
  for (int i = 0; i < 100000; ++i) content += static_cast<char>('a' + i % 26);
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fwrite(content.data(), 1, content.size(), f);
    fclose(f);
  }
  FILE* f = fopen(path.c_str(), "rb");
  RecordingStream stream;
  EXPECT_EQ(stream.send_file(fileno(f), 3, 70000), 70000u);
  EXPECT_EQ(stream.written, content.substr(3, 70000));
  stream.written.clear();
  EXPECT_EQ(stream.send_file(fileno(f), 99990, 50), 10u);
  EXPECT_EQ(stream.written, content.substr(99990));
  fclose(f);
  remove(path.c_str());
}

TEST(Tcp, WriteVecOnFullNonblockingSocketSendsEveryChunkInOrder) {
  // More chunks than one writev window, far more bytes than a socket
  // buffer: the blocking write_vec must wait out EAGAIN and resume
  // mid-chunk without dropping or reordering bytes.
  TcpListener listener = TcpListener::listen(0);
  std::vector<std::string> parts;
  std::string expected;
  for (int i = 0; i < 20; ++i) {
    parts.push_back(std::string(static_cast<std::size_t>(40000 + i),
                                static_cast<char>('A' + i)));
    if (i % 7 == 3) parts.emplace_back();  // empty chunks are skipped
  }
  for (const std::string& part : parts) expected += part;
  util::Thread writer([&listener, &parts] {
    TcpConnection conn = listener.accept();
    conn.set_nonblocking(true);
    std::vector<std::string_view> chunks(parts.begin(), parts.end());
    conn.write_vec(chunks);
  });
  TcpConnection client = TcpConnection::connect("127.0.0.1", listener.local_port());
  std::string got;
  std::array<std::uint8_t, 4096> buf;
  while (got.size() < expected.size()) {
    std::size_t n = client.read(buf);
    if (n == 0) break;
    got.append(buf.begin(), buf.begin() + n);
  }
  writer.join();
  EXPECT_EQ(got.size(), expected.size());
  EXPECT_TRUE(got == expected);
}

}  // namespace
}  // namespace clarens::net
