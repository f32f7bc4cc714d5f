// File-serving throughput (paper §1): at the SuperComputing 2003
// bandwidth challenge "Clarens servers generated a peak of 3.2 Gb/s
// disk-to-disk streams consisting of CMS detector events."
//
// This harness measures the two Clarens file paths on a synthetic
// detector-event file:
//   * HTTP GET with the zero-copy sendfile(2) path (§2.3), and
//   * the file.read() RPC method at several block sizes (each block is a
//     full RPC with both access checks and base64 serialization).
// The expected shape: GET/sendfile saturates loopback far above the RPC
// path, and larger RPC blocks amortize per-call overhead.
//
// Usage: bench_file_throughput [--mb N]
#include <cstring>
#include <filesystem>
#include <fstream>

#include "bench_common.hpp"
#include "client/client.hpp"
#include "core/transfer_service.hpp"
#include "pki/authority.hpp"
#include "util/clock.hpp"

using namespace clarens;

int main(int argc, char** argv) {
  std::int64_t file_mb = 64;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--mb") && i + 1 < argc) {
      file_mb = std::atoi(argv[++i]);
    }
  }
  const std::int64_t file_bytes = file_mb * 1024 * 1024;

  // Synthetic CMS-style event file (pseudo-random, incompressible-ish).
  std::string dir = "/tmp/clarens_bench_files";
  std::filesystem::create_directories(dir);
  std::string path = dir + "/events.dat";
  {
    std::ofstream out(path, std::ios::binary);
    std::vector<char> block(1 << 20);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::int64_t written = 0; written < file_bytes;
         written += static_cast<std::int64_t>(block.size())) {
      for (std::size_t i = 0; i < block.size(); i += 8) {
        x ^= x << 13; x ^= x >> 7; x ^= x << 17;
        std::memcpy(&block[i], &x, 8);
      }
      out.write(block.data(), static_cast<std::streamsize>(block.size()));
    }
  }

  const bench::BenchPki& pki = bench::BenchPki::instance();
  core::ClarensConfig config = bench::paper_server_config();
  config.file_roots = {{"/data", dir}};
  core::FileAcl open_acl;
  open_acl.read = bench::allow_anyone();
  open_acl.write = bench::allow_anyone();
  config.initial_file_acls = {{"/data", open_acl}};
  core::ClarensServer server(std::move(config));
  server.start();

  client::ClientOptions options;
  options.port = server.port();
  options.credential = pki.user;
  options.trust = &pki.trust;
  client::ClarensClient client(options);
  client.connect();
  client.authenticate();

  std::printf("# File throughput (paper §1: 3.2 Gb/s disk-to-disk at SC2003; "
              "§2.3: sendfile for zero-copy)\n");
  std::printf("# file: %lld MiB synthetic event data\n",
              static_cast<long long>(file_mb));
  std::printf("%-26s %-12s %-12s\n", "path", "MB/s", "Gb/s");

  // HTTP GET via sendfile: one request, whole file.
  {
    util::Stopwatch timer;
    http::Response response = client.get("/data/events.dat");
    double seconds = timer.seconds();
    if (response.status != 200 ||
        response.body.size() != static_cast<std::size_t>(file_bytes)) {
      std::printf("GET failed: status %d size %zu\n", response.status,
                  response.body.size());
      return 1;
    }
    double mbps = static_cast<double>(file_bytes) / (1 << 20) / seconds;
    std::printf("%-26s %-12.0f %-12.2f\n", "http-get (sendfile)", mbps,
                mbps * 8 / 1024);
  }

  // file.read() RPC at several block sizes.
  for (std::int64_t block : {64 * 1024, 256 * 1024, 1024 * 1024, 4 * 1024 * 1024}) {
    util::Stopwatch timer;
    std::int64_t offset = 0;
    while (offset < file_bytes) {
      auto chunk = client.file_read("/data/events.dat", offset, block);
      if (chunk.empty()) break;
      offset += static_cast<std::int64_t>(chunk.size());
    }
    double seconds = timer.seconds();
    double mbps = static_cast<double>(offset) / (1 << 20) / seconds;
    char label[64];
    std::snprintf(label, sizeof(label), "file.read rpc (%lldKiB)",
                  static_cast<long long>(block / 1024));
    std::printf("%-26s %-12.0f %-12.2f\n", label, mbps, mbps * 8 / 1024);
  }

  // Server-to-server transfer (the SC2003 scenario proper): a second
  // Clarens server pulls the file via delegation and verifies MD5.
  {
    std::string replica_dir = dir + "/replica";
    std::filesystem::create_directories(replica_dir);
    core::ClarensConfig dest_config = bench::paper_server_config();
    dest_config.file_roots = {{"/replica", replica_dir}};
    core::FileAcl replica_acl;
    replica_acl.read = bench::allow_anyone();
    replica_acl.write = bench::allow_anyone();
    dest_config.initial_file_acls = {{"/replica", replica_acl}};
    dest_config.initial_method_acls.push_back(
        {"proxy", bench::allow_anyone()});
    dest_config.initial_method_acls.push_back(
        {"transfer", bench::allow_anyone()});
    core::ClarensServer dest(std::move(dest_config));
    dest.start();

    pki::Credential proxy = pki::issue_proxy(pki.user);
    client::ClientOptions dest_options;
    dest_options.port = dest.port();
    dest_options.credential = pki.user;
    dest_options.trust = &pki.trust;
    client::ClarensClient mover(dest_options);
    mover.connect();
    mover.authenticate();
    mover.call("proxy.store", {rpc::Value(proxy.encode()),
                               rpc::Value(pki.user.certificate.encode()),
                               rpc::Value("bench")});

    util::Stopwatch timer;
    std::string id =
        mover
            .call("transfer.start",
                  {rpc::Value("http://127.0.0.1:" + std::to_string(server.port())),
                   rpc::Value("/data/events.dat"),
                   rpc::Value("/replica/events.dat"), rpc::Value("bench")})
            .as_string();
    core::Transfer done = dest.transfers().wait(
        id, pki.user.certificate.subject(), 600000);
    double seconds = timer.seconds();
    if (done.state == core::RequestState::Done) {
      double mbps = static_cast<double>(done.bytes) / (1 << 20) / seconds;
      std::printf("%-26s %-12.0f %-12.2f\n",
                  "server-to-server transfer", mbps, mbps * 8 / 1024);
    } else {
      std::printf("server-to-server transfer FAILED: %s\n", done.error.c_str());
    }
    dest.stop();
  }

  std::printf("# shape: sendfile GET >> RPC path; larger RPC blocks amortize "
              "the two per-call DB checks + base64; server-to-server pull\n"
              "# (delegated, md5-verified) rides the RPC path per 1MiB block\n");
  server.stop();
  std::filesystem::remove_all(dir);
  return 0;
}
