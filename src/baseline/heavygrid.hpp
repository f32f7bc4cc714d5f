// HeavyGrid: the Globus-Toolkit-3 comparison baseline.
//
// The paper's footnote 4 reports 1-5 calls/second for a trivial method
// under GTK 3.0/3.9.1, versus ~1450 for Clarens. The gap is architectural:
// GT3's OGSA container performed, on *every* call,
//   * a new TCP connection and a full mutually-authenticated TLS
//     handshake (no session reuse across calls),
//   * grid-mapfile authorization scan,
//   * service re-instantiation driven by a WSDD deployment descriptor
//     parsed from XML,
//   * SOAP envelope processing,
// while Clarens amortizes authentication into a session and keeps the
// connection alive. HeavyGrid reproduces each of those per-call costs
// with this repository's own primitives so the *shape* of the comparison
// (orders of magnitude, not absolute 2005 numbers) is reproducible.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "util/sync.hpp"
#include "pki/certificate.hpp"
#include "pki/verify.hpp"
#include "rpc/value.hpp"

namespace clarens::baseline {

struct HeavyGridOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  pki::Credential credential;       // server credential
  pki::TrustStore trust;            // anchors for client verification
  /// grid-mapfile: "DN" -> local user; scanned linearly per call.
  std::vector<std::pair<std::string, std::string>> gridmap;
  /// Extra rounds of deployment-descriptor parsing per call, modelling
  /// container/service instantiation cost (1 = parse the WSDD once).
  int container_work_factor = 1;
};

class HeavyGridServer {
 public:
  explicit HeavyGridServer(HeavyGridOptions options);
  ~HeavyGridServer();

  HeavyGridServer(const HeavyGridServer&) = delete;
  HeavyGridServer& operator=(const HeavyGridServer&) = delete;

  void start();
  void stop();
  std::uint16_t port() const { return port_; }

  std::uint64_t calls_served() const { return calls_.load(); }

 private:
  void accept_loop();
  void serve_one(net::TcpConnection tcp);

  HeavyGridOptions options_;
  std::string wsdd_;  // generated deployment descriptor
  net::TcpListener listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> calls_{0};
  util::Thread acceptor_;
  /// Leaf lock guarding the per-connection thread table. Connection
  /// threads park their own handles in `finished_` when done; the
  /// acceptor and stop() join the parked handles.
  util::Mutex mutex_{util::LockLevel::kBaselineHeavygrid};
  util::CondVar all_done_;
  std::map<std::uint64_t, util::Thread> conn_threads_
      CLARENS_GUARDED_BY(mutex_);
  // clarens-lint: allow(thread-pool): GT3's thread-per-connection model
  std::vector<util::Thread> finished_ CLARENS_GUARDED_BY(mutex_);
  std::uint64_t conn_seq_ CLARENS_GUARDED_BY(mutex_) = 0;
};

class HeavyGridClient {
 public:
  /// `credential` is mandatory: GT3-style mutual authentication.
  HeavyGridClient(std::string host, std::uint16_t port,
                  pki::Credential credential, const pki::TrustStore& trust);

  /// One call = one connection + one full handshake (the GT3 model).
  rpc::Value call(const std::string& method,
                  const std::vector<rpc::Value>& params);

 private:
  std::string host_;
  std::uint16_t port_;
  pki::Credential credential_;
  const pki::TrustStore& trust_;
};

}  // namespace clarens::baseline
