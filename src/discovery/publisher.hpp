// Publisher: the "UDP-based application" (paper §2.4) with which a
// Clarens server pushes its service information to a station server.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "discovery/glue.hpp"
#include "net/socket.hpp"
#include "util/sync.hpp"

namespace clarens::discovery {

class Publisher {
 public:
  Publisher(std::string station_host, std::uint16_t station_port);
  ~Publisher();

  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  /// Replace the advertised record set.
  void set_records(std::vector<ServiceRecord> records);

  /// Send one publish datagram now (heartbeats are stamped fresh).
  void publish_once();

  /// Every `interval_ms` until stopped: rebuild the record set with
  /// `build` (called outside the publisher's lock, so it may take the
  /// caller's own locks) and publish it. Heartbeats keep records alive;
  /// the rebuild keeps their load metrics current.
  void start_periodic(int interval_ms,
                      std::function<std::vector<ServiceRecord>()> build);
  void stop();

 private:
  std::string station_host_;
  std::uint16_t station_port_;
  net::UdpSocket socket_;
  util::Mutex mutex_{util::LockLevel::kDiscoveryPublisher};
  std::vector<ServiceRecord> records_ CLARENS_GUARDED_BY(mutex_);
  std::atomic<bool> running_{false};
  util::Thread ticker_;
};

}  // namespace clarens::discovery
