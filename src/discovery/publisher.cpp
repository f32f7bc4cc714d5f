#include "discovery/publisher.hpp"

#include <chrono>

#include "util/clock.hpp"

namespace clarens::discovery {

Publisher::Publisher(std::string station_host, std::uint16_t station_port)
    : station_host_(std::move(station_host)),
      station_port_(station_port),
      socket_(net::UdpSocket::bind(0)) {}

Publisher::~Publisher() { stop(); }

void Publisher::set_records(std::vector<ServiceRecord> records) {
  util::LockGuard lock(mutex_);
  records_ = std::move(records);
}

void Publisher::publish_once() {
  Datagram datagram;
  datagram.type = Datagram::Type::Publish;
  {
    util::LockGuard lock(mutex_);
    datagram.records = records_;
  }
  std::int64_t now = util::unix_now();
  for (auto& record : datagram.records) record.heartbeat = now;
  socket_.send_to(station_host_, station_port_, datagram.encode());
}

void Publisher::start_periodic(
    int interval_ms, std::function<std::vector<ServiceRecord>()> build) {
  if (running_.exchange(true)) return;
  ticker_ = util::Thread([this, interval_ms, build = std::move(build)] {
    while (running_.load()) {
      set_records(build());
      publish_once();
      for (int waited = 0; waited < interval_ms && running_.load(); waited += 50) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
  });
}

void Publisher::stop() {
  if (!running_.exchange(false)) return;
  if (ticker_.joinable()) ticker_.join();
}

}  // namespace clarens::discovery
