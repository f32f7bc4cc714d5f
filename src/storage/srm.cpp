#include "storage/srm.hpp"

#include <algorithm>
#include <chrono>

#include "crypto/random.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace clarens::storage {

const char* to_string(SrmState state) {
  switch (state) {
    case SrmState::Queued: return "QUEUED";
    case SrmState::Staging: return "STAGING";
    case SrmState::Ready: return "READY";
    case SrmState::Failed: return "FAILED";
    case SrmState::Released: return "RELEASED";
  }
  return "?";
}

SrmService::SrmService(MassStorage& storage, int workers)
    : storage_(storage),
      pool_(static_cast<std::size_t>(std::max(workers, 1))) {}

std::string SrmService::prepare_to_get(const std::string& logical_path) {
  SrmRequest request;
  request.token = crypto::random_token(12);
  request.logical_path = logical_path;
  request.created = util::unix_now();
  {
    util::LockGuard lock(mutex_);
    requests_[request.token] = request;
  }
  pool_.submit([this, token = request.token] { stage(token); });
  return request.token;
}

void SrmService::stage(const std::string& token) {
  std::string logical_path;
  {
    util::LockGuard lock(mutex_);
    SrmRequest& request = requests_.at(token);
    request.state = SrmState::Staging;
    logical_path = request.logical_path;
  }
  state_changed_.notify_all();

  // The staging copy (and its simulated tape latency) runs unlocked.
  std::string cache_file;
  std::string error;
  try {
    cache_file = storage_.stage_and_pin(logical_path);
  } catch (const Error& e) {
    error = e.what();
  }

  {
    util::LockGuard lock(mutex_);
    SrmRequest& request = requests_.at(token);
    if (error.empty()) {
      request.state = SrmState::Ready;
      request.cache_file = cache_file;
    } else {
      request.state = SrmState::Failed;
      request.error = error;
    }
  }
  state_changed_.notify_all();
}

SrmRequest SrmService::status(const std::string& token) const {
  util::LockGuard lock(mutex_);
  auto it = requests_.find(token);
  if (it == requests_.end()) throw NotFoundError("unknown SRM token");
  return it->second;
}

SrmRequest SrmService::wait(const std::string& token, int timeout_ms) {
  util::UniqueLock lock(mutex_);
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  for (;;) {
    auto it = requests_.find(token);
    if (it == requests_.end()) throw NotFoundError("unknown SRM token");
    if (it->second.state != SrmState::Queued &&
        it->second.state != SrmState::Staging) {
      return it->second;
    }
    if (state_changed_.wait_until(lock, deadline) == std::cv_status::timeout) {
      it = requests_.find(token);
      if (it != requests_.end() && it->second.state != SrmState::Queued &&
          it->second.state != SrmState::Staging) {
        return it->second;
      }
      throw SystemError("SRM request did not complete in time");
    }
  }
}

void SrmService::release(const std::string& token) {
  std::string logical_path;
  {
    util::LockGuard lock(mutex_);
    auto it = requests_.find(token);
    if (it == requests_.end()) throw NotFoundError("unknown SRM token");
    if (it->second.state == SrmState::Released) return;
    if (it->second.state != SrmState::Ready) {
      throw Error("cannot release a request in state " +
                  std::string(to_string(it->second.state)));
    }
    it->second.state = SrmState::Released;
    logical_path = it->second.logical_path;
  }
  storage_.unpin(logical_path);
  state_changed_.notify_all();
}

void SrmService::put(const std::string& logical_path, std::string_view data) {
  storage_.put(logical_path, data);
}

std::vector<std::string> SrmService::ls(const std::string& logical_dir) const {
  return storage_.list(logical_dir);
}

bool SrmService::exists(const std::string& logical_path) const {
  return storage_.exists(logical_path);
}

std::int64_t SrmService::size(const std::string& logical_path) const {
  return storage_.size(logical_path);
}

}  // namespace clarens::storage
