// Owner-scoped asynchronous requests backed by db::Store: the lifecycle
// that job submission (paper §3) and third-party transfers (§6) share.
//
// A RequestTable<Record> keeps one store table of JSON-encoded
// rpc::Value rows and runs each request's step on a util::ThreadPool.
// It owns the state machine — QUEUED -> RUNNING -> DONE | FAILED, with
// CANCELLED reachable from QUEUED only — plus the owner checks (only the
// submitting DN sees a request), the newest-first listing, purge of
// finished records and wait-until-finished. Records live in the store,
// so a submitter can disconnect and query the result later, and a
// request that a dead server left QUEUED or RUNNING is queued again on
// restart onto the table's `resume` step.
//
// A Record derives from Request and adds its service's fields:
//   static constexpr const char* kTable;  // store table, e.g. "jobs"
//   static constexpr const char* kNoun;   // "job", for error messages
//   void encode(rpc::Value& row) const;   // write the added fields
//   void decode(const rpc::Value& row);   // read them back
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "crypto/random.hpp"
#include "db/store.hpp"
#include "pki/dn.hpp"
#include "rpc/jsonrpc.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace clarens::core {

enum class RequestState { Queued, Running, Done, Failed, Cancelled };

const char* to_string(RequestState state);
bool is_terminal(RequestState state);

/// The fields every request carries.
struct Request {
  std::string id;
  std::string owner;  // DN string
  RequestState state = RequestState::Queued;
  std::string error;
  std::int64_t submitted = 0;
  std::int64_t finished = 0;  // 0 while not terminal
};

/// Row codec for the Request fields (decode throws ParseError).
rpc::Value encode_request(const Request& request);
void decode_request(const rpc::Value& row, Request& request);

template <class Record>
class RequestTable {
 public:
  /// A request's step, run on a pool thread with the claimed (RUNNING)
  /// record. It fills in the result fields; the request then ends DONE,
  /// or FAILED if the step set that state or threw (the exception text
  /// becomes `error`).
  using Run = std::function<void(Record&)>;

  /// Starts `workers` pool threads and queues every QUEUED or RUNNING
  /// row onto `resume`.
  RequestTable(db::Store& store, int workers, const Run& resume)
      : store_(store), pool_(static_cast<std::size_t>(std::max(workers, 1))) {
    for (const auto& id : store_.keys(Record::kTable)) {
      std::optional<Record> record = find(id);
      if (!record || is_terminal(record->state)) continue;
      record->state = RequestState::Queued;
      save(*record);
      queue(id, resume);
    }
  }

  RequestTable(const RequestTable&) = delete;
  RequestTable& operator=(const RequestTable&) = delete;

  /// Store `record` as a new QUEUED request of `owner` and queue `run`
  /// for it; returns the request id.
  std::string submit(const pki::DistinguishedName& owner, Record record,
                     Run run) {
    record.id = crypto::random_token(10);
    record.owner = owner.str();
    record.submitted = util::unix_now();
    {
      // lock-order: core.request -> db.store.shard
      util::LockGuard lock(mutex_);
      save(record);
    }
    queue(record.id, std::move(run));
    return record.id;
  }

  /// The record; only its owner may see it (AccessError otherwise).
  Record status(const std::string& id,
                const pki::DistinguishedName& who) const {
    return owned(load(id), who);
  }

  /// Every record of `owner`, newest first.
  std::vector<Record> list(const pki::DistinguishedName& owner) const {
    std::vector<Record> out;
    for (const auto& id : store_.keys(Record::kTable)) {
      std::optional<Record> record = find(id);
      if (record && record->owner == owner.str()) {
        out.push_back(std::move(*record));
      }
    }
    std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
      return a.submitted > b.submitted;
    });
    return out;
  }

  /// Cancel a queued request; false once it has started.
  bool cancel(const std::string& id, const pki::DistinguishedName& who) {
    {
      // lock-order: core.request -> db.store.shard
      util::LockGuard lock(mutex_);
      Record record = owned(load(id), who);
      if (record.state != RequestState::Queued) return false;
      record.state = RequestState::Cancelled;
      record.finished = util::unix_now();
      save(record);
    }
    state_changed_.notify_all();
    return true;
  }

  /// Delete a finished record.
  void purge(const std::string& id, const pki::DistinguishedName& who) {
    // lock-order: core.request -> db.store.shard
    util::LockGuard lock(mutex_);
    Record record = owned(load(id), who);
    if (!is_terminal(record.state)) {
      throw Error(std::string("cannot purge a ") + Record::kNoun +
                  " in state " + to_string(record.state));
    }
    store_.erase(Record::kTable, id);
  }

  /// Block until the request is DONE, FAILED or CANCELLED.
  Record wait(const std::string& id, const pki::DistinguishedName& who,
              int timeout_ms) {
    // lock-order: core.request -> db.store.shard
    util::UniqueLock lock(mutex_);
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    Record record = load(id);
    while (!is_terminal(record.state)) {
      bool timed_out =
          state_changed_.wait_until(lock, deadline) == std::cv_status::timeout;
      record = load(id);
      if (is_terminal(record.state)) break;
      if (timed_out) {
        throw SystemError(std::string(Record::kNoun) +
                          " did not finish in time");
      }
    }
    return owned(std::move(record), who);
  }

 private:
  void queue(const std::string& id, Run run) {
    pool_.submit([this, id, run = std::move(run)] { claim_and_run(id, run); });
  }

  void claim_and_run(const std::string& id, const Run& run) {
    Record record;
    {
      // lock-order: core.request -> db.store.shard
      util::LockGuard lock(mutex_);
      std::optional<Record> queued = find(id);
      if (!queued || queued->state != RequestState::Queued) return;
      record = std::move(*queued);
      record.state = RequestState::Running;
      save(record);
    }
    state_changed_.notify_all();
    try {
      run(record);
      if (record.state == RequestState::Running) {
        record.state = RequestState::Done;
      }
    } catch (const std::exception& e) {
      record.state = RequestState::Failed;
      record.error = e.what();
    }
    record.finished = util::unix_now();
    {
      // lock-order: core.request -> db.store.shard
      util::LockGuard lock(mutex_);
      save(record);
    }
    state_changed_.notify_all();
  }

  Record owned(Record record, const pki::DistinguishedName& who) const {
    if (record.owner != who.str()) {
      throw AccessError(std::string(Record::kNoun) +
                        " belongs to a different identity");
    }
    return record;
  }

  std::optional<Record> find(const std::string& id) const {
    std::optional<std::string> text = store_.get(Record::kTable, id);
    if (!text) return std::nullopt;
    rpc::Value row = rpc::jsonrpc::parse_value(*text);
    Record record;
    record.id = id;
    decode_request(row, record);
    record.decode(row);
    return record;
  }

  Record load(const std::string& id) const {
    std::optional<Record> record = find(id);
    if (!record) {
      throw NotFoundError(std::string("no such ") + Record::kNoun + ": " + id);
    }
    return std::move(*record);
  }

  void save(const Record& record) {
    rpc::Value row = encode_request(record);
    record.encode(row);
    store_.put(Record::kTable, record.id, rpc::jsonrpc::serialize_value(row));
  }

  db::Store& store_;
  /// Held across each state change of a record, so wait() cannot miss
  /// the wakeup that follows it: hierarchy `core.request` ->
  /// `db.store.shard`.
  util::Mutex mutex_{util::LockLevel::kCoreRequest};
  util::CondVar state_changed_;
  util::ThreadPool pool_;  // last: joins its workers before the rest goes
};

}  // namespace clarens::core
