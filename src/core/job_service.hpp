// Job submission service (paper §3 lists job submission among the portal
// functionality; Clarens hosted the RunJob / Monte-Carlo Processing
// Service workflows).
//
// Jobs are shell-service command lines executed asynchronously in the
// submitter's sandbox. The request table (core/request_table.hpp) keeps
// the job records in the database and runs them on a small worker pool,
// so a submitter can disconnect and query results later, and jobs a
// dead server left queued or running run again after a restart. The
// restricted interpreter runs commands to completion, so only a queued
// job can be cancelled.
#pragma once

#include <string>
#include <vector>

#include "core/request_table.hpp"
#include "core/shell_service.hpp"
#include "db/store.hpp"
#include "pki/dn.hpp"

namespace clarens::core {

struct Job : Request {
  static constexpr const char* kTable = "jobs";
  static constexpr const char* kNoun = "job";

  std::string command;
  int exit_code = 0;
  std::string output;  // stdout; Request::error holds stderr

  void encode(rpc::Value& row) const;
  void decode(const rpc::Value& row);
};

class JobService {
 public:
  JobService(db::Store& store, ShellService& shell, int workers = 2);

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Submit a command for `owner`; returns the job id immediately.
  /// Throws AccessError if the owner maps to no system user.
  std::string submit(const pki::DistinguishedName& owner,
                     const std::string& command);

  /// Job record; only the owner may query it (AccessError otherwise).
  Job status(const std::string& job_id,
             const pki::DistinguishedName& who) const {
    return jobs_.status(job_id, who);
  }

  /// All jobs of an owner, newest first.
  std::vector<Job> list(const pki::DistinguishedName& owner) const {
    return jobs_.list(owner);
  }

  /// Cancel a queued job; returns false when it already started.
  bool cancel(const std::string& job_id, const pki::DistinguishedName& who) {
    return jobs_.cancel(job_id, who);
  }

  /// Remove a terminal job record.
  void purge(const std::string& job_id, const pki::DistinguishedName& who) {
    jobs_.purge(job_id, who);
  }

  /// Block until the job reaches a terminal state (test convenience).
  Job wait(const std::string& job_id, const pki::DistinguishedName& who,
           int timeout_ms = 10000) {
    return jobs_.wait(job_id, who, timeout_ms);
  }

 private:
  void execute(Job& job);

  ShellService& shell_;
  RequestTable<Job> jobs_;  // last: its workers join before shell_ goes
};

}  // namespace clarens::core
