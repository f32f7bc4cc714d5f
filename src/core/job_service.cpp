#include "core/job_service.hpp"

#include "util/error.hpp"

namespace clarens::core {

void Job::encode(rpc::Value& row) const {
  row.set("command", command);
  row.set("exit_code", static_cast<std::int64_t>(exit_code));
  row.set("output", output);
}

void Job::decode(const rpc::Value& row) {
  command = row.at("command").as_string();
  exit_code = static_cast<int>(row.at("exit_code").as_int());
  output = row.at("output").as_string();
}

JobService::JobService(db::Store& store, ShellService& shell, int workers)
    : shell_(shell),
      jobs_(store, workers, [this](Job& job) { execute(job); }) {}

std::string JobService::submit(const pki::DistinguishedName& owner,
                               const std::string& command) {
  if (!shell_.map_user(owner)) {
    throw AccessError("no system user mapped for " + owner.str());
  }
  Job job;
  job.command = command;
  return jobs_.submit(owner, std::move(job),
                      [this](Job& queued) { execute(queued); });
}

void JobService::execute(Job& job) {
  job.exit_code = -1;  // kept when the shell throws
  ShellResult result =
      shell_.execute(pki::DistinguishedName::parse(job.owner), job.command);
  job.state = result.exit_code == 0 ? RequestState::Done : RequestState::Failed;
  job.exit_code = result.exit_code;
  job.output = result.out;
  job.error = result.err;
}

}  // namespace clarens::core
