// Tests for the job submission service: lifecycle, ownership isolation,
// cancellation, restart recovery, and the RPC surface.
#include <gtest/gtest.h>

#include <fstream>

#include "client/client.hpp"
#include "core/job_service.hpp"
#include "core/server.hpp"
#include "core/shell_service.hpp"
#include "core/vo.hpp"
#include "db/store.hpp"
#include "rpc/fault.hpp"
#include "test_fixtures.hpp"
#include "util/error.hpp"

namespace clarens::core {
namespace {

using clarens::testing::TempDir;
using clarens::testing::TestPki;

const char* kJoeStr = "/O=g/OU=People/CN=Joe";
const char* kAnnStr = "/O=g/OU=People/CN=Ann";

pki::DistinguishedName dn(const char* s) {
  return pki::DistinguishedName::parse(s);
}

struct JobFixture : ::testing::Test {
  db::Store store;
  VoManager vo{store, {}};
  TempDir tmp;
  ShellService shell{vo, tmp.sub("sandboxes")};
  JobService jobs{store, shell, 2};

  JobFixture() {
    UserMapEntry joe;
    joe.system_user = "joe";
    joe.dns = {kJoeStr};
    UserMapEntry ann;
    ann.system_user = "ann";
    ann.dns = {kAnnStr};
    shell.set_user_map({joe, ann});
  }
};

TEST_F(JobFixture, SubmitRunsToCompletion) {
  std::string id = jobs.submit(dn(kJoeStr), "echo job ran");
  Job job = jobs.wait(id, dn(kJoeStr));
  EXPECT_EQ(job.state, RequestState::Done);
  EXPECT_EQ(job.exit_code, 0);
  EXPECT_EQ(job.output, "job ran\n");
  EXPECT_GE(job.finished, job.submitted);
}

TEST_F(JobFixture, FailingCommandIsFailed) {
  std::string id = jobs.submit(dn(kJoeStr), "cat /no/such/file");
  Job job = jobs.wait(id, dn(kJoeStr));
  EXPECT_EQ(job.state, RequestState::Failed);
  EXPECT_NE(job.exit_code, 0);
  EXPECT_FALSE(job.error.empty());
}

TEST_F(JobFixture, UnmappedOwnerRefused) {
  EXPECT_THROW(jobs.submit(dn("/O=elsewhere/CN=Eve"), "echo hi"), AccessError);
}

TEST_F(JobFixture, OwnershipIsolation) {
  std::string id = jobs.submit(dn(kJoeStr), "echo secret");
  jobs.wait(id, dn(kJoeStr));
  EXPECT_THROW(jobs.status(id, dn(kAnnStr)), AccessError);
  EXPECT_THROW(jobs.cancel(id, dn(kAnnStr)), AccessError);
  EXPECT_THROW(jobs.purge(id, dn(kAnnStr)), AccessError);
  EXPECT_THROW(jobs.status("no-such-job", dn(kJoeStr)), NotFoundError);
}

TEST_F(JobFixture, JobsRunInOwnersSandbox) {
  std::string id = jobs.submit(dn(kJoeStr), "touch from-job.txt");
  jobs.wait(id, dn(kJoeStr));
  EXPECT_TRUE(std::filesystem::exists(shell.sandbox_dir("joe") +
                                      "/from-job.txt"));
  // Ann's sandbox is untouched.
  EXPECT_FALSE(std::filesystem::exists(shell.sandbox_dir("ann") +
                                       "/from-job.txt"));
}

TEST_F(JobFixture, ListNewestFirst) {
  std::string a = jobs.submit(dn(kJoeStr), "echo a");
  jobs.wait(a, dn(kJoeStr));
  std::string b = jobs.submit(dn(kJoeStr), "echo b");
  jobs.wait(b, dn(kJoeStr));
  jobs.submit(dn(kAnnStr), "echo ann");
  auto listing = jobs.list(dn(kJoeStr));
  ASSERT_EQ(listing.size(), 2u);
  // Newest first (same-second ties permitted either way; both are Joe's).
  EXPECT_EQ(listing[0].owner, kJoeStr);
  EXPECT_EQ(listing[1].owner, kJoeStr);
}

TEST_F(JobFixture, PurgeRemovesTerminalOnly) {
  std::string id = jobs.submit(dn(kJoeStr), "echo done");
  jobs.wait(id, dn(kJoeStr));
  jobs.purge(id, dn(kJoeStr));
  EXPECT_THROW(jobs.status(id, dn(kJoeStr)), NotFoundError);
}

TEST(JobRecovery, OrphanedJobsRequeueOnRestart) {
  TempDir tmp;
  db::Store store(tmp.sub("db"));
  VoManager vo(store, {});
  ShellService shell(vo, tmp.sub("sandboxes"));
  UserMapEntry joe;
  joe.system_user = "joe";
  joe.dns = {kJoeStr};
  shell.set_user_map({joe});

  // Forge a job record stuck in RUNNING (as if the server crashed).
  store.put("jobs", "orphan1",
            R"({"owner":"/O=g/OU=People/CN=Joe","command":"echo recovered",)"
            R"("state":"RUNNING","exit_code":0,"output":"","error":"",)"
            R"("submitted":1,"finished":0})");

  JobService jobs(store, shell, 1);
  Job job = jobs.wait("orphan1", dn(kJoeStr));
  EXPECT_EQ(job.state, RequestState::Done);
  EXPECT_EQ(job.output, "recovered\n");
}

TEST(JobRpc, EndToEndOverWire) {
  const TestPki& pki = TestPki::instance();
  TempDir tmp;
  core::ClarensConfig config;
  config.trust = pki.trust;
  config.sandbox_base = tmp.sub("sandboxes");
  UserMapEntry entry;
  entry.system_user = "bob";
  entry.dns = {"/O=testgrid.org/OU=People/CN=Bob Baker"};
  config.user_map = {entry};
  core::AclSpec anyone;
  anyone.allow_dns = {core::AclSpec::kAnyone};
  config.initial_method_acls = {{"system", anyone}, {"job", anyone}};
  core::ClarensServer server(std::move(config));
  server.start();

  client::ClientOptions options;
  options.port = server.port();
  options.credential = pki.bob;
  options.trust = &pki.trust;
  client::ClarensClient client(options);
  client.connect();
  client.authenticate();

  std::string id =
      client.call("job.submit", {rpc::Value("echo grid job")}).as_string();
  rpc::Value status;
  for (int i = 0; i < 200; ++i) {
    status = client.call("job.status", {rpc::Value(id)});
    std::string state = status.at("state").as_string();
    if (state == "DONE" || state == "FAILED") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(status.at("state").as_string(), "DONE");
  EXPECT_EQ(status.at("output").as_string(), "grid job\n");

  rpc::Value listing = client.call("job.list");
  EXPECT_EQ(listing.as_array().size(), 1u);
  EXPECT_TRUE(client.call("job.purge", {rpc::Value(id)}).as_bool());
  EXPECT_EQ(client.call("job.list").as_array().size(), 0u);

  // Carol (unmapped) cannot submit.
  client::ClientOptions carol_options = options;
  carol_options.credential = pki.carol;
  client::ClarensClient carol(carol_options);
  carol.connect();
  carol.authenticate();
  EXPECT_THROW(carol.call("job.submit", {rpc::Value("echo nope")}), rpc::Fault);
  server.stop();
}

}  // namespace
}  // namespace clarens::core
