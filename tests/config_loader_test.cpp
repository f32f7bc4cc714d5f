// Tests for the configuration loader: every key, unknown-key rejection,
// the config texts shipped in docs and tool comments, file references,
// and a daemon-style boot from a generated config.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "client/client.hpp"
#include "core/config_loader.hpp"
#include "core/server.hpp"
#include "test_fixtures.hpp"
#include "util/error.hpp"

namespace clarens::core {
namespace {

using clarens::testing::TempDir;
using clarens::testing::TestPki;

TEST(ConfigLoader, ParsesScalarsAndLists) {
  util::Config config = util::Config::parse(
      "host 0.0.0.0\n"
      "port 8443\n"
      "data_dir /var/lib/clarens\n"
      "admin /O=a/CN=one\n"
      "admin /O=a/CN=two\n"
      "default_allow false\n"
      "session_ttl 3600\n"
      "sandbox_base /tmp/sb\n"
      "farm caltech\n"
      "node c01\n"
      "max_connections 64\n");
  ClarensConfig out = config_from(config);
  EXPECT_EQ(out.host, "0.0.0.0");
  EXPECT_EQ(out.port, 8443);
  EXPECT_EQ(out.data_dir, "/var/lib/clarens");
  EXPECT_EQ(out.admins.size(), 2u);
  EXPECT_EQ(out.session_ttl, 3600);
  EXPECT_EQ(out.sandbox_base, "/tmp/sb");
  EXPECT_EQ(out.farm, "caltech");
  EXPECT_EQ(out.max_connections, 64u);
}

TEST(ConfigLoader, FileRootsAndAcls) {
  util::Config config = util::Config::parse(
      "file_root /data /srv/data\n"
      "file_root /scratch /srv/scratch\n"
      "allow system *\n"
      "allow system group:ops\n"
      "allow file /O=grid/OU=People\n"
      "file_allow /data *\n"
      "file_allow_read /scratch /O=grid\n"
      "file_allow_write /scratch group:writers\n");
  ClarensConfig out = config_from(config);
  EXPECT_EQ(out.file_roots.size(), 2u);
  EXPECT_EQ(out.file_roots.at("/data"), "/srv/data");

  ASSERT_EQ(out.initial_method_acls.size(), 2u);  // "file" and "system"
  const auto& system_acl = out.initial_method_acls[1];
  EXPECT_EQ(system_acl.first, "system");
  EXPECT_EQ(system_acl.second.allow_dns, (std::vector<std::string>{"*"}));
  EXPECT_EQ(system_acl.second.allow_groups, (std::vector<std::string>{"ops"}));

  ASSERT_EQ(out.initial_file_acls.size(), 2u);
  const auto& scratch = out.initial_file_acls[1];
  EXPECT_EQ(scratch.first, "/scratch");
  EXPECT_EQ(scratch.second.read.allow_dns, (std::vector<std::string>{"/O=grid"}));
  EXPECT_EQ(scratch.second.write.allow_groups,
            (std::vector<std::string>{"writers"}));
}

TEST(ConfigLoader, StationEndpoint) {
  ClarensConfig out = config_from(util::Config::parse("station 10.0.0.1:9999\n"));
  ASSERT_TRUE(out.station.has_value());
  EXPECT_EQ(out.station->first, "10.0.0.1");
  EXPECT_EQ(out.station->second, 9999);
}

TEST(ConfigLoader, MalformedEntriesThrow) {
  EXPECT_THROW(config_from(util::Config::parse("file_root /only-one\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("allow justpath\n")), ParseError);
  EXPECT_THROW(config_from(util::Config::parse("station nocolon\n")), ParseError);
  EXPECT_THROW(config_from(util::Config::parse("use_tls true\n")), ParseError);
  EXPECT_THROW(config_from(util::Config::parse("credential_file /no/file\n")),
               SystemError);
  // The binary blob framing length is a u32: chunk limits past 4 GiB - 1
  // (or non-positive) would desynchronize sendfile frames.
  EXPECT_THROW(config_from(util::Config::parse("max_read_chunk 4294967296\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("max_read_chunk 0\n")),
               ParseError);
  EXPECT_NO_THROW(config_from(util::Config::parse("max_read_chunk 4294967295\n")));
}

TEST(ConfigLoader, SessionDurableWrites) {
  EXPECT_TRUE(config_from(util::Config::parse("session_durable_writes true\n"))
                  .session_durable_writes);
  EXPECT_FALSE(config_from(util::Config::parse("host x\n"))
                   .session_durable_writes);
}

TEST(ConfigLoader, FederationKnobs) {
  ClarensConfig head = config_from(util::Config::parse(
      "node_role head\n"
      "node_ticket_secret 0123456789abcdef\n"
      "placement_replicas 2\n"
      "node_capacity 2.5\n"
      "federation_refresh_ms 250\n"
      "node_ticket_ttl_s 60\n"
      "placement_prefix_depth 3\n"));
  EXPECT_EQ(head.node_role, NodeRole::Head);
  EXPECT_EQ(head.node_ticket_secret, "0123456789abcdef");
  EXPECT_EQ(head.placement_replicas, 2);
  EXPECT_DOUBLE_EQ(head.node_capacity, 2.5);
  EXPECT_EQ(head.federation_refresh_ms, 250);
  EXPECT_EQ(head.node_ticket_ttl_s, 60);
  EXPECT_EQ(head.placement_prefix_depth, 3);

  ClarensConfig storage = config_from(util::Config::parse(
      "node_role storage\n"
      "head_url http://head.example.org:8080/clarens\n"
      "node_ticket_secret 0123456789abcdef\n"));
  EXPECT_EQ(storage.node_role, NodeRole::Storage);
  EXPECT_EQ(storage.head_url, "http://head.example.org:8080/clarens");

  // Defaults: standalone, no secret required, single replica.
  ClarensConfig defaults = config_from(util::Config::parse("host x\n"));
  EXPECT_EQ(defaults.node_role, NodeRole::Standalone);
  EXPECT_TRUE(defaults.node_ticket_secret.empty());
  EXPECT_EQ(defaults.placement_replicas, 1);
  EXPECT_DOUBLE_EQ(defaults.node_capacity, 1.0);
  EXPECT_EQ(defaults.placement_prefix_depth, 2);
}

TEST(ConfigLoader, FederationKnobValidation) {
  // Unknown role.
  EXPECT_THROW(config_from(util::Config::parse("node_role primary\n")),
               ParseError);
  // head/storage roles demand a meaningful shared secret…
  EXPECT_THROW(config_from(util::Config::parse(
                   "node_role head\nnode_ticket_secret short\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("node_role head\n")),
               ParseError);
  // …and a storage node must know its head.
  EXPECT_THROW(config_from(util::Config::parse(
                   "node_role storage\nnode_ticket_secret 0123456789abcdef\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("head_url gopher://x:1\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("placement_replicas 0\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("placement_replicas 9\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("node_capacity nan-ish\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("node_capacity 0\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("node_capacity -1\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("federation_refresh_ms -1\n")),
               ParseError);
  EXPECT_THROW(
      config_from(util::Config::parse("federation_refresh_ms 60001\n")),
      ParseError);
  EXPECT_THROW(config_from(util::Config::parse("node_ticket_ttl_s 0\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("node_ticket_ttl_s 86401\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("placement_prefix_depth 0\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("placement_prefix_depth 9\n")),
               ParseError);
}

TEST(ConfigLoader, ReplicationKnobs) {
  ClarensConfig head = config_from(util::Config::parse(
      "node_role head\n"
      "node_ticket_secret 0123456789abcdef\n"
      "replication_grace_ms 1500\n"
      "replication_chunk 65536\n"
      "fsck_interval_ms 30000\n"
      "replica_suspect_ttl_ms 1000\n"));
  EXPECT_EQ(head.replication_grace_ms, 1500);
  EXPECT_EQ(head.replication_chunk, 65536);
  EXPECT_EQ(head.fsck_interval_ms, 30000);
  EXPECT_EQ(head.replica_suspect_ttl_ms, 1000);

  ClarensConfig defaults = config_from(util::Config::parse("host x\n"));
  EXPECT_EQ(defaults.replication_grace_ms, 5000);
  EXPECT_EQ(defaults.fsck_interval_ms, 0);  // scrub on demand only
}

TEST(ConfigLoader, ReplicationKnobValidation) {
  EXPECT_THROW(config_from(util::Config::parse("replication_grace_ms 99\n")),
               ParseError);
  EXPECT_THROW(
      config_from(util::Config::parse("replication_grace_ms 600001\n")),
      ParseError);
  EXPECT_THROW(config_from(util::Config::parse("replication_chunk 4095\n")),
               ParseError);
  // The copy chunk rides over file.read/file.append, so it is bounded
  // by what a storage node will serve in one call.
  EXPECT_THROW(config_from(util::Config::parse("max_read_chunk 65536\n"
                                               "replication_chunk 65537\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("fsck_interval_ms -1\n")),
               ParseError);
  EXPECT_THROW(config_from(util::Config::parse("fsck_interval_ms 86400001\n")),
               ParseError);
  EXPECT_THROW(
      config_from(util::Config::parse("replica_suspect_ttl_ms -1\n")),
      ParseError);
  EXPECT_THROW(
      config_from(util::Config::parse("replica_suspect_ttl_ms 600001\n")),
      ParseError);
}

TEST(ConfigLoader, UnknownKeysThrowNamingTheKey) {
  // A misspelt knob must not silently run the cluster on the default.
  try {
    config_from(util::Config::parse("placement_replica 2\n"));
    FAIL() << "misspelt key accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("'placement_replica'"),
              std::string::npos)
        << e.what();
  }
  // Knobs that no longer exist are unknown keys too; their values are
  // fixed in the code.
  for (const char* removed :
       {"store_shards 16", "store_group_commit true",
        "store_commit_interval_us 200", "store_commit_batch_max 256",
        "store_compact_threshold 8388608", "challenge_ttl 300",
        "replication_retry_max 8", "replication_retry_base_ms 100",
        "replication_retry_max_ms 5000"}) {
    EXPECT_THROW(config_from(util::Config::parse(removed)), ParseError)
        << removed;
  }
}

TEST(ConfigLoader, AcceptsDaemonLevelKeys) {
  // clarensd reads these two from the same file itself.
  EXPECT_NO_THROW(config_from(util::Config::parse(
      "station 127.0.0.1:17700\n"
      "station_listen_port 17700\n"
      "discovery_server true\n")));
}

/// Config texts embedded in the repository's docs and tool comments:
/// shell here-documents ending in EOF (C++ comment markers stripped) and
/// fenced conf-tagged code blocks in markdown.
std::vector<std::string> embedded_configs(const std::string& text) {
  std::vector<std::string> blocks;
  std::istringstream lines(text);
  std::string line;
  std::string* open = nullptr;
  std::string fence_end;
  while (std::getline(lines, line)) {
    std::string body = line;
    std::size_t first = body.find_first_not_of(" \t");
    body = first == std::string::npos ? "" : body.substr(first);
    if (body.rfind("//", 0) == 0) {
      body = body.substr(2);
      first = body.find_first_not_of(" \t");
      body = first == std::string::npos ? "" : body.substr(first);
    }
    if (open) {
      if (body == fence_end) {
        open = nullptr;
      } else {
        *open += body + "\n";
      }
    } else if (body.ends_with("<<" "EOF")) {
      open = &blocks.emplace_back();
      fence_end = "EOF";
    } else if (body == "```" "conf") {
      open = &blocks.emplace_back();
      fence_end = "```";
    }
  }
  return blocks;
}

TEST(ConfigLoader, EveryConfigTextInTheRepositoryLoads) {
  namespace fs = std::filesystem;
  std::size_t loaded = 0;
  fs::recursive_directory_iterator it(CLARENS_SOURCE_DIR), end;
  for (; it != end; ++it) {
    // Skip version control and build trees.
    std::string name = it->path().filename().string();
    if (it->is_directory() &&
        (name == ".git" || name.starts_with("build") ||
         name == ".bench_build")) {
      it.disable_recursion_pending();
      continue;
    }
    if (!it->is_regular_file()) continue;
    std::ifstream in(it->path(), std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    for (const std::string& block : embedded_configs(text)) {
      // The referenced credential/trust files only exist on a
      // deployment; everything else must load as written.
      util::Config parsed = util::Config::parse(block);
      util::Config config;
      for (const std::string& key : parsed.keys()) {
        if (key == "credential_file" || key == "chain_file" ||
            key == "trust_file" || key == "user_map_file" ||
            key == "use_tls") {
          continue;
        }
        for (std::string value : parsed.get_all(key)) {
          config.add(key, std::move(value));
        }
      }
      EXPECT_NO_THROW(config_from(config)) << it->path() << ":\n" << block;
      ++loaded;
    }
  }
  // clarensd's usage comment plus the verify notes' standalone and
  // federation-head configs, at least.
  EXPECT_GE(loaded, 3u);
}

TEST(ConfigLoader, LoadsCredentialTrustAndUserMapFiles) {
  const TestPki& pki = TestPki::instance();
  TempDir tmp;
  std::string cred_path = tmp.path() + "/server.cred";
  std::string ca_path = tmp.path() + "/ca.cert";
  std::string map_path = tmp.path() + "/user_map";
  std::ofstream(cred_path) << pki.server.encode();
  std::ofstream(ca_path) << pki.ca.certificate().encode();
  std::ofstream(map_path) << "joe ; /O=testgrid.org/OU=People ; ;\n";

  util::Config config = util::Config::parse(
      "use_tls true\n"
      "credential_file " + cred_path + "\n" +
      "trust_file " + ca_path + "\n" +
      "user_map_file " + map_path + "\n");
  ClarensConfig out = config_from(config);
  ASSERT_TRUE(out.credential.has_value());
  EXPECT_EQ(out.credential->certificate.subject(),
            pki.server.certificate.subject());
  EXPECT_EQ(out.trust.size(), 1u);
  ASSERT_EQ(out.user_map.size(), 1u);
  EXPECT_EQ(out.user_map[0].system_user, "joe");
}

// Boot a full server from a config file and make one authenticated call.
TEST(ConfigLoader, BootsAServer) {
  const TestPki& pki = TestPki::instance();
  TempDir tmp;
  std::string ca_path = tmp.path() + "/ca.cert";
  std::ofstream(ca_path) << pki.ca.certificate().encode();
  std::string conf_path = tmp.path() + "/clarens.conf";
  std::ofstream(conf_path) << "port 0\n"
                           << "trust_file " << ca_path << "\n"
                           << "allow system *\n"
                           << "allow echo *\n";

  ClarensServer server(load_config_file(conf_path));
  server.start();

  client::ClientOptions options;
  options.port = server.port();
  options.credential = pki.alice;
  options.trust = &pki.trust;
  client::ClarensClient client(options);
  client.connect();
  client.authenticate();
  EXPECT_EQ(client.call("echo.echo", {rpc::Value("booted")}).as_string(),
            "booted");
  server.stop();
}

}  // namespace
}  // namespace clarens::core
