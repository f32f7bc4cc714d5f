// Unit tests for the DB-backed session manager.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "db/store.hpp"
#include "test_fixtures.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"

namespace clarens::core {
namespace {

using clarens::testing::TempDir;

TEST(Sessions, CreateAndLookup) {
  db::Store store;
  SessionManager sessions(store);
  Session created = sessions.create("/O=x/CN=alice", false);
  EXPECT_FALSE(created.id.empty());
  Session found = sessions.lookup(created.id);
  EXPECT_EQ(found.identity, "/O=x/CN=alice");
  EXPECT_FALSE(found.via_proxy);
  EXPECT_GT(found.expires, found.created);
}

TEST(Sessions, LookupUnknownThrowsAuthError) {
  db::Store store;
  SessionManager sessions(store);
  EXPECT_THROW(sessions.lookup("nope"), AuthError);
  EXPECT_THROW(sessions.lookup(""), AuthError);
}

TEST(Sessions, ExpiredSessionRejectedAndReaped) {
  db::Store store;
  SessionManager sessions(store, /*default_ttl=*/-1);  // born expired
  Session s = sessions.create("/O=x/CN=a", false);
  EXPECT_THROW(sessions.lookup(s.id), AuthError);
  // lookup is a read: the expired row stays in the store until reaped.
  EXPECT_EQ(sessions.active_count(), 1u);
  EXPECT_EQ(sessions.reap_expired(), 1u);
  EXPECT_EQ(sessions.active_count(), 0u);
  EXPECT_THROW(sessions.lookup(s.id), AuthError);
}

TEST(Sessions, RenewExtendsExpiry) {
  db::Store store;
  SessionManager sessions(store, 100);
  Session s = sessions.create("/O=x/CN=a", false);
  std::int64_t before = sessions.lookup(s.id).expires;
  sessions.renew(s.id, 100000);
  EXPECT_GT(sessions.lookup(s.id).expires, before);
}

TEST(Sessions, AttachProxyMarksDelegation) {
  db::Store store;
  SessionManager sessions(store);
  Session s = sessions.create("/O=x/CN=a", false);
  sessions.attach_proxy(s.id, "serial-123");
  Session updated = sessions.lookup(s.id);
  EXPECT_TRUE(updated.via_proxy);
  EXPECT_EQ(updated.attached_proxy_serial, "serial-123");
}

TEST(Sessions, DestroyRemoves) {
  db::Store store;
  SessionManager sessions(store);
  Session s = sessions.create("/O=x/CN=a", false);
  EXPECT_TRUE(sessions.destroy(s.id));
  EXPECT_FALSE(sessions.destroy(s.id));
  EXPECT_THROW(sessions.lookup(s.id), AuthError);
}

TEST(Sessions, ReapExpiredSweepsOnlyExpired) {
  db::Store store;
  SessionManager live(store, 10000);
  SessionManager dead(store, -1);
  live.create("/O=x/CN=keeper", false);
  dead.create("/O=x/CN=goner-1", false);
  dead.create("/O=x/CN=goner-2", false);
  EXPECT_EQ(live.reap_expired(), 2u);
  EXPECT_EQ(live.active_count(), 1u);
}

TEST(Sessions, ChallengesAreSingleUseAndExpire) {
  db::Store store;
  SessionManager sessions(store);
  std::string nonce = sessions.issue_challenge();
  EXPECT_NE(nonce, sessions.issue_challenge());
  EXPECT_NO_THROW(sessions.consume_challenge(nonce));
  EXPECT_THROW(sessions.consume_challenge(nonce), AuthError);
  EXPECT_THROW(sessions.consume_challenge("never-issued"), AuthError);
  // An expired nonce is refused, and consumed all the same.
  store.put("challenges", "stale", R"({"expires":1})");
  EXPECT_THROW(sessions.consume_challenge("stale"), AuthError);
  EXPECT_FALSE(store.get("challenges", "stale").has_value());
}

TEST(Sessions, ReapSweepsExpiredUnansweredChallenges) {
  // system.challenge is public: rows nobody answers must not accumulate.
  db::Store store;
  SessionManager sessions(store);
  std::string live = sessions.issue_challenge();
  store.put("challenges", "stale", R"({"expires":1})");
  EXPECT_EQ(sessions.reap_expired(), 1u);
  EXPECT_FALSE(store.get("challenges", "stale").has_value());
  EXPECT_TRUE(store.get("challenges", live).has_value());
  EXPECT_NO_THROW(sessions.consume_challenge(live));
}

TEST(Sessions, ConcurrentConsumersSpendEachNonceOnce) {
  // Two system.auth calls racing on one nonce: exactly one may spend it.
  db::Store store;
  SessionManager sessions(store);
  constexpr int kNonces = 200;
  constexpr int kThreads = 8;
  std::vector<std::string> nonces;
  for (int i = 0; i < kNonces; ++i) nonces.push_back(sessions.issue_challenge());
  std::array<std::atomic<int>, kNonces> spent{};
  std::atomic<int> ready{0};
  std::vector<util::Thread> consumers;
  for (int t = 0; t < kThreads; ++t) {
    consumers.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kNonces; ++i) {
        try {
          sessions.consume_challenge(nonces[static_cast<std::size_t>(i)]);
          spent[static_cast<std::size_t>(i)].fetch_add(1);
        } catch (const AuthError&) {
        }
      }
    });
  }
  for (util::Thread& consumer : consumers) consumer.join();
  for (int i = 0; i < kNonces; ++i) {
    EXPECT_EQ(spent[static_cast<std::size_t>(i)].load(), 1) << "nonce " << i;
  }
}

TEST(Sessions, PersistAcrossStoreReopen) {
  TempDir tmp;
  std::string id;
  {
    db::Store store(tmp.path());
    SessionManager sessions(store);
    id = sessions.create("/O=x/CN=alice", true).id;
  }
  {
    db::Store store(tmp.path());
    SessionManager sessions(store);
    Session s = sessions.lookup(id);
    EXPECT_EQ(s.identity, "/O=x/CN=alice");
    EXPECT_TRUE(s.via_proxy);
  }
}

TEST(Sessions, TokensAreUnique) {
  db::Store store;
  SessionManager sessions(store);
  std::set<std::string> ids;
  for (int i = 0; i < 100; ++i) {
    ids.insert(sessions.create("/O=x/CN=a", false).id);
  }
  EXPECT_EQ(ids.size(), 100u);
}

}  // namespace
}  // namespace clarens::core
