// DB-backed sessions with a sharded in-memory read cache.
//
// HTTP is stateless, so Clarens stores session information persistently
// on the server side (paper §1, end of Architecture): clients survive
// server restarts without re-authenticating. Every RPC performs a session
// lookup — the first of the two per-request access checks the Figure-4
// benchmark measures. The database stays the source of truth (writes go
// through it first), but warm lookups are served from a sharded cache of
// decoded sessions so the RPC hot path touches neither the store mutex
// nor the JSON decoder.
//
// Cache coherence: create/renew/attach_proxy write the store and then
// overwrite the cache entry; destroy/reap invalidate. A generation
// counter closes the destroy-vs-concurrent-miss race: a lookup that
// missed records the generation before reading the store and refuses to
// populate the cache if any invalidation happened in between, so a just
// destroyed session can never be resurrected into the cache.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "db/store.hpp"
#include "pki/dn.hpp"
#include "util/sync.hpp"

namespace clarens::core {

struct Session {
  std::string id;
  std::string identity;  // DN string
  /// `identity` pre-parsed at decode time so per-request ACL checks skip
  /// DN string parsing entirely.
  pki::DistinguishedName identity_dn;
  bool via_proxy = false;
  std::int64_t created = 0;
  std::int64_t expires = 0;
  /// Serial of an attached stored proxy, if any (proxy.attach).
  std::string attached_proxy_serial;
};

class SessionManager {
 public:
  /// `store` must outlive the manager. `default_ttl` in seconds. With
  /// `durable_writes`, create/destroy use the store's group-commit
  /// durable path: the call returns only after the mutation's journal
  /// group is fdatasync'ed (concurrent logins share one fsync), so an
  /// acknowledged login survives a server crash.
  SessionManager(db::Store& store, std::int64_t default_ttl = 24 * 3600,
                 bool durable_writes = false);

  /// Mint a session for an authenticated identity.
  Session create(const std::string& identity, bool via_proxy);

  /// Validate and return the session; throws clarens::AuthError when the
  /// token is unknown or expired. Lookup never mutates the store:
  /// expired sessions are only dropped from the cache here, and reclaimed
  /// from the database by reap_expired().
  Session lookup(const std::string& id) const;

  /// Zero-copy variant of lookup(): returns the cached immutable session
  /// record. This is what the RPC hot path uses.
  std::shared_ptr<const Session> lookup_shared(const std::string& id) const;

  /// Extend the expiry of an existing session (proxy renewal semantics).
  void renew(const std::string& id, std::int64_t extra_seconds);

  /// Record an attached proxy (delegation onto an existing session).
  void attach_proxy(const std::string& id, const std::string& proxy_serial);

  /// Returns true if the session existed.
  bool destroy(const std::string& id);

  /// Issue a single-use authentication nonce (system.challenge), valid
  /// for kChallengeTtl seconds.
  std::string issue_challenge();

  /// Consume a nonce issued by issue_challenge(). Single use: the row is
  /// gone afterwards whatever the outcome. Throws clarens::AuthError when
  /// the nonce is unknown or expired.
  void consume_challenge(const std::string& nonce);

  /// Remove all expired sessions and all expired, unanswered challenges
  /// (system.challenge is public, so without this sweep anonymous callers
  /// could grow the store without bound); returns the count reaped.
  std::size_t reap_expired();

  std::size_t active_count() const;

 private:
  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kShardCap = 4096;  // bound memory, not an LRU
  /// Lifetime of an unanswered authentication challenge, in seconds.
  static constexpr std::int64_t kChallengeTtl = 300;

  /// Shard locks are leaves: store reads on the miss path happen before
  /// the insert lock is taken, never under it (docs/CONCURRENCY.md,
  /// level `core.session.shard`).
  struct Shard {
    mutable util::Mutex mutex{util::LockLevel::kCoreSessionShard};
    std::unordered_map<std::string, std::shared_ptr<const Session>> entries
        CLARENS_GUARDED_BY(mutex);
  };

  static std::string encode(const Session& session);
  static Session decode(const std::string& id, const std::string& text);

  Shard& shard_for(const std::string& id) const;
  void cache_put(const Session& session) const;
  /// Insert an already-built immutable record without copying it.
  void cache_put(std::shared_ptr<const Session> session) const;
  void cache_erase(const std::string& id) const;

  db::Store& store_;
  std::int64_t default_ttl_;
  bool durable_writes_;
  mutable Shard shards_[kShards];
  // Bumped before every store erase of a session; see header comment.
  mutable std::atomic<std::uint64_t> invalidations_{1};
};

}  // namespace clarens::core
