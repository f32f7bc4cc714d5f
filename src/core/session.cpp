#include "core/session.hpp"

#include <functional>

#include "crypto/random.hpp"
#include "rpc/jsonrpc.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace clarens::core {

namespace {
constexpr const char* kTable = "sessions";
constexpr const char* kChallengeTable = "challenges";

/// A challenge row is {"expires": <unix time>}.
std::int64_t challenge_expiry(const std::string& text) {
  return rpc::jsonrpc::parse_value(text).at("expires").as_int();
}
}  // namespace

SessionManager::SessionManager(db::Store& store, std::int64_t default_ttl,
                               bool durable_writes)
    : store_(store),
      default_ttl_(default_ttl),
      durable_writes_(durable_writes) {}

namespace {

/// Append `s` as a JSON string literal, escaping exactly the byte set the
/// jsonrpc parser understands (quote, backslash, control characters).
void append_json_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[(c >> 4) & 0xf]);
          out.push_back(kHex[c & 0xf]);
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

}  // namespace

std::string SessionManager::encode(const Session& session) {
  // Emitted directly rather than through an rpc::Value struct: session
  // creation is on the login path and the benchmark floor, and the
  // generic serializer costs a map of Values per call. The output stays
  // parse-compatible with jsonrpc::parse_value, which decode() uses.
  std::string out;
  out.reserve(96 + session.identity.size() +
              session.attached_proxy_serial.size());
  out += "{\"identity\":";
  append_json_string(out, session.identity);
  out += ",\"via_proxy\":";
  out += session.via_proxy ? "true" : "false";
  out += ",\"created\":";
  out += std::to_string(session.created);
  out += ",\"expires\":";
  out += std::to_string(session.expires);
  out += ",\"proxy_serial\":";
  append_json_string(out, session.attached_proxy_serial);
  out += "}";
  return out;
}

Session SessionManager::decode(const std::string& id, const std::string& text) {
  rpc::Value v = rpc::jsonrpc::parse_value(text);
  Session session;
  session.id = id;
  session.identity = v.at("identity").as_string();
  session.identity_dn = pki::DistinguishedName::parse(session.identity);
  session.via_proxy = v.at("via_proxy").as_bool();
  session.created = v.at("created").as_int();
  session.expires = v.at("expires").as_int();
  session.attached_proxy_serial = v.at("proxy_serial").as_string();
  return session;
}

SessionManager::Shard& SessionManager::shard_for(const std::string& id) const {
  return shards_[std::hash<std::string>{}(id) % kShards];
}

void SessionManager::cache_put(const Session& session) const {
  cache_put(std::make_shared<const Session>(session));
}

void SessionManager::cache_put(std::shared_ptr<const Session> session) const {
  Shard& shard = shard_for(session->id);
  util::LockGuard lock(shard.mutex);
  if (shard.entries.size() >= kShardCap) shard.entries.clear();
  shard.entries[session->id] = std::move(session);
}

void SessionManager::cache_erase(const std::string& id) const {
  Shard& shard = shard_for(id);
  util::LockGuard lock(shard.mutex);
  shard.entries.erase(id);
}

Session SessionManager::create(const std::string& identity, bool via_proxy) {
  // Build the immutable record once and share it between the write-through
  // store put and the cache insert; the old path re-copied the session
  // into the cache after encoding it through the generic serializer.
  auto session = std::make_shared<Session>();
  session->id = crypto::random_token(16);
  session->identity = identity;
  session->identity_dn = pki::DistinguishedName::parse(identity);
  session->via_proxy = via_proxy;
  session->created = util::unix_now();
  session->expires = session->created + default_ttl_;
  // encode() produces an rvalue, so the store takes the record without a
  // copy. The durable path rides the store's group commit: concurrent
  // logins share one fdatasync instead of paying one each.
  if (durable_writes_) {
    store_.put_durable(kTable, session->id, encode(*session));
  } else {
    store_.put(kTable, session->id, encode(*session));
  }
  Session out = *session;
  cache_put(std::shared_ptr<const Session>(std::move(session)));
  return out;
}

Session SessionManager::lookup(const std::string& id) const {
  return *lookup_shared(id);
}

std::shared_ptr<const Session> SessionManager::lookup_shared(
    const std::string& id) const {
  Shard& shard = shard_for(id);
  {
    util::LockGuard lock(shard.mutex);
    auto it = shard.entries.find(id);
    if (it != shard.entries.end()) {
      std::shared_ptr<const Session> session = it->second;
      if (session->expires < util::unix_now()) {
        // Lazy expiry: drop the cache entry only. The database copy is
        // left for reap_expired() — lookup is a read, not a mutation.
        shard.entries.erase(it);
        throw AuthError("session expired");
      }
      return session;
    }
  }

  // Miss: read through to the store. Record the invalidation generation
  // first — if a destroy lands between our read and our insert, skip the
  // insert rather than cache a deleted session.
  std::uint64_t gen = invalidations_.load(std::memory_order_acquire);
  auto text = store_.get(kTable, id);
  if (!text) throw AuthError("no such session");
  auto session = std::make_shared<const Session>(decode(id, *text));
  if (session->expires < util::unix_now()) throw AuthError("session expired");
  if (invalidations_.load(std::memory_order_acquire) == gen) {
    util::LockGuard lock(shard.mutex);
    if (shard.entries.size() >= kShardCap) shard.entries.clear();
    shard.entries[id] = session;
  }
  return session;
}

void SessionManager::renew(const std::string& id, std::int64_t extra_seconds) {
  Session session = lookup(id);
  session.expires = util::unix_now() + extra_seconds;
  store_.put(kTable, id, encode(session));
  cache_put(session);
}

void SessionManager::attach_proxy(const std::string& id,
                                  const std::string& proxy_serial) {
  Session session = lookup(id);
  session.attached_proxy_serial = proxy_serial;
  session.via_proxy = true;
  store_.put(kTable, id, encode(session));
  cache_put(session);
}

bool SessionManager::destroy(const std::string& id) {
  // Bump the generation before touching the store so an in-flight miss
  // that already read the old row cannot re-populate the cache.
  invalidations_.fetch_add(1, std::memory_order_release);
  bool existed = durable_writes_ ? store_.erase_durable(kTable, id)
                                 : store_.erase(kTable, id);
  cache_erase(id);
  return existed;
}

std::string SessionManager::issue_challenge() {
  std::string nonce = crypto::random_token(24);
  std::int64_t expires = util::unix_now() + kChallengeTtl;
  store_.put(kChallengeTable, nonce,
             "{\"expires\":" + std::to_string(expires) + "}");
  return nonce;
}

void SessionManager::consume_challenge(const std::string& nonce) {
  auto text = store_.get(kChallengeTable, nonce);
  // Single use: of concurrent consumers, only the one whose erase removed
  // the nonce may spend it.
  if (!text || !store_.erase(kChallengeTable, nonce)) {
    throw AuthError("unknown challenge");
  }
  if (challenge_expiry(*text) < util::unix_now()) {
    throw AuthError("challenge expired");
  }
}

std::size_t SessionManager::reap_expired() {
  std::size_t reaped = 0;
  std::int64_t now = util::unix_now();
  invalidations_.fetch_add(1, std::memory_order_release);
  for (const auto& id : store_.keys(kTable)) {
    auto text = store_.get(kTable, id);
    if (!text) continue;
    if (decode(id, *text).expires < now) {
      store_.erase(kTable, id);
      cache_erase(id);
      ++reaped;
    }
  }
  for (const auto& nonce : store_.keys(kChallengeTable)) {
    auto text = store_.get(kChallengeTable, nonce);
    if (text && challenge_expiry(*text) < now) {
      store_.erase(kChallengeTable, nonce);
      ++reaped;
    }
  }
  return reaped;
}

std::size_t SessionManager::active_count() const { return store_.size(kTable); }

}  // namespace clarens::core
