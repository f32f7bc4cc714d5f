// Third-party file transfer (paper §6: "robust file transfer between
// different mass storage facilities").
//
// A client asks the *destination* server to pull a file from a *source*
// Clarens server. The destination authenticates to the source **as the
// requesting user**, using the proxy credential the user previously
// stored on the destination (proxy.store) — exactly the delegation use
// case §2.6 describes ("allows the proxy to be used on behalf of the
// user by others"). Both ends therefore enforce their own ACLs against
// the user's identity: the source checks read access, the destination
// checks write access.
//
// Robustness: DB-backed transfer records (core/request_table.hpp),
// chunked streaming in bounded memory, and post-transfer MD5
// verification against the source's file.md5(). The delegated
// credential is held in memory only, so a transfer that a restart
// interrupted fails and must be resubmitted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/file_service.hpp"
#include "core/proxy_service.hpp"
#include "core/request_table.hpp"
#include "db/store.hpp"

namespace clarens::core {

struct Transfer : Request {
  static constexpr const char* kTable = "transfers";
  static constexpr const char* kNoun = "transfer";

  std::string source_host;
  std::uint16_t source_port = 0;
  bool source_tls = false;
  std::string source_path;
  std::string dest_path;
  std::int64_t bytes = 0;
  bool verified = false;  // md5 matched after completion

  void encode(rpc::Value& row) const;
  void decode(const rpc::Value& row);
};

class TransferService {
 public:
  /// `proxies` supplies delegated credentials; `files` is the local
  /// (destination) file service; `trust` verifies the remote server.
  TransferService(db::Store& store, FileService& files, ProxyService& proxies,
                  const pki::TrustStore& trust, int workers = 2);

  TransferService(const TransferService&) = delete;
  TransferService& operator=(const TransferService&) = delete;

  /// Queue a pull. `proxy_password` unlocks the owner's stored proxy;
  /// it is used immediately to retrieve the credential and never stored.
  /// Throws AuthError when no usable proxy exists.
  std::string start(const pki::DistinguishedName& owner,
                    const std::string& source_url,
                    const std::string& source_path,
                    const std::string& dest_path,
                    const std::string& proxy_password);

  Transfer status(const std::string& transfer_id,
                  const pki::DistinguishedName& who) const {
    return transfers_.status(transfer_id, who);
  }

  std::vector<Transfer> list(const pki::DistinguishedName& owner) const {
    return transfers_.list(owner);
  }

  bool cancel(const std::string& transfer_id,
              const pki::DistinguishedName& who) {
    return transfers_.cancel(transfer_id, who);
  }

  Transfer wait(const std::string& transfer_id,
                const pki::DistinguishedName& who, int timeout_ms = 30000) {
    return transfers_.wait(transfer_id, who, timeout_ms);
  }

  /// Streaming block size (bytes) for file.read pulls.
  static constexpr std::int64_t kBlockSize = 1 << 20;

 private:
  void pull(Transfer& transfer, const ProxyService::StoredProxy& credential);

  FileService& files_;
  ProxyService& proxies_;
  const pki::TrustStore& trust_;
  RequestTable<Transfer> transfers_;  // last: its workers join first
};

}  // namespace clarens::core
