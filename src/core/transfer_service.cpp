#include "core/transfer_service.hpp"

#include "client/client.hpp"
#include "client/peer_pool.hpp"
#include "util/error.hpp"

namespace clarens::core {

void Transfer::encode(rpc::Value& row) const {
  row.set("source_host", source_host);
  row.set("source_port", static_cast<std::int64_t>(source_port));
  row.set("source_tls", source_tls);
  row.set("source_path", source_path);
  row.set("dest_path", dest_path);
  row.set("bytes", bytes);
  row.set("verified", verified);
}

void Transfer::decode(const rpc::Value& row) {
  source_host = row.at("source_host").as_string();
  source_port = static_cast<std::uint16_t>(row.at("source_port").as_int());
  source_tls = row.at("source_tls").as_bool();
  source_path = row.at("source_path").as_string();
  dest_path = row.at("dest_path").as_string();
  bytes = row.at("bytes").as_int();
  verified = row.at("verified").as_bool();
}

TransferService::TransferService(db::Store& store, FileService& files,
                                 ProxyService& proxies,
                                 const pki::TrustStore& trust, int workers)
    : files_(files),
      proxies_(proxies),
      trust_(trust),
      // A queued transfer's credential lives only in its run step, so one
      // resumed after a restart has none: it fails, and the owner must
      // start it again (passwords are never persisted).
      transfers_(store, workers, [](Transfer&) {
        throw Error("interrupted by server restart; resubmit");
      }) {}

std::string TransferService::start(const pki::DistinguishedName& owner,
                                   const std::string& source_url,
                                   const std::string& source_path,
                                   const std::string& dest_path,
                                   const std::string& proxy_password) {
  client::PeerEndpoint source = client::PeerEndpoint::parse(source_url);
  Transfer t;
  t.source_host = source.host;
  t.source_port = source.port;
  t.source_tls = source.tls;
  t.source_path = source_path;
  t.dest_path = dest_path;

  // Unlock the delegation now; the password itself is dropped.
  ProxyService::StoredProxy credential =
      proxies_.retrieve(owner.str(), proxy_password);
  return transfers_.submit(
      owner, std::move(t),
      [this, credential](Transfer& queued) { pull(queued, credential); });
}

void TransferService::pull(Transfer& t,
                           const ProxyService::StoredProxy& credential) {
  pki::DistinguishedName owner = pki::DistinguishedName::parse(t.owner);
  // Authenticate to the source as the user (proxy chain).
  client::ClientOptions options;
  options.host = t.source_host;
  options.port = t.source_port;
  options.use_tls = t.source_tls;
  options.credential = credential.proxy;
  options.chain = {credential.user_cert};
  options.trust = &trust_;
  client::ClarensClient source(options);
  source.connect();
  source.authenticate();

  std::string remote_md5 = source.file_md5(t.source_path);

  // Stream block by block; destination writes are ACL-checked as the
  // owner. Start from a fresh destination file.
  files_.write(t.dest_path, {}, owner);
  for (;;) {
    auto block = source.file_read(t.source_path, t.bytes, kBlockSize);
    if (block.empty()) break;
    files_.append(t.dest_path, block, owner);
    t.bytes += static_cast<std::int64_t>(block.size());
  }
  t.verified = files_.md5(t.dest_path, owner) == remote_md5;
  if (!t.verified) throw Error("md5 mismatch after transfer");
}

}  // namespace clarens::core
