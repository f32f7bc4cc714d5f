// system.* — introspection, authentication bootstrap, server status —
// plus echo.echo, the trivial method of the paper's Globus comparison.
#include "core/bindings/bindings.hpp"

#include "core/server.hpp"
#include "crypto/rsa.hpp"
#include "rpc/fault.hpp"
#include "util/clock.hpp"
#include "util/hex.hpp"

namespace clarens::core::bindings {

void register_system_methods(ClarensServer& server) {
  ClarensServer* srv = &server;
  rpc::Registry& registry = server.registry();

  registry.bind(
      "system.list_methods",
      [srv] { return srv->registry().list(); },
      {.help = "List every method registered on this server"});

  registry.bind(
      "system.method_help",
      [srv](const std::string& method) {
        return srv->registry().info(method).help;
      },
      {.help = "One-line description of a method", .params = {"method"}});

  registry.bind(
      "system.method_signature",
      [srv](const std::string& method) {
        return srv->registry().info(method).signature;
      },
      {.help = "Type signature of a method", .params = {"method"}});

  registry.bind(
      "system.ping", [] { return std::string("pong"); },
      {.help = "Liveness probe (no session required)", .is_public = true});

  registry.bind(
      "system.whoami",
      [](const rpc::CallContext& context) {
        rpc::Value v = rpc::Value::struct_();
        v.set("dn", context.identity);
        v.set("via_proxy", context.via_proxy);
        v.set("protocol", context.protocol);
        return rpc::StructResult{std::move(v)};
      },
      {.help = "Authenticated identity of the caller"});

  registry.bind(
      "system.server_info",
      [srv] {
        rpc::Value v = rpc::Value::struct_();
        v.set("framework", std::string("clarens-cpp"));
        v.set("version", std::string("1.0"));
        v.set("methods", static_cast<std::int64_t>(srv->registry().size()));
        v.set("encrypted", srv->config().use_tls);
        v.set("farm", srv->config().farm);
        v.set("node", srv->config().node);
        return rpc::StructResult{std::move(v)};
      },
      {.help = "Server identification and capabilities"});

  registry.bind(
      "system.cluster",
      [srv] {
        rpc::Value v = rpc::Value::struct_();
        v.set("role", std::string(to_string(srv->role())));
        v.set("farm", srv->config().farm);
        v.set("node", srv->config().node);
        rpc::Value nodes = rpc::Value::array();
        if (federation::Router* router = srv->router()) {
          for (const auto& info : router->storage_nodes()) {
            rpc::Value n = rpc::Value::struct_();
            n.set("id", info.id);
            n.set("url", info.url);
            n.set("capacity", info.capacity);
            nodes.push(n);
          }
        }
        v.set("storage_nodes", nodes);
        return rpc::StructResult{std::move(v)};
      },
      {.help = "Federation role and live storage-node membership"});

  registry.bind(
      "system.stats",
      [srv] {
        rpc::Value v = rpc::Value::struct_();
        v.set("requests_served",
              static_cast<std::int64_t>(srv->requests_served()));
        v.set("active_sessions",
              static_cast<std::int64_t>(srv->sessions().active_count()));
        v.set("uptime_seconds", util::unix_now() - srv->started_at());
        v.set("methods", static_cast<std::int64_t>(srv->registry().size()));
        return rpc::StructResult{std::move(v)};
      },
      {.help = "Operational counters (requests, sessions, uptime)"});

  registry.bind(
      "system.challenge",
      [srv] { return srv->sessions().issue_challenge(); },
      {.help = "Issue a single-use authentication nonce", .is_public = true});

  registry.bind(
      "system.auth",
      [srv](const rpc::CallContext& context,
            const std::optional<std::string>& nonce,
            const std::optional<std::vector<std::string>>& chain_texts,
            const std::optional<std::string>& signature_b64) {
        if (!nonce) {
          // TLS path: the channel already verified the client chain.
          if (context.identity.empty()) {
            throw rpc::Fault(rpc::kFaultAuth,
                             "no certificate presented on this connection");
          }
          return srv->sessions()
              .create(context.identity, context.via_proxy)
              .id;
        }
        // Challenge path (plaintext connections):
        //   params = [nonce, chain (array of certificate strings),
        //             signature (base64 of sig over the nonce)].
        srv->sessions().consume_challenge(*nonce);
        if (!chain_texts || !signature_b64) {
          throw rpc::Fault(rpc::kFaultType,
                           "system.auth needs [nonce, chain, signature]");
        }
        std::vector<pki::Certificate> chain;
        for (const auto& cert_text : *chain_texts) {
          chain.push_back(pki::Certificate::decode(cert_text));
        }
        if (chain.empty()) throw rpc::Fault(rpc::kFaultAuth, "empty chain");
        auto verdict = srv->config().trust.verify(chain, util::unix_now());
        if (!verdict.ok) {
          throw rpc::Fault(rpc::kFaultAuth,
                           "certificate rejected: " + verdict.error);
        }
        std::vector<std::uint8_t> signature =
            util::base64_decode(*signature_b64);
        if (!crypto::rsa_verify(chain.front().public_key(), *nonce,
                                signature)) {
          throw rpc::Fault(rpc::kFaultAuth, "challenge signature invalid");
        }
        return srv->sessions()
            .create(verdict.identity.str(), verdict.via_proxy)
            .id;
      },
      {.help = "Authenticate with a certificate chain; returns a session "
               "token",
       .params = {"nonce", "chain", "signature"},
       .is_public = true});

  registry.bind(
      "system.logout",
      [srv](const rpc::CallContext& context) {
        return srv->sessions().destroy(context.session_id);
      },
      {.help = "Destroy the calling session"});

  registry.bind(
      "echo.echo", [](const rpc::Value& value) { return value; },
      {.help = "Return the first parameter unchanged", .params = {"value"}});
}

}  // namespace clarens::core::bindings
