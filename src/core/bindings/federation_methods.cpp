// Federated head routing for file.* (ISSUE 8 tentpole).
//
// On a head node these bindings *replace* the local file.* handlers
// registered by register_file_methods (Registry::bind replaces same-name
// registrations):
//
//   * Bulk data (file.read / file.write) and namespace mutations
//     (file.mkdir / file.rm) come back as redirect envelopes — the
//     client replays the call on the owning storage node with a
//     head-minted node ticket, so the bytes never cross the head.
//     Mutations redirect rather than proxy so a replay decision stays
//     with the client (proxying a non-idempotent call over a pooled
//     connection could double-execute on retry).
//   * Small metadata (file.stat / file.md5 / file.size) is proxied
//     head-side over the per-node keep-alive pool — one client hop.
//   * Namespace-spanning reads (file.ls / file.find) fan out to every
//     storage node concurrently and merge.
//   * file.locate (new) exposes the placement decision itself.
//
// When the ring is empty (no live storage node) every method falls back
// to the local handler it replaced, so a degraded cluster behaves like a
// standalone server rather than erroring.
#include <algorithm>
#include <set>

#include "core/bindings/bindings.hpp"
#include "core/acl.hpp"
#include "core/server.hpp"
#include "core/vo.hpp"
#include "federation/replicator.hpp"
#include "federation/router.hpp"
#include "rpc/binding.hpp"
#include "rpc/fault.hpp"
#include "util/error.hpp"

namespace clarens::core::bindings {

namespace {

/// Head-side pre-check of the *file* ACL before a ticket is minted: a
/// caller the head would deny locally never receives a capability to
/// present elsewhere.
void check_file_access(ClarensServer& server, const rpc::CallContext& context,
                       const std::string& path, bool write) {
  pki::DistinguishedName dn = caller_dn(context);
  bool ok = write ? server.acl().check_file_write(path, dn)
                  : server.acl().check_file_read(path, dn);
  if (!ok && !server.vo().is_root_admin(dn)) {
    throw AccessError(std::string("file ") + (write ? "write" : "read") +
                      " access denied: " + path);
  }
}

std::string mint(federation::Router& router, const rpc::CallContext& context,
                 const std::string& scope, bool write) {
  return router.mint_ticket(context.identity, context.via_proxy,
                            context.proxy_serial, scope, write);
}

rpc::RedirectResult redirect_to(federation::Router& router,
                                const rpc::CallContext& context,
                                const federation::NodeInfo& node,
                                const std::string& path, bool write) {
  rpc::RedirectResult redirect;
  redirect.url = node.url;
  redirect.scope = router.prefix_of(path);
  redirect.ticket = mint(router, context, redirect.scope, write);
  return redirect;
}

/// Fan a read-only namespace call out to every storage node and hand the
/// per-node replies to `merge`. Nodes that fail with "not found" are
/// normal (the path simply isn't placed there); if *every* node fails,
/// the first error is rethrown as a fault.
std::vector<rpc::Value> fan_out_collect(federation::Router& router,
                                        const rpc::CallContext& context,
                                        const std::string& method,
                                        const std::string& path,
                                        const std::vector<rpc::Value>& params) {
  std::vector<federation::NodeInfo> nodes = router.storage_nodes();
  std::vector<client::FanOutReply> replies = router.fan_out(
      nodes, method, params, mint(router, context, "/", /*write=*/false));
  std::vector<rpc::Value> results;
  std::string first_error;
  for (auto& reply : replies) {
    if (reply.ok) {
      results.push_back(std::move(reply.result));
    } else if (first_error.empty()) {
      first_error = reply.error;
    }
  }
  if (results.empty() && !replies.empty()) {
    throw rpc::Fault(rpc::kFaultNotFound,
                     method + " '" + path + "' failed on every storage node: " +
                         first_error);
  }
  return results;
}

/// Record the intent of a write/append redirect in the layout table
/// before the client ever reaches the storage node: the replicator now
/// expects a commit for `path` on `primary` and treats every other
/// replica as stale.
void note_write(ClarensServer& server, const rpc::CallContext& context,
                const std::string& path, const federation::NodeInfo& primary) {
  server.replicator()->note_write(
      path, primary.id,
      {context.identity, context.via_proxy, context.proxy_serial});
}

}  // namespace

void register_federation_methods(ClarensServer& server,
                                 federation::Router& router,
                                 rpc::Registry& registry) {
  ClarensServer* s = &server;
  federation::Router* r = &router;
  // Each binding below captures, as `fallback`, the standalone handler it
  // replaces: it answers whenever no storage node owns the path.

  registry.bind(
      "file.read",
      [s, r, fallback = registry.find("file.read")](
          const rpc::CallContext& context, const std::string& path,
          std::int64_t offset, std::int64_t length) -> rpc::Value {
        if (auto owner = s->replicator()->pick_read_node(path)) {
          check_file_access(*s, context, path, /*write=*/false);
          return redirect_to(*r, context, *owner, path, /*write=*/false)
              .to_value();
        }
        return fallback->handler(context, {rpc::Value(path), rpc::Value(offset),
                                           rpc::Value(length)});
      },
      {.help = "Read a byte range (redirects to the owning storage node)",
       .params = {"path", "offset", "length"},
       .acl_path = "file.read"});

  registry.bind(
      "file.write",
      [s, r, fallback = registry.find("file.write")](
          const rpc::CallContext& context, const std::string& path,
          rpc::Blob data) -> rpc::Value {
        if (auto owner = r->route(path)) {
          check_file_access(*s, context, path, /*write=*/true);
          note_write(*s, context, path, *owner);
          return redirect_to(*r, context, *owner, path, /*write=*/true)
              .to_value();
        }
        return fallback->handler(
            context, {rpc::Value(path),
                      rpc::Value(std::vector<std::uint8_t>(data.bytes.begin(),
                                                           data.bytes.end()))});
      },
      {.help = "Create or overwrite a file (redirects to the owning node)",
       .params = {"path", "data"},
       .acl_path = "file.write"});

  registry.bind(
      "file.append",
      [s, r, fallback = registry.find("file.append")](
          const rpc::CallContext& context, const std::string& path,
          rpc::Blob data) -> rpc::Value {
        if (auto owner = r->route(path)) {
          check_file_access(*s, context, path, /*write=*/true);
          note_write(*s, context, path, *owner);
          return redirect_to(*r, context, *owner, path, /*write=*/true)
              .to_value();
        }
        return fallback->handler(
            context, {rpc::Value(path),
                      rpc::Value(std::vector<std::uint8_t>(data.bytes.begin(),
                                                           data.bytes.end()))});
      },
      {.help = "Append to a file (redirects to the owning node)",
       .params = {"path", "data"},
       .acl_path = "file.write"});

  registry.bind(
      "file.mkdir",
      [s, r, fallback = registry.find("file.mkdir")](
          const rpc::CallContext& context,
          const std::string& path) -> rpc::Value {
        if (auto owner = r->route(path)) {
          check_file_access(*s, context, path, /*write=*/true);
          return redirect_to(*r, context, *owner, path, /*write=*/true)
              .to_value();
        }
        return fallback->handler(context, {rpc::Value(path)});
      },
      {.help = "Create a directory (redirects to the owning node)",
       .params = {"path"},
       .acl_path = "file.mkdir"});

  registry.bind(
      "file.rm",
      [s, r, fallback = registry.find("file.rm")](
          const rpc::CallContext& context,
          const std::string& path) -> rpc::Value {
        if (auto owner = r->route(path)) {
          check_file_access(*s, context, path, /*write=*/true);
          // The client removes the primary copy; the replicator purges
          // the other replicas and the layout rows underneath `path`.
          s->replicator()->note_remove(path);
          return redirect_to(*r, context, *owner, path, /*write=*/true)
              .to_value();
        }
        return fallback->handler(context, {rpc::Value(path)});
      },
      {.help = "Remove a file or tree (redirects to the owning node)",
       .params = {"path"},
       .acl_path = "file.rm"});

  // Small metadata: one proxied hop over the keep-alive peer pool beats
  // bouncing the client (all three are idempotent, so a stale pooled
  // connection is retried safely by the peer client).
  for (const char* name :
       {"file.stat", "file.md5", "file.size", "file.checksum"}) {
    std::string method = name;
    registry.bind(
        method,
        [s, r, method, fallback = registry.find(method)](
            const rpc::CallContext& context,
          const std::string& path) -> rpc::Value {
          std::vector<rpc::Value> params = {rpc::Value(path)};
          if (auto owner = s->replicator()->pick_read_node(path)) {
            check_file_access(*s, context, path, /*write=*/false);
            std::string ticket =
                mint(*r, context, r->prefix_of(path), /*write=*/false);
            try {
              return r->call_on(*owner, method, params, ticket);
            } catch (const SystemError&) {
              // The node did not answer; mark it suspect so the client's
              // retry of this call lands on a healthy replica.
              s->replicator()->report_failure(owner->url);
              throw;
            }
          }
          return fallback->handler(context, params);
        },
        {.help = std::string(name) + " proxied to the owning storage node",
         .params = {"path"},
         .acl_path = method});
  }

  registry.bind(
      "file.ls",
      [s, r, fallback = registry.find("file.ls")](
          const rpc::CallContext& context,
          const std::string& path) -> rpc::Value {
        if (r->storage_nodes().empty()) {
          return fallback->handler(context, {rpc::Value(path)});
        }
        check_file_access(*s, context, path, /*write=*/false);
        // One namespace, many nodes: merge the per-node listings and
        // dedupe by entry name (directories materialize on several
        // nodes; their listings differ, their names collide).
        std::vector<rpc::Value> listings = fan_out_collect(
            *r, context, "file.ls", path, {rpc::Value(path)});
        rpc::Value out = rpc::Value::array();
        std::set<std::string> seen;
        for (auto& listing : listings) {
          for (const auto& entry : listing.as_array()) {
            if (seen.insert(entry.at("name").as_string()).second) {
              out.push(entry);
            }
          }
        }
        return out;
      },
      {.help = "Directory listing merged across storage nodes",
       .params = {"path"},
       .acl_path = "file.ls"});

  registry.bind(
      "file.find",
      [s, r, fallback = registry.find("file.find")](
          const rpc::CallContext& context, const std::string& path,
          const std::string& pattern) -> rpc::Value {
        if (r->storage_nodes().empty()) {
          return fallback->handler(context,
                                   {rpc::Value(path), rpc::Value(pattern)});
        }
        check_file_access(*s, context, path, /*write=*/false);
        std::vector<rpc::Value> per_node =
            fan_out_collect(*r, context, "file.find", path,
                            {rpc::Value(path), rpc::Value(pattern)});
        std::set<std::string> merged;
        for (auto& hits : per_node) {
          for (const auto& hit : hits.as_array()) {
            merged.insert(hit.as_string());
          }
        }
        rpc::Value out = rpc::Value::array();
        for (const auto& hit : merged) out.push(hit);
        return out;
      },
      {.help = "Recursive filename search fanned out across storage nodes",
       .params = {"path", "pattern"},
       .acl_path = "file.find"});

  registry.bind(
      "file.locate",
      [r](const rpc::CallContext&, const std::string& path) {
        rpc::Value v = rpc::Value::struct_();
        v.set("prefix", r->prefix_of(path));
        rpc::Value owners = rpc::Value::array();
        for (const auto& node : r->route_replicas(path)) {
          rpc::Value o = rpc::Value::struct_();
          o.set("id", node.id);
          o.set("url", node.url);
          owners.push(o);
        }
        v.set("owners", owners);
        return rpc::StructResult{std::move(v)};
      },
      {.help = "Placement decision: which storage nodes own a path",
       .params = {"path"}});
}

}  // namespace clarens::core::bindings
