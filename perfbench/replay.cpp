#include <cmath>
#include <string>

#include "http/message.hpp"
#include "http/parser.hpp"
#include "util/buffer.hpp"
#include "util/error.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace clarens;

bool same_methods(const rpc::Value& reply,
                  const std::vector<std::string>& expected) {
  if (reply.type() != rpc::Value::Type::Array ||
      reply.as_array().size() != expected.size()) {
    return false;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const rpc::Value& name = reply.as_array()[i];
    if (name.type() != rpc::Value::Type::String ||
        name.as_string() != expected[i]) {
      return false;
    }
  }
  return true;
}

std::string request_wire(rpc::Protocol protocol, const std::string& session,
                         const std::string& method,
                         const std::vector<rpc::Value>& params) {
  rpc::Request rpc_request;
  rpc_request.method = method;
  rpc_request.params = params;
  rpc_request.id = rpc::Value(std::int64_t{1});
  http::Request request;
  request.method = "POST";
  request.target = "/clarens";
  request.headers.set("Content-Type", rpc::content_type(protocol));
  request.headers.set("Host", "127.0.0.1");
  if (!session.empty()) request.headers.set("X-Clarens-Session", session);
  request.body = rpc::serialize_request(protocol, rpc_request);
  return request.serialize();
}

rpc::Value replay(core::ClarensServer& server, const std::string& wire,
                  Tracer::Buffer& spans, std::uint64_t op) {
  const std::uint64_t root = spans.next_id();
  const Clock::time_point begin = Clock::now();
  Clock::time_point mark = begin;
  auto stage = [&](const char* name) {
    Clock::time_point now = Clock::now();
    spans.add(name, spans.next_id(), root, op, mark, now);
    mark = now;
  };

  http::RequestParser parser;
  parser.feed(std::string_view(wire));
  std::optional<http::Request> request = parser.next();
  stage("http.parse");
  if (!request) throw Error("replay: incomplete HTTP request");

  const std::string* content_type = request->headers.find("Content-Type");
  rpc::Protocol protocol = rpc::detect(
      content_type ? *content_type : std::string_view(), request->body);
  rpc::Request rpc_request = rpc::parse_request(protocol, request->body);
  stage("rpc.decode");

  std::shared_ptr<const rpc::Method> method =
      server.registry().find(rpc_request.method);
  if (!method) throw Error("replay: unknown method " + rpc_request.method);
  const std::string* token = request->headers.find("X-Clarens-Session");
  mark = Clock::now();
  std::shared_ptr<const core::Session> session =
      server.sessions().lookup_shared(token ? *token : std::string());
  stage("core.session_check");

  bool allowed = server.acl().check_method(
      method->info.acl_path.empty() ? rpc_request.method
                                    : method->info.acl_path,
      session->identity_dn);
  stage("core.acl_check");
  if (!allowed) throw Error("replay: method ACL denied " + rpc_request.method);

  rpc::CallContext context;
  context.protocol = rpc::to_string(protocol);
  context.identity = session->identity;
  context.session_id = session->id;
  mark = Clock::now();
  rpc::Value result =
      server.registry().dispatch(rpc_request.method, context, rpc_request.params);
  stage("rpc.dispatch");

  util::Buffer out;
  rpc::Response response = rpc::Response::success(result);
  response.id = rpc_request.id;
  rpc::serialize_response(protocol, response, out);
  stage("rpc.encode");
  if (out.readable() == 0) throw Error("replay: empty response");

  spans.add("server.replay", root, 0, op, begin, Clock::now());
  return result;
}

void replay_metrics(const Tracer& tracer, Metrics& layers) {
  std::map<std::string, Metric> self = tracer.self_time_medians();
  static constexpr const char* kStages[] = {
      "http.parse",   "rpc.decode",     "core.session_check",
      "core.acl_check", "rpc.dispatch", "rpc.encode"};
  double stage_sum = 0;
  for (const char* name : kStages) {
    const Metric& m = self[name];
    layers[std::string(name) + "_us"] = m;
    stage_sum += m.value;
  }
  // The replay root's own time is the glue between stages; it belongs to
  // the server's share.
  stage_sum += self["server.replay"].value;
  const double round_trip = self["client.call"].value;
  const Metric total = tracer.duration_medians()["server.replay"];
  const double transport = round_trip - total.value;
  layers["net.transport_us"] = {transport, "us", self["client.call"].samples};
  layers["trace.unaccounted_frac"] = {
      round_trip > 0 ? std::fabs(stage_sum + transport - round_trip) /
                           round_trip
                     : 0,
      "frac", total.samples};
}

}  // namespace perfbench
