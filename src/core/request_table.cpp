#include "core/request_table.hpp"

namespace clarens::core {

namespace {

RequestState state_from(const std::string& name) {
  for (RequestState state :
       {RequestState::Queued, RequestState::Running, RequestState::Done,
        RequestState::Failed, RequestState::Cancelled}) {
    if (name == to_string(state)) return state;
  }
  throw ParseError("unknown request state: '" + name + "'");
}

}  // namespace

const char* to_string(RequestState state) {
  switch (state) {
    case RequestState::Queued: return "QUEUED";
    case RequestState::Running: return "RUNNING";
    case RequestState::Done: return "DONE";
    case RequestState::Failed: return "FAILED";
    case RequestState::Cancelled: return "CANCELLED";
  }
  return "?";
}

bool is_terminal(RequestState state) {
  return state == RequestState::Done || state == RequestState::Failed ||
         state == RequestState::Cancelled;
}

rpc::Value encode_request(const Request& request) {
  rpc::Value row = rpc::Value::struct_();
  row.set("owner", request.owner);
  row.set("state", std::string(to_string(request.state)));
  row.set("error", request.error);
  row.set("submitted", request.submitted);
  row.set("finished", request.finished);
  return row;
}

void decode_request(const rpc::Value& row, Request& request) {
  request.owner = row.at("owner").as_string();
  request.state = state_from(row.at("state").as_string());
  request.error = row.at("error").as_string();
  request.submitted = row.at("submitted").as_int();
  request.finished = row.at("finished").as_int();
}

}  // namespace clarens::core
