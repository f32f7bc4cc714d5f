// XML-RPC (http://www.xmlrpc.com) — the primary Clarens wire protocol and
// the one the paper's Figure-4 benchmark exercises.
//
// The codec is built for the server hot path: parsing streams rpc::Value
// straight out of the request buffer with XmlPullParser (no intermediate
// XML tree), and serialization appends into a caller-owned util::Buffer
// (typically the connection's reusable response arena).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "rpc/value.hpp"
#include "util/buffer.hpp"

namespace clarens::rpc {

class XmlPullParser;

struct Request {
  std::string method;
  std::vector<Value> params;
  /// JSON-RPC correlates responses by id; XML-RPC/SOAP ignore it.
  Value id;
};

struct Response {
  bool is_fault = false;
  Value result;       // when !is_fault
  int fault_code = 0; // when is_fault
  std::string fault_message;
  Value id;

  static Response success(Value result) {
    Response r;
    r.result = std::move(result);
    return r;
  }
  static Response fault(int code, std::string message) {
    Response r;
    r.is_fault = true;
    r.fault_code = code;
    r.fault_message = std::move(message);
    return r;
  }
};

namespace xmlrpc {

/// Append the wire form to `out` (no intermediate strings).
void serialize_request(const Request& request, util::Buffer& out);
void serialize_response(const Response& response, util::Buffer& out);

std::string serialize_request(const Request& request);
Request parse_request(std::string_view body);

std::string serialize_response(const Response& response);
Response parse_response(std::string_view body);

/// The method-locating step parse_request and rpc::peek_method share:
/// reads the <methodCall> StartTag and its first child element, which
/// must be a non-empty <methodName>, and returns the decoded, trimmed
/// name. Throws ParseError otherwise.
std::string locate_method(XmlPullParser& parser);

/// Single <value> element encoding/decoding (shared with SOAP's
/// XML-RPC-compatible value payloads).
std::string serialize_value(const Value& value);
void serialize_value(const Value& value, util::Buffer& out);

/// Decode a <value> from a pull parser positioned just past the
/// StartTag("value") event; consumes through the matching EndTag.
Value parse_value_pull(XmlPullParser& parser);

/// Decode the first <value> child of the element whose StartTag was just
/// read (a <param>), consuming through its EndTag; nullopt when absent.
std::optional<Value> parse_param_pull(XmlPullParser& parser);

}  // namespace xmlrpc
}  // namespace clarens::rpc
