// SOAP 1.1 subset: an Envelope/Body wrapping, rpc-style method element,
// XML-RPC-compatible <value> parameter payloads, and SOAP Faults.
//
// Clarens exposed SOAP alongside XML-RPC so AXIS/Java clients could call
// the same services; this codec preserves that duality — the registry and
// handlers are identical, only the envelope differs.
#pragma once

#include <string>

#include "rpc/xmlrpc.hpp"  // Request/Response structs
#include "util/buffer.hpp"

namespace clarens::rpc::soap {

/// Append the wire form to `out` (no intermediate strings).
void serialize_request(const Request& request, util::Buffer& out);
void serialize_response(const Response& response, util::Buffer& out);

/// The locating step parse_request, parse_response and rpc::peek_method
/// share: reads the <Envelope> StartTag, skips to <Body> (past any
/// <Header>) and reads the first element inside it — the method element
/// of a request, Response or Fault of a response. Returns its local name
/// (a view into the parsed text). Throws ParseError otherwise.
std::string_view locate_call(XmlPullParser& parser);

std::string serialize_request(const Request& request);
Request parse_request(std::string_view body);

std::string serialize_response(const Response& response);
Response parse_response(std::string_view body);

}  // namespace clarens::rpc::soap
