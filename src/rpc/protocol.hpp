// Protocol selection: Clarens servers accept XML-RPC, SOAP and JSON-RPC
// POSTs on the same endpoint, keyed by Content-Type with a body sniff as
// fallback (2005-era clients were sloppy about Content-Type).
#pragma once

#include <string>

#include "rpc/xmlrpc.hpp"

namespace clarens::rpc {

enum class Protocol { XmlRpc, JsonRpc, Soap, Binary };

const char* to_string(Protocol protocol);
/// MIME type for HTTP Content-Type.
const char* content_type(Protocol protocol);

/// Choose the protocol from a Content-Type header value and the body. An
/// XML body under text/xml or no Content-Type is SOAP iff its root
/// element's local name is Envelope.
Protocol detect(std::string_view content_type_header, std::string_view body);

/// Cheap, never-throwing method-name extraction from an unparsed request
/// body — the core server's inline-dispatch predicate reads this at parse
/// time, before deciding which thread runs the full parse + handler.
/// Returns either exactly the method
/// parse_request would dispatch, or "" (the request then always takes
/// the worker path, where the real parser reports any error). XML-RPC
/// and SOAP run the codec's own locating step; JSON-RPC and binary scan
/// the same structure their parsers read.
std::string peek_method(Protocol protocol, std::string_view body);

std::string serialize_request(Protocol protocol, const Request& request);
Request parse_request(Protocol protocol, std::string_view body);
std::string serialize_response(Protocol protocol, const Response& response);
Response parse_response(Protocol protocol, std::string_view body);

/// Arena variants: append the wire form to `out` with no intermediate
/// strings (the server hot path serializes into a reusable per-worker
/// buffer and sends it with a vectored write).
void serialize_request(Protocol protocol, const Request& request,
                       util::Buffer& out);
void serialize_response(Protocol protocol, const Response& response,
                        util::Buffer& out);

}  // namespace clarens::rpc
