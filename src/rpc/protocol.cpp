#include "rpc/protocol.hpp"

#include "rpc/binrpc.hpp"
#include "rpc/jsonrpc.hpp"
#include "rpc/soap.hpp"
#include "rpc/xml.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace clarens::rpc {

const char* to_string(Protocol protocol) {
  switch (protocol) {
    case Protocol::XmlRpc: return "xmlrpc";
    case Protocol::JsonRpc: return "jsonrpc";
    case Protocol::Soap: return "soap";
    case Protocol::Binary: return "binrpc";
  }
  return "?";
}

const char* content_type(Protocol protocol) {
  switch (protocol) {
    case Protocol::XmlRpc: return "text/xml";
    case Protocol::JsonRpc: return "application/json";
    case Protocol::Soap: return "application/soap+xml";
    case Protocol::Binary: return "application/x-clarens-binary";
  }
  return "application/octet-stream";
}

namespace {

/// True when the document's root element is a SOAP Envelope, by local
/// name (any namespace prefix). Only the prolog and the root's start tag
/// are read. A body that is not well-formed up to there is not SOAP; the
/// XML-RPC parser then reports the error.
bool soap_root(std::string_view body) {
  try {
    XmlPullParser parser(body);
    return parser.next() == XmlPullParser::Event::StartTag &&
           parser.local_name() == "Envelope";
  } catch (const ParseError&) {
    return false;
  }
}

}  // namespace

Protocol detect(std::string_view content_type_header, std::string_view body) {
  // The binary frame is unambiguous: match its magic before anything else.
  if (body.size() >= 4 && body.substr(0, 4) == std::string_view(binrpc::kMagic, 4)) {
    return Protocol::Binary;
  }
  std::string_view ct = util::trim(content_type_header);
  if (util::icontains(ct, "x-clarens-binary")) return Protocol::Binary;
  if (util::icontains(ct, "json")) return Protocol::JsonRpc;
  if (util::icontains(ct, "soap")) return Protocol::Soap;
  if (util::icontains(ct, "xml")) {
    // Both XML-RPC and SOAP arrive as text/xml from old clients; the root
    // element tells them apart.
    return soap_root(body) ? Protocol::Soap : Protocol::XmlRpc;
  }
  // Content-Type missing or generic: sniff the body.
  std::string_view trimmed = util::trim(body);
  if (!trimmed.empty() && (trimmed.front() == '{' || trimmed.front() == '[')) {
    return Protocol::JsonRpc;
  }
  return soap_root(trimmed) ? Protocol::Soap : Protocol::XmlRpc;
}

std::string peek_method(Protocol protocol, std::string_view body) {
  switch (protocol) {
    case Protocol::Binary: {
      // frame header (6) | u8 string tag | u32 len | method bytes.
      if (body.size() < 11 || body[6] != 4) return {};
      std::uint32_t len = (static_cast<std::uint32_t>(
                               static_cast<unsigned char>(body[7]))
                           << 24) |
                          (static_cast<std::uint32_t>(
                               static_cast<unsigned char>(body[8]))
                           << 16) |
                          (static_cast<std::uint32_t>(
                               static_cast<unsigned char>(body[9]))
                           << 8) |
                          static_cast<std::uint32_t>(
                              static_cast<unsigned char>(body[10]));
      if (len == 0 || len > 256 || body.size() < 11 + len) return {};
      return std::string(body.substr(11, len));
    }
    case Protocol::XmlRpc:
    case Protocol::Soap:
      // The codec's own method-locating step, so the peek names exactly
      // the method parse_request will dispatch. It stops at the method
      // name; the rest of the body is left to the full parse.
      try {
        XmlPullParser parser(body);
        if (protocol == Protocol::XmlRpc) return xmlrpc::locate_method(parser);
        return std::string(soap::locate_call(parser));
      } catch (const ParseError&) {
        return {};
      }
    case Protocol::JsonRpc: {
      // Depth-aware scan: only a "method" key of the top-level object
      // counts, so a nested {"params":{"method":...}} cannot spoof the
      // inline-dispatch decision and run another method on the reactor. The
      // parser's Value::set overwrites duplicate keys (last wins), so on
      // duplicates keep the last candidate for the same reason.
      constexpr std::string_view kWs = " \t\r\n";
      std::size_t i = body.find_first_not_of(kWs);
      if (i == std::string_view::npos || body[i] != '{') return {};
      int depth = 0;
      bool method_key = false;  // next string is a top-level method value
      std::string found;
      bool have = false;
      for (; i < body.size(); ++i) {
        char c = body[i];
        if (c == '"') {
          std::size_t start = i + 1;
          bool escaped = false;
          std::size_t j = start;
          for (; j < body.size(); ++j) {
            if (body[j] == '\\') {
              escaped = true;
              ++j;  // skip the escaped character
              continue;
            }
            if (body[j] == '"') break;
          }
          if (j >= body.size()) return {};  // unterminated string
          std::string_view str = body.substr(start, j - start);
          if (method_key) {
            method_key = false;
            // Escapes in a method name are outlandish; punt to the parser.
            if (escaped || str.size() > 256) return {};
            found.assign(str);
            have = true;
          } else if (depth == 1 && (escaped || str == "method")) {
            // A key only if followed by ':' and a string value. An
            // escaped key may decode to "method" (last wins in the
            // parser), so punt rather than decode it.
            std::size_t k = body.find_first_not_of(kWs, j + 1);
            if (k != std::string_view::npos && body[k] == ':') {
              if (escaped) return {};
              std::size_t v = body.find_first_not_of(kWs, k + 1);
              if (v == std::string_view::npos || body[v] != '"') return {};
              method_key = true;
              i = v - 1;  // loop increment lands on the value's open quote
              continue;
            }
          }
          i = j;  // resume after the closing quote
        } else if (c == '{' || c == '[') {
          ++depth;
        } else if (c == '}' || c == ']') {
          if (--depth == 0) break;  // top-level object closed
        }
      }
      return have ? found : std::string{};
    }
  }
  return {};
}

std::string serialize_request(Protocol protocol, const Request& request) {
  switch (protocol) {
    case Protocol::XmlRpc: return xmlrpc::serialize_request(request);
    case Protocol::JsonRpc: return jsonrpc::serialize_request(request);
    case Protocol::Binary: return binrpc::serialize_request(request);
    case Protocol::Soap: return soap::serialize_request(request);
  }
  return {};
}

Request parse_request(Protocol protocol, std::string_view body) {
  switch (protocol) {
    case Protocol::XmlRpc: return xmlrpc::parse_request(body);
    case Protocol::JsonRpc: return jsonrpc::parse_request(body);
    case Protocol::Binary: return binrpc::parse_request(body);
    case Protocol::Soap: return soap::parse_request(body);
  }
  return {};
}

std::string serialize_response(Protocol protocol, const Response& response) {
  switch (protocol) {
    case Protocol::XmlRpc: return xmlrpc::serialize_response(response);
    case Protocol::JsonRpc: return jsonrpc::serialize_response(response);
    case Protocol::Binary: return binrpc::serialize_response(response);
    case Protocol::Soap: return soap::serialize_response(response);
  }
  return {};
}

void serialize_request(Protocol protocol, const Request& request,
                       util::Buffer& out) {
  switch (protocol) {
    case Protocol::XmlRpc: xmlrpc::serialize_request(request, out); return;
    case Protocol::JsonRpc: jsonrpc::serialize_request(request, out); return;
    case Protocol::Binary: binrpc::serialize_request(request, out); return;
    case Protocol::Soap: soap::serialize_request(request, out); return;
  }
}

void serialize_response(Protocol protocol, const Response& response,
                        util::Buffer& out) {
  switch (protocol) {
    case Protocol::XmlRpc: xmlrpc::serialize_response(response, out); return;
    case Protocol::JsonRpc: jsonrpc::serialize_response(response, out); return;
    case Protocol::Binary: binrpc::serialize_response(response, out); return;
    case Protocol::Soap: soap::serialize_response(response, out); return;
  }
}

Response parse_response(Protocol protocol, std::string_view body) {
  switch (protocol) {
    case Protocol::XmlRpc: return xmlrpc::parse_response(body);
    case Protocol::JsonRpc: return jsonrpc::parse_response(body);
    case Protocol::Binary: return binrpc::parse_response(body);
    case Protocol::Soap: return soap::parse_response(body);
  }
  return {};
}

}  // namespace clarens::rpc
