#include "rpc/soap.hpp"

#include <optional>

#include "rpc/fault.hpp"
#include "rpc/xml.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace clarens::rpc::soap {

namespace {

constexpr std::string_view kEnvelopeOpen =
    "<?xml version=\"1.0\"?>"
    "<SOAP-ENV:Envelope "
    "xmlns:SOAP-ENV=\"http://schemas.xmlsoap.org/soap/envelope/\" "
    "xmlns:m=\"urn:clarens\">"
    "<SOAP-ENV:Body>";
constexpr std::string_view kEnvelopeClose =
    "</SOAP-ENV:Body></SOAP-ENV:Envelope>";

using Event = XmlPullParser::Event;

/// Consume the rest of the document: whatever follows the part a parser
/// read must still be well formed, with nothing after the root.
void drain(XmlPullParser& p) {
  while (p.next() != Event::Eof) {
  }
}

/// The <Fault> element whose StartTag was just read.
Response parse_fault(XmlPullParser& p) {
  std::optional<std::string> code;
  std::optional<std::string> message;
  for (Event event = p.next(); event != Event::EndTag; event = p.next()) {
    if (event != Event::StartTag) continue;
    if (!code && p.local_name() == "faultcode") {
      code = p.element_text();
    } else if (!message && p.local_name() == "faultstring") {
      message = p.element_text();
    } else {
      p.skip_element();
    }
  }
  if (!code || !message) throw ParseError("SOAP Fault missing fields");
  return Response::fault(static_cast<int>(util::parse_int(util::trim(*code))),
                         std::move(*message));
}

/// The result element (<m:Response>) whose StartTag was just read.
Response parse_result(XmlPullParser& p) {
  std::optional<Value> value;
  bool have_param = false;
  for (Event event = p.next(); event != Event::EndTag; event = p.next()) {
    if (event != Event::StartTag) continue;
    if (!have_param && p.local_name() == "param") {
      have_param = true;
      value = xmlrpc::parse_param_pull(p);
    } else {
      p.skip_element();
    }
  }
  if (!have_param) throw ParseError("SOAP response missing <param>");
  if (!value) throw ParseError("SOAP response <param> missing <value>");
  return Response::success(std::move(*value));
}

}  // namespace

void serialize_request(const Request& request, util::Buffer& out) {
  out.write(kEnvelopeOpen);
  out.write("<m:");
  out.write(request.method);
  out.write(">");
  for (const auto& param : request.params) {
    out.write("<param>");
    xmlrpc::serialize_value(param, out);
    out.write("</param>");
  }
  out.write("</m:");
  out.write(request.method);
  out.write(">");
  out.write(kEnvelopeClose);
}

std::string serialize_request(const Request& request) {
  util::Buffer out;
  serialize_request(request, out);
  return std::string(out.peek_view());
}

std::string_view locate_call(XmlPullParser& p) {
  p.next();  // root StartTag, or throws
  if (p.local_name() != "Envelope") {
    throw ParseError("SOAP document root must be Envelope");
  }
  for (;;) {  // to <Body>, past any <Header>
    Event event = p.next();
    if (event == Event::EndTag) throw ParseError("SOAP Envelope missing Body");
    if (event != Event::StartTag) continue;
    if (p.local_name() == "Body") break;
    p.skip_element();
  }
  Event event = p.next();
  while (event == Event::Text) event = p.next();
  if (event != Event::StartTag) throw ParseError("SOAP Body is empty");
  return p.local_name();
}

Request parse_request(std::string_view body) {
  XmlPullParser p(body);
  Request request;
  // Method names contain dots (file.read); XML element names may contain
  // dots too, so they pass through unmodified.
  request.method = std::string(locate_call(p));
  for (Event event = p.next(); event != Event::EndTag; event = p.next()) {
    if (event != Event::StartTag) continue;
    if (p.local_name() != "param") {
      p.skip_element();
      continue;
    }
    std::optional<Value> value = xmlrpc::parse_param_pull(p);
    if (!value) throw ParseError("SOAP <param> missing <value>");
    request.params.push_back(std::move(*value));
  }
  drain(p);
  return request;
}

void serialize_response(const Response& response, util::Buffer& out) {
  out.write(kEnvelopeOpen);
  if (response.is_fault) {
    out.write("<SOAP-ENV:Fault><faultcode>");
    util::append_int(out, response.fault_code);
    out.write("</faultcode><faultstring>");
    xml_escape_append(out, response.fault_message);
    out.write("</faultstring></SOAP-ENV:Fault>");
  } else {
    out.write("<m:Response><param>");
    xmlrpc::serialize_value(response.result, out);
    out.write("</param></m:Response>");
  }
  out.write(kEnvelopeClose);
}

std::string serialize_response(const Response& response) {
  util::Buffer out;
  serialize_response(response, out);
  return std::string(out.peek_view());
}

Response parse_response(std::string_view body) {
  XmlPullParser p(body);
  Response response =
      locate_call(p) == "Fault" ? parse_fault(p) : parse_result(p);
  drain(p);
  return response;
}

}  // namespace clarens::rpc::soap
