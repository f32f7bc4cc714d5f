#include "rpc/xmlrpc.hpp"

#include <charconv>
#include <optional>

#include "rpc/fault.hpp"
#include "rpc/xml.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"
#include "util/strings.hpp"

namespace clarens::rpc::xmlrpc {

namespace {

using Event = XmlPullParser::Event;

// Adjacent constant markup is fused into single literals: a scalar value
// costs two buffer appends plus its payload, not one per tag.
void write_value(XmlWriter& w, const Value& value) {
  util::Buffer& out = w.buffer();
  switch (value.type()) {
    case Value::Type::Nil:
      // <nil/> is the common XML-RPC extension.
      out.write("<value><nil/></value>");
      break;
    case Value::Type::Bool:
      out.write(value.as_bool() ? "<value><boolean>1</boolean></value>"
                                : "<value><boolean>0</boolean></value>");
      break;
    case Value::Type::Int:
      out.write("<value><int>");
      util::append_int(out, value.as_int());
      out.write("</int></value>");
      break;
    case Value::Type::Double:
      out.write("<value><double>");
      util::append_double(out, value.as_double());
      out.write("</double></value>");
      break;
    case Value::Type::String:
      out.write("<value><string>");
      xml_escape_append(out, value.as_string());
      out.write("</string></value>");
      break;
    case Value::Type::Binary:
      out.write("<value><base64>");
      util::base64_encode_append(out, value.as_binary());
      out.write("</base64></value>");
      break;
    case Value::Type::DateTime:
      out.write("<value><dateTime.iso8601>");
      out.write(util::iso8601(value.as_datetime().unix_seconds));
      out.write("</dateTime.iso8601></value>");
      break;
    case Value::Type::Array: {
      out.write("<value><array><data>");
      for (const auto& element : value.as_array()) write_value(w, element);
      out.write("</data></array></value>");
      break;
    }
    case Value::Type::Struct: {
      out.write("<value><struct>");
      for (const auto& [name, member] : value.members()) {
        out.write("<member><name>");
        xml_escape_append(out, name);
        out.write("</name>");
        write_value(w, member);
        out.write("</member>");
      }
      out.write("</struct></value>");
      break;
    }
  }
}

double parse_double(std::string_view text) {
  double v = 0;
  auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || p != text.data() + text.size() || text.empty()) {
    throw ParseError("invalid XML-RPC double: '" + std::string(text) + "'");
  }
  return v;
}

void parse_value_into(XmlPullParser& p, Value& out);

Value parse_array_pull(XmlPullParser& p) {
  Value out = Value::array();
  bool have_data = false;
  for (;;) {
    switch (p.next()) {
      case Event::Text:
        break;
      case Event::EndTag:
        if (!have_data) throw ParseError("XML-RPC array missing <data>");
        return out;
      case Event::StartTag:
        if (!have_data && p.local_name() == "data") {
          have_data = true;
          for (bool in_data = true; in_data;) {
            switch (p.next()) {
              case Event::Text:
                break;
              case Event::EndTag:
                in_data = false;
                break;
              case Event::StartTag: {
                if (p.local_name() != "value") {
                  throw ParseError("XML-RPC array <data> may only contain <value>");
                }
                Array& items = out.as_array();
                items.emplace_back();
                parse_value_into(p, items.back());
                break;
              }
              case Event::Eof:
                throw ParseError("unexpected end of document");
            }
          }
        } else {
          p.skip_element();
        }
        break;
      case Event::Eof:
        throw ParseError("unexpected end of document");
    }
  }
}

void parse_member_pull(XmlPullParser& p, Value& out) {
  std::optional<std::string> name;
  std::optional<Value> value;
  for (;;) {
    switch (p.next()) {
      case Event::Text:
        break;
      case Event::EndTag:
        if (!name || !value) {
          throw ParseError("XML-RPC struct member missing name or value");
        }
        out.set(*name, std::move(*value));
        return;
      case Event::StartTag:
        if (!name && p.local_name() == "name") {
          name = p.element_text();
        } else if (!value && p.local_name() == "value") {
          value = parse_value_pull(p);
        } else {
          p.skip_element();
        }
        break;
      case Event::Eof:
        throw ParseError("unexpected end of document");
    }
  }
}

Value parse_struct_pull(XmlPullParser& p) {
  Value out = Value::struct_();
  for (;;) {
    switch (p.next()) {
      case Event::Text:
        break;
      case Event::EndTag:
        return out;
      case Event::StartTag:
        if (p.local_name() == "member") {
          parse_member_pull(p, out);
        } else {
          p.skip_element();
        }
        break;
      case Event::Eof:
        throw ParseError("unexpected end of document");
    }
  }
}

/// Typed element inside <value>; positioned just past its StartTag.
/// Dispatches on the first tag character so the common scalars cost one
/// or two name compares, not a walk of the whole chain.
Value parse_typed_pull(XmlPullParser& p, std::string_view tag) {
  switch (tag.empty() ? '\0' : tag.front()) {
    case 's':
      if (tag == "string") return Value(p.element_text());
      if (tag == "struct") return parse_struct_pull(p);
      break;
    case 'i':
      if (tag == "int" || tag == "i4" || tag == "i8") {
        std::string text = p.element_text();
        return Value(util::parse_int(util::trim(text)));
      }
      break;
    case 'a':
      if (tag == "array") return parse_array_pull(p);
      break;
    case 'b':
      if (tag == "boolean") {
        std::string text = p.element_text();
        std::string_view t = util::trim(text);
        if (t == "1" || t == "true") return Value(true);
        if (t == "0" || t == "false") return Value(false);
        throw ParseError("invalid XML-RPC boolean: '" + text + "'");
      }
      if (tag == "base64") {
        std::string text = p.element_text();
        return Value(util::base64_decode(text));
      }
      break;
    case 'd':
      if (tag == "double") {
        std::string text = p.element_text();
        return Value(parse_double(util::trim(text)));
      }
      if (tag == "dateTime.iso8601") {
        std::string text = p.element_text();
        return Value(DateTime{util::parse_iso8601(std::string(util::trim(text)))});
      }
      break;
    case 'n':
      if (tag == "nil") {
        p.element_text();
        return Value::nil();
      }
      break;
    default:
      break;
  }
  throw ParseError("unknown XML-RPC value type: <" + std::string(tag) + ">");
}

void parse_params_pull(XmlPullParser& p, std::vector<Value>& out) {
  for (;;) {
    switch (p.next()) {
      case Event::Text:
        break;
      case Event::EndTag:
        return;
      case Event::StartTag:
        if (p.local_name() == "param") {
          std::optional<Value> value = parse_param_pull(p);
          if (!value) throw ParseError("<param> missing <value>");
          out.push_back(std::move(*value));
        } else {
          p.skip_element();
        }
        break;
      case Event::Eof:
        throw ParseError("unexpected end of document");
    }
  }
}

Response parse_fault_pull(XmlPullParser& p) {
  std::optional<Value> fault_value = parse_param_pull(p);
  if (!fault_value) throw ParseError("<fault> missing <value>");
  Response response;
  response.is_fault = true;
  response.fault_code = static_cast<int>(fault_value->at("faultCode").as_int());
  response.fault_message = fault_value->at("faultString").as_string();
  return response;
}

Response parse_response_params_pull(XmlPullParser& p) {
  bool have_param = false;
  std::optional<Value> value;
  for (;;) {
    switch (p.next()) {
      case Event::Text:
        break;
      case Event::EndTag:
        if (!have_param) throw ParseError("methodResponse missing <params>");
        if (!value) throw ParseError("response <param> missing <value>");
        return Response::success(std::move(*value));
      case Event::StartTag:
        if (!have_param) {
          have_param = true;
          value = parse_param_pull(p);
        } else {
          p.skip_element();
        }
        break;
      case Event::Eof:
        throw ParseError("unexpected end of document");
    }
  }
}

// In-place variant of parse_value_pull: assigns into `out` so array and
// struct parsing build elements directly in their containers instead of
// moving a Value through several return slots.
void parse_value_into(XmlPullParser& p, Value& out) {
  // Positioned inside <value>: bare character data means string; a child
  // element carries the typed encoding.
  std::string bare;
  bool typed = false;
  for (;;) {
    switch (p.next()) {
      case Event::Text:
        if (!typed) p.text_append(bare);
        break;
      case Event::StartTag:
        if (!typed) {
          typed = true;
          out = parse_typed_pull(p, p.local_name());
        } else {
          p.skip_element();
        }
        break;
      case Event::EndTag:
        if (!typed) out = Value(std::move(bare));
        return;
      case Event::Eof:
        throw ParseError("unexpected end of document");
    }
  }
}

}  // namespace

Value parse_value_pull(XmlPullParser& p) {
  Value result;
  parse_value_into(p, result);
  return result;
}

std::optional<Value> parse_param_pull(XmlPullParser& p) {
  std::optional<Value> value;
  for (;;) {
    switch (p.next()) {
      case Event::Text:
        break;
      case Event::EndTag:
        return value;
      case Event::StartTag:
        if (!value && p.local_name() == "value") {
          value = parse_value_pull(p);
        } else {
          p.skip_element();
        }
        break;
      case Event::Eof:
        throw ParseError("unexpected end of document");
    }
  }
}


void serialize_value(const Value& value, util::Buffer& out) {
  XmlWriter w(out);
  write_value(w, value);
}

std::string serialize_value(const Value& value) {
  util::Buffer out;
  serialize_value(value, out);
  return std::string(out.peek_view());
}

void serialize_request(const Request& request, util::Buffer& out) {
  XmlWriter w(out);
  out.write("<?xml version=\"1.0\"?><methodCall><methodName>");
  xml_escape_append(out, request.method);
  out.write("</methodName><params>");
  for (const auto& param : request.params) {
    out.write("<param>");
    write_value(w, param);
    out.write("</param>");
  }
  out.write("</params></methodCall>");
}

std::string serialize_request(const Request& request) {
  util::Buffer out;
  serialize_request(request, out);
  return std::string(out.peek_view());
}

std::string locate_method(XmlPullParser& p) {
  p.next();  // root StartTag, or throws
  if (p.local_name() != "methodCall") {
    throw ParseError("expected <methodCall>, got <" + std::string(p.name()) + ">");
  }
  // The spec writes <methodName> first. Taking the first element, not
  // the first <methodName> anywhere, leaves no subtree a decoy can hide in.
  Event event = p.next();
  while (event == Event::Text) event = p.next();
  if (event != Event::StartTag) {
    throw ParseError("methodCall missing <methodName>");
  }
  if (p.local_name() != "methodName") {
    throw ParseError("methodCall must open with <methodName>, got <" +
                     std::string(p.name()) + ">");
  }
  std::string text = p.element_text();
  std::string_view name = util::trim(text);
  if (name.empty()) throw ParseError("empty methodName");
  return name.size() == text.size() ? text : std::string(name);
}

Request parse_request(std::string_view body) {
  XmlPullParser p(body);
  Request request;
  request.method = locate_method(p);
  bool saw_params = false;
  for (bool done = false; !done;) {
    switch (p.next()) {
      case Event::Text:
        break;
      case Event::EndTag:
        done = true;
        break;
      case Event::StartTag:
        if (!saw_params && p.local_name() == "params") {
          saw_params = true;
          parse_params_pull(p, request.params);
        } else {
          p.skip_element();
        }
        break;
      case Event::Eof:
        throw ParseError("unexpected end of document");
    }
  }
  p.next();  // enforce no trailing content
  return request;
}

void serialize_response(const Response& response, util::Buffer& out) {
  XmlWriter w(out);
  out.write("<?xml version=\"1.0\"?><methodResponse>");
  if (response.is_fault) {
    Value fault = Value::struct_();
    fault.set("faultCode", Value(static_cast<std::int64_t>(response.fault_code)));
    fault.set("faultString", Value(response.fault_message));
    out.write("<fault>");
    write_value(w, fault);
    out.write("</fault>");
  } else {
    out.write("<params><param>");
    write_value(w, response.result);
    out.write("</param></params>");
  }
  out.write("</methodResponse>");
}

std::string serialize_response(const Response& response) {
  util::Buffer out;
  serialize_response(response, out);
  return std::string(out.peek_view());
}

Response parse_response(std::string_view body) {
  XmlPullParser p(body);
  p.next();
  if (p.local_name() != "methodResponse") {
    throw ParseError("expected <methodResponse>, got <" + std::string(p.name()) +
                     ">");
  }
  std::optional<Response> response;
  for (bool done = false; !done;) {
    switch (p.next()) {
      case Event::Text:
        break;
      case Event::EndTag:
        done = true;
        break;
      case Event::StartTag:
        if (!response && p.local_name() == "fault") {
          response = parse_fault_pull(p);
        } else if (!response && p.local_name() == "params") {
          response = parse_response_params_pull(p);
        } else {
          p.skip_element();
        }
        break;
      case Event::Eof:
        throw ParseError("unexpected end of document");
    }
  }
  p.next();
  if (!response) throw ParseError("methodResponse missing <params>");
  return std::move(*response);
}

}  // namespace clarens::rpc::xmlrpc
