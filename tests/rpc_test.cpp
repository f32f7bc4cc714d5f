// Unit tests for the RPC layer: the Value model, XML mini-parser, all
// three wire codecs (with cross-codec property round-trips), protocol
// detection, and the method registry.
#include <gtest/gtest.h>

#include "rpc/binrpc.hpp"
#include "rpc/fault.hpp"
#include "rpc/jsonrpc.hpp"
#include "rpc/protocol.hpp"
#include "rpc/registry.hpp"
#include "rpc/soap.hpp"
#include "rpc/value.hpp"
#include "rpc/xml.hpp"
#include "rpc/xmlrpc.hpp"
#include "util/error.hpp"

namespace clarens::rpc {
namespace {

// ---------- Value ----------

TEST(Value, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_nil());
  EXPECT_EQ(Value(true).as_bool(), true);
  EXPECT_EQ(Value(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_DOUBLE_EQ(Value(7).as_double(), 7.0);  // int widens to double
  EXPECT_EQ(Value("s").as_string(), "s");
  EXPECT_EQ(Value(DateTime{123}).as_datetime().unix_seconds, 123);
  std::vector<std::uint8_t> blob = {1, 2, 3};
  EXPECT_EQ(Value(blob).as_binary(), blob);
}

TEST(Value, TypeMismatchThrowsTypedFault) {
  try {
    Value(42).as_string();
    FAIL();
  } catch (const Fault& fault) {
    EXPECT_EQ(fault.code(), kFaultType);
  }
  EXPECT_THROW(Value("x").as_int(), Fault);
  EXPECT_THROW(Value("x").as_double(), Fault);  // no string->double coercion
}

TEST(Value, StructOperations) {
  Value v = Value::struct_();
  v.set("a", 1);
  v.set("b", "two");
  v.set("a", 10);  // replace
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.at("a").as_int(), 10);
  EXPECT_TRUE(v.has("b"));
  EXPECT_FALSE(v.has("c"));
  EXPECT_EQ(v.find("c"), nullptr);
  EXPECT_THROW(v.at("c"), Fault);
  // Member order is preserved.
  EXPECT_EQ(v.members()[0].first, "a");
  EXPECT_EQ(v.members()[1].first, "b");
}

TEST(Value, ArrayOperations) {
  Value v = Value::array();
  v.push(1);
  v.push("x");
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.as_array()[1].as_string(), "x");
  // push on nil auto-promotes (builder convenience).
  Value w;
  w.push(5);
  EXPECT_EQ(w.size(), 1u);
}

// ---------- XML pull parser ----------

/// The event stream of `doc` as text: <a x=1>, 'decoded text', </a>.
std::string events(std::string_view doc) {
  XmlPullParser p(doc);
  std::string out;
  for (auto event = p.next(); event != XmlPullParser::Event::Eof;
       event = p.next()) {
    switch (event) {
      case XmlPullParser::Event::StartTag:
        out += "<" + std::string(p.name());
        for (const auto& [k, v] : p.attributes()) {
          out += " " + std::string(k) + "=" + std::string(v);
        }
        out += ">";
        break;
      case XmlPullParser::Event::EndTag:
        out += "</" + std::string(p.name()) + ">";
        break;
      case XmlPullParser::Event::Text:
        out += "'" + p.text() + "'";
        break;
      case XmlPullParser::Event::Eof:
        break;
    }
  }
  return out;
}

/// Decoded character data of a one-element document.
std::string root_text(std::string_view doc) {
  XmlPullParser p(doc);
  p.next();
  std::string text = p.element_text();
  EXPECT_EQ(p.next(), XmlPullParser::Event::Eof);
  return text;
}

TEST(Xml, ParsesElementsTextAndAttributes) {
  EXPECT_EQ(events("<?xml version=\"1.0\"?><a x=\"1\" y=\"two\"><b>text</b>"
                   "<c/>tail</a>"),
            "<a x=1 y=two><b>'text'</b><c></c>'tail'</a>");
}

TEST(Xml, EntitiesAndCdata) {
  const char* doc = "<r>&lt;&gt;&amp;&quot;&apos;&#65;<![CDATA[<raw>]]></r>";
  EXPECT_EQ(root_text(doc), "<>&\"'A<raw>");
  XmlPullParser p(doc);
  p.next();
  ASSERT_EQ(p.next(), XmlPullParser::Event::Text);
  EXPECT_TRUE(p.text_needs_unescape());
  EXPECT_EQ(p.text_raw(), "&lt;&gt;&amp;&quot;&apos;&#65;");
  ASSERT_EQ(p.next(), XmlPullParser::Event::Text);  // CDATA stays raw
  EXPECT_FALSE(p.text_needs_unescape());
  EXPECT_EQ(p.text_raw(), "<raw>");
}

TEST(Xml, NamespacePrefixesAndLocalNames) {
  XmlPullParser p(
      "<SOAP-ENV:Envelope xmlns:SOAP-ENV=\"http://x\"><SOAP-ENV:Body/>"
      "</SOAP-ENV:Envelope>");
  ASSERT_EQ(p.next(), XmlPullParser::Event::StartTag);
  EXPECT_EQ(p.name(), "SOAP-ENV:Envelope");
  EXPECT_EQ(p.local_name(), "Envelope");
  ASSERT_EQ(p.next(), XmlPullParser::Event::StartTag);
  EXPECT_EQ(p.local_name(), "Body");
}

TEST(Xml, CommentsSkipped) {
  EXPECT_EQ(root_text("<!-- head --><r><!-- mid -->x</r>"), "x");
  EXPECT_EQ(events("<!-- head --><r><!-- mid -->x</r><!-- tail -->"),
            "<r>'x'</r>");
}

TEST(Xml, SkipElementAndElementText) {
  XmlPullParser p("<r><skip><a>1</a><b/></skip><t>v&amp;w</t><t><x/></t></r>");
  p.next();
  p.next();  // <skip>
  p.skip_element();
  ASSERT_EQ(p.next(), XmlPullParser::Event::StartTag);
  EXPECT_EQ(p.name(), "t");
  EXPECT_EQ(p.element_text(), "v&w");
  p.next();  // second <t>
  EXPECT_THROW(p.element_text(), ParseError);  // child element in text
}

TEST(Xml, MalformedInputsThrow) {
  EXPECT_THROW(events("<a><b></a></b>"), ParseError);  // mismatched
  EXPECT_THROW(events("<a>"), ParseError);             // unterminated
  EXPECT_THROW(events("<a>&bogus;</a>"), ParseError);  // unknown entity
  EXPECT_THROW(events("plain text"), ParseError);
  EXPECT_THROW(events("<a></a><b></b>"), ParseError);  // two roots
}

TEST(Xml, EscapeRoundTrip) {
  std::string nasty = "<tag attr=\"x&y\">'quoted'</tag>";
  EXPECT_EQ(root_text("<r>" + xml_escape(nasty) + "</r>"), nasty);
}

// ---------- value corpus for cross-codec property tests ----------

Value deep_value() {
  Value inner = Value::struct_();
  inner.set("name", "events.dat");
  inner.set("size", std::int64_t{1u << 30});
  inner.set("ratio", 0.125);
  inner.set("ok", true);
  inner.set("when", DateTime{1120000000});
  inner.set("digest", std::vector<std::uint8_t>{0x00, 0xff, 0x10, 0x7f});
  Value arr = Value::array();
  arr.push(1);
  arr.push("two");
  arr.push(Value());
  arr.push(inner);
  Value outer = Value::struct_();
  outer.set("list", arr);
  outer.set("note", "contains <xml> & \"json\" specials\n\ttabs");
  return outer;
}

struct CodecCase {
  const char* name;
  std::string (*serialize_req)(const Request&);
  Request (*parse_req)(std::string_view);
  std::string (*serialize_resp)(const Response&);
  Response (*parse_resp)(std::string_view);
};

class CodecRoundTrip : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecRoundTrip, RequestRoundTrips) {
  const CodecCase& codec = GetParam();
  Request request;
  request.method = "file.read";
  request.params = {Value("/data/x.bin"), Value(128), Value(4096),
                    deep_value()};
  Request parsed = codec.parse_req(codec.serialize_req(request));
  EXPECT_EQ(parsed.method, request.method);
  ASSERT_EQ(parsed.params.size(), request.params.size());
  for (std::size_t i = 0; i < parsed.params.size(); ++i) {
    EXPECT_EQ(parsed.params[i], request.params[i]) << codec.name << " param " << i;
  }
}

TEST_P(CodecRoundTrip, SuccessResponseRoundTrips) {
  const CodecCase& codec = GetParam();
  Response response = Response::success(deep_value());
  Response parsed = codec.parse_resp(codec.serialize_resp(response));
  EXPECT_FALSE(parsed.is_fault);
  EXPECT_EQ(parsed.result, response.result);
}

TEST_P(CodecRoundTrip, FaultRoundTrips) {
  const CodecCase& codec = GetParam();
  Response response = Response::fault(kFaultAccess, "denied <&> you");
  Response parsed = codec.parse_resp(codec.serialize_resp(response));
  EXPECT_TRUE(parsed.is_fault);
  EXPECT_EQ(parsed.fault_code, kFaultAccess);
  EXPECT_EQ(parsed.fault_message, "denied <&> you");
}

TEST_P(CodecRoundTrip, EmptyParamsAllowed) {
  const CodecCase& codec = GetParam();
  Request request;
  request.method = "system.list_methods";
  Request parsed = codec.parse_req(codec.serialize_req(request));
  EXPECT_EQ(parsed.method, "system.list_methods");
  EXPECT_TRUE(parsed.params.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, CodecRoundTrip,
    ::testing::Values(
        CodecCase{"xmlrpc", &xmlrpc::serialize_request, &xmlrpc::parse_request,
                  &xmlrpc::serialize_response, &xmlrpc::parse_response},
        CodecCase{"jsonrpc", &jsonrpc::serialize_request,
                  &jsonrpc::parse_request, &jsonrpc::serialize_response,
                  &jsonrpc::parse_response},
        CodecCase{"soap", &soap::serialize_request, &soap::parse_request,
                  &soap::serialize_response, &soap::parse_response},
        CodecCase{"binrpc", &binrpc::serialize_request, &binrpc::parse_request,
                  &binrpc::serialize_response, &binrpc::parse_response}),
    [](const ::testing::TestParamInfo<CodecCase>& info) {
      return info.param.name;
    });

// ---------- XML-RPC specifics ----------

TEST(XmlRpc, WireFormatShape) {
  Request request;
  request.method = "echo.echo";
  request.params = {Value(17)};
  std::string wire = xmlrpc::serialize_request(request);
  EXPECT_NE(wire.find("<methodCall>"), std::string::npos);
  EXPECT_NE(wire.find("<methodName>echo.echo</methodName>"), std::string::npos);
  EXPECT_NE(wire.find("<int>17</int>"), std::string::npos);
}

TEST(XmlRpc, AcceptsI4AndBareStringValues) {
  Request parsed = xmlrpc::parse_request(
      "<?xml version=\"1.0\"?><methodCall><methodName>m</methodName>"
      "<params><param><value><i4>5</i4></value></param>"
      "<param><value>bare string</value></param></params></methodCall>");
  EXPECT_EQ(parsed.params[0].as_int(), 5);
  EXPECT_EQ(parsed.params[1].as_string(), "bare string");
}

TEST(XmlRpc, RejectsMalformed) {
  EXPECT_THROW(xmlrpc::parse_request("<methodCall/>"), ParseError);
  EXPECT_THROW(xmlrpc::parse_request(
                   "<methodResponse><params/></methodResponse>"),
               ParseError);
  EXPECT_THROW(xmlrpc::parse_response("<methodCall/>"), ParseError);
}

TEST(XmlRpc, DateTimeUsesCompactIso) {
  Response response = Response::success(Value(DateTime{1120000000}));
  std::string wire = xmlrpc::serialize_response(response);
  EXPECT_NE(wire.find("<dateTime.iso8601>20050628T23:06:40</dateTime.iso8601>"),
            std::string::npos);
}

// ---------- JSON-RPC specifics ----------

TEST(JsonRpc, WireFormatShape) {
  Request request;
  request.method = "echo.echo";
  request.params = {Value("hi")};
  request.id = Value(7);
  std::string wire = jsonrpc::serialize_request(request);
  EXPECT_EQ(wire, "{\"method\":\"echo.echo\",\"params\":[\"hi\"],\"id\":7}");
}

TEST(JsonRpc, IdIsEchoed) {
  Response response = Response::success(Value(1));
  response.id = Value("corr-9");
  Response parsed = jsonrpc::parse_response(jsonrpc::serialize_response(response));
  EXPECT_EQ(parsed.id.as_string(), "corr-9");
}

TEST(JsonRpc, ParsesNestedContainersAndEscapes) {
  Value v = jsonrpc::parse_value(
      R"({"a":[1,2.5,true,null,"x\ny"],"b":{"c":"A"}})");
  EXPECT_EQ(v.at("a").as_array()[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_double(), 2.5);
  EXPECT_TRUE(v.at("a").as_array()[3].is_nil());
  EXPECT_EQ(v.at("a").as_array()[4].as_string(), "x\ny");
  EXPECT_EQ(v.at("b").at("c").as_string(), "A");
}

TEST(JsonRpc, RejectsMalformed) {
  EXPECT_THROW(jsonrpc::parse_value("{"), ParseError);
  EXPECT_THROW(jsonrpc::parse_value("[1,]"), ParseError);
  EXPECT_THROW(jsonrpc::parse_value("012abc"), ParseError);
  EXPECT_THROW(jsonrpc::parse_value("\"unterminated"), ParseError);
  EXPECT_THROW(jsonrpc::parse_value("{} trailing"), ParseError);
  EXPECT_THROW(jsonrpc::parse_request("[1,2]"), ParseError);
}

TEST(JsonRpc, TaggedBinaryAndDatetime) {
  Value v = jsonrpc::parse_value(R"({"$base64":"AAEC"})");
  EXPECT_EQ(v.as_binary(), (std::vector<std::uint8_t>{0, 1, 2}));
  Value d = jsonrpc::parse_value(R"({"$datetime":"20050628T23:06:40"})");
  EXPECT_EQ(d.as_datetime().unix_seconds, 1120000000);
}

// ---------- SOAP specifics ----------

TEST(Soap, EnvelopeShape) {
  Request request;
  request.method = "echo";
  request.params = {Value(1)};
  std::string wire = soap::serialize_request(request);
  EXPECT_NE(wire.find("SOAP-ENV:Envelope"), std::string::npos);
  EXPECT_NE(wire.find("SOAP-ENV:Body"), std::string::npos);
  EXPECT_NE(wire.find("<m:echo>"), std::string::npos);
}

TEST(Soap, FaultShape) {
  std::string wire =
      soap::serialize_response(Response::fault(kFaultAuth, "no session"));
  EXPECT_NE(wire.find("SOAP-ENV:Fault"), std::string::npos);
  Response parsed = soap::parse_response(wire);
  EXPECT_TRUE(parsed.is_fault);
  EXPECT_EQ(parsed.fault_code, kFaultAuth);
}

TEST(Soap, RejectsNonEnvelope) {
  EXPECT_THROW(soap::parse_request("<methodCall/>"), ParseError);
}

// ---------- binary RPC specifics ----------

TEST(BinRpc, FrameHasMagicAndIsCompact) {
  Request request;
  request.method = "system.list_methods";
  std::string wire = binrpc::serialize_request(request);
  EXPECT_EQ(wire.substr(0, 4), "CRPC");
  // Far smaller than the XML encoding of the same request.
  EXPECT_LT(wire.size(), xmlrpc::serialize_request(request).size());
}

TEST(BinRpc, BinarySafePayloads) {
  // Embedded NULs and every byte value survive (the point of the format).
  std::vector<std::uint8_t> blob(256);
  for (int i = 0; i < 256; ++i) blob[i] = static_cast<std::uint8_t>(i);
  Response response = Response::success(Value(blob));
  Response parsed = binrpc::parse_response(binrpc::serialize_response(response));
  EXPECT_EQ(parsed.result.as_binary(), blob);
  std::string with_nul("a\0b", 3);
  Value v = binrpc::parse_value(binrpc::serialize_value(Value(with_nul)));
  EXPECT_EQ(v.as_string(), with_nul);
}

TEST(BinRpc, RejectsCorruptFrames) {
  EXPECT_THROW(binrpc::parse_request("CR"), ParseError);
  EXPECT_THROW(binrpc::parse_request("XXXX\x01\x01"), ParseError);
  Request request;
  request.method = "m";
  std::string wire = binrpc::serialize_request(request);
  wire[4] = 99;  // bad version
  EXPECT_THROW(binrpc::parse_request(wire), ParseError);
  std::string resp_as_req = binrpc::serialize_response(Response::success(Value(1)));
  EXPECT_THROW(binrpc::parse_request(resp_as_req), ParseError);  // wrong kind
  EXPECT_THROW(binrpc::parse_value("\x63"), ParseError);  // unknown tag 99
}

TEST(BinRpc, TruncatedValueThrows) {
  std::string wire = binrpc::serialize_value(Value(std::string(100, 'x')));
  EXPECT_THROW(binrpc::parse_value(wire.substr(0, wire.size() / 2)), ParseError);
  EXPECT_THROW(binrpc::parse_value(wire + "extra"), ParseError);
}

// ---------- protocol detection ----------

TEST(Protocol, DetectByContentType) {
  EXPECT_EQ(detect("application/json", "{}"), Protocol::JsonRpc);
  EXPECT_EQ(detect("application/x-clarens-binary", ""), Protocol::Binary);
  EXPECT_EQ(detect("", "CRPC\x01\x01rest"), Protocol::Binary);
  EXPECT_EQ(detect("application/soap+xml", "<x/>"), Protocol::Soap);
  EXPECT_EQ(detect("text/xml", "<?xml?><methodCall/>"), Protocol::XmlRpc);
  // SOAP arriving as text/xml is told apart by its Envelope root.
  EXPECT_EQ(detect("text/xml", "<SOAP-ENV:Envelope/>"), Protocol::Soap);
}

TEST(Protocol, DetectReadsTheRootElementNotASubstring) {
  // An XML-RPC call whose string parameter says "Envelope" is XML-RPC,
  // with or without a Content-Type, and round-trips through its parser.
  Request request;
  request.method = "echo.echo";
  request.params = {Value(std::string("SOAP Envelope"))};
  std::string xmlrpc_wire = xmlrpc::serialize_request(request);
  std::string soap_wire = soap::serialize_request(request);
  for (std::string_view content_type : {"text/xml", ""}) {
    ASSERT_EQ(detect(content_type, xmlrpc_wire), Protocol::XmlRpc);
    Request parsed = parse_request(detect(content_type, xmlrpc_wire), xmlrpc_wire);
    EXPECT_EQ(parsed.params.at(0).as_string(), "SOAP Envelope");
    // A real envelope, under any prefix, is still SOAP.
    EXPECT_EQ(detect(content_type, soap_wire), Protocol::Soap);
    EXPECT_EQ(detect(content_type, "<?xml version=\"1.0\"?>\n<e:Envelope/>"),
              Protocol::Soap);
  }
  // Malformed XML is left to the XML-RPC parser to report.
  EXPECT_EQ(detect("text/xml", "<Envelope"), Protocol::XmlRpc);
}

TEST(Protocol, DetectByBodyWhenHeaderMissing) {
  EXPECT_EQ(detect("", "  {\"method\":\"m\"}"), Protocol::JsonRpc);
  EXPECT_EQ(detect("", "<?xml?><methodCall/>"), Protocol::XmlRpc);
  EXPECT_EQ(detect("", "<SOAP-ENV:Envelope/>"), Protocol::Soap);
}

TEST(Protocol, PeekMethodJsonTopLevel) {
  EXPECT_EQ(peek_method(Protocol::JsonRpc, R"({"method":"echo.echo"})"),
            "echo.echo");
  EXPECT_EQ(peek_method(Protocol::JsonRpc,
                        R"({ "id" : 1 , "method" : "system.listMethods" })"),
            "system.listMethods");
  // Key order must not matter.
  EXPECT_EQ(peek_method(Protocol::JsonRpc,
                        R"({"params":[1,2],"method":"math.add","id":3})"),
            "math.add");
}

TEST(Protocol, PeekMethodIgnoresNestedAndDecoyKeys) {
  // A nested "method" key must not spoof the inline-dispatch peek: the real
  // top-level method is what the parser will dispatch.
  EXPECT_EQ(peek_method(
                Protocol::JsonRpc,
                R"({"params":{"method":"echo.x"},"method":"file.read"})"),
            "file.read");
  // Nested-only key: peek must not surface it.
  EXPECT_EQ(peek_method(Protocol::JsonRpc,
                        R"({"params":{"method":"echo.x"},"id":1})"),
            "");
  // "method" appearing as a string *value* is not a key.
  EXPECT_EQ(peek_method(Protocol::JsonRpc,
                        R"({"name":"method","method":"echo.echo"})"),
            "echo.echo");
  // Inside an array at any depth: not a key either.
  EXPECT_EQ(peek_method(Protocol::JsonRpc,
                        R"({"params":["method","x"],"id":1})"),
            "");
  // Escaped content before the real key must not derail the scan.
  EXPECT_EQ(peek_method(
                Protocol::JsonRpc,
                R"({"note":"say \"method\": here","method":"echo.echo"})"),
            "echo.echo");
  // Duplicate top-level keys: the parser's Value::set is last-wins, so
  // the peek must agree or a cheap decoy first key buys inline dispatch
  // of an expensive method.
  EXPECT_EQ(peek_method(Protocol::JsonRpc,
                        R"({"method":"echo.echo","method":"file.read"})"),
            "file.read");
  // An escaped key the parser decodes to "method": the peek cannot tell
  // without decoding, so it names nothing.
  EXPECT_EQ(peek_method(Protocol::JsonRpc,
                        R"({"method":"echo.echo","\u006dethod":"shell.cmd"})"),
            "");
  EXPECT_EQ(jsonrpc::parse_request(
                R"({"method":"echo.echo","\u006dethod":"shell.cmd"})")
                .method,
            "shell.cmd");
}

TEST(Protocol, PeekMethodJsonPuntsOnOddInput) {
  // Non-object top level, escapes in the name, or truncation: return ""
  // so the request spills to a worker and the real parser decides.
  EXPECT_EQ(peek_method(Protocol::JsonRpc, R"(["method","echo.echo"])"), "");
  EXPECT_EQ(peek_method(Protocol::JsonRpc, R"({"method":"a\tb"})"), "");
  EXPECT_EQ(peek_method(Protocol::JsonRpc, R"({"method":"unterminated)"), "");
  EXPECT_EQ(peek_method(Protocol::JsonRpc, R"({"method":42})"), "");
  EXPECT_EQ(peek_method(Protocol::JsonRpc, ""), "");
}

TEST(Protocol, PeekMethodXmlAgreesWithParser) {
  // Each body either parses to the expected method, which the peek must
  // name too, or fails to parse (expected ""), and then the peek must
  // say "" as well.
  struct Case {
    Protocol protocol;
    std::string body;
    std::string method;
  };
  const std::string soap_open =
      "<SOAP-ENV:Envelope xmlns:SOAP-ENV=\"http://x\" xmlns:m=\"urn:c\">";
  Request list;
  list.method = "system.list_methods";
  const Case cases[] = {
      // A commented-out methodName before the real call.
      {Protocol::XmlRpc,
       "<?xml version=\"1.0\"?><!--<methodName>system.list_methods"
       "</methodName>--><methodCall><methodName>file.md5</methodName>"
       "<params><param><value>/d</value></param></params></methodCall>",
       "file.md5"},
      // A methodName hidden in a subtree ahead of the real one: the
      // method must be the first element, so this is not a request.
      {Protocol::XmlRpc,
       "<methodCall><x><methodName>echo.echo</methodName></x>"
       "<methodName>shell.cmd</methodName></methodCall>",
       ""},
      // A SOAP call with a methodName child element.
      {Protocol::Soap,
       soap_open + "<SOAP-ENV:Body><m:shell.cmd><methodName>"
                   "system.list_methods</methodName><param><value>ls</value>"
                   "</param></m:shell.cmd></SOAP-ENV:Body></SOAP-ENV:Envelope>",
       "shell.cmd"},
      // A Header ahead of the Body.
      {Protocol::Soap,
       soap_open + "<SOAP-ENV:Header><m:system.list_methods/></SOAP-ENV:Header>"
                   "<SOAP-ENV:Body><m:file.ls><param><value>/</value></param>"
                   "</m:file.ls></SOAP-ENV:Body></SOAP-ENV:Envelope>",
       "file.ls"},
      // A plain SOAP call peeks its method.
      {Protocol::Soap, soap::serialize_request(list), "system.list_methods"},
      {Protocol::XmlRpc, xmlrpc::serialize_request(list),
       "system.list_methods"},
  };
  for (const Case& c : cases) {
    std::string parsed;
    try {
      parsed = parse_request(c.protocol, c.body).method;
    } catch (const ParseError&) {
    }
    EXPECT_EQ(parsed, c.method) << c.body;
    EXPECT_EQ(peek_method(c.protocol, c.body), c.method) << c.body;
  }
}

// ---------- registry ----------

TEST(Registry, RegisterListDispatch) {
  Registry registry;
  registry.add("math.add",
               [](const CallContext&, const std::vector<Value>& params) {
                 return Value(params[0].as_int() + params[1].as_int());
               },
               "Add two integers", "int (int a, int b)");
  registry.add("math.sub",
               [](const CallContext&, const std::vector<Value>& params) {
                 return Value(params[0].as_int() - params[1].as_int());
               });
  registry.add("other.noop",
               [](const CallContext&, const std::vector<Value>&) {
                 return Value();
               });

  EXPECT_EQ(registry.size(), 3u);
  EXPECT_TRUE(registry.has("math.add"));
  EXPECT_EQ(registry.list(),
            (std::vector<std::string>{"math.add", "math.sub", "other.noop"}));
  EXPECT_EQ(registry.list_module("math").size(), 2u);
  EXPECT_EQ(registry.info("math.add").help, "Add two integers");

  CallContext context;
  EXPECT_EQ(registry.dispatch("math.add", context, {Value(2), Value(3)}).as_int(),
            5);
}

TEST(Registry, UnknownMethodFaults) {
  Registry registry;
  CallContext context;
  try {
    registry.dispatch("no.such", context, {});
    FAIL();
  } catch (const Fault& fault) {
    EXPECT_EQ(fault.code(), kFaultBadMethod);
  }
  EXPECT_THROW(registry.info("no.such"), Fault);
}

TEST(Registry, RemoveAndReplace) {
  Registry registry;
  registry.add("m.f", [](const CallContext&, const std::vector<Value>&) {
    return Value(1);
  });
  registry.add("m.f", [](const CallContext&, const std::vector<Value>&) {
    return Value(2);
  });
  CallContext context;
  EXPECT_EQ(registry.dispatch("m.f", context, {}).as_int(), 2);
  registry.remove("m.f");
  EXPECT_FALSE(registry.has("m.f"));
}

}  // namespace
}  // namespace clarens::rpc
