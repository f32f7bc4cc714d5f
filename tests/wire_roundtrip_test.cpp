// Wire-pipeline property tests for the zero-copy codec rewrite:
//  * randomized Value trees — deep nesting, every scalar type,
//    entity-laden and embedded-NUL strings, >64KiB binary blobs —
//    round-trip through all four protocols (request and response
//    envelopes) with structural equality;
//  * re-serializing the parsed result is byte-identical (the serializers
//    are deterministic, so parse must lose nothing);
//  * the Buffer-appending serializer overloads produce exactly the bytes
//    of the string forms;
//  * malformed envelopes throw ParseError rather than crash — of
//    particular interest under the ASan/TSan presets, since the parsers
//    now slice string_views out of the input instead of copying.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "crypto/random.hpp"
#include "rpc/binrpc.hpp"
#include "rpc/jsonrpc.hpp"
#include "rpc/protocol.hpp"
#include "rpc/soap.hpp"
#include "rpc/xml.hpp"
#include "rpc/xmlrpc.hpp"
#include "util/buffer.hpp"
#include "util/error.hpp"

namespace clarens {
namespace {

using crypto::Drbg;
using rpc::Protocol;

constexpr Protocol kProtocols[] = {Protocol::XmlRpc, Protocol::JsonRpc,
                                   Protocol::Soap, Protocol::Binary};

// Strings that stress the escapers: XML entities, JSON escapes, CDATA
// terminators, embedded NULs, control bytes, multi-byte UTF-8.
std::string random_nasty_text(Drbg& rng, std::size_t max_len) {
  static const char* alphabet =
      "ab<>&\"'{}[]\\/\n\r\t;:!?-_ ]]>%&#x41;&amp;\x01\x1f";
  std::size_t len = rng.uniform(max_len + 1);
  std::string out;
  for (std::size_t i = 0; i < len; ++i) {
    std::uint64_t pick = rng.uniform(std::strlen(alphabet) + 3);
    if (pick == 0) {
      out.push_back('\0');  // embedded NUL
    } else if (pick == 1) {
      out += "\xc3\xa9";  // é
    } else if (pick == 2) {
      out += "\xe2\x82\xac";  // €
    } else {
      out.push_back(alphabet[pick - 3]);
    }
  }
  return out;
}

rpc::Value random_value(Drbg& rng, int depth) {
  std::uint64_t kind = rng.uniform(depth > 0 ? 9 : 7);
  switch (kind) {
    case 0: return rpc::Value();
    case 1: return rpc::Value(rng.uniform(2) == 1);
    case 2: return rpc::Value(static_cast<std::int64_t>(rng.next_u64()));
    case 3: {
      double d =
          static_cast<double>(static_cast<std::int64_t>(rng.next_u64())) /
          1048576.0;
      return rpc::Value(d);
    }
    case 4: return rpc::Value(random_nasty_text(rng, 48));
    case 5: return rpc::Value(rng.bytes(rng.uniform(96)));
    case 6:
      return rpc::Value(rpc::DateTime{
          static_cast<std::int64_t>(rng.uniform(4102444800ull))});
    case 7: {
      rpc::Value array = rpc::Value::array();
      std::uint64_t n = rng.uniform(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        array.push(random_value(rng, depth - 1));
      }
      return array;
    }
    default: {
      rpc::Value object = rpc::Value::struct_();
      std::uint64_t n = rng.uniform(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        object.set("k" + std::to_string(i) + random_nasty_text(rng, 5),
                   random_value(rng, depth - 1));
      }
      return object;
    }
  }
}

class WireRoundTrip : public ::testing::TestWithParam<int> {};

// Response envelope: parse(serialize(x)) == x, and the second
// serialization is byte-identical to the first.
TEST_P(WireRoundTrip, ResponseStableAndByteIdentical) {
  Drbg rng(std::vector<std::uint8_t>{static_cast<std::uint8_t>(GetParam()), 7});
  for (int trial = 0; trial < 15; ++trial) {
    rpc::Response response = rpc::Response::success(random_value(rng, 5));
    response.id = rpc::Value(static_cast<std::int64_t>(trial));
    for (Protocol protocol : kProtocols) {
      std::string wire = rpc::serialize_response(protocol, response);
      rpc::Response parsed = rpc::parse_response(protocol, wire);
      ASSERT_EQ(parsed.result, response.result)
          << rpc::to_string(protocol) << " trial " << trial;
      // Deterministic serializers: nothing may be lost in the round trip.
      std::string rewire = rpc::serialize_response(protocol, parsed);
      ASSERT_EQ(rewire, wire)
          << rpc::to_string(protocol) << " trial " << trial;
    }
  }
}

// Request envelope (method + params list).
TEST_P(WireRoundTrip, RequestStableAndByteIdentical) {
  Drbg rng(std::vector<std::uint8_t>{static_cast<std::uint8_t>(GetParam()), 8});
  for (int trial = 0; trial < 15; ++trial) {
    rpc::Request request;
    request.method = "echo.file_" + std::to_string(trial);
    request.id = rpc::Value(static_cast<std::int64_t>(trial));
    std::uint64_t n = rng.uniform(4);
    for (std::uint64_t i = 0; i < n; ++i) {
      request.params.push_back(random_value(rng, 4));
    }
    for (Protocol protocol : kProtocols) {
      std::string wire = rpc::serialize_request(protocol, request);
      rpc::Request parsed = rpc::parse_request(protocol, wire);
      ASSERT_EQ(parsed.method, request.method) << rpc::to_string(protocol);
      ASSERT_EQ(parsed.params.size(), request.params.size())
          << rpc::to_string(protocol);
      for (std::size_t i = 0; i < request.params.size(); ++i) {
        ASSERT_EQ(parsed.params[i], request.params[i])
            << rpc::to_string(protocol) << " param " << i;
      }
      std::string rewire = rpc::serialize_request(protocol, parsed);
      ASSERT_EQ(rewire, wire) << rpc::to_string(protocol);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTrip, ::testing::Range(0, 6));

// The Buffer-appending overloads must emit exactly the string forms —
// they are the same serializer, but verify the dispatch plumbing.
TEST(WireRoundTrip, BufferOverloadsMatchStringForms) {
  Drbg rng(std::vector<std::uint8_t>{99});
  rpc::Response response = rpc::Response::success(random_value(rng, 4));
  rpc::Request request;
  request.method = "system.ping";
  request.params.push_back(random_value(rng, 3));
  for (Protocol protocol : kProtocols) {
    util::Buffer arena;
    rpc::serialize_response(protocol, response, arena);
    EXPECT_EQ(arena.peek_view(), rpc::serialize_response(protocol, response))
        << rpc::to_string(protocol);
    arena.clear();
    rpc::serialize_request(protocol, request, arena);
    EXPECT_EQ(arena.peek_view(), rpc::serialize_request(protocol, request))
        << rpc::to_string(protocol);
  }
}

// Giant binary payloads cross the Buffer's shrink floor and the base64
// streaming-append path.
TEST(WireRoundTrip, LargeBinaryPayload) {
  Drbg rng(std::vector<std::uint8_t>{17});
  std::vector<std::uint8_t> blob = rng.bytes(96 * 1024);  // > 64 KiB
  rpc::Response response =
      rpc::Response::success(rpc::Value(std::move(blob)));
  for (Protocol protocol : kProtocols) {
    std::string wire = rpc::serialize_response(protocol, response);
    rpc::Response parsed = rpc::parse_response(protocol, wire);
    ASSERT_EQ(parsed.result, response.result) << rpc::to_string(protocol);
    ASSERT_EQ(rpc::serialize_response(protocol, parsed), wire)
        << rpc::to_string(protocol);
  }
}

// Deeply nested single-chain values exercise the pull parser's stack
// handling without the random generator's branching factor limits.
TEST(WireRoundTrip, DeepNesting) {
  rpc::Value v("bottom");
  for (int i = 0; i < 40; ++i) {
    rpc::Value array = rpc::Value::array();
    array.push(std::move(v));
    v = std::move(array);
  }
  rpc::Response response = rpc::Response::success(std::move(v));
  for (Protocol protocol : kProtocols) {
    std::string wire = rpc::serialize_response(protocol, response);
    rpc::Response parsed = rpc::parse_response(protocol, wire);
    ASSERT_EQ(parsed.result, response.result) << rpc::to_string(protocol);
  }
}

// Malformed envelopes must throw ParseError (never crash or hang) —
// slicing parsers are prone to out-of-bounds reads on truncated input,
// which the sanitizer presets would catch here.
TEST(WireRoundTrip, MalformedEnvelopesThrow) {
  const char* xml_bad[] = {
      "",
      "<methodCall>",
      "<methodCall></methodCall>",
      "<methodCall><methodName>m</methodName></methodCall><x/>",
      "<methodResponse><params><param><value><int>7</int></value>",
      "<methodCall><methodName>m</methodName><params><param>"
      "<value><int>zz</int></value></param></params></methodCall>",
      "<methodCall><methodName>m</methodName><params><param>"
      "<value>&bogus;</value></param></params></methodCall>",
      "<methodCall><methodName>m</methodName><params><param>"
      "<value><int>1</value></int></param></params></methodCall>",
  };
  for (const char* body : xml_bad) {
    EXPECT_THROW(rpc::xmlrpc::parse_request(body), ParseError) << body;
  }

  const char* json_bad[] = {
      "", "{", "{\"method\":", "[1,2", "{\"method\":\"m\",\"params\":3}",
      "{\"method\":\"m\"} trailing", "{\"method\":\"m\",\"params\":[\"\\u12\"]}",
  };
  for (const char* body : json_bad) {
    EXPECT_THROW(rpc::jsonrpc::parse_request(body), ParseError) << body;
  }

  const char* soap_bad[] = {
      "", "<Envelope/>", "<Envelope><Body/></Envelope><x/>",
      "<Envelope><Body><m><param></param></m></Body></Envelope>",
  };
  for (const char* body : soap_bad) {
    EXPECT_THROW(rpc::soap::parse_request(body), ParseError) << body;
  }

  // Truncations at every prefix of a valid binary frame.
  std::string bin = rpc::binrpc::serialize_request([] {
    rpc::Request r;
    r.method = "m";
    r.params.push_back(rpc::Value(std::string("payload")));
    return r;
  }());
  for (std::size_t len = 0; len < bin.size(); ++len) {
    EXPECT_THROW(rpc::binrpc::parse_request(bin.substr(0, len)), ParseError)
        << "truncated at " << len;
  }
  std::string corrupt = bin;
  corrupt[0] = 'X';
  EXPECT_THROW(rpc::binrpc::parse_request(corrupt), ParseError);
}

// The pull parser hands out views into the caller's buffer; decoded
// access must copy, view access must alias.
TEST(WireRoundTrip, PullTextAliasesOrDecodes) {
  std::string doc = "<root attr=\"a&amp;b\"><clean>plain text</clean>"
                    "<coded>x &lt;&gt; y</coded>"
                    "<cd><![CDATA[<raw&stuff>]]></cd></root>";
  auto within_doc = [&doc](std::string_view view) {
    return view.data() >= doc.data() &&
           view.data() + view.size() <= doc.data() + doc.size();
  };
  rpc::XmlPullParser p(doc);
  ASSERT_EQ(p.next(), rpc::XmlPullParser::Event::StartTag);
  ASSERT_EQ(p.attributes().size(), 1u);
  EXPECT_EQ(p.attributes()[0].second, "a&amp;b");  // raw, undecoded
  EXPECT_TRUE(within_doc(p.attributes()[0].second));
  EXPECT_EQ(rpc::xml_unescape(p.attributes()[0].second), "a&b");

  p.next();  // <clean>
  ASSERT_EQ(p.next(), rpc::XmlPullParser::Event::Text);
  EXPECT_FALSE(p.text_needs_unescape());
  // The view aliases the document storage — zero-copy.
  EXPECT_TRUE(within_doc(p.text_raw()));
  EXPECT_EQ(p.text_raw(), "plain text");
  p.next();  // </clean>

  p.next();  // <coded>
  ASSERT_EQ(p.next(), rpc::XmlPullParser::Event::Text);
  EXPECT_TRUE(p.text_needs_unescape());
  EXPECT_EQ(p.text_raw(), "x &lt;&gt; y");
  EXPECT_EQ(p.text(), "x <> y");
  p.next();  // </coded>

  p.next();  // <cd>
  EXPECT_EQ(p.element_text(), "<raw&stuff>");
}

}  // namespace
}  // namespace clarens
