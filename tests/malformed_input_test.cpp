// Deterministic malformed-input corpus for the wire decoders.
//
// Every case must fail *cleanly*: a clarens::ParseError (surfaced to the
// client as a fault), never a crash, hang, stack overflow, or multi-GB
// allocation. The corpus covers the attack shapes the decoders guard
// against: truncated envelopes, nesting bombs, bad base64, and overlong
// declared lengths.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "rpc/binrpc.hpp"
#include "rpc/jsonrpc.hpp"
#include "rpc/soap.hpp"
#include "rpc/xml.hpp"
#include "rpc/xmlrpc.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"

namespace clarens {
namespace {

// --- helpers ----------------------------------------------------------

void drain(rpc::XmlPullParser& parser) {
  while (parser.next() != rpc::XmlPullParser::Event::Eof) {
  }
}

std::string be32(std::uint32_t v) {
  std::string out(4, '\0');
  out[0] = static_cast<char>(v >> 24);
  out[1] = static_cast<char>(v >> 16);
  out[2] = static_cast<char>(v >> 8);
  out[3] = static_cast<char>(v);
  return out;
}

const std::string kFrameReq = std::string("CRPC") + '\x01' + '\x01';

// --- XmlPullParser: truncated envelopes -------------------------------

TEST(MalformedXml, TruncatedEnvelopes) {
  const char* corpus[] = {
      "<",
      "<methodCall",
      "<methodCall>",
      "<methodCall><methodName>echo",
      "<methodCall><methodName>echo</methodName>",
      "<a b=",
      "<a b=\"unterminated",
      "<a><![CDATA[no terminator",
      "<a>text<!-- unterminated comment",
      "<?xml version=\"1.0\"?>",  // prolog only, no root
  };
  for (const char* doc : corpus) {
    rpc::XmlPullParser parser{std::string_view(doc)};
    EXPECT_THROW(drain(parser), ParseError) << doc;
  }
}

TEST(MalformedXml, StructuralErrors) {
  const char* corpus[] = {
      "<a></b>",                    // mismatched close
      "<a/><b/>",                   // two roots
      "<a></a>trailing",            // trailing chardata
      "text before<a/>",            // chardata outside root
      "</a>",                       // close without open
      "<a>&bogus;</a>",             // unknown entity
      "<a>&#xZZ;</a>",              // bad numeric reference
      "<a>&#;</a>",                 // empty numeric reference
  };
  for (const char* doc : corpus) {
    rpc::XmlPullParser parser{std::string_view(doc)};
    EXPECT_THROW(
        {
          while (parser.next() != rpc::XmlPullParser::Event::Eof) {
            if (parser.next() == rpc::XmlPullParser::Event::Text) {
              parser.text();  // force entity decoding
            }
          }
        },
        ParseError)
        << doc;
  }
}

// --- XmlPullParser: nesting bombs --------------------------------------

TEST(MalformedXml, NestingBombThrowsInsteadOfOverflowing) {
  // 200k open tags: without the depth cap the tree builders would
  // recurse once per level and smash the stack.
  std::string bomb;
  for (int i = 0; i < 200000; ++i) bomb += "<a>";
  rpc::XmlPullParser parser{bomb};
  EXPECT_THROW(drain(parser), ParseError);
  // Skipping an element walks the same depth-capped events.
  rpc::XmlPullParser skipper{bomb};
  skipper.next();
  EXPECT_THROW(skipper.skip_element(), ParseError);
}

TEST(MalformedXml, DepthJustUnderTheCapStillParses) {
  std::string doc;
  std::size_t depth = rpc::XmlPullParser::kMaxDepth - 1;
  for (std::size_t i = 0; i < depth; ++i) doc += "<a>";
  doc += "x";
  for (std::size_t i = 0; i < depth; ++i) doc += "</a>";
  rpc::XmlPullParser parser{doc};
  EXPECT_NO_THROW(drain(parser));
  EXPECT_EQ(parser.name(), "a");  // the root's EndTag came last
}

TEST(MalformedXml, XmlRpcNestedArrayBomb) {
  std::string bomb = "<methodCall><methodName>m</methodName><params><param>";
  for (int i = 0; i < 100000; ++i) bomb += "<value><array><data>";
  bomb += "<value><int>1</int></value>";
  for (int i = 0; i < 100000; ++i) bomb += "</data></array></value>";
  bomb += "</param></params></methodCall>";
  EXPECT_THROW(rpc::xmlrpc::parse_request(bomb), ParseError);
}

TEST(MalformedXml, SoapNestedArrayBomb) {
  // SOAP params decode through the XML-RPC value decoder, which recurses
  // once per nested value: kMaxDepth is what stops this one too.
  std::string bomb =
      "<SOAP-ENV:Envelope><SOAP-ENV:Body><m:m><param>";
  for (int i = 0; i < 100000; ++i) bomb += "<value><array><data>";
  bomb += "<value><int>1</int></value>";
  for (int i = 0; i < 100000; ++i) bomb += "</data></array></value>";
  bomb += "</param></m:m></SOAP-ENV:Body></SOAP-ENV:Envelope>";
  EXPECT_THROW(rpc::soap::parse_request(bomb), ParseError);
}

// --- XML-RPC: bad base64 ----------------------------------------------

TEST(MalformedXml, BadBase64Params) {
  const char* corpus[] = {
      "!!!!",        // invalid alphabet
      "QUJ#RA==",    // invalid char mid-stream
      "QQ==QQ==",    // data after padding
      "QR==",        // nonzero trailing bits
  };
  for (const char* b64 : corpus) {
    std::string request =
        "<methodCall><methodName>m</methodName><params><param>"
        "<value><base64>" +
        std::string(b64) +
        "</base64></value>"
        "</param></params></methodCall>";
    EXPECT_THROW(rpc::xmlrpc::parse_request(request), ParseError) << b64;
  }
  // Direct decoder corpus, including whitespace tolerance on the happy
  // path so the negative cases above fail for the right reason.
  EXPECT_EQ(util::base64_decode("QUJD").size(), 3u);
  EXPECT_EQ(util::base64_decode("QU\nJD").size(), 3u);
  EXPECT_THROW(util::base64_decode("Q$JD"), ParseError);
}

// --- binrpc: truncated frames -----------------------------------------

TEST(MalformedBinrpc, TruncatedFrames) {
  std::vector<std::string> corpus = {
      "",
      "C",
      "CRP",
      "CRPC",
      std::string("CRPC") + '\x01',           // no kind
      kFrameReq,                               // no method value
      kFrameReq + '\x04',                      // string tag, no length
      kFrameReq + '\x04' + be32(4) + "ab",     // string short 2 bytes
      kFrameReq + '\x02' + "\x00\x01",         // int, 2 of 8 bytes
  };
  for (const std::string& frame : corpus) {
    EXPECT_THROW(rpc::binrpc::parse_request(frame), ParseError);
  }
}

TEST(MalformedBinrpc, BadMagicVersionKind) {
  EXPECT_THROW(rpc::binrpc::parse_request(std::string("XRPC") + '\x01' + '\x01'),
               ParseError);
  EXPECT_THROW(rpc::binrpc::parse_request(std::string("CRPC") + '\x07' + '\x01'),
               ParseError);
  // Response frame handed to the request parser.
  EXPECT_THROW(rpc::binrpc::parse_request(std::string("CRPC") + '\x01' + '\x02'),
               ParseError);
  // Unknown value tag.
  EXPECT_THROW(rpc::binrpc::parse_value(std::string(1, '\x2a')), ParseError);
}

// --- binrpc: overlong declared lengths --------------------------------

TEST(MalformedBinrpc, OverlongLengthsRejectedWithoutAllocating) {
  // Declared sizes near 4 GiB with a few bytes of payload: the decoder
  // must reject on the declared length, not try to allocate or read it.
  std::string huge_string = std::string(1, '\x04') + be32(0xFFFFFFFFu) + "x";
  EXPECT_THROW(rpc::binrpc::parse_value(huge_string), ParseError);

  std::string huge_blob = std::string(1, '\x05') + be32(0xFFFFFF00u) + "x";
  EXPECT_THROW(rpc::binrpc::parse_value(huge_blob), ParseError);

  std::string huge_array = std::string(1, '\x07') + be32(0xFFFFFFFFu);
  EXPECT_THROW(rpc::binrpc::parse_value(huge_array), ParseError);

  std::string huge_struct = std::string(1, '\x08') + be32(0xFFFFFFFFu);
  EXPECT_THROW(rpc::binrpc::parse_value(huge_struct), ParseError);
}

// --- binrpc: nesting bomb ---------------------------------------------

TEST(MalformedBinrpc, NestedArrayBomb) {
  // 10k arrays of one element each: [[[[...]]]].
  std::string bomb;
  for (int i = 0; i < 10000; ++i) bomb += std::string(1, '\x07') + be32(1);
  bomb += '\x00';  // innermost nil
  EXPECT_THROW(rpc::binrpc::parse_value(bomb), ParseError);
}

TEST(MalformedBinrpc, RoundTripStillWorksAtSaneDepth) {
  rpc::Value value = rpc::Value::array();
  for (int i = 0; i < 16; ++i) {
    rpc::Value wrap = rpc::Value::array();
    wrap.push(std::move(value));
    value = std::move(wrap);
  }
  rpc::Value decoded = rpc::binrpc::parse_value(
      rpc::binrpc::serialize_value(value));
  EXPECT_EQ(decoded.type(), rpc::Value::Type::Array);
}

// --- JSON-RPC: nesting bomb + truncation ------------------------------

TEST(MalformedJson, NestingBombAndTruncation) {
  std::string bomb(200000, '[');
  EXPECT_THROW(rpc::jsonrpc::parse_value(bomb), ParseError);
  std::string obj_bomb;
  for (int i = 0; i < 100000; ++i) obj_bomb += "{\"a\":";
  EXPECT_THROW(rpc::jsonrpc::parse_value(obj_bomb), ParseError);
  EXPECT_THROW(rpc::jsonrpc::parse_value("{\"a\": [1, 2"), ParseError);
  EXPECT_THROW(rpc::jsonrpc::parse_value("\"unterminated"), ParseError);
}

TEST(MalformedJson, SaneDepthStillParses) {
  std::string doc(64, '[');
  doc += "1";
  doc.append(64, ']');
  rpc::Value v = rpc::jsonrpc::parse_value(doc);
  EXPECT_EQ(v.type(), rpc::Value::Type::Array);
}

}  // namespace
}  // namespace clarens
