// Randomized property tests, seeded (deterministic) via the DRBG:
//  * arbitrary Value trees survive every wire codec;
//  * DN parse/render is idempotent;
//  * BigInt arithmetic satisfies ring identities;
//  * codecs (hex/base64/XML escaping) round-trip arbitrary bytes/text;
//  * the inline-dispatch method peek never names a method other than
//    the one the parser dispatches, on any codec, under truncation and
//    decoy insertion.
#include <gtest/gtest.h>

#include <cstring>

#include "crypto/bigint.hpp"
#include "crypto/random.hpp"
#include "pki/dn.hpp"
#include "rpc/binrpc.hpp"
#include "rpc/jsonrpc.hpp"
#include "rpc/protocol.hpp"
#include "rpc/soap.hpp"
#include "rpc/xml.hpp"
#include "rpc/xmlrpc.hpp"
#include "util/hex.hpp"

namespace clarens {
namespace {

using crypto::Drbg;

// ---------- random Value generator ----------

std::string random_text(Drbg& rng, std::size_t max_len) {
  // Printable ASCII plus the XML/JSON special characters and some UTF-8.
  static const char* alphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789 <>&\"'{}[]\\/\n\t.,;:!?-_";
  std::size_t len = rng.uniform(max_len + 1);
  std::string out;
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(alphabet[rng.uniform(std::strlen(alphabet))]);
  }
  return out;
}

rpc::Value random_value(Drbg& rng, int depth) {
  // Containers get rarer with depth; leaves dominate at the bottom.
  std::uint64_t kind = rng.uniform(depth > 0 ? 9 : 7);
  switch (kind) {
    case 0: return rpc::Value();
    case 1: return rpc::Value(rng.uniform(2) == 1);
    case 2: return rpc::Value(static_cast<std::int64_t>(rng.next_u64()));
    case 3: {
      // Doubles from a bit pattern constrained to finite values.
      double d = static_cast<double>(static_cast<std::int64_t>(rng.next_u64())) /
                 1048576.0;
      return rpc::Value(d);
    }
    case 4: return rpc::Value(random_text(rng, 40));
    case 5: return rpc::Value(rng.bytes(rng.uniform(64)));
    case 6:
      return rpc::Value(rpc::DateTime{
          static_cast<std::int64_t>(rng.uniform(4102444800ull))});
    case 7: {
      rpc::Value array = rpc::Value::array();
      std::uint64_t n = rng.uniform(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        array.push(random_value(rng, depth - 1));
      }
      return array;
    }
    default: {
      rpc::Value object = rpc::Value::struct_();
      std::uint64_t n = rng.uniform(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        // Unique-ish keys; struct keys must be non-clashing for equality.
        object.set("k" + std::to_string(i) + random_text(rng, 6),
                   random_value(rng, depth - 1));
      }
      return object;
    }
  }
}

class ValueRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ValueRoundTrip, SurvivesEveryCodec) {
  Drbg rng(std::vector<std::uint8_t>{static_cast<std::uint8_t>(GetParam())});
  for (int trial = 0; trial < 20; ++trial) {
    rpc::Value original = random_value(rng, 3);
    rpc::Response response = rpc::Response::success(original);

    rpc::Response via_xml =
        rpc::xmlrpc::parse_response(rpc::xmlrpc::serialize_response(response));
    EXPECT_EQ(via_xml.result, original) << "xmlrpc trial " << trial;

    rpc::Response via_json = rpc::jsonrpc::parse_response(
        rpc::jsonrpc::serialize_response(response));
    EXPECT_EQ(via_json.result, original) << "jsonrpc trial " << trial;

    rpc::Response via_soap =
        rpc::soap::parse_response(rpc::soap::serialize_response(response));
    EXPECT_EQ(via_soap.result, original) << "soap trial " << trial;

    rpc::Response via_bin =
        rpc::binrpc::parse_response(rpc::binrpc::serialize_response(response));
    EXPECT_EQ(via_bin.result, original) << "binrpc trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueRoundTrip, ::testing::Range(0, 8));

// Cross-codec transitivity: xml -> value -> json -> value -> binary -> value.
TEST(ValueRoundTrip, CrossCodecChain) {
  Drbg rng(std::vector<std::uint8_t>{42});
  for (int trial = 0; trial < 20; ++trial) {
    rpc::Value original = random_value(rng, 3);
    rpc::Response r = rpc::Response::success(original);
    r = rpc::jsonrpc::parse_response(rpc::jsonrpc::serialize_response(r));
    r = rpc::xmlrpc::parse_response(rpc::xmlrpc::serialize_response(r));
    r = rpc::binrpc::parse_response(rpc::binrpc::serialize_response(r));
    r = rpc::soap::parse_response(rpc::soap::serialize_response(r));
    EXPECT_EQ(r.result, original) << "trial " << trial;
  }
}

// ---------- method peek vs parser ----------

struct PeekCodec {
  rpc::Protocol protocol;
  /// Text that may name a cheap method without being the call's method.
  std::vector<std::string> decoys;
  /// Insertion points: after any of these bytes ("" = anywhere).
  std::string_view after;
};

std::vector<PeekCodec> peek_codecs() {
  const std::vector<std::string> xml_decoys = {
      "<!--<methodName>system.list_methods</methodName>-->",
      "<methodName>system.list_methods</methodName>",
      "<x><methodName>echo.echo</methodName></x>",
      "<m:system.list_methods/>",
      "<SOAP-ENV:Header><m:echo.echo/></SOAP-ENV:Header>",
      "<param><value><methodName>echo.echo</methodName></value></param>",
      "<![CDATA[<methodName>echo.echo</methodName>]]>",
      "system.ping",
  };
  std::string bin_decoy = {4, 0, 0, 0, 11};
  bin_decoy += "echo.echo.x";
  return {
      {rpc::Protocol::XmlRpc, xml_decoys, ">"},
      {rpc::Protocol::Soap, xml_decoys, ">"},
      {rpc::Protocol::JsonRpc,
       {R"("method":"system.list_methods",)", R"({"method":"echo.echo"},)",
        R"("\u006dethod":"echo.echo",)", R"("method":"echo.echo")",
        R"(["method","echo.echo"],)", R"("x":"\"method\":\"echo.echo\"",)"},
       "{[,"},
      {rpc::Protocol::Binary, {bin_decoy, std::string(1, '\0')}, ""},
  };
}

class PeekAgreesWithParser : public ::testing::TestWithParam<int> {};

TEST_P(PeekAgreesWithParser, OnEveryCodec) {
  Drbg rng(std::vector<std::uint8_t>{static_cast<std::uint8_t>(GetParam()), 9});
  const char* methods[] = {"system.list_methods", "echo.echo", "file.md5",
                           "shell.cmd", "system.auth", "m"};
  for (const PeekCodec& codec : peek_codecs()) {
    int parsed = 0;
    int named = 0;
    for (int trial = 0; trial < 300; ++trial) {
      rpc::Request request;
      request.method = methods[rng.uniform(std::size(methods))];
      for (std::uint64_t i = rng.uniform(3); i > 0; --i) {
        request.params.push_back(random_value(rng, 2));
      }
      request.id = rpc::Value(static_cast<std::int64_t>(trial));
      std::string body = rpc::serialize_request(codec.protocol, request);
      switch (rng.uniform(3)) {
        case 0:  // as serialized
          break;
        case 1:  // truncated
          body.resize(rng.uniform(body.size()));
          break;
        default: {  // a decoy at a random insertion point
          std::vector<std::size_t> points;
          for (std::size_t i = 0; i < body.size(); ++i) {
            if (codec.after.empty() ||
                codec.after.find(body[i]) != std::string_view::npos) {
              points.push_back(i + 1);
            }
          }
          const std::string& decoy =
              codec.decoys[rng.uniform(codec.decoys.size())];
          body.insert(points[rng.uniform(points.size())], decoy);
          break;
        }
      }
      std::string method;
      try {
        method = rpc::parse_request(codec.protocol, body).method;
      } catch (const std::exception&) {
        continue;  // the peek may say anything about a body that fails
      }
      ++parsed;
      std::string peek = rpc::peek_method(codec.protocol, body);
      EXPECT_TRUE(peek.empty() || peek == method)
          << rpc::to_string(codec.protocol) << " peeked '" << peek
          << "' but parsed '" << method << "' from: " << body;
      if (peek == method) ++named;
    }
    // Not vacuous: most bodies parse, and the peek names their method.
    EXPECT_GT(parsed, 100) << rpc::to_string(codec.protocol);
    EXPECT_GT(named, parsed / 2) << rpc::to_string(codec.protocol);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeekAgreesWithParser, ::testing::Range(0, 4));

// ---------- DN properties ----------

class DnProperties : public ::testing::TestWithParam<int> {};

TEST_P(DnProperties, ParseRenderIdempotent) {
  Drbg rng(std::vector<std::uint8_t>{static_cast<std::uint8_t>(GetParam()), 1});
  static const char* keys[] = {"C", "ST", "L", "O", "OU", "CN", "DC"};
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<pki::DistinguishedName::Attribute> attributes;
    std::uint64_t n = 1 + rng.uniform(6);
    for (std::uint64_t i = 0; i < n; ++i) {
      // Values: alnum + spaces + dots (no '=' — DN values exclude it).
      std::string value;
      std::size_t len = 1 + rng.uniform(12);
      static const char* value_alphabet =
          "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .";
      for (std::size_t j = 0; j < len; ++j) {
        value.push_back(value_alphabet[rng.uniform(std::strlen(value_alphabet))]);
      }
      // Trim-stable values only (parse trims whitespace at edges).
      while (!value.empty() && value.front() == ' ') value.erase(0, 1);
      while (!value.empty() && value.back() == ' ') value.pop_back();
      if (value.empty()) value = "x";
      attributes.emplace_back(keys[rng.uniform(7)], value);
    }
    pki::DistinguishedName dn(attributes);
    pki::DistinguishedName reparsed = pki::DistinguishedName::parse(dn.str());
    EXPECT_EQ(reparsed, dn) << dn.str();
    // Prefix reflexivity and anti-symmetry with a strict prefix.
    EXPECT_TRUE(dn.is_prefix_of(dn));
    if (dn.size() > 1) {
      pki::DistinguishedName shorter(
          {attributes.begin(), attributes.end() - 1});
      EXPECT_TRUE(shorter.is_prefix_of(dn));
      EXPECT_FALSE(dn.is_prefix_of(shorter));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnProperties, ::testing::Range(0, 4));

// ---------- BigInt ring identities ----------

class BigIntProperties : public ::testing::TestWithParam<int> {};

TEST_P(BigIntProperties, RingIdentities) {
  Drbg rng(std::vector<std::uint8_t>{static_cast<std::uint8_t>(GetParam()), 2});
  using crypto::BigInt;
  for (int trial = 0; trial < 10; ++trial) {
    BigInt a = BigInt::random_bits(1 + rng.uniform(192), rng);
    BigInt b = BigInt::random_bits(1 + rng.uniform(192), rng);
    BigInt c = BigInt::random_bits(1 + rng.uniform(64), rng);

    // Commutativity and associativity.
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ((a * b) * c, a * (b * c));
    // Distributivity.
    EXPECT_EQ(a * (b + c), a * b + a * c);
    // Subtraction inverts addition.
    EXPECT_EQ((a + b) - b, a);
    // Division identity.
    auto [q, r] = (a * b + c).divmod(b);
    EXPECT_EQ(q * b + r, a * b + c);
    EXPECT_TRUE(r < b);
    // Shifts are multiplication/division by powers of two.
    EXPECT_EQ(a << 17, a * (BigInt(1) << 17));
    EXPECT_EQ((a << 17) >> 17, a);
    // Bytes and hex round-trips.
    EXPECT_EQ(BigInt::from_bytes(a.to_bytes()), a);
    EXPECT_EQ(BigInt::from_hex(a.to_hex()), a);
  }
}

TEST_P(BigIntProperties, ModExpHomomorphism) {
  Drbg rng(std::vector<std::uint8_t>{static_cast<std::uint8_t>(GetParam()), 3});
  using crypto::BigInt;
  for (int trial = 0; trial < 5; ++trial) {
    BigInt n = BigInt::random_bits(128, rng);
    if (!n.is_odd()) n = n + BigInt(1);  // Montgomery path
    BigInt a = BigInt::random_below(n, rng);
    BigInt b = BigInt::random_below(n, rng);
    BigInt e = BigInt::random_bits(24, rng);
    // (a*b)^e == a^e * b^e (mod n)
    EXPECT_EQ((a * b).modexp(e, n), (a.modexp(e, n) * b.modexp(e, n)) % n);
    // a^(e+1) == a^e * a (mod n)
    EXPECT_EQ(a.modexp(e + BigInt(1), n), (a.modexp(e, n) * a) % n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntProperties, ::testing::Range(0, 4));

// ---------- codec round-trips over random bytes/text ----------

class CodecProperties : public ::testing::TestWithParam<int> {};

TEST_P(CodecProperties, BytesAndTextRoundTrips) {
  Drbg rng(std::vector<std::uint8_t>{static_cast<std::uint8_t>(GetParam()), 4});
  for (int trial = 0; trial < 50; ++trial) {
    auto blob = rng.bytes(rng.uniform(200));
    EXPECT_EQ(util::hex_decode(util::hex_encode(blob)), blob);
    EXPECT_EQ(util::base64_decode(util::base64_encode(blob)), blob);

    std::string text = random_text(rng, 120);
    std::string doc = "<r>" + rpc::xml_escape(text) + "</r>";
    rpc::XmlPullParser parser(doc);
    parser.next();
    EXPECT_EQ(parser.element_text(), text);
    EXPECT_EQ(parser.next(), rpc::XmlPullParser::Event::Eof);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperties, ::testing::Range(0, 4));

}  // namespace
}  // namespace clarens
