#include "rpc/xml.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cstring>

#include "util/error.hpp"

namespace clarens::rpc {

namespace {

constexpr std::string_view kXmlSpecial = "<>&\"'";

std::string_view entity_for(char c) {
  switch (c) {
    case '<': return "&lt;";
    case '>': return "&gt;";
    case '&': return "&amp;";
    case '"': return "&quot;";
    case '\'': return "&apos;";
  }
  return {};
}

void escape_into(std::string& out, std::string_view text, std::size_t first) {
  std::size_t i = 0;
  std::size_t pos = first;
  for (;;) {
    out.append(text.substr(i, pos - i));
    out.append(entity_for(text[pos]));
    i = pos + 1;
    pos = text.find_first_of(kXmlSpecial, i);
    if (pos == std::string_view::npos) {
      out.append(text.substr(i));
      return;
    }
  }
}

void utf8_append(std::string& out, long code) {
  if (code < 0x80) {
    out.push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out.push_back(static_cast<char>(0xc0 | (code >> 6)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
  } else {
    out.push_back(static_cast<char>(0xe0 | (code >> 12)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
  }
}

void unescape_append(std::string& out, std::string_view raw) {
  std::size_t i = 0;
  for (;;) {
    std::size_t amp = raw.find('&', i);
    if (amp == std::string_view::npos) {
      out.append(raw.substr(i));
      return;
    }
    out.append(raw.substr(i, amp - i));
    std::size_t semi = raw.find(';', amp);
    if (semi == std::string_view::npos) {
      throw ParseError("XML parse error: unterminated entity");
    }
    std::string_view ent = raw.substr(amp + 1, semi - amp - 1);
    if (ent == "lt") {
      out.push_back('<');
    } else if (ent == "gt") {
      out.push_back('>');
    } else if (ent == "amp") {
      out.push_back('&');
    } else if (ent == "quot") {
      out.push_back('"');
    } else if (ent == "apos") {
      out.push_back('\'');
    } else if (!ent.empty() && ent[0] == '#') {
      std::string_view digits = ent.substr(1);
      int base = 10;
      if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
        base = 16;
        digits.remove_prefix(1);
      }
      long code = 0;
      auto [p, ec] =
          std::from_chars(digits.data(), digits.data() + digits.size(), code, base);
      if (ec != std::errc() || p != digits.data() + digits.size() ||
          digits.empty() || code < 0) {
        throw ParseError("XML parse error: invalid character reference '&" +
                         std::string(ent) + ";'");
      }
      utf8_append(out, code);
    } else {
      throw ParseError("XML parse error: unknown entity '&" + std::string(ent) +
                       ";'");
    }
    i = semi + 1;
  }
}

std::string_view strip_prefix(std::string_view tag) {
  std::size_t colon = tag.find(':');
  return colon == std::string_view::npos ? tag : tag.substr(colon + 1);
}

}  // namespace

std::string xml_escape(std::string_view text) {
  std::size_t first = text.find_first_of(kXmlSpecial);
  if (first == std::string_view::npos) return std::string(text);
  std::string out;
  out.reserve(text.size() + 8);
  escape_into(out, text, first);
  return out;
}

std::string_view xml_escape(std::string_view text, std::string& scratch) {
  std::size_t first = text.find_first_of(kXmlSpecial);
  if (first == std::string_view::npos) return text;
  scratch.clear();
  scratch.reserve(text.size() + 8);
  escape_into(scratch, text, first);
  return scratch;
}

void xml_escape_append(util::Buffer& out, std::string_view text) {
  std::size_t i = 0;
  for (;;) {
    std::size_t pos = text.find_first_of(kXmlSpecial, i);
    if (pos == std::string_view::npos) {
      out.write(text.substr(i));
      return;
    }
    out.write(text.substr(i, pos - i));
    out.write(entity_for(text[pos]));
    i = pos + 1;
  }
}

std::string xml_unescape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  unescape_append(out, raw);
  return out;
}

// ---------- pull parser ----------

namespace {

inline bool is_xml_ws(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

// Characters allowed in a (simplified) XML name: alnum plus _ - . :
constexpr std::array<bool, 256> make_name_table() {
  std::array<bool, 256> t{};
  for (int c = '0'; c <= '9'; ++c) t[static_cast<std::size_t>(c)] = true;
  for (int c = 'a'; c <= 'z'; ++c) t[static_cast<std::size_t>(c)] = true;
  for (int c = 'A'; c <= 'Z'; ++c) t[static_cast<std::size_t>(c)] = true;
  t[static_cast<std::size_t>('_')] = true;
  t[static_cast<std::size_t>('-')] = true;
  t[static_cast<std::size_t>('.')] = true;
  t[static_cast<std::size_t>(':')] = true;
  return t;
}
constexpr std::array<bool, 256> kNameChar = make_name_table();

}  // namespace

void XmlPullParser::fail(const std::string& what) const {
  throw ParseError("XML parse error at offset " + std::to_string(pos_) + ": " +
                   what);
}

bool XmlPullParser::consume(std::string_view s) {
  if (text_.substr(pos_, s.size()) == s) {
    pos_ += s.size();
    return true;
  }
  return false;
}

void XmlPullParser::expect(std::string_view s) {
  if (!consume(s)) fail("expected '" + std::string(s) + "'");
}

void XmlPullParser::skip_space() {
  while (!eof() && is_xml_ws(peek())) ++pos_;
}

// Prolog, comments, whitespace between top-level constructs.
void XmlPullParser::skip_misc() {
  for (;;) {
    skip_space();
    if (consume("<?")) {
      std::size_t end = text_.find("?>", pos_);
      if (end == std::string_view::npos) fail("unterminated processing instruction");
      pos_ = end + 2;
    } else if (consume("<!--")) {
      std::size_t end = text_.find("-->", pos_);
      if (end == std::string_view::npos) fail("unterminated comment");
      pos_ = end + 3;
    } else {
      return;
    }
  }
}

std::string_view XmlPullParser::parse_name() {
  std::size_t start = pos_;
  while (!eof() && kNameChar[static_cast<unsigned char>(peek())]) ++pos_;
  if (pos_ == start) fail("expected name");
  return text_.substr(start, pos_ - start);
}

XmlPullParser::Event XmlPullParser::parse_start_tag() {
  ++pos_;  // the '<' both call sites already matched
  name_ = parse_name();
  // The value decoders (parse_value_into) recurse once per nested value,
  // so unbounded depth is a stack-overflow vector for
  // attacker-supplied documents. RPC payloads nest values, not documents:
  // 128 is far beyond anything a legitimate envelope produces.
  if (open_tags_.size() >= kMaxDepth) fail("element nesting too deep");
  // Fast path: attribute-free tag (every tag XML-RPC emits).
  if (!eof() && peek() == '>') {
    ++pos_;
    if (!attributes_.empty()) attributes_.clear();
    open_tags_.push_back(name_);
    return Event::StartTag;
  }
  attributes_.clear();
  for (;;) {
    skip_space();
    if (eof()) fail("unterminated start tag");
    if (consume("/>")) {
      open_tags_.push_back(name_);
      pending_end_ = true;  // next() will emit the matching EndTag
      return Event::StartTag;
    }
    if (consume(">")) {
      open_tags_.push_back(name_);
      return Event::StartTag;
    }
    std::string_view attr_name = parse_name();
    skip_space();
    expect("=");
    skip_space();
    if (eof()) fail("unterminated start tag");
    char quote = text_[pos_++];
    if (quote != '"' && quote != '\'') fail("attribute value must be quoted");
    std::size_t start = pos_;
    while (!eof() && peek() != quote) ++pos_;
    if (eof()) fail("unterminated attribute value");
    attributes_.emplace_back(attr_name, text_.substr(start, pos_ - start));
    ++pos_;  // closing quote
  }
}

XmlPullParser::Event XmlPullParser::next() {
  if (pending_end_) {
    pending_end_ = false;
    name_ = open_tags_.back();
    open_tags_.pop_back();
    if (open_tags_.empty()) root_seen_ = true;
    return Event::EndTag;
  }
  for (;;) {
    if (open_tags_.empty()) {
      // Document level: before the root element or after it closed.
      skip_misc();
      if (root_seen_) {
        if (pos_ != text_.size()) fail("trailing content after root element");
        return Event::Eof;
      }
      if (eof()) fail("unexpected end of input");
      if (peek() != '<') fail("expected '<'");
      return parse_start_tag();
    }
    if (eof()) {
      fail("unterminated element <" + std::string(open_tags_.back()) + ">");
    }
    if (peek() != '<') {
      // Character data up to the next '<'; remember whether any entity
      // reference appeared so decoding can be skipped for clean runs.
      std::size_t end = text_.find('<', pos_);
      if (end == std::string_view::npos) end = text_.size();
      chardata_ = text_.substr(pos_, end - pos_);
      chardata_escaped_ =
          std::memchr(chardata_.data(), '&', chardata_.size()) != nullptr;
      pos_ = end;
      return Event::Text;
    }
    // Dispatch on the character after '<': '/' end tag, '!' comment or
    // CDATA, anything else a start tag.
    char kind = pos_ + 1 < text_.size() ? text_[pos_ + 1] : '\0';
    if (kind == '/') {
      pos_ += 2;
      std::string_view closing = parse_name();
      if (closing != open_tags_.back()) {
        fail("mismatched closing tag: <" + std::string(open_tags_.back()) +
             "> vs </" + std::string(closing) + ">");
      }
      if (!eof() && peek() == '>') {
        ++pos_;
      } else {
        skip_space();
        expect(">");
      }
      name_ = closing;
      open_tags_.pop_back();
      if (open_tags_.empty()) root_seen_ = true;
      return Event::EndTag;
    }
    if (kind == '!') {
      if (consume("<!--")) {
        std::size_t end = text_.find("-->", pos_);
        if (end == std::string_view::npos) fail("unterminated comment");
        pos_ = end + 3;
        continue;
      }
      if (consume("<![CDATA[")) {
        std::size_t end = text_.find("]]>", pos_);
        if (end == std::string_view::npos) fail("unterminated CDATA");
        chardata_ = text_.substr(pos_, end - pos_);
        chardata_escaped_ = false;
        pos_ = end + 3;
        return Event::Text;
      }
      fail("unsupported markup");
    }
    return parse_start_tag();
  }
}

std::string_view XmlPullParser::local_name() const { return strip_prefix(name_); }

std::string XmlPullParser::text() const {
  std::string out;
  out.reserve(chardata_.size());
  text_append(out);
  return out;
}

void XmlPullParser::text_append(std::string& out) const {
  if (chardata_escaped_) {
    unescape_append(out, chardata_);
  } else {
    out.append(chardata_);
  }
}

void XmlPullParser::skip_element() {
  for (std::size_t depth = 1; depth > 0;) {
    switch (next()) {
      case Event::StartTag: ++depth; break;
      case Event::EndTag: --depth; break;
      default: break;
    }
  }
}

std::string XmlPullParser::element_text() {
  std::string out;
  for (;;) {
    switch (next()) {
      case Event::Text:
        text_append(out);
        break;
      case Event::EndTag:
        return out;
      case Event::StartTag:
        fail("unexpected element <" + std::string(name_) +
             "> in text-only content");
      case Event::Eof:
        fail("unexpected end of document");
    }
  }
}

// ---------- writer ----------

void XmlWriter::open(std::string_view tag) {
  out_.write_u8('<');
  out_.write(tag);
  out_.write_u8('>');
}

void XmlWriter::open(
    std::string_view tag,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        attributes) {
  out_.write_u8('<');
  out_.write(tag);
  for (const auto& [name, value] : attributes) {
    out_.write_u8(' ');
    out_.write(name);
    out_.write("=\"");
    xml_escape_append(out_, value);
    out_.write_u8('"');
  }
  out_.write_u8('>');
}

void XmlWriter::close(std::string_view tag) {
  out_.write("</");
  out_.write(tag);
  out_.write_u8('>');
}

void XmlWriter::text(std::string_view content) {
  xml_escape_append(out_, content);
}

void XmlWriter::raw(std::string_view content) { out_.write(content); }

void XmlWriter::element(std::string_view tag, std::string_view content) {
  open(tag);
  text(content);
  close(tag);
}

void XmlWriter::element_int(std::string_view tag, std::int64_t v) {
  open(tag);
  util::append_int(out_, v);
  close(tag);
}

void XmlWriter::element_double(std::string_view tag, double v) {
  open(tag);
  util::append_double(out_, v);
  close(tag);
}

}  // namespace clarens::rpc
