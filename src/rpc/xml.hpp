// Minimal XML reader/writer covering the subset XML-RPC and SOAP 1.1
// payloads use: prolog, comments, elements with attributes, character
// data with the five predefined entities, CDATA sections. No DTDs,
// processing instructions beyond the prolog, or namespace resolution
// (namespace prefixes are kept verbatim in tag names; local_name()
// strips them).
//
// XmlPullParser is the only XML reader: it streams events over the
// input string_view with no allocation per token, and every consumer
// (the XML-RPC and SOAP codecs, the baseline's descriptor scan) builds
// what it needs straight from those events — there is no document tree.
// Text and attribute views alias the caller's buffer; entity decoding
// happens only when text() / text_append() ask for it.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/buffer.hpp"

namespace clarens::rpc {

/// Streaming pull parser. Usage:
///   XmlPullParser p(body);
///   for (auto ev = p.next(); ev != Event::Eof; ev = p.next()) ...
/// A self-closing element yields StartTag followed by EndTag. Comments
/// and the prolog are skipped. Well-formedness (tag matching, single
/// root, no trailing content) is enforced; errors throw ParseError.
class XmlPullParser {
 public:
  enum class Event { StartTag, EndTag, Text, Eof };

  /// Maximum open-element depth; deeper documents throw ParseError. The
  /// value decoders recurse once per nested value, so this bound
  /// is what keeps a nesting bomb from overflowing the stack.
  static constexpr std::size_t kMaxDepth = 128;

  explicit XmlPullParser(std::string_view text) : text_(text) {}

  Event next();

  /// Tag name of the current Start/End event, as written.
  std::string_view name() const { return name_; }
  std::string_view local_name() const;
  /// Raw character data of a Text event (CDATA content is raw too).
  std::string_view text_raw() const { return chardata_; }
  /// Whether the Text event may contain entity references to decode.
  bool text_needs_unescape() const { return chardata_escaped_; }
  std::string text() const;  // decoded
  /// Append the decoded text of a Text event to `out` (no temporary).
  void text_append(std::string& out) const;
  /// Attributes of the current StartTag (raw values).
  const std::vector<std::pair<std::string_view, std::string_view>>&
  attributes() const {
    return attributes_;
  }

  /// Consume events through the EndTag matching the StartTag just read.
  void skip_element();
  /// Decoded character data of the element whose StartTag was just read,
  /// consuming through its EndTag; a child element throws ParseError.
  std::string element_text();

  /// Byte offset of the parse cursor (for error messages).
  std::size_t offset() const { return pos_; }

 private:
  [[noreturn]] void fail(const std::string& what) const;
  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }
  bool consume(std::string_view s);
  void expect(std::string_view s);
  void skip_space();
  void skip_misc();
  std::string_view parse_name();
  Event parse_start_tag();

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string_view name_;
  std::string_view chardata_;
  bool chardata_escaped_ = false;
  std::vector<std::pair<std::string_view, std::string_view>> attributes_;
  std::vector<std::string_view> open_tags_;
  bool pending_end_ = false;  // self-closing: EndTag already due
  bool root_seen_ = false;
};

/// Escape character data for element content. The no-escape common case
/// costs one scan and one allocation for the returned copy; use the
/// two-argument overload or xml_escape_append to avoid even that.
std::string xml_escape(std::string_view text);

/// Allocation-free variant: returns `text` itself when nothing needs
/// escaping, else fills `scratch` and returns a view of it.
std::string_view xml_escape(std::string_view text, std::string& scratch);

/// Append the escaped form of `text` to `out`.
void xml_escape_append(util::Buffer& out, std::string_view text);

/// Decode the five predefined entities and numeric character references.
/// Throws ParseError on malformed or unknown references.
std::string xml_unescape(std::string_view raw);

/// Incremental writer for the serializers; writes into a caller-owned
/// util::Buffer so responses build directly in the connection arena.
class XmlWriter {
 public:
  explicit XmlWriter(util::Buffer& out) : out_(out) {}

  void open(std::string_view tag);
  void open(std::string_view tag,
            std::initializer_list<std::pair<std::string_view, std::string_view>>
                attributes);
  void close(std::string_view tag);
  void text(std::string_view content);  // escaped
  void raw(std::string_view content);   // verbatim
  /// <tag>text</tag>
  void element(std::string_view tag, std::string_view content);
  /// <tag>N</tag> formatted in place with std::to_chars.
  void element_int(std::string_view tag, std::int64_t v);
  void element_double(std::string_view tag, double v);

  util::Buffer& buffer() { return out_; }

 private:
  util::Buffer& out_;
};

}  // namespace clarens::rpc
