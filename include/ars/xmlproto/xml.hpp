#pragma once
// The control plane's XML grammar: one pull reader, one streaming writer,
// and a small document model built on the two.
//
// The paper's rescheduler entities talk "a custom XML based protocol with
// TCP/IP sockets", and the application schema is "in a XML format".  This is
// a deliberately small XML subset — elements, attributes, text, escaping —
// enough to express those documents while staying easy to debug (one of the
// paper's stated reasons for choosing XML).
//
// XmlReader tokenizes a document without allocating per node; XmlWriter
// appends a document to one string.  The wire codec (messages.hpp) runs
// straight on the two.  XmlNode is the document model parse_xml() builds on
// the same reader and writes with the same writer; it serves the
// application schema and tests, not the wire path.

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ars/support/expected.hpp"

namespace ars::xmlproto {

/// Escape &<>"' for use in text or attribute values.
[[nodiscard]] std::string xml_escape(std::string_view raw);

/// xml_escape() appended in place.
void append_escaped(std::string& out, std::string_view raw);

/// Append `raw` with its predefined entities (&amp; &lt; &gt; &quot;
/// &apos;) decoded.  `raw` must be text or an attribute value the reader
/// accepted: the reader validated every entity in it.
void append_unescaped(std::string& out, std::string_view raw);

namespace detail {

/// Contiguous stack that keeps its first N elements inline and moves to
/// the heap only past them, so documents of ordinary depth and attribute
/// count are read without allocating.
template <typename T, std::size_t N>
class InlineStack {
 public:
  void push_back(const T& value) {
    if (heap_.empty() && size_ < N) {
      inline_[size_++] = value;
      return;
    }
    if (heap_.empty()) {
      heap_.assign(inline_.begin(), inline_.begin() + size_);
    }
    heap_.push_back(value);
    ++size_;
  }
  void pop_back() noexcept {
    --size_;
    if (!heap_.empty()) {
      heap_.pop_back();
    }
  }
  void clear() noexcept {
    size_ = 0;
    heap_.clear();
  }
  [[nodiscard]] const T& back() const noexcept { return data()[size_ - 1]; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const T* data() const noexcept {
    return heap_.empty() ? inline_.data() : heap_.data();
  }

 private:
  std::array<T, N> inline_{};
  std::vector<T> heap_;
  std::size_t size_ = 0;
};

}  // namespace detail

/// One attribute of the start tag just read.  Both views point into the
/// input; `value` is still escaped when `escaped` is set.
struct XmlAttr {
  std::string_view name;
  std::string_view value;
  bool escaped = false;
};

enum class XmlToken : std::uint8_t {
  kOpen,   // a start tag: name() and attrs()
  kText,   // a run of character data: text(), still escaped
  kClose,  // an end tag, or the end of a self-closing tag: name()
  kEnd,    // the root closed and only whitespace and comments followed
  kError,  // malformed input: error(); every later call returns kError too
};

/// Pull reader over one single-root document.  Views it hands out point
/// into the input, which must outlive the reader.  Comments and an XML
/// declaration are skipped; CDATA, processing instructions and DTDs are
/// not supported.  Malformed input (unterminated tags, mismatched close
/// tags, bad entities, trailing garbage) yields kError with the offset.
class XmlReader {
 public:
  explicit XmlReader(std::string_view input) noexcept : input_(input) {}
  XmlReader(const XmlReader&) = delete;
  XmlReader& operator=(const XmlReader&) = delete;

  XmlToken next();

  [[nodiscard]] std::string_view name() const noexcept { return name_; }
  [[nodiscard]] std::span<const XmlAttr> attrs() const noexcept {
    return {attrs_.data(), attrs_.size()};
  }
  [[nodiscard]] std::string_view text() const noexcept { return text_; }
  [[nodiscard]] bool text_escaped() const noexcept { return text_escaped_; }
  /// Elements currently open; an element counts from its kOpen until its
  /// kClose.
  [[nodiscard]] std::size_t depth() const noexcept { return open_.size(); }
  [[nodiscard]] const support::Error& error() const noexcept { return error_; }

  // ---- helpers over next() for readers of known document shapes --------

  /// Advance to the next child of the element at depth() (its kOpen just
  /// returned, or its previous child was consumed).  True with the child's
  /// name when one opens; the caller must then consume it with
  /// read_text(), skip_element() or its own next_child() loop.  False when
  /// the element closes, or when the input is malformed (next() then
  /// returns kError).
  bool next_child(std::string_view& child_name);

  /// Consume the element just opened and give its text: the character data
  /// directly inside it, joined and trimmed, with nested elements skipped.
  /// The view points into the input, or into `scratch` when the text held
  /// entities or was split by markup.  False when the input is malformed.
  bool read_text(std::string_view& out, std::string& scratch);

  /// Consume the element just opened, contents unread.
  bool skip_element();

 private:
  enum class State : std::uint8_t {
    kProlog,
    kContent,
    kEpilog,
    kDone,
    kFailed
  };

  XmlToken fail(std::string message);
  XmlToken open_element();
  XmlToken close_element();
  XmlToken content();
  /// Position of the next '<' or '&' at or after pos_ (input size if none).
  [[nodiscard]] std::size_t find_markup() const noexcept;
  bool scan_entity();
  bool scan_attr_value(XmlAttr& attr);
  [[nodiscard]] bool eof() const noexcept { return pos_ >= input_.size(); }
  [[nodiscard]] bool match(std::string_view token) const noexcept {
    return input_.compare(pos_, token.size(), token) == 0;
  }
  void skip_whitespace() noexcept;
  bool skip_comment() noexcept;
  void skip_whitespace_and_comments() noexcept;
  std::string_view read_name() noexcept;

  std::string_view input_;
  std::size_t pos_ = 0;
  State state_ = State::kProlog;
  bool self_closing_ = false;  // the kOpen just returned was <x .../>
  bool text_escaped_ = false;
  std::string_view name_;
  std::string_view text_;
  detail::InlineStack<XmlAttr, 8> attrs_;
  detail::InlineStack<std::string_view, 16> open_;
  support::Error error_;
};

/// Streaming writer: appends one document to `out`, escaping text and
/// attribute values in place.  A start tag stays open for attributes until
/// content is written; an element closed with nothing inside is written
/// <name/>.  Numbers use the wire's fixed forms: doubles as "%.6f",
/// integers in decimal.
class XmlWriter {
 public:
  explicit XmlWriter(std::string& out) noexcept : out_(out) {}

  void open(std::string_view name);
  void attr(std::string_view key, std::string_view value);
  void attr(std::string_view key, std::uint64_t value);
  void text(std::string_view raw);
  void close(std::string_view name);

  /// A leaf element <name>value</name> (<name/> for empty text).
  void field(std::string_view name, std::string_view value);
  /// Without this overload a string literal would convert to bool.
  void field(std::string_view name, const char* value) {
    field(name, std::string_view{value});
  }
  void field(std::string_view name, double value);
  void field(std::string_view name, int value);
  void field(std::string_view name, std::uint64_t value);
  void field(std::string_view name, bool value);

 private:
  void end_start_tag();
  template <typename Append>
  void leaf(std::string_view name, Append&& append);

  std::string& out_;
  bool start_tag_open_ = false;
};

class XmlNode {
 public:
  explicit XmlNode(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& text() const noexcept { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  void set_attr(const std::string& key, std::string value) {
    attrs_[key] = std::move(value);
  }
  [[nodiscard]] std::optional<std::string> attr(const std::string& key) const {
    const auto it = attrs_.find(key);
    return it == attrs_.end() ? std::nullopt
                              : std::optional<std::string>{it->second};
  }
  /// Attribute with a fallback value.
  [[nodiscard]] std::string attr_or(const std::string& key,
                                    std::string fallback) const {
    return attr(key).value_or(std::move(fallback));
  }
  [[nodiscard]] const std::map<std::string, std::string>& attrs() const {
    return attrs_;
  }

  /// Append and return a child element.
  XmlNode& add_child(std::string child_name);

  [[nodiscard]] const std::vector<std::unique_ptr<XmlNode>>& children() const {
    return children_;
  }

  /// First child with the given name, or nullptr.
  [[nodiscard]] const XmlNode* child(std::string_view child_name) const;
  [[nodiscard]] XmlNode* child(std::string_view child_name);

  /// All children with the given name.
  [[nodiscard]] std::vector<const XmlNode*> children_named(
      std::string_view child_name) const;

  /// Text content of a named child, or fallback.
  [[nodiscard]] std::string child_text_or(std::string_view child_name,
                                          std::string fallback) const;

  /// Serialize (compact, deterministic: attributes in key order).
  [[nodiscard]] std::string to_string() const;

 private:
  void write(XmlWriter& writer) const;

  std::string name_;
  std::string text_;
  std::map<std::string, std::string> attrs_;
  std::vector<std::unique_ptr<XmlNode>> children_;
};

/// Parse a single-root document into an XmlNode tree (the reader's
/// grammar and errors).  Element text is the character data directly
/// inside the element, joined across comments and children, then trimmed.
[[nodiscard]] support::Expected<std::unique_ptr<XmlNode>> parse_xml(
    std::string_view input);

}  // namespace ars::xmlproto
