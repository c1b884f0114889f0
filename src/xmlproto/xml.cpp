#include "ars/xmlproto/xml.hpp"

#include <cstring>

#include "ars/support/strings.hpp"

namespace ars::xmlproto {

using support::Expected;

// ---- escaping --------------------------------------------------------------

void append_escaped(std::string& out, std::string_view raw) {
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < raw.size(); ++i) {
    std::string_view entity;
    switch (raw[i]) {
      case '&':
        entity = "&amp;";
        break;
      case '<':
        entity = "&lt;";
        break;
      case '>':
        entity = "&gt;";
        break;
      case '"':
        entity = "&quot;";
        break;
      case '\'':
        entity = "&apos;";
        break;
      default:
        continue;
    }
    out.append(raw.data() + run, i - run);
    out += entity;
    run = i + 1;
  }
  out.append(raw.data() + run, raw.size() - run);
}

std::string xml_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  append_escaped(out, raw);
  return out;
}

void append_unescaped(std::string& out, std::string_view raw) {
  std::size_t run = 0;
  while (true) {
    const std::size_t amp = raw.find('&', run);
    const std::size_t semi =
        amp == std::string_view::npos ? amp : raw.find(';', amp);
    if (semi == std::string_view::npos) {
      out.append(raw.substr(run));
      return;
    }
    out.append(raw.substr(run, amp - run));
    const std::string_view entity = raw.substr(amp + 1, semi - amp - 1);
    if (entity == "amp") {
      out += '&';
    } else if (entity == "lt") {
      out += '<';
    } else if (entity == "gt") {
      out += '>';
    } else if (entity == "quot") {
      out += '"';
    } else {
      out += '\'';  // "apos", the only other name the reader accepts
    }
    run = semi + 1;
  }
}

// ---- reader ------------------------------------------------------------------

namespace {

/// ASCII name characters: letters, digits and _ - . : (no locale).
constexpr std::array<bool, 256> kNameChar = [] {
  std::array<bool, 256> table{};
  for (int c = 0; c < 256; ++c) {
    table[c] = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.' ||
               c == ':';
  }
  return table;
}();

bool is_name_char(char c) noexcept {
  return kNameChar[static_cast<unsigned char>(c)];
}

}  // namespace

XmlToken XmlReader::fail(std::string message) {
  error_ = support::make_error(
      "xml_parse", message + " (at offset " + std::to_string(pos_) + ")");
  state_ = State::kFailed;
  return XmlToken::kError;
}

void XmlReader::skip_whitespace() noexcept {
  while (!eof() && support::is_ascii_space(input_[pos_])) {
    ++pos_;
  }
}

bool XmlReader::skip_comment() noexcept {
  if (!match("<!--")) {
    return false;
  }
  const std::size_t end = input_.find("-->", pos_ + 4);
  pos_ = end == std::string_view::npos ? input_.size() : end + 3;
  return true;
}

void XmlReader::skip_whitespace_and_comments() noexcept {
  do {
    skip_whitespace();
  } while (skip_comment());
}

std::string_view XmlReader::read_name() noexcept {
  const std::size_t start = pos_;
  while (!eof() && is_name_char(input_[pos_])) {
    ++pos_;
  }
  return input_.substr(start, pos_ - start);
}

bool XmlReader::scan_entity() {
  // pos_ is at '&'; the name and its ';' must follow within 8 characters.
  const std::size_t end = input_.substr(pos_, 9).find(';');
  if (end == std::string_view::npos) {
    fail("unterminated entity");
    return false;
  }
  const std::string_view entity = input_.substr(pos_ + 1, end - 1);
  pos_ += end + 1;
  if (entity == "amp" || entity == "lt" || entity == "gt" ||
      entity == "quot" || entity == "apos") {
    return true;
  }
  fail("unknown entity '&" + std::string(entity) + ";'");
  return false;
}

bool XmlReader::scan_attr_value(XmlAttr& attr) {
  if (eof() || (input_[pos_] != '"' && input_[pos_] != '\'')) {
    fail("expected quoted attribute value");
    return false;
  }
  const char quote = input_[pos_++];
  const std::size_t start = pos_;
  while (!eof() && input_[pos_] != quote) {
    if (input_[pos_] == '&') {
      if (!scan_entity()) {
        return false;
      }
      attr.escaped = true;
    } else {
      ++pos_;
    }
  }
  if (eof()) {
    fail("unterminated attribute value");
    return false;
  }
  attr.value = input_.substr(start, pos_ - start);
  ++pos_;  // closing quote
  return true;
}

XmlToken XmlReader::open_element() {
  if (eof() || input_[pos_] != '<') {
    return fail("expected element start '<'");
  }
  ++pos_;
  const std::string_view element = read_name();
  if (element.empty()) {
    return fail("empty element name");
  }
  attrs_.clear();
  while (true) {
    skip_whitespace();
    if (eof()) {
      return fail("unterminated start tag <" + std::string(element));
    }
    if (input_[pos_] == '/' || input_[pos_] == '>') {
      break;
    }
    XmlAttr attr;
    attr.name = read_name();
    if (attr.name.empty()) {
      return fail("malformed attribute in <" + std::string(element) + ">");
    }
    skip_whitespace();
    if (eof() || input_[pos_] != '=') {
      return fail("expected '=' after attribute '" + std::string(attr.name) +
                  "'");
    }
    ++pos_;
    skip_whitespace();
    if (!scan_attr_value(attr)) {
      return XmlToken::kError;
    }
    attrs_.push_back(attr);
  }
  if (input_[pos_] == '/') {
    ++pos_;
    if (eof() || input_[pos_] != '>') {
      return fail("malformed self-closing tag <" + std::string(element));
    }
    self_closing_ = true;
  }
  ++pos_;  // '>'
  open_.push_back(element);
  name_ = element;
  state_ = State::kContent;
  return XmlToken::kOpen;
}

XmlToken XmlReader::close_element() {
  name_ = open_.back();
  open_.pop_back();
  state_ = open_.size() == 0 ? State::kEpilog : State::kContent;
  return XmlToken::kClose;
}

std::size_t XmlReader::find_markup() const noexcept {
  const char* const begin = input_.data() + pos_;
  const std::size_t rest = input_.size() - pos_;
  const void* lt = std::memchr(begin, '<', rest);
  const std::size_t run =
      lt == nullptr ? rest : static_cast<const char*>(lt) - begin;
  const void* amp = std::memchr(begin, '&', run);
  return pos_ + (amp == nullptr ? run : static_cast<const char*>(amp) - begin);
}

XmlToken XmlReader::content() {
  while (true) {
    if (eof()) {
      return fail("unterminated element <" + std::string(open_.back()) + ">");
    }
    if (input_[pos_] != '<') {
      break;
    }
    const char after = pos_ + 1 < input_.size() ? input_[pos_ + 1] : '\0';
    if (after == '!' && skip_comment()) {
      continue;
    }
    if (after != '/') {
      return open_element();
    }
    pos_ += 2;
    const std::string_view expected = open_.back();
    if (input_.compare(pos_, expected.size(), expected) == 0 &&
        pos_ + expected.size() < input_.size() &&
        input_[pos_ + expected.size()] == '>') {
      // The common exact form </name>.
      pos_ += expected.size() + 1;
      return close_element();
    }
    const std::string_view close = read_name();
    if (close != open_.back()) {
      return fail("mismatched close tag </" + std::string(close) + "> for <" +
                  std::string(open_.back()) + ">");
    }
    skip_whitespace();
    if (eof() || input_[pos_] != '>') {
      return fail("malformed close tag </" + std::string(close));
    }
    ++pos_;
    return close_element();
  }
  // Character data up to the next markup.
  const std::size_t start = pos_;
  text_escaped_ = false;
  while (true) {
    const std::size_t end = find_markup();
    if (end >= input_.size() || input_[end] == '<') {
      pos_ = end;
      break;
    }
    pos_ = end;  // at '&'
    if (!scan_entity()) {
      return XmlToken::kError;
    }
    text_escaped_ = true;
  }
  text_ = input_.substr(start, pos_ - start);
  return XmlToken::kText;
}

XmlToken XmlReader::next() {
  switch (state_) {
    case State::kProlog:
      skip_whitespace();
      if (match("<?xml")) {
        const std::size_t end = input_.find("?>", pos_);
        pos_ = end == std::string_view::npos ? input_.size() : end + 2;
      }
      skip_whitespace_and_comments();
      return open_element();
    case State::kContent:
      if (self_closing_) {
        self_closing_ = false;
        return close_element();
      }
      return content();
    case State::kEpilog:
      skip_whitespace_and_comments();
      if (!eof()) {
        return fail("trailing content after root element");
      }
      state_ = State::kDone;
      return XmlToken::kEnd;
    case State::kDone:
      return XmlToken::kEnd;
    case State::kFailed:
      break;
  }
  return XmlToken::kError;
}

bool XmlReader::next_child(std::string_view& child_name) {
  while (true) {
    switch (next()) {
      case XmlToken::kOpen:
        child_name = name_;
        return true;
      case XmlToken::kText:
        continue;  // the parent's own text is not asked for
      default:
        return false;  // the parent closed, or the input is malformed
    }
  }
}

bool XmlReader::read_text(std::string_view& out, std::string& scratch) {
  if (!self_closing_ && state_ == State::kContent) {
    // Fast path for the wire's leaf form <name>text</name>: plain text
    // then the exact end tag.  Anything else takes the general loop below,
    // which starts over from the same position.
    const std::size_t end = find_markup();
    const std::string_view expected = open_.back();
    if (end + 2 + expected.size() < input_.size() && input_[end] == '<' &&
        input_[end + 1] == '/' &&
        input_.compare(end + 2, expected.size(), expected) == 0 &&
        input_[end + 2 + expected.size()] == '>') {
      out = support::trim(input_.substr(pos_, end - pos_));
      pos_ = end + 3 + expected.size();
      close_element();
      return true;
    }
  }
  const std::size_t element_depth = depth();
  std::string_view single;  // the only run so far, when it needs no decoding
  bool joined = false;      // the text is being built in `scratch`
  while (true) {
    switch (next()) {
      case XmlToken::kText:
        if (depth() != element_depth) {
          break;  // text of a nested element
        }
        if (!joined && single.empty() && !text_escaped_) {
          single = text_;
          break;
        }
        if (!joined) {
          scratch.assign(single);
          joined = true;
        }
        if (text_escaped_) {
          append_unescaped(scratch, text_);
        } else {
          scratch.append(text_);
        }
        break;
      case XmlToken::kClose:
        if (depth() < element_depth) {
          out = support::trim(joined ? std::string_view{scratch} : single);
          return true;
        }
        break;
      case XmlToken::kOpen:
        break;
      case XmlToken::kEnd:
      case XmlToken::kError:
        return false;
    }
  }
}

bool XmlReader::skip_element() {
  const std::size_t element_depth = depth();
  while (true) {
    switch (next()) {
      case XmlToken::kClose:
        if (depth() < element_depth) {
          return true;
        }
        break;
      case XmlToken::kEnd:
      case XmlToken::kError:
        return false;
      default:
        break;
    }
  }
}

// ---- writer ------------------------------------------------------------------

void XmlWriter::end_start_tag() {
  if (start_tag_open_) {
    out_ += '>';
    start_tag_open_ = false;
  }
}

void XmlWriter::open(std::string_view name) {
  end_start_tag();
  out_ += '<';
  out_ += name;
  start_tag_open_ = true;
}

void XmlWriter::attr(std::string_view key, std::string_view value) {
  out_ += ' ';
  out_ += key;
  out_ += "=\"";
  append_escaped(out_, value);
  out_ += '"';
}

void XmlWriter::attr(std::string_view key, std::uint64_t value) {
  out_ += ' ';
  out_ += key;
  out_ += "=\"";
  support::append_uint(out_, value);
  out_ += '"';
}

void XmlWriter::text(std::string_view raw) {
  if (raw.empty()) {
    return;  // an element with nothing inside still self-closes
  }
  end_start_tag();
  append_escaped(out_, raw);
}

void XmlWriter::close(std::string_view name) {
  if (start_tag_open_) {
    out_ += "/>";
    start_tag_open_ = false;
    return;
  }
  out_ += "</";
  out_ += name;
  out_ += '>';
}

template <typename Append>
void XmlWriter::leaf(std::string_view name, Append&& append) {
  end_start_tag();
  out_ += '<';
  out_ += name;
  out_ += '>';
  append();
  out_ += "</";
  out_ += name;
  out_ += '>';
}

void XmlWriter::field(std::string_view name, std::string_view value) {
  if (value.empty()) {
    end_start_tag();
    out_ += '<';
    out_ += name;
    out_ += "/>";
    return;
  }
  leaf(name, [&] { append_escaped(out_, value); });
}

void XmlWriter::field(std::string_view name, double value) {
  leaf(name, [&] { support::append_fixed(out_, value, 6); });
}

void XmlWriter::field(std::string_view name, int value) {
  leaf(name, [&] { support::append_int(out_, value); });
}

void XmlWriter::field(std::string_view name, std::uint64_t value) {
  leaf(name, [&] { support::append_uint(out_, value); });
}

void XmlWriter::field(std::string_view name, bool value) {
  leaf(name, [&] { out_ += value ? "true" : "false"; });
}

// ---- document model ----------------------------------------------------------

XmlNode& XmlNode::add_child(std::string child_name) {
  children_.push_back(std::make_unique<XmlNode>(std::move(child_name)));
  return *children_.back();
}

const XmlNode* XmlNode::child(std::string_view child_name) const {
  for (const auto& c : children_) {
    if (c->name() == child_name) {
      return c.get();
    }
  }
  return nullptr;
}

XmlNode* XmlNode::child(std::string_view child_name) {
  for (const auto& c : children_) {
    if (c->name() == child_name) {
      return c.get();
    }
  }
  return nullptr;
}

std::vector<const XmlNode*> XmlNode::children_named(
    std::string_view child_name) const {
  std::vector<const XmlNode*> matches;
  for (const auto& c : children_) {
    if (c->name() == child_name) {
      matches.push_back(c.get());
    }
  }
  return matches;
}

std::string XmlNode::child_text_or(std::string_view child_name,
                                   std::string fallback) const {
  const XmlNode* c = child(child_name);
  return c == nullptr ? std::move(fallback) : c->text();
}

void XmlNode::write(XmlWriter& writer) const {
  writer.open(name_);
  for (const auto& [key, value] : attrs_) {
    writer.attr(key, std::string_view{value});
  }
  writer.text(text_);
  for (const auto& c : children_) {
    c->write(writer);
  }
  writer.close(name_);
}

std::string XmlNode::to_string() const {
  std::string out;
  XmlWriter writer{out};
  write(writer);
  return out;
}

Expected<std::unique_ptr<XmlNode>> parse_xml(std::string_view input) {
  XmlReader reader{input};
  std::unique_ptr<XmlNode> root;
  // Open elements with the character data gathered for each so far.
  std::vector<std::pair<XmlNode*, std::string>> open;
  while (true) {
    switch (reader.next()) {
      case XmlToken::kOpen: {
        std::string name{reader.name()};
        XmlNode* node = nullptr;
        if (open.empty()) {
          root = std::make_unique<XmlNode>(std::move(name));
          node = root.get();
        } else {
          node = &open.back().first->add_child(std::move(name));
        }
        for (const XmlAttr& attr : reader.attrs()) {
          std::string value;
          if (attr.escaped) {
            append_unescaped(value, attr.value);
          } else {
            value.assign(attr.value);
          }
          node->set_attr(std::string(attr.name), std::move(value));
        }
        open.emplace_back(node, std::string{});
        break;
      }
      case XmlToken::kText:
        if (reader.text_escaped()) {
          append_unescaped(open.back().second, reader.text());
        } else {
          open.back().second.append(reader.text());
        }
        break;
      case XmlToken::kClose:
        open.back().first->set_text(
            std::string(support::trim(open.back().second)));
        open.pop_back();
        break;
      case XmlToken::kEnd:
        return root;
      case XmlToken::kError:
        return reader.error();
    }
  }
}

}  // namespace ars::xmlproto
