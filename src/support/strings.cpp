#include "ars/support/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>

namespace ars::support {

std::string_view trim(std::string_view text) noexcept {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && is_ascii_space(text[begin])) {
    ++begin;
  }
  while (end > begin && is_ascii_space(text[end - 1])) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view text, char delimiter) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(text.substr(start));
      return fields;
    }
    fields.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_whitespace(std::string_view text) {
  std::vector<std::string> fields;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_ascii_space(text[i])) {
      ++i;
    }
    const std::size_t start = i;
    while (i < text.size() && !is_ascii_space(text[i])) {
      ++i;
    }
    if (i > start) {
      fields.emplace_back(text.substr(start, i - start));
    }
  }
  return fields;
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) {
    return false;
  }
  return std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
    return std::tolower(static_cast<unsigned char>(x)) ==
           std::tolower(static_cast<unsigned char>(y));
  });
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::optional<double> parse_double(std::string_view text) {
  text = trim(text);
  if (text.empty()) {
    return std::nullopt;
  }
  double value = 0.0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<std::int64_t> parse_int(std::string_view text) {
  text = trim(text);
  if (text.empty()) {
    return std::nullopt;
  }
  std::int64_t value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  return value;
}

std::optional<std::uint64_t> parse_uint(std::string_view text) {
  text = trim(text);
  if (text.empty()) {
    return std::nullopt;
  }
  // from_chars never accepts a sign for an unsigned target, so "-1" is
  // rejected rather than wrapped to 2^64-1.
  std::uint64_t value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  return value;
}

std::string join(const std::vector<std::string>& pieces,
                 std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i != 0) {
      out += separator;
    }
    out += pieces[i];
  }
  return out;
}

void append_fixed(std::string& out, double value, int decimals) {
  if (decimals < 0) {
    decimals = 6;
  }
  // The longest fixed form of a finite double: sign, 309 integer digits,
  // the point, then the decimals.
  constexpr int kMaxIntegerPart = 1 + 309 + 1;
  constexpr int kStackDecimals = 64;
  if (decimals <= kStackDecimals) {
    char buffer[kMaxIntegerPart + kStackDecimals];
    const auto result = std::to_chars(buffer, buffer + sizeof buffer, value,
                                      std::chars_format::fixed, decimals);
    out.append(buffer, result.ptr);
    return;
  }
  std::string buffer(static_cast<std::size_t>(kMaxIntegerPart + decimals), '\0');
  const auto result =
      std::to_chars(buffer.data(), buffer.data() + buffer.size(), value,
                    std::chars_format::fixed, decimals);
  out.append(buffer.data(), result.ptr);
}

void append_int(std::string& out, std::int64_t value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  out.append(buffer, result.ptr);
}

void append_uint(std::string& out, std::uint64_t value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  out.append(buffer, result.ptr);
}

std::string format_fixed(double value, int decimals) {
  std::string out;
  append_fixed(out, value, decimals);
  return out;
}

}  // namespace ars::support
