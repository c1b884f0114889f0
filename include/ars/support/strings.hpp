#pragma once
// String helpers shared by the rule-file and XML parsers.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ars::support {

/// ASCII whitespace: space, \t, \n, \v, \f, \r (what std::isspace means in
/// the C locale, without the locale lookup).
[[nodiscard]] constexpr bool is_ascii_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Strip ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

/// Split on a delimiter character; empty fields are kept.
[[nodiscard]] std::vector<std::string> split(std::string_view text,
                                             char delimiter);

/// Split on runs of ASCII whitespace; no empty fields.
[[nodiscard]] std::vector<std::string> split_whitespace(std::string_view text);

/// True if `text` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text,
                               std::string_view prefix) noexcept;

/// Case-insensitive ASCII comparison.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

/// Lower-cased copy (ASCII).
[[nodiscard]] std::string to_lower(std::string_view text);

/// Parse helpers returning nullopt on any malformed input (no partial reads).
[[nodiscard]] std::optional<double> parse_double(std::string_view text);
[[nodiscard]] std::optional<std::int64_t> parse_int(std::string_view text);
/// Unsigned 64-bit; any sign ("-1", "+1") is malformed, not wrapped.
[[nodiscard]] std::optional<std::uint64_t> parse_uint(std::string_view text);

/// Join pieces with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& pieces,
                               std::string_view separator);

/// printf-free "%.*f" formatting (std::to_chars): byte-identical to
/// printf, including rounding ties, -0.0, inf and nan.  A negative
/// `decimals` means 6, as printf treats a negative precision.
[[nodiscard]] std::string format_fixed(double value, int decimals);

/// Append-in-place forms of format_fixed and std::to_string, for writers
/// that build one output string.
void append_fixed(std::string& out, double value, int decimals);
void append_int(std::string& out, std::int64_t value);
void append_uint(std::string& out, std::uint64_t value);

}  // namespace ars::support
