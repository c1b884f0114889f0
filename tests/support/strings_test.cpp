#include "ars/support/strings.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "ars/support/rng.hpp"

namespace ars::support {
namespace {

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\nhello world\r "), "hello world");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, SplitWhitespaceDropsEmptyFields) {
  EXPECT_EQ(split_whitespace("  a  b\tc\n"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_whitespace("   ").empty());
  EXPECT_TRUE(split_whitespace("").empty());
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("rl_name: x", "rl_name"));
  EXPECT_FALSE(starts_with("rl", "rl_name"));
  EXPECT_TRUE(starts_with("anything", ""));
}

TEST(Strings, CaseInsensitiveEquals) {
  EXPECT_TRUE(iequals("Free", "FREE"));
  EXPECT_TRUE(iequals("overloaded", "OverLoaded"));
  EXPECT_FALSE(iequals("busy", "busyy"));
  EXPECT_FALSE(iequals("busy", "bus"));
}

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("ESTABLISHED"), "established");
  EXPECT_EQ(to_lower("MiXeD123"), "mixed123");
}

TEST(Strings, ParseDoubleAcceptsOnlyCompleteNumbers) {
  EXPECT_EQ(parse_double("45"), 45.0);
  EXPECT_EQ(parse_double(" 2.52 "), 2.52);
  EXPECT_EQ(parse_double("-1.5"), -1.5);
  EXPECT_FALSE(parse_double("45x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("nan").has_value());
  EXPECT_FALSE(parse_double("one").has_value());
}

TEST(Strings, ParseIntAcceptsOnlyCompleteIntegers) {
  EXPECT_EQ(parse_int("700"), 700);
  EXPECT_EQ(parse_int(" -3 "), -3);
  EXPECT_FALSE(parse_int("7.5").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("12abc").has_value());
}

TEST(Strings, TrimUsesAsciiWhitespaceOnly) {
  EXPECT_EQ(trim("\v\fx\f\v"), "x");
  // Bytes outside ASCII are never whitespace, whatever the locale says.
  EXPECT_EQ(trim("\xa0x\xa0"), "\xa0x\xa0");
  EXPECT_EQ(trim("\x85"), "\x85");
}

TEST(Strings, ParseUintAcceptsOnlyUnsignedIntegers) {
  EXPECT_EQ(parse_uint("700"), 700U);
  EXPECT_EQ(parse_uint(" 18446744073709551615 "),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_uint("9223372036854775808"), 9223372036854775808ULL);
  EXPECT_FALSE(parse_uint("18446744073709551616").has_value());  // 2^64
  EXPECT_FALSE(parse_uint("-1").has_value());
  EXPECT_FALSE(parse_uint("-0").has_value());
  EXPECT_FALSE(parse_uint("+1").has_value());
  EXPECT_FALSE(parse_uint("").has_value());
  EXPECT_FALSE(parse_uint("1.0").has_value());
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"only"}, ", "), "only");
}

TEST(Strings, FormatFixed) {
  EXPECT_EQ(format_fixed(983.6, 1), "983.6");
  EXPECT_EQ(format_fixed(0.002, 3), "0.002");
  EXPECT_EQ(format_fixed(1.0, 0), "1");
}

std::string printf_fixed(double value, int decimals) {
  char buffer[512];
  std::snprintf(buffer, sizeof buffer, "%.*f", decimals, value);
  return buffer;
}

TEST(Strings, FormatFixedMatchesPrintfOnEdgeValues) {
  const double kEdges[] = {
      0.0, -0.0, 0.5, 1.5, 2.5, -2.5, 0.125, 0.375,  // exact binary ties
      0.0000005, 0.0000015, 1.0000005, 280.1234565,   // ties at 6 places
      1e15, -1e15, 1e15 + 0.5, 123456789.987654321, 1e22, 1e300,
      std::numeric_limits<double>::max(), std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::min(),         // smallest normal
      std::numeric_limits<double>::denorm_min(),  // smallest subnormal
      2.2250738585072009e-308,                    // largest subnormal
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
  };
  for (const double value : kEdges) {
    for (const int decimals : {0, 1, 2, 3, 6, 17, 30}) {
      EXPECT_EQ(format_fixed(value, decimals), printf_fixed(value, decimals))
          << value << " at " << decimals;
    }
  }
  // printf treats a negative precision as absent, i.e. 6.
  EXPECT_EQ(format_fixed(2.5, -1), printf_fixed(2.5, 6));
}

TEST(Strings, FormatFixedMatchesPrintfOnSeededSweep) {
  Rng rng{20040815};
  for (int i = 0; i < 20000; ++i) {
    double value = 0.0;
    switch (i % 4) {
      case 0: {  // any bit pattern: subnormals, huge values, inf, nan
        const std::uint64_t bits = rng();
        std::memcpy(&value, &bits, sizeof value);
        break;
      }
      case 1:  // wire-like magnitudes: loads, rates, timestamps
        value = rng.uniform(-1e7, 1e7);
        break;
      case 2:  // decimal ties: k / 10^d + 5 / 10^(d+1) rounds either way
        value = static_cast<double>(rng.uniform_int(0, 1000000)) /
                    std::pow(10.0, static_cast<double>(rng.uniform_int(0, 6))) +
                5.0 * std::pow(10.0, -static_cast<double>(rng.uniform_int(1, 8)));
        break;
      default:  // short decimals, the common case
        value = static_cast<double>(rng.uniform_int(-100000, 100000)) / 1000.0;
        break;
    }
    const int decimals = static_cast<int>(rng.uniform_int(0, 9));
    ASSERT_EQ(format_fixed(value, decimals), printf_fixed(value, decimals))
        << "value bits of " << value << " at " << decimals;
  }
}

TEST(Strings, AppendFormsMatchStandardFormatting) {
  std::string out = "x=";
  append_fixed(out, 0.97, 6);
  append_int(out, -42);
  append_uint(out, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(out, "x=0.970000-4218446744073709551615");
  std::string lowest;
  append_int(lowest, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(lowest, std::to_string(std::numeric_limits<std::int64_t>::min()));
}

}  // namespace
}  // namespace ars::support
