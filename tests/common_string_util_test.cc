#include "common/string_util.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/rng.h"
#include "tests/test_util.h"

namespace ppdb {
namespace {

TEST(TrimWhitespaceTest, TrimsBothEnds) {
  EXPECT_EQ(TrimWhitespace("  abc  "), "abc");
  EXPECT_EQ(TrimWhitespace("\t\nabc\r\n"), "abc");
  EXPECT_EQ(TrimWhitespace("abc"), "abc");
}

TEST(TrimWhitespaceTest, AllWhitespaceBecomesEmpty) {
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace(""), "");
}

TEST(TrimWhitespaceTest, PreservesInteriorWhitespace) {
  EXPECT_EQ(TrimWhitespace(" a b "), "a b");
}

TEST(SplitTest, SplitsOnDelimiter) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, EmptyFieldsPreserved) {
  auto parts = Split("a,,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(SplitTest, EmptyInputIsOneEmptyField) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(SplitTest, TrailingDelimiterYieldsTrailingEmpty) {
  auto parts = Split("a,", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "");
}

TEST(SplitAndTrimTest, TrimsEveryField) {
  auto parts = SplitAndTrim(" a , b ,c ", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("policy weight", "policy"));
  EXPECT_FALSE(StartsWith("po", "policy"));
  EXPECT_TRUE(EndsWith("table.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "table.csv"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(ToLowerTest, LowersAsciiOnly) {
  EXPECT_EQ(ToLower("AbC-12_z"), "abc-12_z");
}

TEST(EqualsIgnoreCaseTest, ComparesAsLowerCase) {
  EXPECT_TRUE(EqualsIgnoreCase("Granularity", "granularity"));
  EXPECT_TRUE(EqualsIgnoreCase("AbC-12_z", "aBc-12_Z"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("v", "visibility"));
  EXPECT_FALSE(EqualsIgnoreCase("retention", "retentiom"));
}

TEST(ParseInt64Test, ParsesDecimal) {
  ASSERT_OK_AND_ASSIGN(int64_t v, ParseInt64("42"));
  EXPECT_EQ(v, 42);
  ASSERT_OK_AND_ASSIGN(int64_t n, ParseInt64("-17"));
  EXPECT_EQ(n, -17);
}

TEST(ParseInt64Test, TrimsWhitespace) {
  ASSERT_OK_AND_ASSIGN(int64_t v, ParseInt64("  7 "));
  EXPECT_EQ(v, 7);
}

TEST(ParseInt64Test, RejectsGarbage) {
  EXPECT_TRUE(ParseInt64("4x").status().IsParseError());
  EXPECT_TRUE(ParseInt64("").status().IsParseError());
  EXPECT_TRUE(ParseInt64("4.5").status().IsParseError());
}

TEST(ParseInt64Test, RejectsOverflow) {
  EXPECT_TRUE(ParseInt64("99999999999999999999").status().IsOutOfRange());
}

TEST(ParseDoubleTest, ParsesFloats) {
  ASSERT_OK_AND_ASSIGN(double v, ParseDouble("3.5"));
  EXPECT_DOUBLE_EQ(v, 3.5);
  ASSERT_OK_AND_ASSIGN(double e, ParseDouble("-1e3"));
  EXPECT_DOUBLE_EQ(e, -1000.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  EXPECT_TRUE(ParseDouble("3.5kg").status().IsParseError());
  EXPECT_TRUE(ParseDouble("").status().IsParseError());
}

// Pins what ParseDouble accepts and rejects: every form strtod takes
// (sign, hex, inf, nan), and glibc's ERANGE for overflow, underflow and
// subnormal results.
TEST(ParseDoubleTest, AcceptsEveryStrtodForm) {
  ASSERT_OK_AND_ASSIGN(double plus, ParseDouble("+1.5"));
  EXPECT_EQ(plus, 1.5);
  ASSERT_OK_AND_ASSIGN(double hex, ParseDouble("0x1p3"));
  EXPECT_EQ(hex, 8.0);
  ASSERT_OK_AND_ASSIGN(double inf, ParseDouble("inf"));
  EXPECT_TRUE(std::isinf(inf) && inf > 0);
  ASSERT_OK_AND_ASSIGN(double minus_inf, ParseDouble("-infinity"));
  EXPECT_TRUE(std::isinf(minus_inf) && minus_inf < 0);
  ASSERT_OK_AND_ASSIGN(double nan, ParseDouble("nan"));
  EXPECT_TRUE(std::isnan(nan));
  ASSERT_OK_AND_ASSIGN(double minus_zero, ParseDouble("-0"));
  EXPECT_EQ(minus_zero, 0.0);
  EXPECT_TRUE(std::signbit(minus_zero));
  ASSERT_OK_AND_ASSIGN(double dot, ParseDouble(".5"));
  EXPECT_EQ(dot, 0.5);
  ASSERT_OK_AND_ASSIGN(double trailing_dot, ParseDouble("1."));
  EXPECT_EQ(trailing_dot, 1.0);
  ASSERT_OK_AND_ASSIGN(double smallest_normal,
                       ParseDouble("2.2250738585072014e-308"));
  EXPECT_EQ(smallest_normal, 0x1p-1022);
}

TEST(ParseDoubleTest, OutOfRangeAsGlibcReportsIt) {
  Status overflow = ParseDouble("1e999").status();
  EXPECT_TRUE(overflow.IsOutOfRange());
  EXPECT_EQ(overflow.message(), "number out of range: '1e999'");
  EXPECT_TRUE(ParseDouble("-1e999").status().IsOutOfRange());
  EXPECT_TRUE(
      ParseDouble("4.9406564584124654e-324").status().IsOutOfRange());
  EXPECT_TRUE(
      ParseDouble("2.2250738585072011e-308").status().IsOutOfRange());
  EXPECT_TRUE(ParseDouble("1e-400").status().IsOutOfRange());
}

TEST(ParseDoubleTest, TrimsWhitespaceButRejectsTrailingJunk) {
  ASSERT_OK_AND_ASSIGN(double v, ParseDouble(" \t2.5\r\n"));
  EXPECT_EQ(v, 2.5);
  Status junk = ParseDouble("1.5x").status();
  EXPECT_TRUE(junk.IsParseError());
  EXPECT_EQ(junk.message(), "not a number: '1.5x'");
  EXPECT_TRUE(ParseDouble("1.5 2").status().IsParseError());
  EXPECT_TRUE(ParseDouble("1e").status().IsParseError());
  EXPECT_TRUE(ParseDouble("0x").status().IsParseError());
  EXPECT_TRUE(ParseDouble("--1").status().IsParseError());
  EXPECT_TRUE(ParseDouble("   ").status().IsParseError());
}

// Every double printed the two ways the DSL serializer prints numbers
// parses to exactly the bits strtod gives, or to OutOfRange exactly where
// strtod reports ERANGE.
TEST(ParseDoubleTest, MatchesStrtodBitwiseOnRandomDoubles) {
  Rng rng(20261019);
  int checked = 0;
  for (int i = 0; i < 100000; ++i) {
    uint64_t bits = rng.NextUint64();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    if (!std::isfinite(value)) continue;
    for (const char* format : {"%g", "%.17g"}) {
      char text[48];
      std::snprintf(text, sizeof(text), format, value);
      errno = 0;
      const double expected = std::strtod(text, nullptr);
      const bool out_of_range = errno == ERANGE;
      Result<double> parsed = ParseDouble(text);
      if (out_of_range) {
        EXPECT_TRUE(parsed.status().IsOutOfRange()) << text;
        continue;
      }
      ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
      uint64_t want;
      uint64_t got;
      std::memcpy(&want, &expected, sizeof(want));
      std::memcpy(&got, &parsed.value(), sizeof(got));
      ASSERT_EQ(got, want) << text;
      ++checked;
    }
  }
  EXPECT_GT(checked, 150000);
}

TEST(IsValidIdentifierTest, AcceptsTypicalNames) {
  EXPECT_TRUE(IsValidIdentifier("weight"));
  EXPECT_TRUE(IsValidIdentifier("_private"));
  EXPECT_TRUE(IsValidIdentifier("email_marketing"));
  EXPECT_TRUE(IsValidIdentifier("a.b-c"));
  EXPECT_TRUE(IsValidIdentifier("Table9"));
}

TEST(IsValidIdentifierTest, RejectsInvalid) {
  EXPECT_FALSE(IsValidIdentifier(""));
  EXPECT_FALSE(IsValidIdentifier("9lives"));
  EXPECT_FALSE(IsValidIdentifier("has space"));
  EXPECT_FALSE(IsValidIdentifier("-leading"));
  EXPECT_FALSE(IsValidIdentifier("semi;colon"));
}

TEST(CsvEscapeTest, PlainFieldsUntouched) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
}

TEST(CsvEscapeTest, QuotesSpecialFields) {
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("line\nbreak"), "\"line\nbreak\"");
}

}  // namespace
}  // namespace ppdb
