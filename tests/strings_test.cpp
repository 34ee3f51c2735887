#include "util/strings.h"

#include <gtest/gtest.h>

namespace pkb::util {
namespace {

TEST(Strings, TrimRemovesBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("inner space kept  "), "inner space kept");
}

TEST(Strings, TrimLeftAndRightAreOneSided) {
  EXPECT_EQ(trim_left("  a  "), "a  ");
  EXPECT_EQ(trim_right("  a  "), "  a");
}

TEST(Strings, SplitCharKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitCharTrailingSeparatorYieldsEmptyTail) {
  const auto parts = split("a,b,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, SplitStringSeparator) {
  const auto parts = split("one--two--three", std::string_view("--"));
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "two");
}

TEST(Strings, SplitStringSeparatorNoMatchReturnsWhole) {
  const auto parts = split("abc", std::string_view("--"));
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitWsSkipsRuns) {
  const auto parts = split_ws("  a \t b\n\nc ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitLinesHandlesCrLfAndNoTrailingNewline) {
  const auto lines = split_lines("a\r\nb\nc");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
  EXPECT_EQ(lines[2], "c");
}

TEST(Strings, SplitLinesPreservesInteriorBlankLines) {
  const auto lines = split_lines("a\n\nb\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1], "");
}

TEST(Strings, JoinRoundTripsSplit) {
  const std::string input = "x|y|z";
  EXPECT_EQ(join(split(input, '|'), "|"), input);
}

TEST(Strings, CaseConversions) {
  EXPECT_EQ(to_lower("KSPSolve"), "kspsolve");
  EXPECT_EQ(to_upper("gmres"), "GMRES");
  EXPECT_EQ(to_lower("already lower 123"), "already lower 123");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("KSPGMRES", "KSP"));
  EXPECT_FALSE(starts_with("KSP", "KSPGMRES"));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(replace_all("no match", "zz", "y"), "no match");
  EXPECT_EQ(replace_all("abab", "ab", "ba"), "baba");
}

TEST(Strings, ContainsAndICase) {
  EXPECT_TRUE(icontains("The KSPLSQR Solver", "ksplsqr"));
  EXPECT_FALSE(icontains("abc", "abd"));
}

TEST(Strings, EditDistanceBasics) {
  EXPECT_EQ(edit_distance("", ""), 0u);
  EXPECT_EQ(edit_distance("abc", "abc"), 0u);
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(edit_distance("KSPGmres", "KSPGMRES"), 4u);
  EXPECT_EQ(edit_distance("", "xyz"), 3u);
}

TEST(Strings, EditDistanceIsSymmetric) {
  EXPECT_EQ(edit_distance("solver", "solvers"),
            edit_distance("solvers", "solver"));
}

TEST(Strings, CountOccurrencesNonOverlapping) {
  EXPECT_EQ(count_occurrences("aaaa", "aa"), 2u);
  EXPECT_EQ(count_occurrences("abcabc", "abc"), 2u);
  EXPECT_EQ(count_occurrences("abc", ""), 0u);
}

TEST(Strings, RepeatAndEllipsize) {
  EXPECT_EQ(repeat("ab", 3), "ababab");
  EXPECT_EQ(repeat("x", 0), "");
  EXPECT_EQ(ellipsize("short", 10), "short");
  EXPECT_EQ(ellipsize("a very long string", 10), "a very ...");
  EXPECT_EQ(ellipsize("abcdef", 3), "abc");
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
}

TEST(Strings, IsIdentChar) {
  EXPECT_TRUE(is_ident_char('a'));
  EXPECT_TRUE(is_ident_char('Z'));
  EXPECT_TRUE(is_ident_char('0'));
  EXPECT_TRUE(is_ident_char('_'));
  EXPECT_FALSE(is_ident_char('-'));
  EXPECT_FALSE(is_ident_char(' '));
}

}  // namespace
}  // namespace pkb::util
