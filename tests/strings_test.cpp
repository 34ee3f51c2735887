#include "util/strings.h"

#include <gtest/gtest.h>

#include <string>

#include "util/rng.h"

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

/// count_words as a bytewise loop, before it read eight bytes at a time.
std::size_t count_words_bytewise(std::string_view s) {
  std::size_t words = 0;
  bool in_word = false;
  for (const char c : s) {
    const bool word_char = !(c == ' ' || c == '\t' || c == '\n' ||
                             c == '\r' || c == '\f' || c == '\v');
    if (word_char && !in_word) ++words;
    in_word = word_char;
  }
  return words;
}

TEST(Strings, CountWordsMatchesBytewiseLoop) {
  // Every whitespace byte, its neighbours (0x08, 0x0e, 0x1f, 0x21), the
  // bytes that differ from them in the high bit (0x89, 0x8d, 0xa0) and
  // other bytes >= 0x80, at every length 0..40 and start offset 0..7.
  constexpr unsigned char kBytes[] = {' ',  '\t', '\n', '\v', '\f', '\r',
                                      0x08, 0x0e, 0x1f, 0x21, 0x89, 0x8d,
                                      0xa0, 0x80, 0xff, 'a',  'Z',  '0'};
  Rng rng(20261020);
  std::string buffer(48, ' ');
  for (int round = 0; round < 200; ++round) {
    for (char& c : buffer) {
      c = static_cast<char>(kBytes[rng.below(sizeof(kBytes))]);
    }
    for (std::size_t start = 0; start < 8; ++start) {
      for (std::size_t len = 0; len <= 40; ++len) {
        const std::string_view s(buffer.data() + start, len);
        ASSERT_EQ(count_words(s), count_words_bytewise(s))
            << "round " << round << " start " << start << " len " << len;
      }
    }
  }
  // Fully random bytes, long enough for many eight-byte blocks.
  for (int round = 0; round < 200; ++round) {
    std::string s(rng.below(300), '\0');
    for (char& c : s) c = static_cast<char>(rng.below(256));
    ASSERT_EQ(count_words(s), count_words_bytewise(s)) << "round " << round;
  }
  EXPECT_EQ(count_words(""), 0u);
  EXPECT_EQ(count_words("  one\ttwo\n\nthree four\vfive\f6\r "), 6u);
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
