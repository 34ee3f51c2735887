#include "text/markdown.h"

#include <gtest/gtest.h>

namespace pkb::text {
namespace {

TEST(Markdown, ParsesHeadingLevels) {
  const auto blocks = parse_markdown("# Title\n\n### Sub\n");
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].type, MdBlock::Type::Heading);
  EXPECT_EQ(blocks[0].level, 1);
  EXPECT_EQ(blocks[0].text, "Title");
  EXPECT_EQ(blocks[1].level, 3);
}

TEST(Markdown, HashWithoutSpaceIsNotHeading) {
  const auto blocks = parse_markdown("#notaheading\n");
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].type, MdBlock::Type::Paragraph);
}

TEST(Markdown, ParagraphJoinsContiguousLines) {
  const auto blocks = parse_markdown("line one\nline two\n\nnext para\n");
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].text, "line one line two");
  EXPECT_EQ(blocks[1].text, "next para");
}

TEST(Markdown, CodeFenceKeepsBodyVerbatim) {
  const auto blocks =
      parse_markdown("```c\nKSPCreate(comm, &ksp);\n  indented;\n```\n");
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].type, MdBlock::Type::CodeFence);
  EXPECT_EQ(blocks[0].language, "c");
  EXPECT_EQ(blocks[0].text, "KSPCreate(comm, &ksp);\n  indented;");
}

TEST(Markdown, UnterminatedFenceConsumesRest) {
  const auto blocks = parse_markdown("```\ncode\nmore");
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].text, "code\nmore");
}

TEST(Markdown, BulletList) {
  const auto blocks = parse_markdown("- alpha\n- beta\n* gamma\n");
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].type, MdBlock::Type::List);
  EXPECT_FALSE(blocks[0].ordered);
  EXPECT_EQ(blocks[0].items,
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
}

TEST(Markdown, OrderedList) {
  const auto blocks = parse_markdown("1. first\n2. second\n10. tenth\n");
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_TRUE(blocks[0].ordered);
  ASSERT_EQ(blocks[0].items.size(), 3u);
  EXPECT_EQ(blocks[0].items[2], "tenth");
}

TEST(Markdown, ListContinuationLinesAppend) {
  const auto blocks = parse_markdown("- item one\n  continues here\n- two\n");
  ASSERT_EQ(blocks.size(), 1u);
  ASSERT_EQ(blocks[0].items.size(), 2u);
  EXPECT_EQ(blocks[0].items[0], "item one continues here");
}

TEST(Markdown, Table) {
  const auto blocks = parse_markdown(
      "| Solver | Use |\n|---|---|\n| KSPCG | SPD |\n| KSPGMRES | general |\n");
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].type, MdBlock::Type::Table);
  ASSERT_EQ(blocks[0].rows.size(), 3u);
  EXPECT_EQ(blocks[0].rows[0],
            (std::vector<std::string>{"Solver", "Use"}));
  EXPECT_EQ(blocks[0].rows[2][0], "KSPGMRES");
}

TEST(Markdown, BlockQuoteMerged) {
  const auto blocks = parse_markdown("> quoted line\n> second line\n");
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].type, MdBlock::Type::BlockQuote);
  EXPECT_EQ(blocks[0].text, "quoted line\nsecond line");
}

TEST(Markdown, HorizontalRuleVsBullet) {
  const auto blocks = parse_markdown("---\n\n- real bullet\n");
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].type, MdBlock::Type::HorizontalRule);
  EXPECT_EQ(blocks[1].type, MdBlock::Type::List);
}

TEST(StripInline, RemovesEmphasisKeepsCode) {
  EXPECT_EQ(strip_inline("use **bold** and *em* and `KSPSolve()`"),
            "use bold and em and KSPSolve()");
}

TEST(StripInline, LinkBecomesText) {
  EXPECT_EQ(strip_inline("see [the manual](https://petsc.org/manual) now"),
            "see the manual now");
}

TEST(StripInline, UnderscoreInsideIdentifierKept) {
  EXPECT_EQ(strip_inline("-ksp_type stays"), "-ksp_type stays");
  EXPECT_EQ(strip_inline("pc_type too"), "pc_type too");
}

TEST(StripMarkdown, FlattensStructure) {
  const std::string md =
      "# KSPGMRES\n\nGeneralized Minimal RESidual method.\n\n- restart "
      "default 30\n\n```c\nKSPSetType(ksp, KSPGMRES);\n```\n";
  const std::string plain = strip_markdown(md);
  EXPECT_NE(plain.find("KSPGMRES"), std::string::npos);
  EXPECT_NE(plain.find("restart default 30"), std::string::npos);
  EXPECT_NE(plain.find("KSPSetType(ksp, KSPGMRES);"), std::string::npos);
  EXPECT_EQ(plain.find('#'), std::string::npos);
}

TEST(ExtractSections, SplitsOnHeadings) {
  const std::string md =
      "preamble text\n\n# One\nbody one\n\n## Sub\nsub body\n\n# Two\nbody "
      "two\n";
  const auto sections = extract_sections(md);
  ASSERT_EQ(sections.size(), 4u);
  EXPECT_EQ(sections[0].title, "");
  EXPECT_EQ(sections[0].level, 0);
  EXPECT_EQ(sections[1].title, "One");
  EXPECT_EQ(sections[2].title, "Sub");
  EXPECT_EQ(sections[2].level, 2);
  EXPECT_EQ(sections[3].body, "body two");
}

TEST(ExtractSections, HeadingInsideCodeFenceIgnored) {
  const std::string md = "# Top\n```\n# not a heading\n```\nafter\n";
  const auto sections = extract_sections(md);
  ASSERT_EQ(sections.size(), 1u);
  EXPECT_EQ(sections[0].title, "Top");
  EXPECT_NE(sections[0].body.find("# not a heading"), std::string::npos);
}

TEST(FirstHeading, FindsTitleOrEmpty) {
  EXPECT_EQ(first_heading("text\n# Title\nmore"), "Title");
  EXPECT_EQ(first_heading("no headings"), "");
}

TEST(Markdown, EmptyInput) {
  EXPECT_TRUE(parse_markdown("").empty());
  EXPECT_EQ(strip_markdown(""), "");
  EXPECT_TRUE(extract_sections("").empty());
}

}  // namespace
}  // namespace pkb::text
