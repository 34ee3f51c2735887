#include "text/loader.h"

#include <gtest/gtest.h>

#include <string>

namespace pkb::text {
namespace {

TEST(GlobMatch, StarDoesNotCrossSlash) {
  EXPECT_TRUE(glob_match("*.md", "file.md"));
  EXPECT_FALSE(glob_match("*.md", "dir/file.md"));
  EXPECT_TRUE(glob_match("dir/*.md", "dir/file.md"));
  EXPECT_FALSE(glob_match("dir/*.md", "dir/sub/file.md"));
}

TEST(GlobMatch, DoubleStarCrossesSlash) {
  EXPECT_TRUE(glob_match("**/*.md", "a/b/c/file.md"));
  EXPECT_TRUE(glob_match("**", "anything/at/all"));
  EXPECT_TRUE(glob_match("manualpages/**", "manualpages/KSP/KSPGMRES.md"));
  EXPECT_FALSE(glob_match("manualpages/**", "docs/KSPGMRES.md"));
}

TEST(GlobMatch, DoubleStarSlashPrefixMatchesTopLevel) {
  // "**/*.md" conventionally also matches a top-level file.
  EXPECT_TRUE(glob_match("**/*.md", "README.md"));
}

TEST(GlobMatch, QuestionMarkSingleNonSlash) {
  EXPECT_TRUE(glob_match("file?.md", "file1.md"));
  EXPECT_FALSE(glob_match("file?.md", "file12.md"));
  EXPECT_FALSE(glob_match("a?b", "a/b"));
}

TEST(GlobMatch, ExactAndEmpty) {
  EXPECT_TRUE(glob_match("abc", "abc"));
  EXPECT_FALSE(glob_match("abc", "abd"));
  EXPECT_TRUE(glob_match("", ""));
  EXPECT_FALSE(glob_match("", "x"));
  EXPECT_TRUE(glob_match("*", "x"));
}

VirtualDir sample_tree() {
  return VirtualDir{
      {"manualpages/KSP/KSPGMRES.md", "# KSPGMRES\n\nGMRES solver.\n"},
      {"manualpages/KSP/KSPCG.md", "# KSPCG\n\nCG solver.\n"},
      {"docs/manual.md", "# Manual\n\n## Solvers\nUse KSP.\n\n## Vectors\nVec "
                         "objects.\n"},
      {"src/main.c", "int main(){}\n"},
  };
}

TEST(DirectoryLoader, FiltersByPattern) {
  DirectoryLoader loader("**/*.md");
  const auto files = loader.load(sample_tree());
  ASSERT_EQ(files.size(), 3u);
  for (const auto& f : files) {
    EXPECT_TRUE(f.path.ends_with(".md"));
  }
}

TEST(DirectoryLoader, EmptyPatternMatchesEverything) {
  DirectoryLoader loader("");
  EXPECT_EQ(loader.load(sample_tree()).size(), 4u);
}

TEST(DirectoryLoader, SubtreePattern) {
  DirectoryLoader loader("manualpages/**");
  const auto files = loader.load(sample_tree());
  ASSERT_EQ(files.size(), 2u);
}

TEST(MarkdownLoader, SingleModeOneDocPerFile) {
  MarkdownLoader loader(MarkdownMode::Single);
  const auto docs = loader.load_file(sample_tree()[0]);
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_EQ(docs[0].id, "manualpages/KSP/KSPGMRES.md");
  EXPECT_EQ(docs[0].meta("source"), "manualpages/KSP/KSPGMRES.md");
  EXPECT_EQ(docs[0].meta("title"), "KSPGMRES");
  EXPECT_NE(docs[0].text.find("GMRES solver."), std::string::npos);
  EXPECT_EQ(docs[0].text.find('#'), std::string::npos);  // markup stripped
}

TEST(MarkdownLoader, SectionsModeOneDocPerSection) {
  MarkdownLoader loader(MarkdownMode::Sections);
  const auto docs = loader.load_file(sample_tree()[2]);
  ASSERT_EQ(docs.size(), 3u);
  EXPECT_EQ(docs[1].meta("section"), "Solvers");
  EXPECT_EQ(docs[2].meta("section"), "Vectors");
  EXPECT_NE(docs[1].text.find("Use KSP."), std::string::npos);
  // All sections share the file title.
  for (const auto& d : docs) EXPECT_EQ(d.meta("title"), "Manual");
}

TEST(MarkdownLoader, LoadManyKeepsOrder) {
  MarkdownLoader loader;
  DirectoryLoader dir("**/*.md");
  const auto docs = loader.load(dir.load(sample_tree()));
  ASSERT_EQ(docs.size(), 3u);
  EXPECT_EQ(docs[0].id, "manualpages/KSP/KSPGMRES.md");
  EXPECT_EQ(docs[2].id, "docs/manual.md");
}

}  // namespace
}  // namespace pkb::text
