// Tests for the future-work extension: the synthetic mailing-list archive.
#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "corpus/mailing_list.h"

namespace pkb {
namespace {

TEST(MailingListArchive, GeneratesRequestedThreadCount) {
  corpus::ArchiveOptions opts;
  opts.threads = 12;
  const text::VirtualDir tree = corpus::generate_mailing_list_archive(opts);
  ASSERT_EQ(tree.size(), 12u);
  for (const auto& file : tree) {
    EXPECT_TRUE(file.path.starts_with("archives/petsc-users/thread-"));
    EXPECT_NE(file.content.find("[petsc-users]"), std::string::npos);
    EXPECT_NE(file.content.find("## From:"), std::string::npos);
  }
}

TEST(MailingListArchive, DeterministicPerSeedAndDistinctAcrossSeeds) {
  corpus::ArchiveOptions a;
  a.threads = 8;
  a.seed = 1;
  corpus::ArchiveOptions b = a;
  const auto t1 = corpus::generate_mailing_list_archive(a);
  const auto t2 = corpus::generate_mailing_list_archive(b);
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].content, t2[i].content);
  }
  corpus::ArchiveOptions c = a;
  c.seed = 2;
  const auto t3 = corpus::generate_mailing_list_archive(c);
  bool any_diff = false;
  for (std::size_t i = 0; i < t1.size(); ++i) {
    if (t1[i].content != t3[i].content) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(MailingListArchive, ThreadsAreGroundedInSpecFacts) {
  // Every thread names a real spec and carries its summary text (a
  // developer answered with real facts, not noise).
  corpus::ArchiveOptions opts;
  opts.threads = 20;
  for (const auto& file : corpus::generate_mailing_list_archive(opts)) {
    bool grounded = false;
    for (const corpus::ApiSpec& spec : corpus::api_table()) {
      if (file.content.find(spec.name) != std::string::npos &&
          file.content.find(spec.summary) != std::string::npos) {
        grounded = true;
        break;
      }
    }
    EXPECT_TRUE(grounded) << file.path;
  }
}

TEST(MailingListArchive, CorpusOptionIncludesIt) {
  corpus::CorpusOptions opts;
  opts.include_mailing_list_archive = true;
  opts.archive_threads = 10;
  std::size_t archive_files = 0;
  for (const auto& file : corpus::generate_corpus(opts)) {
    if (file.path.starts_with("archives/")) ++archive_files;
  }
  EXPECT_EQ(archive_files, 10u);
  // Default stays archive-free (the paper's evaluated configuration).
  for (const auto& file : corpus::generate_corpus()) {
    EXPECT_FALSE(file.path.starts_with("archives/")) << file.path;
  }
}

}  // namespace
}  // namespace pkb
