#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace pkb::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ZeroSeedProducesNonDegenerateStream) {
  Rng r(0);
  std::set<std::uint64_t> values;
  for (int i = 0; i < 32; ++i) values.insert(r());
  EXPECT_GT(values.size(), 30u);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(10), 10u);
    EXPECT_EQ(r.below(1), 0u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIsInHalfOpenUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng r(9);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng r(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.08);
}

TEST(Rng, ChanceExtremes) {
  Rng r(21);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng r(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ShuffleChangesOrderForLongVectors) {
  Rng r(29);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  const std::vector<int> orig = v;
  r.shuffle(v);
  EXPECT_NE(v, orig);
}

TEST(Rng, PickReturnsMember) {
  Rng r(31);
  const std::vector<std::string> v = {"a", "b", "c"};
  for (int i = 0; i < 50; ++i) {
    const std::string& p = r.pick(v);
    EXPECT_TRUE(p == "a" || p == "b" || p == "c");
  }
}

TEST(Fnv1a, StableKnownValues) {
  // FNV-1a 64 reference values.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(Fnv1a, DistinctStringsDistinctHashes) {
  EXPECT_NE(fnv1a64("KSPGMRES"), fnv1a64("KSPCG"));
}

TEST(SeedFrom, LabelAndSaltBothMatter) {
  EXPECT_NE(seed_from("a", 0), seed_from("b", 0));
  EXPECT_NE(seed_from("a", 0), seed_from("a", 1));
  EXPECT_EQ(seed_from("a", 1), seed_from("a", 1));
}

}  // namespace
}  // namespace pkb::util
