#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>

#include "embed/tfidf.h"
#include "lexical/term_stats.h"
#include "util/rng.h"
#include "vectordb/vector_store.h"

namespace pkb::vectordb {
namespace {

using embed::Vector;

VectorStore random_store(std::size_t n, std::size_t dim, std::uint64_t seed) {
  pkb::util::Rng rng(seed);
  VectorStore store;
  for (std::size_t i = 0; i < n; ++i) {
    Vector v(dim);
    for (float& x : v) x = static_cast<float>(rng.normal());
    store.add(std::move(v));
  }
  return store;
}

Vector to_vector(std::span<const float> row) {
  return Vector(row.begin(), row.end());
}

/// Byte-for-byte equality of two stored rows (same length, same bits).
bool same_bytes(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(VectorStore, AddNormalizesAndChecksDimensions) {
  VectorStore store;
  store.add({3.0f, 4.0f});
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.dimension(), 2u);
  ASSERT_EQ(store.vec(0).size(), 2u);
  EXPECT_NEAR(embed::norm(to_vector(store.vec(0))), 1.0f, 1e-6);
  EXPECT_THROW(store.add({1.0f, 2.0f, 3.0f}), std::invalid_argument);
  EXPECT_THROW((void)store.vec(1), std::out_of_range);
}

TEST(VectorStore, TopKOrderingAndScores) {
  VectorStore store;
  store.add({1.0f, 0.0f});  // row 0: x
  store.add({0.0f, 1.0f});  // row 1: y
  store.add({1.0f, 1.0f});  // row 2: xy
  const auto hits = store.similarity_search({1.0f, 0.0f}, 3);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].index, 0u);
  EXPECT_EQ(hits[1].index, 2u);
  EXPECT_EQ(hits[2].index, 1u);
  EXPECT_NEAR(hits[0].score, 1.0f, 1e-6);
  EXPECT_NEAR(hits[1].score, std::sqrt(0.5f), 1e-5);
  EXPECT_NEAR(hits[2].score, 0.0f, 1e-6);
}

TEST(VectorStore, KLargerThanSizeReturnsAll) {
  const VectorStore store = random_store(5, 8, 1);
  const Vector q = to_vector(store.vec(0));
  EXPECT_EQ(store.similarity_search(q, 100).size(), 5u);
  EXPECT_TRUE(store.similarity_search(q, 0).empty());
}

TEST(VectorStore, QueryDimensionMismatchThrows) {
  const VectorStore store = random_store(3, 8, 2);
  EXPECT_THROW((void)store.similarity_search(Vector(4, 1.0f), 2),
               std::invalid_argument);
}

TEST(VectorStore, TopOneIsSelfForExactQuery) {
  const VectorStore store = random_store(50, 16, 4);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto hits = store.similarity_search(to_vector(store.vec(i)), 1);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].index, i);
  }
}

TEST(VectorStore, FromDocumentsEmbedsEverything) {
  std::vector<text::Document> docs = {
      {"1", "conjugate gradient symmetric", {}},
      {"2", "gmres restart nonsymmetric", {}},
      {"3", "least squares rectangular", {}},
  };
  const text::Analyses analyses = lexical::CorpusAnalysis::build(docs)->chunks;
  embed::TfidfEmbedder embedder;
  embedder.fit(analyses);
  const VectorStore store = VectorStore::from_analyses(analyses, embedder);
  EXPECT_EQ(store.size(), 3u);
  const auto hits = store.similarity_search(
      embedder.embed(text::analyze("rectangular least squares")), 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].index, 2u);  // docs[2], "least squares rectangular"
}

TEST(VectorStore, ReserveHoldsEveryRowInPlace) {
  // A reserved store never moves its block while the reserved rows arrive,
  // and rows added past the reservation are still kept bit for bit.
  const VectorStore src = random_store(12, 6, 5);
  VectorStore store(6);
  store.reserve(10);
  store.add_prenormalized(src.vec(0));
  const float* first = store.vec(0).data();
  for (std::size_t i = 1; i < 10; ++i) store.add_prenormalized(src.vec(i));
  EXPECT_EQ(store.vec(0).data(), first);
  for (std::size_t i = 10; i < src.size(); ++i) {
    store.add_prenormalized(src.vec(i));
  }
  ASSERT_EQ(store.size(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_TRUE(same_bytes(store.vec(i), src.vec(i))) << "row " << i;
  }
}

TEST(VectorStoreHardening, AddPrenormalizedKeepsVectorBitIdentical) {
  VectorStore store;
  store.add({3.0f, 4.0f});
  VectorStore copy;
  copy.add_prenormalized(store.vec(0));
  EXPECT_TRUE(same_bytes(copy.vec(0), store.vec(0)));
  // Dimension checks still apply on the prenormalized path.
  const Vector wrong = {1.0f, 0.0f, 0.0f};
  EXPECT_THROW(copy.add_prenormalized(wrong), std::invalid_argument);
}

TEST(VectorStoreHardening, PresetDimensionConstructorEnforcesDim) {
  VectorStore store(3);
  EXPECT_EQ(store.dimension(), 3u);
  EXPECT_TRUE(store.similarity_search(Vector(3, 1.0f), 4).empty());
  EXPECT_THROW(store.add({1.0f, 2.0f}), std::invalid_argument);
  store.add({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(store.size(), 1u);
}

}  // namespace
}  // namespace pkb::vectordb
