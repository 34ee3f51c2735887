#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
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

TEST(VectorStore, SaveLoadRoundTrip) {
  namespace fs = std::filesystem;
  const VectorStore store = random_store(12, 6, 6);
  const std::string path =
      (fs::temp_directory_path() / "pkb_store_test.bin").string();
  store.save(path);
  const VectorStore loaded = VectorStore::load(path);
  ASSERT_EQ(loaded.size(), store.size());
  ASSERT_EQ(loaded.dimension(), store.dimension());
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_TRUE(same_bytes(loaded.vec(i), store.vec(i))) << "row " << i;
  }
  fs::remove(path);
}

TEST(VectorStore, LoadRejectsGarbage) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "pkb_store_garbage.bin").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a vector store";
  }
  EXPECT_THROW((void)VectorStore::load(path), std::runtime_error);
  EXPECT_THROW((void)VectorStore::load("/nonexistent/x.bin"),
               std::runtime_error);
  fs::remove(path);
}

// --- load() hardening: every malformed prefix is a clear error, never a
// silently corrupt store. The serialized bytes come from a real save() so
// each test corrupts exactly one aspect.

std::string store_bytes(const VectorStore& store) {
  std::ostringstream out(std::ios::binary);
  store.save(out);
  return out.str();
}

VectorStore load_bytes(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return VectorStore::load(in);
}

TEST(VectorStoreHardening, StreamRoundTripIsBitExact) {
  const VectorStore store = random_store(7, 5, 11);
  const VectorStore loaded = load_bytes(store_bytes(store));
  ASSERT_EQ(loaded.size(), store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_TRUE(same_bytes(loaded.vec(i), store.vec(i))) << "row " << i;
  }
}

TEST(VectorStoreHardening, RejectsBadMagic) {
  std::string bytes = store_bytes(random_store(3, 4, 12));
  bytes[0] = 'X';
  EXPECT_THROW((void)load_bytes(bytes), std::runtime_error);
}

TEST(VectorStoreHardening, RejectsUnsupportedVersion) {
  std::string bytes = store_bytes(random_store(3, 4, 12));
  ASSERT_EQ(bytes[4], 2);  // u32 version little-endian low byte
  // Version 1 interleaved documents with the rows; it no longer loads.
  for (char version : {char{1}, char{3}, char{0x7F}}) {
    bytes[4] = version;
    try {
      (void)load_bytes(bytes);
      ADD_FAILURE() << "version " << int{version} << " loaded";
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string(err.what()).find("unsupported version"),
                std::string::npos)
          << err.what();
    }
  }
}

TEST(VectorStoreHardening, BlobIsHeaderThenRawRows) {
  const VectorStore store = random_store(3, 4, 12);
  const std::string bytes = store_bytes(store);
  // magic + version + count + dim, then count * dim floats — no documents.
  ASSERT_EQ(bytes.size(), 4 + 4 + 8 + 8 + 3 * 4 * sizeof(float));
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(std::memcmp(bytes.data() + 24 + i * 4 * sizeof(float),
                          store.vec(i).data(), 4 * sizeof(float)),
              0)
        << "row " << i;
  }
}

TEST(VectorStoreHardening, LargeCountFailsAtTheFirstMissingRow) {
  // A plausible-looking but false count (within read_count's bound) must
  // fail reading the rows that are not there, never size a buffer from
  // count * dim up front.
  std::string bytes = store_bytes(random_store(3, 4, 12));
  const std::uint64_t count = std::uint64_t{1} << 29;
  std::memcpy(bytes.data() + 8, &count, sizeof count);
  try {
    (void)load_bytes(bytes);
    ADD_FAILURE() << "count 2^29 loaded";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("entry vector"), std::string::npos)
        << err.what();
  }
}

TEST(VectorStoreHardening, RejectsImplausibleCount) {
  std::string bytes = store_bytes(random_store(3, 4, 12));
  // u64 count sits after magic (4) + version (4); make it absurd.
  for (int i = 0; i < 8; ++i) bytes[8 + i] = static_cast<char>(0xFF);
  EXPECT_THROW((void)load_bytes(bytes), std::runtime_error);
}

TEST(VectorStoreHardening, RejectsZeroDimensionWithEntries) {
  std::string bytes = store_bytes(random_store(3, 4, 12));
  // u64 dim sits after magic (4) + version (4) + count (8).
  for (int i = 0; i < 8; ++i) bytes[16 + i] = 0;
  EXPECT_THROW((void)load_bytes(bytes), std::runtime_error);
}

TEST(VectorStoreHardening, RejectsTruncationAtEveryPrefix) {
  const std::string bytes = store_bytes(random_store(4, 3, 13));
  // Every strict prefix must throw, whether it cuts a header field or the
  // float payload.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)load_bytes(bytes.substr(0, len)), std::runtime_error)
        << "prefix length " << len;
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

// Regression: load() never restored the header dimension when the store
// was empty, so a saved dim-D empty store reloaded as dim-0 and accepted
// vectors of any size from then on.
TEST(VectorStoreHardening, EmptyStoreRoundTripKeepsDimension) {
  const VectorStore empty(5);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.dimension(), 5u);
  VectorStore loaded = load_bytes(store_bytes(empty));
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_EQ(loaded.dimension(), 5u);
  // The restored dimension is enforced, exactly as on the saved store.
  EXPECT_THROW(loaded.add({1.0f, 2.0f}), std::invalid_argument);
  loaded.add(Vector(5, 1.0f));
  EXPECT_EQ(loaded.dimension(), 5u);
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
