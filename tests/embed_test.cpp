#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string_view>

#include "corpus/generator.h"
#include "embed/blend.h"
#include "embed/embedder.h"
#include "embed/hashing.h"
#include "embed/lsa.h"
#include "embed/tfidf.h"
#include "text/analysis.h"

namespace pkb::embed {
namespace {

std::vector<text::Document> small_corpus() {
  return {
      {"a", "conjugate gradient method for symmetric positive definite "
            "matrices with short recurrences", {}},
      {"b", "generalized minimal residual GMRES method restarts for "
            "nonsymmetric matrices", {}},
      {"c", "least squares problems with rectangular matrices solved by "
            "LSQR bidiagonalization", {}},
      {"d", "matrix preallocation and assembly performance with "
            "MatSetValues and mallocs", {}},
      {"e", "multigrid preconditioning with smoothers and coarse grid "
            "solves", {}},
  };
}

/// Each document analysed once, as a snapshot's CorpusAnalysis holds them.
text::Analyses analyses(const std::vector<text::Document>& docs) {
  text::Analyses out;
  for (const text::Document& doc : docs) {
    out.push_back(
        std::make_shared<const text::TextAnalysis>(text::analyze(doc)));
  }
  return out;
}

text::Analyses small_analyses() { return analyses(small_corpus()); }

/// Cosine similarity of two equal-length vectors; 0 if either is zero.
float cosine(const Vector& a, const Vector& b) {
  const float na = norm(a);
  const float nb = norm(b);
  if (na <= 0.0f || nb <= 0.0f) return 0.0f;
  double ab = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ab += static_cast<double>(a[i]) * b[i];
  }
  return static_cast<float>(ab) / (na * nb);
}

/// Embed `text` as the Embed stage embeds a question: analyse, then embed.
Vector embed_text(const Embedder& embedder, std::string_view text) {
  return embedder.embed(text::analyze(text));
}

TEST(VectorOps, NormalizeMakesUnitNorm) {
  EXPECT_FLOAT_EQ(norm({1.0f, 0.0f, 2.0f}), std::sqrt(5.0f));
  Vector v = {3.0f, 4.0f};
  l2_normalize(v);
  EXPECT_NEAR(norm(v), 1.0f, 1e-6);
  Vector zero = {0.0f, 0.0f};
  l2_normalize(zero);  // must not divide by zero
  EXPECT_FLOAT_EQ(norm(zero), 0.0f);
}

class EmbedderParamTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EmbedderParamTest, OutputsAreUnitNorm) {
  auto embedder = make_embedder(GetParam());
  embedder->fit(small_analyses());
  for (const auto& doc : small_analyses()) {
    const Vector v = embedder->embed(*doc);
    EXPECT_EQ(v.size(), embedder->dimension());
    EXPECT_NEAR(norm(v), 1.0f, 1e-4) << GetParam();
  }
}

TEST_P(EmbedderParamTest, Deterministic) {
  auto e1 = make_embedder(GetParam());
  auto e2 = make_embedder(GetParam());
  e1->fit(small_analyses());
  e2->fit(small_analyses());
  EXPECT_EQ(embed_text(*e1, "conjugate gradient"),
            embed_text(*e2, "conjugate gradient"));
}

TEST_P(EmbedderParamTest, SelfSimilarityIsMaximal) {
  auto embedder = make_embedder(GetParam());
  embedder->fit(small_analyses());
  const std::string text = small_corpus()[0].text;
  const float self =
      cosine(embed_text(*embedder, text), embed_text(*embedder, text));
  EXPECT_NEAR(self, 1.0f, 1e-4);
}

TEST_P(EmbedderParamTest, TopicallySimilarBeatsDissimilar) {
  auto embedder = make_embedder(GetParam());
  embedder->fit(small_analyses());
  const Vector query =
      embed_text(*embedder, "symmetric positive definite conjugate gradient");
  const Vector on_topic = embed_text(*embedder, small_corpus()[0].text);
  const Vector off_topic = embed_text(*embedder, small_corpus()[3].text);
  EXPECT_GT(cosine(query, on_topic), cosine(query, off_topic)) << GetParam();
}

TEST_P(EmbedderParamTest, BatchMatchesSingle) {
  auto embedder = make_embedder(GetParam());
  const auto docs = small_corpus();
  embedder->fit(analyses(docs));
  const auto batch = embedder->embed_batch(analyses(docs));
  ASSERT_EQ(batch.size(), docs.size());
  // A chunk's analysis and a query analysis of the same text embed alike.
  for (std::size_t i = 0; i < docs.size(); ++i) {
    EXPECT_EQ(batch[i], embed_text(*embedder, docs[i].text));
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, EmbedderParamTest,
                         ::testing::Values("sim-tfidf", "sim-hash-512",
                                           "sim-lsa-16", "sim-charngram-512",
                                           "sim-blend-16-128-w25"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Vocabulary, FitCountsDocumentFrequencies) {
  Vocabulary vocab;
  vocab.fit(small_analyses());
  const std::size_t matrices = vocab.id_of("matrices");
  const std::size_t lsqr = vocab.id_of("lsqr");
  const std::size_t and_ = vocab.id_of("and");
  ASSERT_NE(matrices, Vocabulary::npos);
  ASSERT_NE(lsqr, Vocabulary::npos);
  ASSERT_NE(and_, Vocabulary::npos);
  EXPECT_EQ(vocab.id_of("nonexistentterm"), Vocabulary::npos);
  // idf = log((1 + N) / (1 + df)) + 1 over N = 5 documents: "matrices" is
  // in 3 of them and "lsqr" in 1, so the rare term weighs more; "and" is
  // in 2, twice in one of them, and counts once per document.
  EXPECT_FLOAT_EQ(vocab.idf(matrices), std::log(6.0f / 4.0f) + 1.0f);
  EXPECT_FLOAT_EQ(vocab.idf(lsqr), std::log(6.0f / 2.0f) + 1.0f);
  EXPECT_FLOAT_EQ(vocab.idf(and_), std::log(6.0f / 3.0f) + 1.0f);
}

TEST(Vocabulary, TfidfSparseVectorIsNormalized) {
  Vocabulary vocab;
  vocab.fit(small_analyses());
  const auto sparse = vocab.tfidf(text::analyze("conjugate gradient method"));
  double norm_sq = 0.0;
  for (const auto& [id, w] : sparse) norm_sq += static_cast<double>(w) * w;
  EXPECT_NEAR(norm_sq, 1.0, 1e-5);
}

TEST(Tfidf, EmbedBeforeFitThrows) {
  TfidfEmbedder embedder;
  EXPECT_THROW((void)embed_text(embedder, "text"), std::logic_error);
}

TEST(Tfidf, UnknownTermsEmbedToZero) {
  TfidfEmbedder embedder;
  embedder.fit(small_analyses());
  const Vector v = embed_text(embedder, "zzz qqq www");
  EXPECT_FLOAT_EQ(norm(v), 0.0f);
}

TEST(Lsa, CapturesTopicalSimilarityWithoutSharedTerms) {
  // "SPD solver" and the CG document share topic terms via co-occurrence.
  LsaEmbedder lsa(4, 8);
  lsa.fit(small_analyses());
  EXPECT_EQ(lsa.dimension(), 4u);
  const float on = cosine(embed_text(lsa, "symmetric positive definite"),
                          embed_text(lsa, small_corpus()[0].text));
  const float off = cosine(embed_text(lsa, "symmetric positive definite"),
                           embed_text(lsa, small_corpus()[2].text));
  EXPECT_GT(on, off);
}

TEST(Lsa, InvalidParamsThrow) {
  EXPECT_THROW(LsaEmbedder(0), std::invalid_argument);
  EXPECT_THROW(LsaEmbedder(4, 0), std::invalid_argument);
}

TEST(Hashing, DimensionIsRespected) {
  HashEmbedder h(64);
  EXPECT_EQ(h.dimension(), 64u);
  h.fit({});
  EXPECT_EQ(embed_text(h, "some text").size(), 64u);
  EXPECT_THROW(HashEmbedder(0), std::invalid_argument);
}

TEST(CharNgram, TypoRobustness) {
  CharNgramEmbedder e(512);
  e.fit({});
  // A one-character typo stays closer than a different symbol.
  const float typo =
      cosine(embed_text(e, "KSPGMRES"), embed_text(e, "KSPGMRS"));
  const float other =
      cosine(embed_text(e, "KSPGMRES"), embed_text(e, "PCJACOBI"));
  EXPECT_GT(typo, other);
  EXPECT_GT(typo, 0.5f);
}

TEST(Blend, CosineDecomposes) {
  BlendEmbedder blend(4, 64, 0.5);
  blend.fit(small_analyses());
  EXPECT_EQ(blend.dimension(), 4u + 64u);
  const Vector v = embed_text(blend, small_corpus()[1].text);
  EXPECT_NEAR(norm(v), 1.0f, 1e-4);
}

TEST(Blend, InvalidWeightThrows) {
  EXPECT_THROW(BlendEmbedder(4, 64, -0.1), std::invalid_argument);
  EXPECT_THROW(BlendEmbedder(4, 64, 1.5), std::invalid_argument);
}

TEST(Registry, KnownNamesConstruct) {
  for (const char* name :
       {"sim-tfidf", "sim-hash-512", "sim-hash-256", "sim-lsa-64",
        "sim-lsa-128", "sim-charngram-512", "sim-embed-3-large",
        "sim-embed-3-small", "sim-embed-ada"}) {
    EXPECT_NO_THROW((void)make_embedder(name)) << name;
  }
  EXPECT_NO_THROW((void)make_embedder("sim-lsa-20"));
  EXPECT_NO_THROW((void)make_embedder("sim-blend-32-256-w10"));
  EXPECT_THROW((void)make_embedder("nope"), std::invalid_argument);
  EXPECT_THROW((void)make_embedder("sim-blend-x-y-wz"), std::invalid_argument);
}

TEST(Registry, PaperAliasesResolve) {
  EXPECT_NO_THROW((void)make_embedder("sim-embed-3-large"));
  EXPECT_NO_THROW((void)make_embedder("sim-embed-3-small"));
  EXPECT_NO_THROW((void)make_embedder("sim-embed-ada"));
}

}  // namespace
}  // namespace pkb::embed
