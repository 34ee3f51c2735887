// FlashRanker's one-pass needle scan, pinned to what it replaced.
//
// OnePassCountsMatchFind checks util::NeedleCounter against repeated find()
// (count_occurrences, the BM25 tf) and a single find() (the bigram test) on
// seeded random texts and needle sets, then compares FlashRanker::score by
// memcmp with a copy of the per-term scoring code it replaced, on seeded
// random questions over the docs corpus' words and one question of about
// 100 KB. ConcurrentScoresMatchSerial shares one FlashRanker between
// threads, as the Server's workers do.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "count_occurrences.h"
#include "docs_chunks.h"
#include "lexical/term_stats.h"
#include "rerank/flashranker.h"
#include "text/tokenizer.h"
#include "util/needles.h"
#include "util/rng.h"
#include "util/strings.h"

namespace pkb::rerank {
namespace {

namespace reference {

// FlashRanker's scoring as it was before the one-pass scan: a find() per
// bigram and count_occurrences per present term.

constexpr double kCoverageWeight = 1.0;
constexpr double kBm25Weight = 0.35;
constexpr double kSymbolBonus = 1.5;
constexpr double kBigramBonus = 0.3;
constexpr double kTitleWeight = 0.22;
constexpr double kTitleSymbolBonus = 2.0;

struct WeightedTerm {
  std::string_view term;
  double weight = 0.0;
};

struct QuerySymbol {
  std::string surface;
  std::string lower;
  double bonus = 0.0;
};

struct Query {
  std::vector<WeightedTerm> coverage;
  double total_idf = 0.0;
  std::vector<QuerySymbol> symbols;
  std::vector<std::string> bigrams;
  std::vector<WeightedTerm> title_terms;
  std::vector<WeightedTerm> bm25_terms;
};

Query plan_query(const text::QueryAnalysis& q,
                 const lexical::TermStats& stats) {
  const auto& stop = text::stopwords();
  Query out;
  std::unordered_set<std::string_view> seen;
  for (const text::TextAnalysis::Span tok : q.tokens) {
    const std::string_view term = q.view(tok);
    if (!seen.insert(term).second) continue;
    if (stop.contains(term)) continue;
    const double w = std::max(0.1, stats.idf(term));
    out.total_idf += w;
    out.coverage.push_back({term, w});
  }
  for (const std::string& symbol : q.symbols) {
    std::string lower = util::to_lower(symbol);
    const double bonus = kSymbolBonus * std::max(0.2, stats.idf(lower));
    out.symbols.push_back({symbol, std::move(lower), bonus});
  }
  for (std::size_t i = 0; i + 1 < q.tokens.size(); ++i) {
    const std::string_view a = q.view(q.tokens[i]);
    const std::string_view b = q.view(q.tokens[i + 1]);
    if (stop.contains(a) && stop.contains(b)) continue;
    out.bigrams.push_back(std::string(a).append(" ").append(b));
  }
  for (const std::string_view term : seen) {
    const double idf = stats.idf(term);
    if (!stop.contains(term)) {
      out.title_terms.push_back({term, kTitleWeight * std::max(0.2, idf)});
    }
    out.bm25_terms.push_back({term, idf});
  }
  return out;
}

double score_doc(const Query& q, const text::Document& doc,
                 const text::TextAnalysis& a) {
  double coverage = 0.0;
  for (const WeightedTerm& t : q.coverage) {
    if (a.has_term(t.term)) coverage += t.weight;
  }
  double score = q.total_idf > 0.0
                     ? kCoverageWeight * coverage / q.total_idf
                     : 0.0;
  for (const QuerySymbol& symbol : q.symbols) {
    if (doc.text.find(symbol.surface) != std::string::npos) {
      score += symbol.bonus;
    }
  }
  for (const std::string& bigram : q.bigrams) {
    if (a.lower.find(bigram) != std::string::npos) score += kBigramBonus;
  }
  if (!a.title.empty()) {
    for (const WeightedTerm& t : q.title_terms) {
      if (a.title.find(t.term) != std::string::npos) score += t.weight;
    }
    for (const QuerySymbol& symbol : q.symbols) {
      if (symbol.lower == a.title) score += kTitleSymbolBonus;
    }
  }
  double bm25 = 0.0;
  for (const WeightedTerm& t : q.bm25_terms) {
    if (!a.has_term(t.term)) continue;
    const double tf =
        static_cast<double>(oracle::count_occurrences(a.lower, t.term));
    bm25 += t.weight * (tf * 2.2) / (tf + 1.2);
  }
  score += kBm25Weight * bm25 / 10.0;
  return score;
}

std::vector<double> score(const text::QueryAnalysis& query,
                          const lexical::CorpusAnalysis& corpus,
                          const std::vector<RerankCandidate>& candidates) {
  const Query q = plan_query(query, *corpus.stats);
  std::vector<double> out;
  for (const RerankCandidate& c : candidates) {
    out.push_back(score_doc(q, *c.doc, *corpus.chunks.at(c.row)));
  }
  return out;
}

}  // namespace reference

const lexical::CorpusAnalysis& docs_analysis() {
  static const auto analysis =
      lexical::CorpusAnalysis::build(golden::docs_chunks());
  return *analysis;
}

/// The distinct whitespace-separated words of the docs chunks, in their
/// original case and punctuation (so API symbols and options survive).
const std::vector<std::string>& docs_words() {
  static const auto* words = [] {
    auto* out = new std::vector<std::string>();
    for (const text::Document& chunk : golden::docs_chunks()) {
      for (const std::string_view w : util::split_ws(chunk.text)) {
        out->emplace_back(w);
      }
    }
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
    return out;
  }();
  return *words;
}

/// A question as perfbench's stream builds it, "variant s.i:" and then
/// corpus words: single words from anywhere, runs of two to six
/// consecutive words of one chunk (so its bigrams occur there) and now and
/// then a repeated pair (so bigrams repeat). Each run's chunk row is
/// appended to `rows`.
std::string random_question(util::Rng& rng, std::uint64_t seed,
                            std::uint64_t index, std::size_t min_bytes,
                            std::vector<std::size_t>& rows) {
  const std::vector<std::string>& words = docs_words();
  const std::vector<text::Document>& chunks = golden::docs_chunks();
  std::vector<std::string_view> picked;
  std::string q = "variant " + std::to_string(seed) + "." +
                  std::to_string(index) + ":";
  const std::size_t n = 1 + rng.below(30);
  while (picked.size() < n || q.size() < min_bytes) {
    const std::uint64_t kind = rng.below(6);
    if (kind == 0 && picked.size() >= 2) {
      const std::size_t at = rng.below(picked.size() - 1);
      picked.push_back(picked[at]);
      picked.push_back(picked[at + 1]);
      q.append(" ").append(picked[at]).append(" ").append(picked[at + 1]);
    } else if (kind == 1) {
      const std::size_t row = rng.below(chunks.size());
      const std::vector<std::string_view> chunk_words =
          util::split_ws(chunks[row].text);
      if (chunk_words.size() < 2) continue;
      const std::size_t len =
          std::min<std::size_t>(2 + rng.below(5), chunk_words.size());
      const std::size_t at = rng.below(chunk_words.size() - len + 1);
      for (std::size_t i = at; i < at + len; ++i) {
        picked.push_back(chunk_words[i]);
        q.append(" ").append(chunk_words[i]);
      }
      rows.push_back(row);
    } else {
      picked.push_back(words[rng.below(words.size())]);
      q.append(" ").append(picked.back());
    }
  }
  if (rng.below(2) == 0) q.append("?");
  return q;
}

/// The chunks at `rows`, then `k` distinct random chunks, as rerank
/// candidates.
std::vector<RerankCandidate> random_candidates(
    util::Rng& rng, std::size_t k, const std::vector<std::size_t>& rows) {
  const std::vector<text::Document>& chunks = golden::docs_chunks();
  std::vector<RerankCandidate> out;
  for (const std::size_t row : rows) out.push_back({&chunks[row], row, 0.0f});
  std::vector<std::size_t> order(chunks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = 0; i < k && i < order.size(); ++i) {
    std::swap(order[i], order[i + rng.below(order.size() - i)]);
    out.push_back({&chunks[order[i]], order[i], 0.0f});
  }
  return out;
}

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want,
                      const std::string& question) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << "candidate " << i << ": " << got[i] << " vs " << want[i] << " | "
        << question.substr(0, 200);
  }
}

TEST(NeedleCounter, CountsNonOverlappingOccurrences) {
  util::NeedleCounter counter({"aa", "abc", "", "aa", "a"});
  counter.scan("aaaa abcabc");
  EXPECT_EQ(counter.count(0), 2u);
  EXPECT_EQ(counter.count(1), 2u);
  EXPECT_EQ(counter.count(2), 0u);
  EXPECT_EQ(counter.count(3), 2u);
  EXPECT_EQ(counter.count(4), 6u);
  counter.scan("aaaaa");  // a new scan starts from zero
  EXPECT_EQ(counter.count(0), 2u);
  EXPECT_EQ(counter.count(1), 0u);
  EXPECT_EQ(counter.count(4), 5u);
}

TEST(FlashRanker, OnePassCountsMatchFind) {
  // Counts: a small alphabet with bytes >= 0x80 makes overlaps and shared
  // prefixes and suffixes common.
  constexpr char kAlphabet[] = {'a', 'b', 'c', ' ', '\x80', '\xff'};
  util::Rng rng(32);
  const auto random_string = [&](std::size_t len) {
    std::string s;
    for (std::size_t i = 0; i < len; ++i) {
      s.push_back(kAlphabet[rng.below(sizeof(kAlphabet))]);
    }
    return s;
  };
  for (int round = 0; round < 2000; ++round) {
    const std::string text = random_string(rng.below(160));
    std::vector<std::string> needles;
    const std::size_t n = 1 + rng.below(16);
    while (needles.size() < n) {
      const std::string* other =
          needles.empty() ? nullptr : &needles[rng.below(needles.size())];
      switch (rng.below(7)) {
        case 0:  // random, possibly empty
          needles.push_back(random_string(rng.below(6)));
          break;
        case 1:  // a piece of the text, so it occurs
          if (!text.empty()) {
            const std::size_t at = rng.below(text.size());
            needles.push_back(text.substr(at, 1 + rng.below(6)));
          }
          break;
        case 2:  // prefix, suffix or inner piece of another needle
          if (other != nullptr && !other->empty()) {
            const std::size_t at = rng.below(other->size());
            needles.push_back(other->substr(at, rng.below(other->size())));
          }
          break;
        case 3:  // a duplicate
          if (other != nullptr) needles.push_back(*other);
          break;
        case 4:  // self-overlapping ("aa" in "aaaaa")
          needles.push_back(std::string(1 + rng.below(4), 'a'));
          break;
        case 5:  // one byte
          needles.push_back(random_string(1));
          break;
        default:  // a "term term" bigram
          needles.push_back(random_string(1 + rng.below(3)) + " " +
                            random_string(1 + rng.below(3)));
          break;
      }
    }
    util::NeedleCounter counter(
        std::vector<std::string_view>(needles.begin(), needles.end()));
    for (const std::string& t : {text, random_string(rng.below(40))}) {
      counter.scan(t);
      for (std::size_t i = 0; i < needles.size(); ++i) {
        const std::size_t want = oracle::count_occurrences(t, needles[i]);
        ASSERT_EQ(counter.count(i), want)
            << "round " << round << " needle " << i << " [" << needles[i]
            << "] text [" << t << "]";
        if (!needles[i].empty()) {
          ASSERT_EQ(counter.count(i) > 0, t.find(needles[i]) != t.npos);
        }
      }
    }
  }

  // Scores: seeded random questions over the corpus words, each against
  // random chunks, bit for bit.
  const FlashRanker ranker;
  const lexical::CorpusAnalysis& corpus = docs_analysis();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng qrng(seed);
    for (std::uint64_t i = 0; i < 150; ++i) {
      std::vector<std::size_t> rows;
      const std::string question = random_question(qrng, seed, i, 0, rows);
      const text::QueryAnalysis query = text::analyze(question);
      const auto candidates = random_candidates(qrng, 12, rows);
      expect_same_bits(ranker.score(query, corpus, candidates),
                       reference::score(query, corpus, candidates),
                       question);
    }
  }

  // A question of about 100 KB: its needles hold far more bytes than a
  // 16-bit state could number.
  util::Rng big_rng(100);
  std::vector<std::size_t> big_rows;
  const std::string big = random_question(big_rng, 9, 0, 100'000, big_rows);
  const text::QueryAnalysis query = text::analyze(big);
  std::unordered_set<std::string> bigrams;
  std::size_t bigram_bytes = 0;
  for (std::size_t i = 0; i + 1 < query.tokens.size(); ++i) {
    std::string b = std::string(query.view(query.tokens[i]))
                        .append(" ")
                        .append(query.view(query.tokens[i + 1]));
    if (bigrams.insert(b).second) bigram_bytes += b.size();
  }
  ASSERT_GT(bigram_bytes, std::size_t{1} << 17);
  big_rows.resize(std::min<std::size_t>(big_rows.size(), 8));
  const auto candidates = random_candidates(big_rng, 8, big_rows);
  expect_same_bits(ranker.score(query, corpus, candidates),
                   reference::score(query, corpus, candidates), big);
}

TEST(FlashRanker, ConcurrentScoresMatchSerial) {
  const FlashRanker ranker;
  const lexical::CorpusAnalysis& corpus = docs_analysis();
  util::Rng rng(7);
  std::vector<text::QueryAnalysis> queries;
  std::vector<std::vector<RerankCandidate>> candidates;
  std::vector<std::vector<double>> serial;
  for (std::uint64_t i = 0; i < 40; ++i) {
    std::vector<std::size_t> rows;
    queries.push_back(text::analyze(random_question(rng, 7, i, 0, rows)));
    candidates.push_back(random_candidates(rng, 10, rows));
    serial.push_back(ranker.score(queries.back(), corpus, candidates.back()));
  }
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPasses = 5;
  std::vector<std::vector<std::vector<double>>> got(kThreads);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Each thread walks the set from a different start.
      for (std::size_t i = 0; i < kPasses * queries.size(); ++i) {
        const std::size_t r = (i + t * queries.size() / kThreads) %
                              queries.size();
        got[t].push_back(ranker.score(queries[r], corpus, candidates[r]));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kPasses * queries.size());
    for (std::size_t i = 0; i < got[t].size(); ++i) {
      const std::size_t r = (i + t * queries.size() / kThreads) %
                            queries.size();
      ASSERT_EQ(got[t][i].size(), serial[r].size());
      ASSERT_EQ(std::memcmp(got[t][i].data(), serial[r].data(),
                            serial[r].size() * sizeof(double)),
                0)
          << "thread " << t << " question " << r;
    }
  }
}

}  // namespace
}  // namespace pkb::rerank
