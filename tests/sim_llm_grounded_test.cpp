// The grounded generator's outputs, pinned bit for bit.
//
// GroundedOutputsMatchGolden digests every output field of SimLlm::complete
// over a fixed request set: corpus chunks picked by docs_chunks.h's
// test-local term count, history- and session-style contexts, phantom
// symbols, every model, both output formats and several attention windows,
// plus seeded synthetic requests built from edge-case fragments.
// SentenceScanMatchesReference checks scan_sentences, term_spans and
// count_words against a copy of the scoring code they replaced, on seeded
// random requests. ConcurrentCompletesMatchSerial shares one SimLlm between
// threads, as the Server's workers do.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "corpus/questions.h"
#include "docs_chunks.h"
#include "llm/model_config.h"
#include "llm/sim_llm.h"
#include "text/tokenizer.h"
#include "util/rng.h"
#include "util/strings.h"

namespace pkb::llm {
namespace {

using golden::chunks_for;

/// Fragments that stress the sentence scan: overlapping needles ("aa" in
/// "aaa"), abbreviations, symbols in several cases (duplicate symbols whose
/// lowercase forms are equal, and equal to a term), runtime options, bytes
/// >= 0x80 and every whitespace byte the word count knows.
constexpr const char* kFragments[] = {
    "aa",        "aaa",       "a",          "KSPSolve",   "kspsolve",
    "KSPSOLVE",  "solve",     "Solve",      "solver",     "-ksp_type",
    "-KSP_TYPE", "gmres",     "GMRES",      "e.g.",       "i.e.",
    "cf.",       "Fig.",      "matrix",     "Matrix",     "the",
    "of",        "caf\xc3\xa9", "\xc3\x89t\xc3\xa9", "\xff\xfe", "PCJacobi",
    "MatSetValues", "mat",    "values",     "x.",         "y?",
    "z!",        "--",        "-",          "_",          "tol",
    "1e-8",      "2.",        "KSPBurb",    "preconditioner"};
constexpr const char* kSeparators[] = {" ",  " ",  " ",   "  ", "\n", "\t",
                                       ". ", "? ", "! ",  ".\n", ", ", "",
                                       ".",  "\r", "\v",  "\f", ". A "};

std::string random_text(util::Rng& rng, std::size_t max_pieces) {
  std::string out;
  const std::size_t pieces = rng.below(max_pieces + 1);
  for (std::size_t i = 0; i < pieces; ++i) {
    out += kFragments[rng.below(std::size(kFragments))];
    out += kSeparators[rng.below(std::size(kSeparators))];
  }
  return out;
}

LlmRequest random_request(util::Rng& rng) {
  LlmRequest req;
  req.system = random_text(rng, 6);
  req.question = random_text(rng, 8);
  if (rng.chance(0.5)) req.question += " KSPSolve?";
  const std::size_t n = rng.below(7);
  for (std::size_t c = 0; c < n; ++c) {
    ContextDoc ctx;
    ctx.id = "ctx" + std::to_string(rng.below(4));  // ids may repeat
    ctx.title = rng.chance(0.5) ? "KSPSolve" : "";
    ctx.text = rng.chance(0.1) ? "" : random_text(rng, 40);
    req.contexts.push_back(std::move(ctx));
  }
  req.max_attended_contexts = rng.below(8);
  req.json_output = rng.chance(0.3);
  return req;
}

/// The request set the golden digest covers.
std::vector<LlmRequest> golden_requests() {
  std::vector<std::string> questions;
  for (const corpus::BenchmarkQuestion& q : corpus::krylov_benchmark()) {
    questions.push_back(q.question);
  }
  // Phantom symbols: the caveat and hallucination paths.
  questions.push_back("What does KSPBurb do?");
  questions.push_back("How do I use MatZorgSetup with PCFIELDSPLIT?");
  questions.push_back("Is -ksp_frobnicate a valid option for KSPGMRES?");
  questions.push_back("Can KSPLSQRX and KSPBurbSetUp solve least squares?");
  constexpr std::size_t kWindows[] = {4, 1, 0, 9};

  std::vector<LlmRequest> out;
  for (std::size_t i = 0; i < questions.size(); ++i) {
    LlmRequest req;
    req.system = "You are a PETSc expert. Answer from the context.";
    req.question = questions[i];
    req.contexts = chunks_for(questions[i], 6);
    if (i % 3 == 1) {
      // A recalled history record, appended after the documents.
      req.contexts.push_back(ContextDoc{
          "history#" + std::to_string(i), "",
          "A previous vetted answer to a similar question (" + questions[i] +
              "): " + req.contexts.front().text,
          1.0});
    }
    if (i % 4 == 2) {
      // A session turn: no page title, a Q/A layout with a newline.
      req.contexts.push_back(ContextDoc{
          "session:s:turn:" + std::to_string(i), "Earlier in this conversation",
          "Q: " + questions[(i + 1) % questions.size()] + "\nA: " +
              req.contexts.back().text,
          0.0});
    }
    for (std::size_t w = 0; w < std::size(kWindows); ++w) {
      LlmRequest variant = req;
      variant.max_attended_contexts = kWindows[(i + w) % std::size(kWindows)];
      variant.json_output = (i + w) % 2 == 1;
      out.push_back(std::move(variant));
    }
  }
  util::Rng rng(20251019);
  for (int i = 0; i < 200; ++i) out.push_back(random_request(rng));
  return out;
}

void digest_append(std::string& buf, std::string_view s) {
  buf += std::to_string(s.size());
  buf += ':';
  buf += s;
}

/// Every output field of `resp`, latency by its bit pattern.
std::string serialize(const LlmResponse& resp) {
  std::string buf;
  digest_append(buf, resp.text);
  digest_append(buf, resp.mode);
  for (const std::string& id : resp.used_context_ids) digest_append(buf, id);
  buf += '|' + std::to_string(resp.prompt_tokens) + '|' +
         std::to_string(resp.completion_tokens) + '|';
  std::uint64_t bits = 0;
  std::memcpy(&bits, &resp.latency_seconds, sizeof bits);
  buf += std::to_string(bits);
  return buf;
}

TEST(SimLlm, GroundedOutputsMatchGolden) {
  const std::vector<LlmRequest> requests = golden_requests();
  std::string all;
  std::map<std::string, std::size_t> modes;
  for (const std::string& model : model_registry()) {
    const SimLlm llm(model_config(model));
    for (const LlmRequest& req : requests) {
      const LlmResponse resp = llm.complete(req);
      ++modes[resp.mode];
      all += serialize(resp);
      all += '\n';
    }
  }
  // The set reaches every grounded outcome.
  EXPECT_GT(modes["grounded"], 0u);
  EXPECT_GT(modes["grounded-caveat"], 0u);
  EXPECT_GT(modes["grounded-weak"], 0u);
  EXPECT_GT(modes["hallucination"], 0u);
  // Recorded from the scoring code that scan_sentences replaced.
  EXPECT_EQ(util::fnv1a64(all), 2356808201317296483ULL)
      << all.size() << " bytes";
}

// The scoring code scan_sentences replaced: it lowercased and searched each
// sentence on its own, keyed symbol weights by "\x01" + symbol, counted
// words with split_ws and compared token sets by hashing.
namespace reference {

struct QueryTerms {
  std::vector<std::string> terms;
  std::vector<std::string> symbols;
};

QueryTerms query_terms(std::string_view question) {
  QueryTerms out;
  const text::TokenizedText tt = text::tokenize(question);
  std::unordered_set<std::string> seen;
  for (const std::string& tok : tt.tokens) {
    if (text::stopwords().contains(tok) || tok.size() < 2) continue;
    if (seen.insert(tok).second) out.terms.push_back(tok);
  }
  out.symbols = tt.symbols;
  return out;
}

std::unordered_map<std::string, double> term_weights(
    const QueryTerms& q, const LlmRequest& request, std::size_t attended) {
  std::unordered_map<std::string, double> weight;
  std::vector<std::string> lowered;
  for (std::size_t c = 0; c < attended; ++c) {
    lowered.push_back(util::to_lower(request.contexts[c].text));
  }
  auto df_of = [&](const std::string& needle, bool icase) {
    std::size_t df = 0;
    for (std::size_t c = 0; c < attended; ++c) {
      const bool hit = icase ? util::icontains(request.contexts[c].text, needle)
                             : lowered[c].find(needle) != std::string::npos;
      if (hit) ++df;
    }
    return df;
  };
  for (const std::string& term : q.terms) {
    weight[term] = 1.0 / (0.5 + static_cast<double>(df_of(term, false)));
  }
  for (const std::string& symbol : q.symbols) {
    weight["\x01" + symbol] =
        3.0 / (0.5 + static_cast<double>(df_of(symbol, true)));
  }
  return weight;
}

double sentence_score(std::string_view sentence, const QueryTerms& q,
                      const std::unordered_map<std::string, double>& weight) {
  const std::string lower = util::to_lower(sentence);
  double score = 0.0;
  for (const std::string& term : q.terms) {
    if (lower.find(term) != std::string::npos) score += weight.at(term);
  }
  for (const std::string& symbol : q.symbols) {
    if (util::icontains(sentence, symbol)) score += weight.at("\x01" + symbol);
  }
  const double words = static_cast<double>(util::split_ws(sentence).size());
  return score / (1.0 + 0.015 * words);
}

std::vector<std::string> uncovered_symbols(const QueryTerms& q,
                                           const LlmRequest& request,
                                           std::size_t attended) {
  std::vector<std::string> out;
  for (const std::string& symbol : q.symbols) {
    bool covered = false;
    for (std::size_t c = 0; c < attended && !covered; ++c) {
      covered = util::icontains(request.contexts[c].text, symbol);
    }
    if (!covered) out.push_back(symbol);
  }
  return out;
}

}  // namespace reference

TEST(SimLlm, SentenceScanMatchesReference) {
  util::Rng rng(7);
  std::size_t hits = 0;
  std::size_t uncovered = 0;
  std::vector<text::TextAnalysis::Span> spans;
  for (int round = 0; round < 3000; ++round) {
    const LlmRequest req = random_request(rng);
    const std::size_t attended =
        std::min(req.max_attended_contexts, req.contexts.size());
    const text::QueryAnalysis question = text::analyze(req.question);
    const SentenceScan scan =
        scan_sentences(question, req.contexts, req.max_attended_contexts);

    const reference::QueryTerms q = reference::query_terms(req.question);
    const auto weight = reference::term_weights(q, req, attended);
    std::size_t next = 0;
    for (std::size_t c = 0; c < attended; ++c) {
      const auto sentences = text::split_sentences(req.contexts[c].text);
      for (std::size_t s = 0; s < sentences.size(); ++s) {
        const double want = reference::sentence_score(sentences[s], q, weight);
        if (want <= 0.0) continue;
        ASSERT_LT(next, scan.hits.size()) << "round " << round;
        const SentenceScan::Hit& hit = scan.hits[next++];
        ASSERT_EQ(hit.context, c) << "round " << round;
        ASSERT_EQ(hit.position, s) << "round " << round;
        ASSERT_EQ(hit.text.data(), sentences[s].data());
        ASSERT_EQ(hit.text.size(), sentences[s].size());
        ASSERT_EQ(scan.lower_text(hit), util::to_lower(sentences[s]));
        ASSERT_EQ(hit.words, util::split_ws(sentences[s]).size());
        // Same double, not merely close.
        ASSERT_EQ(std::memcmp(&hit.score, &want, sizeof want), 0)
            << "round " << round << ": " << hit.score << " vs " << want;
      }
    }
    ASSERT_EQ(next, scan.hits.size()) << "round " << round;
    hits += next;

    const std::vector<std::string> want_uncovered =
        reference::uncovered_symbols(q, req, attended);
    ASSERT_EQ(scan.uncovered_symbols.size(), want_uncovered.size());
    for (std::size_t i = 0; i < want_uncovered.size(); ++i) {
      ASSERT_EQ(scan.uncovered_symbols[i], want_uncovered[i]);
    }
    uncovered += want_uncovered.size();

    // The near-duplicate test's token sets and the word counts.
    for (const ContextDoc& ctx : req.contexts) {
      for (const std::string_view sentence : text::split_sentences(ctx.text)) {
        const std::string lower = util::to_lower(sentence);
        text::term_spans(lower, spans);
        std::vector<std::string> got;
        for (const text::TextAnalysis::Span t : spans) {
          got.emplace_back(std::string_view(lower).substr(t.offset, t.size));
        }
        std::vector<std::string> want = text::tokens_of(sentence);
        std::sort(want.begin(), want.end());
        want.erase(std::unique(want.begin(), want.end()), want.end());
        ASSERT_EQ(got, want) << sentence;
      }
      ASSERT_EQ(util::count_words(ctx.text), util::split_ws(ctx.text).size());
    }
  }
  // The random requests reach both outcomes of both tests.
  EXPECT_GT(hits, 1000u);
  EXPECT_GT(uncovered, 100u);
}

TEST(SimLlm, ConcurrentCompletesMatchSerial) {
  const SimLlm llm(model_config("sim-gpt-4o"));
  const std::vector<LlmRequest> requests = golden_requests();
  std::vector<std::string> serial;
  serial.reserve(requests.size());
  for (const LlmRequest& req : requests) {
    serial.push_back(serialize(llm.complete(req)));
  }
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::string>> got(kThreads);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Each thread walks the set from a different start.
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const std::size_t r = (i + t * requests.size() / kThreads) %
                              requests.size();
        got[t].push_back(serialize(llm.complete(requests[r])));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::size_t r = (i + t * requests.size() / kThreads) %
                            requests.size();
      ASSERT_EQ(got[t][i], serial[r]) << "thread " << t << " request " << r;
    }
  }
}

}  // namespace
}  // namespace pkb::llm
