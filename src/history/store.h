#pragma once
// Interaction-history database (§III-F of the paper): "a detailed,
// manipulatable, searchable database of all interactions with all the LLMs".
//
// Stores every question/response with the models used, the generated
// prompts, timestamps, and latencies, and implements the blind-scoring
// workflow: scorers see anonymized responses (no model/pipeline fields) in a
// shuffled order and assign rubric scores, which are recorded back.

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace pkb::history {

/// One rubric score assigned by one scorer.
struct ScoreRecord {
  std::string scorer;
  int score = -1;  ///< 0..4 per Table I
  std::string notes;
};

/// One LLM (or human-developer) interaction.
struct InteractionRecord {
  std::uint64_t id = 0;           ///< assigned by the store
  double timestamp = 0.0;         ///< simulation seconds
  std::string question;
  std::string response;
  std::string model;              ///< continuation model name ("" = human)
  std::string embedding_model;    ///< "" when no RAG
  std::string reranker;           ///< "" when no reranking
  std::string pipeline;           ///< "baseline" | "rag" | "rag+rerank" | ...
  std::string prompt;             ///< the full generated prompt
  std::vector<std::string> context_ids;
  double latency_seconds = 0.0;
  std::vector<ScoreRecord> scores;
};

/// An anonymized item handed to a blind scorer: no model/pipeline fields.
struct BlindItem {
  std::uint64_t record_id = 0;
  std::string question;
  std::string response;
};

/// The interaction database.
///
/// Thread-safety: every method is guarded by one internal mutex, so
/// concurrent serving workers can append to a shared store. Records live in
/// a deque: a pointer returned by search()/by_pipeline() stays valid
/// across later add() calls (appends never relocate existing records).
/// Reading *through* such a pointer while another thread scores the same
/// record is still a race — hold results, not live views, across threads.
class HistoryStore {
 public:
  HistoryStore() = default;

  HistoryStore(const HistoryStore&) = delete;
  HistoryStore& operator=(const HistoryStore&) = delete;

  /// Append a record; returns its assigned id.
  std::uint64_t add(InteractionRecord record);

  [[nodiscard]] std::size_t size() const;

  /// All records in insertion order. The reference is only stable while no
  /// other thread mutates the store; prefer the query methods under
  /// concurrency.
  [[nodiscard]] const std::deque<InteractionRecord>& records() const {
    return records_;
  }

  /// Case-insensitive substring search over questions and responses.
  [[nodiscard]] std::vector<const InteractionRecord*> search(
      std::string_view needle) const;

  /// All records of a pipeline (e.g. "rag+rerank").
  [[nodiscard]] std::vector<const InteractionRecord*> by_pipeline(
      std::string_view pipeline) const;

  /// Build a blind-scoring batch: all records matching `pipeline` ("" = all),
  /// anonymized and shuffled deterministically by `seed`.
  [[nodiscard]] std::vector<BlindItem> blind_batch(std::string_view pipeline,
                                                   std::uint64_t seed) const;

  /// Record a scorer's verdict on a record. Returns false for unknown ids or
  /// out-of-range scores.
  bool record_score(std::uint64_t record_id, ScoreRecord score);

  /// Mean score of a record across scorers; nullopt when unscored.
  [[nodiscard]] std::optional<double> mean_score(std::uint64_t record_id) const;

 private:
  mutable std::mutex mu_;
  std::deque<InteractionRecord> records_;
  std::uint64_t next_id_ = 1;
};

}  // namespace pkb::history
