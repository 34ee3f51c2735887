#include "history/store.h"

#include "util/strings.h"

namespace pkb::history {

std::uint64_t HistoryStore::add(InteractionRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  record.id = next_id_++;
  records_.push_back(std::move(record));
  return records_.back().id;
}

std::size_t HistoryStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::vector<const InteractionRecord*> HistoryStore::search(
    std::string_view needle) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const InteractionRecord*> out;
  for (const InteractionRecord& r : records_) {
    if (pkb::util::icontains(r.question, needle) ||
        pkb::util::icontains(r.response, needle)) {
      out.push_back(&r);
    }
  }
  return out;
}

std::vector<const InteractionRecord*> HistoryStore::by_pipeline(
    std::string_view pipeline) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const InteractionRecord*> out;
  for (const InteractionRecord& r : records_) {
    if (r.pipeline == pipeline) out.push_back(&r);
  }
  return out;
}

std::vector<BlindItem> HistoryStore::blind_batch(std::string_view pipeline,
                                                 std::uint64_t seed) const {
  std::vector<BlindItem> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const InteractionRecord& r : records_) {
      if (!pipeline.empty() && r.pipeline != pipeline) continue;
      batch.push_back(BlindItem{r.id, r.question, r.response});
    }
  }
  pkb::util::Rng rng(seed);
  rng.shuffle(batch);
  return batch;
}

bool HistoryStore::record_score(std::uint64_t record_id, ScoreRecord score) {
  if (score.score < 0 || score.score > 4) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (InteractionRecord& r : records_) {
    if (r.id == record_id) {
      r.scores.push_back(std::move(score));
      return true;
    }
  }
  return false;
}

std::optional<double> HistoryStore::mean_score(std::uint64_t record_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const InteractionRecord& r : records_) {
    if (r.id != record_id) continue;
    if (r.scores.empty()) return std::nullopt;
    double sum = 0.0;
    for (const ScoreRecord& s : r.scores) sum += s.score;
    return sum / static_cast<double>(r.scores.size());
  }
  return std::nullopt;
}

}  // namespace pkb::history
