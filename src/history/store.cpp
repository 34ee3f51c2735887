#include "history/store.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/strings.h"

namespace pkb::history {

using pkb::util::Json;

HistoryStore::HistoryStore(HistoryStore&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  records_ = std::move(other.records_);
  next_id_ = other.next_id_;
}

HistoryStore& HistoryStore::operator=(HistoryStore&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(mu_, other.mu_);
    records_ = std::move(other.records_);
    next_id_ = other.next_id_;
  }
  return *this;
}

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

const InteractionRecord* HistoryStore::get(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const InteractionRecord& r : records_) {
    if (r.id == id) return &r;
  }
  return nullptr;
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

std::vector<InteractionRecord> HistoryStore::vetted_records() const {
  // Minimum mean blind score for a scored record to count as vetted.
  constexpr double kMinMeanScore = 3.0;
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<InteractionRecord> out;
  for (const InteractionRecord& r : records_) {
    if (r.response.empty()) continue;
    if (r.scores.empty()) {
      if (r.model.empty()) out.push_back(r);
      continue;
    }
    double sum = 0.0;
    for (const ScoreRecord& s : r.scores) sum += s.score;
    if (sum / static_cast<double>(r.scores.size()) >= kMinMeanScore) {
      out.push_back(r);
    }
  }
  return out;
}

Json HistoryStore::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json records = Json::array();
  for (const InteractionRecord& r : records_) {
    Json rec = Json::object();
    rec.set("id", static_cast<std::int64_t>(r.id));
    rec.set("timestamp", r.timestamp);
    rec.set("question", r.question);
    rec.set("response", r.response);
    rec.set("model", r.model);
    rec.set("embedding_model", r.embedding_model);
    rec.set("reranker", r.reranker);
    rec.set("pipeline", r.pipeline);
    rec.set("prompt", r.prompt);
    Json ctx = Json::array();
    for (const std::string& id : r.context_ids) ctx.push_back(id);
    rec.set("context_ids", std::move(ctx));
    rec.set("latency_seconds", r.latency_seconds);
    Json scores = Json::array();
    for (const ScoreRecord& s : r.scores) {
      Json sj = Json::object();
      sj.set("scorer", s.scorer);
      sj.set("score", s.score);
      sj.set("notes", s.notes);
      scores.push_back(std::move(sj));
    }
    rec.set("scores", std::move(scores));
    records.push_back(std::move(rec));
  }
  Json root = Json::object();
  root.set("version", 1);
  root.set("next_id", static_cast<std::int64_t>(next_id_));
  root.set("records", std::move(records));
  return root;
}

HistoryStore HistoryStore::from_json(const Json& j) {
  HistoryStore store;
  store.next_id_ =
      static_cast<std::uint64_t>(j.get_int("next_id", 1));
  for (const Json& rec : j.at("records").as_array()) {
    InteractionRecord r;
    r.id = static_cast<std::uint64_t>(rec.get_int("id"));
    r.timestamp = rec.get_number("timestamp");
    r.question = rec.get_string("question");
    r.response = rec.get_string("response");
    r.model = rec.get_string("model");
    r.embedding_model = rec.get_string("embedding_model");
    r.reranker = rec.get_string("reranker");
    r.pipeline = rec.get_string("pipeline");
    r.prompt = rec.get_string("prompt");
    if (const Json* ctx = rec.find("context_ids")) {
      for (const Json& id : ctx->as_array()) {
        r.context_ids.push_back(id.as_string());
      }
    }
    r.latency_seconds = rec.get_number("latency_seconds");
    if (const Json* scores = rec.find("scores")) {
      for (const Json& sj : scores->as_array()) {
        ScoreRecord s;
        s.scorer = sj.get_string("scorer");
        s.score = static_cast<int>(sj.get_int("score", -1));
        s.notes = sj.get_string("notes");
        r.scores.push_back(std::move(s));
      }
    }
    store.records_.push_back(std::move(r));
  }
  return store;
}

void HistoryStore::save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("HistoryStore::save: cannot open " + path);
  out << to_json().dump(2) << "\n";
}

HistoryStore HistoryStore::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("HistoryStore::load: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_json(Json::parse(buf.str()));
}

}  // namespace pkb::history
