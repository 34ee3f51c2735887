#include "rag/history_retriever.h"

#include <stdexcept>

namespace pkb::rag {

namespace {

// Maximum past interactions injected per query.
constexpr std::size_t kMaxContexts = 2;
// Minimum BM25 relevance for a past interaction to be injected.
constexpr double kMinRelevance = 1.0;

}  // namespace

HistoryRetriever::HistoryRetriever(const history::HistoryStore* store)
    : store_(store) {
  if (store_ == nullptr) {
    throw std::invalid_argument("HistoryRetriever: null store");
  }
  refresh();
}

void HistoryRetriever::refresh() {
  record_ids_.clear();
  std::vector<text::Document> docs;
  for (const history::InteractionRecord& record : store_->vetted_records()) {
    text::Document doc;
    doc.id = "history#" + std::to_string(record.id);
    doc.text = record.question + " " + record.response;
    docs.push_back(std::move(doc));
    record_ids_.push_back(record.id);
  }
  index_.build(std::move(docs));
}

std::vector<llm::ContextDoc> HistoryRetriever::lookup(
    std::string_view question) const {
  std::vector<llm::ContextDoc> out;
  for (const lexical::Bm25Result& hit : index_.search(question, kMaxContexts)) {
    if (hit.score < kMinRelevance) continue;
    const history::InteractionRecord* record =
        store_->get(record_ids_[hit.index]);
    llm::ContextDoc ctx;
    ctx.id = hit.doc->id;
    ctx.title = "";  // past interactions carry no page title
    ctx.text = "A previous vetted answer to a similar question (" +
               record->question + "): " + record->response;
    ctx.score = hit.score;
    out.push_back(std::move(ctx));
  }
  return out;
}

}  // namespace pkb::rag
