#include "pipeline.h"

#include <chrono>
#include <thread>

#include "corpus/generator.h"
#include "corpus/questions.h"
#include "llm/model_config.h"
#include "rag/stage_graph.h"

namespace pkb::perfbench {
namespace {

BuiltKb build_kb(const KbConfig& cfg) {
  BuiltKb out;
  double t = now_seconds();
  corpus::CorpusOptions copts;
  copts.include_mailing_list_archive = cfg.mailing_list_archive;
  copts.archive_threads = cfg.archive_threads;
  const text::VirtualDir corpus = corpus::generate_corpus(copts);
  out.corpus_seconds = now_seconds() - t;

  t = now_seconds();
  rag::KnowledgeBaseOptions kopts;  // sim-embed-3-large, flat fp32
  rag::KnowledgeBase flat = rag::KnowledgeBase::build(corpus, kopts);
  out.kb_seconds = now_seconds() - t;

  // The ANN index is built separately from the same chunks so its cost is
  // reported on its own; the published snapshot carries the spec, so every
  // later ingest generation rebuilds it exactly as a direct build would.
  auto snap = std::make_shared<rag::Snapshot>(*flat.snapshot());
  if (cfg.hnsw) snap->opts.index.kind = vectordb::IndexKind::Hnsw;
  t = now_seconds();
  snap->attach_indexes();
  out.kb = std::make_unique<rag::KnowledgeBase>(std::move(snap));
  out.index_seconds = now_seconds() - t;
  return out;
}

}  // namespace

BuiltKb build_kb_repeated(const KbConfig& cfg, int min_repeats,
                          double min_seconds, SetupSplit& split) {
  constexpr int kMaxRepeats = 25;
  BuiltKb kept;
  const double start = now_seconds();
  for (int i = 0; i < kMaxRepeats; ++i) {
    if (i >= min_repeats && now_seconds() - start >= min_seconds) break;
    kept = BuiltKb{};  // release the previous KB before building the next
    kept = build_kb(cfg);
    split.total.push_back(kept.total());
    split.corpus.push_back(kept.corpus_seconds);
    split.kb.push_back(kept.kb_seconds);
    split.index.push_back(kept.index_seconds);
  }
  return kept;
}

std::unique_ptr<rag::AugmentedWorkflow> headline_workflow(
    const rag::KnowledgeBase& kb) {
  rag::RetrieverOptions ropts;
  ropts.reranker = "sim-flashrank";
  return std::make_unique<rag::AugmentedWorkflow>(
      kb, rag::PipelineArm::RagRerank, llm::model_config("sim-gpt-4o"), ropts);
}

rag::WorkflowOutcome run_stages(const rag::AugmentedWorkflow& wf,
                                std::string_view question, SpanBuffer* spans,
                                std::uint64_t request,
                                rag::SessionPromptContext* session,
                                double llm_latency_scale) {
  const rag::Retriever& retriever = *wf.retriever();
  const rag::StageGraph& graph = rag::global_stage_graph();
  const std::int32_t root =
      spans != nullptr ? spans->open(SpanKind::Request, request, -1) : -1;
  try {
    rag::StageState st;
    st.wf = &wf;
    st.question = question;
    st.session = session;
    st.open_retrieve_span = false;
    st.snapshot = wf.kb().snapshot();
    const rag::Snapshot& snap = *st.snapshot;
    rag::RetrievalResult& result = st.outcome.retrieval;
    result.snapshot = st.snapshot;

    in_span(spans, SpanKind::Embed, request, root,
            [&] { retriever.embed_stage(snap, question, result); });
    std::vector<vectordb::SearchResult> hits;
    in_span(spans, SpanKind::Search, request, root, [&] {
      hits = retriever.search_stage(snap, *result.query_embedding, result);
    });
    in_span(spans, SpanKind::Augment, request, root,
            [&] { retriever.augment_stage(snap, question, hits, result); });
    in_span(spans, SpanKind::Rerank, request, root, [&] {
      retriever.rerank_stage(snap, question, result);
      retriever.observe_retrieval_metrics(result);  // as RerankStage does
    });
    in_span(spans, SpanKind::Prompt, request, root, [&] {
      graph.stage(rag::StageKind::Prompt).run(st);
    });
    in_span(spans, SpanKind::Generate, request, root, [&] {
      graph.stage(rag::StageKind::Generate).run(st);
    });
    in_span(spans, SpanKind::Post, request, root, [&] {
      graph.stage(rag::StageKind::Postprocess).run(st);
    });
    if (llm_latency_scale > 0.0 && st.outcome.response.latency_seconds > 0.0) {
      in_span(spans, SpanKind::LlmStall, request, root, [&] {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            st.outcome.response.latency_seconds * llm_latency_scale));
      });
    }
    if (spans != nullptr) spans->close(root);
    return std::move(st.outcome);
  } catch (...) {
    if (spans != nullptr) spans->close(root, /*failed=*/true);
    throw;
  }
}

void SessionReplica::prepare(rag::SessionPromptContext& ctx,
                             std::vector<llm::ContextDoc>& history) const {
  if (!seen_.empty()) {
    ctx.seen_context_ids = &seen_;
    ctx.memory_generation = memory_generation_;
  }
  history.assign(history_.begin(), history_.end());
  if (!history.empty()) ctx.history_contexts = &history;
}

void SessionReplica::record(const std::string& question,
                            rag::SessionPromptContext& ctx,
                            const rag::WorkflowOutcome& out) {
  ++turns_;
  if (ctx.memory_stale) {
    seen_.clear();
    seen_order_.clear();
  }
  memory_generation_ = out.generation;
  for (std::string& id : ctx.attached_context_ids) {
    if (seen_.insert(id).second) {
      seen_order_.push_back(std::move(id));
      if (seen_order_.size() > opts_.max_memory_entries) {
        seen_.erase(seen_order_.front());
        seen_order_.pop_front();
      }
    }
  }
  if (opts_.max_history_turns > 0) {
    llm::ContextDoc doc;
    doc.id = "session:" + id_ + ":turn:" + std::to_string(turns_);
    doc.title = "Earlier in this conversation";
    doc.text = "Q: " + question + "\nA: " +
               (out.processed.plain_text.empty() ? out.response.text
                                                 : out.processed.plain_text);
    history_.push_back(std::move(doc));
    while (history_.size() > opts_.max_history_turns) history_.pop_front();
  }
}

rag::SnapshotPtr ingest_curated(ingest::Ingestor& ingestor, std::uint64_t seed,
                                std::uint64_t n) {
  static const char* kFixes[] = {
      "raise the GMRES restart with -ksp_gmres_restart 100",
      "switch to -pc_type gamg for the elliptic block",
      "monitor the true residual with -ksp_monitor_true_residual",
      "use -ksp_type fgmres because the preconditioner varies",
      "set -ksp_rtol 1e-8 and check -ksp_converged_reason",
      "apply -ksp_lsqr_set_standard_error for least squares",
      "try -pc_type bjacobi -sub_pc_type ilu on each rank",
      "enable -ksp_pipelined variants to hide reductions"};
  const auto& qs = corpus::krylov_benchmark();
  const std::uint64_t h = mix(seed * 7919ULL + n);
  const std::string& question = qs[h % qs.size()].question;
  const char* fix = kFixes[(h >> 17) % std::size(kFixes)];
  const std::string id = "curated/qa-" + std::to_string(seed) + "-" +
                         std::to_string(n) + ".md";
  const std::string answer =
      "Resolved on the petsc-users list (case " + std::to_string(n) +
      "): " + fix + ". The reporter confirmed convergence after " +
      std::to_string(5 + (h >> 33) % 200) +
      " iterations; KSPSetFromOptions() must be called so the options "
      "take effect.";
  return ingestor.ingest_qa(id, "Curated answer " + std::to_string(n),
                            question, answer);
}

const rag::AugmentedWorkflow& Reference::on(const rag::SnapshotPtr& snap) {
  Entry& e = by_snapshot_[snap.get()];
  if (e.wf == nullptr) {
    e.kb = std::make_unique<rag::KnowledgeBase>(snap);
    e.wf = headline_workflow(*e.kb);
  }
  return *e.wf;
}

}  // namespace pkb::perfbench
