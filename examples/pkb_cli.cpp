// Command-line assistant (§III: "For developers, we could even provide
// command line tools and integrated development environment (IDE)
// extensions"). A small REPL over the augmented workflow: ask questions,
// switch arms, inspect retrieval, search the interaction history.
//
// Usage: example_pkb_cli            (interactive)
//        echo "question" | example_pkb_cli
//
// Commands:
//   :arm baseline|rag|rerank   switch pipeline arm
//   :contexts                  show the contexts of the last answer
//   :history <substring>       search past interactions
//   :metrics                   dump the metrics registry (Prometheus text)
//   :trace                     show the last request's span tree
//   :trace chrome              dump retained traces as Chrome trace JSON
//   :record [dir|off]          record every answer's stage trace to a dir
//   :replay <id> [--from=stage] [--set k=N|l=N|reranker=R|max_attended=N|
//                 model=M]      time-travel replay a recorded request
//   :rdiff                     full diff report of the last replay
//   :quit                      exit
//
// The span/metric vocabulary is documented in docs/OBSERVABILITY.md; the
// record/replay subsystem in docs/ARCHITECTURE.md.

#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "corpus/generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rag/stage_graph.h"
#include "rag/workflow.h"
#include "replay/replay.h"
#include "replay/trace.h"
#include "util/strings.h"

namespace {

pkb::rag::PipelineArm parse_arm(std::string_view name,
                                pkb::rag::PipelineArm fallback) {
  if (name == "baseline") return pkb::rag::PipelineArm::Baseline;
  if (name == "rag") return pkb::rag::PipelineArm::Rag;
  if (name == "rerank") return pkb::rag::PipelineArm::RagRerank;
  std::printf("unknown arm '%.*s' (baseline|rag|rerank)\n",
              static_cast<int>(name.size()), name.data());
  return fallback;
}

/// Parse ":replay <id> [--from=stage] [--set key=value ...]". Returns
/// nullopt (after printing the problem) on a malformed request.
std::optional<std::pair<std::uint64_t, pkb::replay::ReplayOverrides>>
parse_replay(std::string_view args) {
  std::istringstream in{std::string(args)};
  std::uint64_t id = 0;
  if (!(in >> id) || id == 0) {
    std::printf("usage: :replay <id> [--from=stage] [--set key=value]\n");
    return std::nullopt;
  }
  pkb::replay::ReplayOverrides ov;
  std::string token;
  while (in >> token) {
    std::string kv;
    if (token.starts_with("--from=")) {
      kv = token.substr(7);
      const auto stage = pkb::rag::stage_from_name(kv);
      if (!stage.has_value()) {
        std::printf("unknown stage '%s' (embed|retrieve|rerank|prompt|"
                    "generate|postprocess)\n", kv.c_str());
        return std::nullopt;
      }
      ov.from = *stage;
      continue;
    }
    if (token == "--set" && (in >> kv)) {
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        std::printf("--set expects key=value, got '%s'\n", kv.c_str());
        return std::nullopt;
      }
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      if (key == "k") {
        ov.first_pass_k = std::stoul(value);
      } else if (key == "l") {
        ov.final_l = std::stoul(value);
      } else if (key == "reranker") {
        ov.reranker = value;
      } else if (key == "max_attended") {
        ov.max_attended = std::stoul(value);
      } else if (key == "model") {
        ov.model = value;
      } else {
        std::printf("unknown override '%s' "
                    "(k|l|reranker|max_attended|model)\n", key.c_str());
        return std::nullopt;
      }
      continue;
    }
    std::printf("unrecognized token '%s'\n", token.c_str());
    return std::nullopt;
  }
  return std::make_pair(id, std::move(ov));
}

}  // namespace

int main() {
  using namespace pkb;

  std::printf("petsc-kb assistant — building the knowledge base...\n");
  const rag::KnowledgeBase db =
      rag::KnowledgeBase::build(corpus::generate_corpus());
  const rag::SnapshotPtr snap = db.snapshot();
  std::printf("ready: %zu documents, %zu chunks. Ask about PETSc Krylov "
              "solvers; :quit to exit.\n\n",
              snap->source_count, snap->chunks.size());

  history::HistoryStore store;
  pkb::util::SimClock clock;
  rag::PipelineArm arm = rag::PipelineArm::RagRerank;
  auto make_workflow = [&](rag::PipelineArm a) {
    auto wf = std::make_unique<rag::AugmentedWorkflow>(
        db, a, llm::model_config("sim-gpt-4o"));
    wf->attach_history(&store, &clock);
    return wf;
  };
  auto workflow = make_workflow(arm);
  rag::WorkflowOutcome last;
  std::unique_ptr<replay::TraceRecorder> recorder;
  replay::ReplayEngine engine(db);
  std::optional<replay::ReplayResult> last_replay;

  std::string line;
  while (std::printf("pkb[%s]> ", std::string(rag::to_string(arm)).c_str()),
         std::fflush(stdout), std::getline(std::cin, line)) {
    const std::string_view input = pkb::util::trim(line);
    if (input.empty()) continue;
    if (input == ":quit" || input == ":q") break;
    if (input.starts_with(":arm ")) {
      const rag::PipelineArm next = parse_arm(input.substr(5), arm);
      if (next != arm) {
        arm = next;
        workflow = make_workflow(arm);
      }
      continue;
    }
    if (input == ":contexts") {
      if (last.retrieval.contexts.empty()) {
        std::printf("no contexts (baseline arm or no question yet)\n");
      }
      for (const auto& ctx : last.retrieval.contexts) {
        std::printf("  %-48s via %-8s score %.3f\n", ctx.doc->id.c_str(),
                    ctx.via.c_str(), ctx.score);
      }
      continue;
    }
    if (input == ":metrics") {
      std::printf("%s", obs::global_metrics().prometheus_text().c_str());
      continue;
    }
    if (input == ":trace") {
      const std::optional<obs::Trace> trace = obs::global_tracer().latest();
      if (!trace.has_value()) {
        std::printf("no traces yet — ask a question first\n");
      } else {
        std::printf("trace #%llu\n%s",
                    static_cast<unsigned long long>(trace->id),
                    obs::render_tree(trace->root).c_str());
      }
      continue;
    }
    if (input == ":trace chrome") {
      std::printf("%s\n", obs::global_tracer().chrome_trace_json().c_str());
      continue;
    }
    if (input == ":record" || input.starts_with(":record ")) {
      const std::string_view arg =
          input == ":record" ? std::string_view{} : input.substr(8);
      if (arg == "off") {
        recorder.reset();
        std::printf("recording off\n");
      } else {
        replay::RecorderOptions opts;
        if (!arg.empty()) opts.dir = std::string(pkb::util::trim(arg));
        recorder = std::make_unique<replay::TraceRecorder>(opts);
        std::printf("recording stage traces to %s/\n",
                    recorder->options().dir.c_str());
      }
      continue;
    }
    if (input.starts_with(":replay ")) {
      auto parsed = parse_replay(input.substr(8));
      if (!parsed.has_value()) continue;
      const std::string dir =
          recorder != nullptr ? recorder->options().dir : "pkb_traces";
      try {
        const rag::StageTrace recorded = replay::TraceRecorder::load(
            replay::TraceRecorder::trace_path(dir, parsed->first));
        last_replay = engine.replay(recorded, parsed->second);
        std::printf("replayed #%llu from %s\n\n%s\n\n%s\n",
                    static_cast<unsigned long long>(recorded.id),
                    std::string(rag::to_string(last_replay->from)).c_str(),
                    last_replay->outcome.response.text.c_str(),
                    last_replay->diff.any() ? "DIFFERS from the recording "
                                              "(:rdiff for details)"
                                            : "matches the recording");
      } catch (const std::exception& e) {
        std::printf("replay failed: %s\n", e.what());
      }
      continue;
    }
    if (input == ":rdiff") {
      if (!last_replay.has_value()) {
        std::printf("no replay yet — :replay <id> first\n");
      } else {
        const std::string summary = last_replay->diff.summary();
        std::printf("%s%s", summary.c_str(),
                    summary.ends_with('\n') ? "" : "\n");
      }
      continue;
    }
    if (input.starts_with(":history ")) {
      for (const auto* record : store.search(input.substr(9))) {
        std::printf("  #%llu [%s] %s\n",
                    static_cast<unsigned long long>(record->id),
                    record->pipeline.c_str(),
                    pkb::util::ellipsize(record->question, 70).c_str());
      }
      continue;
    }

    if (recorder != nullptr) {
      rag::StageTrace trace;
      last = workflow->ask(input, nullptr, &trace);
      const std::uint64_t id = recorder->record(std::move(trace));
      std::printf("[recorded trace #%llu]\n",
                  static_cast<unsigned long long>(id));
    } else {
      last = workflow->ask(input);
    }
    std::printf("\n%s\n\n(mode %s | %zu contexts | simulated %.1f s)\n\n",
                last.response.text.c_str(), last.response.mode.c_str(),
                last.retrieval.contexts.size(),
                last.response.latency_seconds);
  }
  std::printf("\n%zu interactions recorded this session.\n", store.size());
  return 0;
}
