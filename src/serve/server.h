#pragma once
// Concurrent query-serving front end over the Fig-3 workflow — the
// production shape of the paper's one-question-at-a-time Discord deployment
// (§III-E): a bounded MPMC request queue with backpressure feeding N worker
// threads that each run the full retrieve → rerank → LLM → postprocess
// pipeline against a pinned generation of the shared rag::KnowledgeBase
// (ingestion may publish new generations at any moment; see
// rag/knowledge_base.h). The same workers run session turns
// (serve/session.h), posted as tasks: there is one executor.
//
// Every served answer — a submitted request or a session turn — is one
// AugmentedWorkflow::ask() call on a worker, so served answers carry exactly
// the content a serial ask() would produce (only wall-clock timing fields
// and history ids differ). The server keeps no answers: a repeat computes
// again against the current generation, and once a future resolves the
// server holds no WorkflowOutcome and so pins no snapshot.
//
// Everything is observable under the pkb_serve_* metric namespace and the
// serve_request span (docs/OBSERVABILITY.md).

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "rag/workflow.h"
#include "serve/bounded_queue.h"

namespace pkb::replay {
class TraceRecorder;
}  // namespace pkb::replay

namespace pkb::serve {

struct ServerOptions {
  /// Worker threads running the pipeline. 0 means one per hardware thread.
  std::size_t workers = 4;
  /// Bounded request-queue capacity; full queue blocks submitters
  /// (backpressure). Also caps a SessionManager's admitted, unstarted turns.
  std::size_t queue_capacity = 64;

  /// When > 0, each computed answer's *simulated* LLM latency is realized
  /// as real wait time scaled by this factor (e.g. 0.005 turns a 9.6 s
  /// simulated response into a 48 ms stall). In deployment the LLM call is
  /// network I/O that concurrent workers overlap; this knob makes the
  /// simulated serving pipeline exhibit the same behaviour so throughput
  /// benches measure something real. 0 (default) = off.
  double llm_latency_scale = 0.0;

  /// Shared resilience engine (policies + circuit breaker). Non-null
  /// enables the full treatment per request: a deadline budget charged with
  /// queue wait, retrieval wall time, and simulated LLM latency; bounded
  /// LLM retries; the breaker; and the degradation ladder (see
  /// resilience/resilience.h). Not owned — must outlive the server.
  resilience::Resilience* resilience = nullptr;

  /// Trace recorder for the record/replay subsystem (replay/trace.h).
  /// Non-null records every Nth computed request's per-stage artifacts (the
  /// recorder's sample_every knob). Not owned — must outlive the server.
  replay::TraceRecorder* recorder = nullptr;
};

/// Multi-worker serving layer. Construct, submit()/ask() from any number of
/// client threads, stop() (or destroy) to shut down
/// gracefully — queued requests are drained first.
class Server final : public rag::QuestionService {
 public:
  /// The workflow (and everything it references) must outlive the server.
  explicit Server(const rag::AugmentedWorkflow& workflow,
                  ServerOptions opts = {});
  ~Server() override;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueue one question; blocks only while the queue is full. The future
  /// resolves to the outcome (or to std::runtime_error after stop()).
  [[nodiscard]] std::future<rag::WorkflowOutcome> submit(std::string question);

  /// Blocking convenience: submit and wait.
  [[nodiscard]] rag::WorkflowOutcome ask(std::string question);

  /// QuestionService entry (the chat bot's hook): all internal mutation is
  /// synchronized, so the const interface is honest to share.
  [[nodiscard]] rag::WorkflowOutcome answer(
      std::string_view question) const override;

  /// Graceful shutdown: stop accepting, drain the queue, join the workers.
  /// Idempotent; called by the destructor.
  void stop();

  /// Point-in-time serving statistics.
  struct Stats {
    std::uint64_t submitted = 0;       ///< requests accepted
    std::uint64_t computed = 0;        ///< full pipeline executions
    std::uint64_t rejected = 0;        ///< submissions after stop()
    std::uint64_t degraded = 0;        ///< computed answers below Full
    /// Always 0: the server keeps no answers. Kept only because the
    /// perfbench harness reconciles computed + answer_cache.hits.
    struct {
      std::uint64_t hits = 0;
    } answer_cache;
    std::size_t queue_depth = 0;
    std::size_t workers = 0;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const ServerOptions& options() const { return opts_; }

 private:
  friend class SessionManager;  // runs turns via post() and compute()

  struct Request {
    std::string question;
    std::promise<rag::WorkflowOutcome> promise;
    double enqueue_seconds = 0.0;  ///< util::steady_seconds() at submit
  };

  using Job = std::variant<Request, std::function<void()>>;

  /// Queue `task` (a session strand) for a worker; never blocks. False once
  /// stopped.
  [[nodiscard]] bool post(std::function<void()> task);
  void worker_loop();
  void process(Request& req);
  /// Compute one answer: workflow_.ask() under a fresh resilience context
  /// (with `queue_wait_seconds` charged to its budget), optional trace
  /// recording, degraded accounting, and the LLM-latency sleep. Session
  /// turns pass their prompt context.
  [[nodiscard]] rag::WorkflowOutcome compute(
      const std::string& question, double queue_wait_seconds,
      rag::SessionPromptContext* session);
  void publish_queue_gauges();

  const rag::AugmentedWorkflow& workflow_;
  ServerOptions opts_;
  BoundedQueue<Job> queue_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> computed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<bool> stopped_{false};
};

}  // namespace pkb::serve
