#include "serve/server.h"

#include <chrono>
#include <stdexcept>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rag/stages.h"
#include "replay/trace.h"
#include "util/clock.h"

namespace pkb::serve {

namespace {

// Lock shards of the answer cache.
constexpr std::size_t kAnswerCacheShards = 8;
// Life of a cached degraded answer: short, so a transient outage cannot
// poison the answer cache.
constexpr double kDegradedAnswerTtlSeconds = 2.0;

}  // namespace

Server::Server(const rag::AugmentedWorkflow& workflow, ServerOptions opts)
    : workflow_(workflow),
      opts_(std::move(opts)),
      queue_(opts_.queue_capacity),
      answer_cache_(LruCacheOptions{opts_.answer_cache_capacity,
                                    kAnswerCacheShards, opts_.cache_clock}) {
  if (opts_.workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    opts_.workers = hw == 0 ? 1 : hw;
  }
  obs::global_metrics()
      .gauge(obs::kServeWorkers)
      .set(static_cast<double>(opts_.workers));
  workers_.reserve(opts_.workers);
  for (std::size_t i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() { stop(); }

void Server::stop() {
  if (stopped_.exchange(true)) return;
  queue_.close();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  publish_queue_gauges();
}

void Server::publish_queue_gauges() {
  obs::global_metrics()
      .gauge(obs::kServeQueueDepth)
      .set(static_cast<double>(queue_.size()));
}

std::future<rag::WorkflowOutcome> Server::submit(std::string question) {
  obs::MetricsRegistry& metrics = obs::global_metrics();
  metrics.counter(obs::kServeRequestsTotal).inc();

  std::promise<rag::WorkflowOutcome> promise;
  std::future<rag::WorkflowOutcome> future = promise.get_future();

  retire_superseded_answers();
  // Fast path: answer already cached and still current — resolve on the
  // caller's thread without touching the queue.
  if (std::optional<rag::WorkflowOutcome> hit = answer_cache_.get(question)) {
    if (outcome_fresh(*hit)) {
      metrics.counter(obs::kServeAnswerCacheHitsTotal).inc();
      submitted_.fetch_add(1, std::memory_order_relaxed);
      promise.set_value(std::move(*hit));
      return future;
    }
  }

  Request req;
  req.question = std::move(question);
  req.promise = std::move(promise);
  req.enqueue_seconds = steady_seconds();
  if (!queue_.push(Job(std::move(req)))) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    metrics.counter(obs::kServeRejectedTotal).inc();
    // The request (and its promise) went down with the rejected job.
    std::promise<rag::WorkflowOutcome> failed;
    future = failed.get_future();
    failed.set_exception(std::make_exception_ptr(
        std::runtime_error("serve::Server is stopped")));
    return future;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  publish_queue_gauges();
  return future;
}

rag::WorkflowOutcome Server::ask(std::string question) {
  return submit(std::move(question)).get();
}

rag::WorkflowOutcome Server::answer(std::string_view question) const {
  // All mutable state is internally synchronized; the const interface
  // mirrors AugmentedWorkflow::answer for QuestionService consumers.
  return const_cast<Server*>(this)->ask(std::string(question));
}

bool Server::outcome_fresh(const rag::WorkflowOutcome& outcome) const {
  if (outcome.generation == 0) return true;  // Baseline: no corpus read
  if (outcome.generation == workflow_.kb().generation()) return true;
  obs::global_metrics()
      .counter(obs::kServeCacheStaleTotal, {{"cache", "answer"}})
      .inc();
  return false;
}

void Server::retire_superseded_answers() {
  const std::uint64_t live = workflow_.kb().generation();
  std::uint64_t seen = cache_generation_.load(std::memory_order_acquire);
  while (live > seen) {
    if (cache_generation_.compare_exchange_weak(seen, live,
                                                std::memory_order_acq_rel)) {
      answer_cache_.clear();
      return;
    }
  }
}

bool Server::post(std::function<void()> task) {
  if (!queue_.force_push(Job(std::move(task)))) return false;
  publish_queue_gauges();
  return true;
}

void Server::worker_loop() {
  while (std::optional<Job> job = queue_.pop()) {
    publish_queue_gauges();
    if (Request* req = std::get_if<Request>(&*job)) {
      process(*req);
    } else {
      std::get<std::function<void()>>(*job)();
    }
  }
}

void Server::process(Request& req) {
  obs::MetricsRegistry& metrics = obs::global_metrics();
  const double start = steady_seconds();
  const double queue_wait = start - req.enqueue_seconds;
  metrics.histogram(obs::kServeQueueWaitSeconds).observe(queue_wait);
  metrics.gauge(obs::kServeInflight).add(1.0);

  obs::Span span(obs::global_tracer(), obs::kSpanServeRequest);
  try {
    // Re-check the cache: an identical question may have been answered
    // between submit() and now (duplicate suppression under concurrency).
    rag::WorkflowOutcome outcome;
    std::optional<rag::WorkflowOutcome> hit = answer_cache_.get(req.question);
    if (hit && outcome_fresh(*hit)) {
      metrics.counter(obs::kServeAnswerCacheHitsTotal).inc();
      span.set_attr("cache", "hit");
      outcome = std::move(*hit);
    } else {
      metrics.counter(obs::kServeAnswerCacheMissesTotal).inc();
      span.set_attr("cache", "miss");
      outcome = compute(req.question, queue_wait, nullptr);
      if (outcome.degraded()) {
        span.set_attr("degraded",
                      pkb::resilience::to_string(outcome.degradation));
      }
      // An answer computed on a generation superseded while it ran is served
      // but not cached: the entry would only pin that snapshot.
      const bool superseded =
          outcome.generation != 0 &&
          outcome.generation <
              cache_generation_.load(std::memory_order_acquire);
      std::size_t evicted = 0;
      if (!superseded) {
        // Degraded answers get a short life: the next ask should retry the
        // full pipeline once the fault clears, not inherit a transient
        // outage for as long as a full answer lives.
        evicted = outcome.degraded()
                      ? answer_cache_.put_with_ttl(req.question, outcome,
                                                   kDegradedAnswerTtlSeconds)
                      : answer_cache_.put(req.question, outcome);
      }
      if (evicted > 0) {
        metrics.counter(obs::kServeCacheEvictionsTotal).inc(evicted);
      }
    }
    req.promise.set_value(std::move(outcome));
  } catch (...) {
    req.promise.set_exception(std::current_exception());
  }

  metrics.gauge(obs::kServeInflight).add(-1.0);
  metrics.histogram(obs::kServeRequestSeconds)
      .observe(steady_seconds() - req.enqueue_seconds);
}

rag::WorkflowOutcome Server::compute(const std::string& question,
                                     double queue_wait_seconds,
                                     rag::SessionPromptContext* session) {
  pkb::util::Stopwatch watch;
  pkb::resilience::RequestContext ctx;
  pkb::resilience::RequestContext* ctxp = nullptr;
  if (opts_.resilience != nullptr) {
    ctx = opts_.resilience->make_context();
    // Time already spent queued comes off the budget.
    ctx.budget.charge(queue_wait_seconds);
    ctxp = &ctx;
  }

  // Record/replay sampling: a sampled request threads a StageTrace through
  // the workflow and persists it after the pipeline completes.
  rag::StageTrace trace_storage;
  rag::StageTrace* trace = nullptr;
  if (opts_.recorder != nullptr && opts_.recorder->sample()) {
    trace = &trace_storage;
  }

  rag::WorkflowOutcome outcome = workflow_.ask(question, ctxp, trace, session);
  computed_.fetch_add(1, std::memory_order_relaxed);
  if (trace != nullptr) opts_.recorder->record(std::move(trace_storage));
  if (outcome.degraded()) degraded_.fetch_add(1, std::memory_order_relaxed);

  // Realize a slice of the simulated LLM latency as real wall time so that
  // multi-worker overlap (and cache hits skipping this stall) are
  // measurable — see ServerOptions::llm_latency_scale.
  if (opts_.llm_latency_scale > 0.0 &&
      outcome.response.latency_seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        outcome.response.latency_seconds * opts_.llm_latency_scale));
  }

  obs::global_metrics()
      .histogram(obs::kServePipelineSeconds)
      .observe(watch.seconds());
  return outcome;
}

Server::Stats Server::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.computed = computed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.answer_cache = answer_cache_.stats();
  s.queue_depth = queue_.size();
  s.workers = workers_.size();
  return s;
}

}  // namespace pkb::serve
