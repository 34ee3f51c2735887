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

Server::Server(const rag::AugmentedWorkflow& workflow, ServerOptions opts)
    : workflow_(workflow),
      opts_(std::move(opts)),
      queue_(opts_.queue_capacity) {
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

  Request req;
  req.question = std::move(question);
  std::future<rag::WorkflowOutcome> future = req.promise.get_future();
  req.enqueue_seconds = util::steady_seconds();
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
  const double start = util::steady_seconds();
  const double queue_wait = start - req.enqueue_seconds;
  metrics.histogram(obs::kServeQueueWaitSeconds).observe(queue_wait);
  metrics.gauge(obs::kServeInflight).add(1.0);

  obs::Span span(obs::global_tracer(), obs::kSpanServeRequest);
  try {
    rag::WorkflowOutcome outcome = compute(req.question, queue_wait, nullptr);
    if (outcome.degraded()) {
      span.set_attr("degraded",
                    pkb::resilience::to_string(outcome.degradation));
    }
    req.promise.set_value(std::move(outcome));
  } catch (...) {
    req.promise.set_exception(std::current_exception());
  }

  metrics.gauge(obs::kServeInflight).add(-1.0);
  metrics.histogram(obs::kServeRequestSeconds)
      .observe(util::steady_seconds() - req.enqueue_seconds);
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
  // multi-worker overlap is measurable — see
  // ServerOptions::llm_latency_scale.
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
  s.queue_depth = queue_.size();
  s.workers = workers_.size();
  return s;
}

}  // namespace pkb::serve
