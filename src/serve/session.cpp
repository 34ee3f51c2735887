#include "serve/session.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"

namespace pkb::serve {

std::string_view to_string(Admission admission) {
  switch (admission) {
    case Admission::Admitted:
      return "admitted";
    case Admission::ShedSessionInflight:
      return "session_inflight";
    case Admission::ShedQueueFull:
      return "queue_full";
    case Admission::ShedNewSession:
      return "new_session";
    case Admission::ShedDeadline:
      return "deadline";
  }
  return "?";
}

SessionManager::SessionManager(Server& server, SessionOptions opts)
    : server_(server), opts_(std::move(opts)) {
  opts_.lanes = server_.options().workers;
  if (opts_.max_sessions == 0) opts_.max_sessions = 1;
  if (opts_.max_inflight_per_session == 0) opts_.max_inflight_per_session = 1;
}

SessionManager::~SessionManager() { stop(); }

void SessionManager::stop() {
  {
    std::unique_lock<std::mutex> lock(strands_mu_);
    if (stopped_.exchange(true)) return;
    strands_idle_.wait(lock, [this] { return busy_strands_ == 0; });
  }
  // Final per-session turn counts for the distribution histogram (evicted
  // sessions were observed at eviction time).
  obs::MetricsRegistry& metrics = obs::global_metrics();
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (const auto& [id, session] : sessions_) {
    metrics.histogram(obs::kSessionTurnsPerSession)
        .observe(static_cast<double>(
            session->turns.load(std::memory_order_relaxed)));
  }
}

std::size_t SessionManager::lane_of(const std::string& session_id) const {
  return std::hash<std::string>{}(session_id) % opts_.lanes;
}

std::future<TurnOutcome> SessionManager::submit(const std::string& session_id,
                                                std::string question) {
  obs::MetricsRegistry& metrics = obs::global_metrics();
  metrics.counter(obs::kSessionTurnsTotal).inc();
  submitted_.fetch_add(1, std::memory_order_relaxed);

  obs::Span span(obs::global_tracer(), obs::kSpanAdmission);
  span.set_attr("session", session_id);
  // A stopped manager sheds instead of throwing: submit() never blocks and
  // never fails a future, even racing shutdown.
  if (stopped_.load(std::memory_order_relaxed)) {
    span.set_attr("decision", to_string(Admission::ShedQueueFull));
    return shed_turn(session_id, Admission::ShedQueueFull);
  }

  std::shared_ptr<Session> session =
      lookup_session(session_id, /*create_if_missing=*/false);
  const bool is_new = session == nullptr;
  const ServerOptions& pool = server_.options();
  const std::size_t depth = queued_.load(std::memory_order_relaxed);
  span.set_attr("depth", static_cast<std::uint64_t>(depth));
  span.set_attr("new_session", is_new);

  // Admission, in shed order: a runaway session first, hard capacity
  // second, new-before-in-flight at the watermark third, and the
  // estimated-wait deadline last.
  Admission decision = Admission::Admitted;
  if (session != nullptr &&
      session->inflight() >= opts_.max_inflight_per_session) {
    decision = Admission::ShedSessionInflight;
  } else if (depth >= pool.queue_capacity) {
    decision = Admission::ShedQueueFull;
  } else if (is_new && opts_.new_session_shed_fraction > 0.0 &&
             static_cast<double>(depth) >=
                 opts_.new_session_shed_fraction *
                     static_cast<double>(pool.queue_capacity)) {
    decision = Admission::ShedNewSession;
  } else if (opts_.admission_deadline_seconds > 0.0) {
    double estimate = ema_turn_seconds_.load(std::memory_order_relaxed);
    if (estimate <= 0.0) estimate = opts_.initial_turn_seconds_estimate;
    if (estimate * (static_cast<double>(depth) /
                        static_cast<double>(pool.workers) +
                    1.0) >
        opts_.admission_deadline_seconds) {
      decision = Admission::ShedDeadline;
    }
  }
  if (decision != Admission::Admitted) {
    span.set_attr("decision", to_string(decision));
    return shed_turn(session_id, decision);
  }

  if (session == nullptr) {
    session = lookup_session(session_id, /*create_if_missing=*/true);
  }

  Turn turn;
  turn.question = std::move(question);
  turn.submit_seconds = util::steady_seconds();
  std::future<TurnOutcome> future = turn.promise.get_future();
  // Take a queue slot and hand the turn to its strand; either fails if
  // racing submitters filled the queue or the manager stopped meanwhile.
  if (queued_.fetch_add(1, std::memory_order_relaxed) >= pool.queue_capacity ||
      !schedule(session, std::move(turn))) {
    queued_.fetch_sub(1, std::memory_order_relaxed);
    span.set_attr("decision", to_string(Admission::ShedQueueFull));
    return shed_turn(session_id, Admission::ShedQueueFull);
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  span.set_attr("decision", to_string(Admission::Admitted));
  publish_gauges();
  return future;
}

std::future<TurnOutcome> SessionManager::shed_turn(
    const std::string& session_id, Admission reason) {
  shed_[static_cast<std::size_t>(reason)].fetch_add(1,
                                                    std::memory_order_relaxed);
  obs::global_metrics()
      .counter(obs::kSessionShedTotal,
               {{"reason", std::string(to_string(reason))}})
      .inc();

  // The typed Overload answer: the bottom rung of the degradation ladder,
  // resolved on the caller's thread — a shed turn never reaches a worker.
  TurnOutcome out;
  out.admission = reason;
  out.session_id = session_id;
  out.outcome.degradation = resilience::DegradationLevel::Unavailable;
  out.outcome.response.mode = "shed-overload";
  out.outcome.response.text =
      "[overload] The assistant is shedding load (" +
      std::string(to_string(reason)) + "); please retry shortly.";
  out.outcome.processed.plain_text = out.outcome.response.text;
  std::promise<TurnOutcome> promise;
  promise.set_value(std::move(out));
  return promise.get_future();
}

std::shared_ptr<SessionManager::Session> SessionManager::lookup_session(
    const std::string& session_id, bool create_if_missing) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(session_id);
  if (it != sessions_.end()) {
    // Touch: most recently active moves to the back of the LRU list.
    lru_.splice(lru_.end(), lru_, it->second->lru_pos);
    return it->second;
  }
  if (!create_if_missing) return nullptr;
  while (sessions_.size() >= opts_.max_sessions && !lru_.empty()) {
    evict_locked(lru_.front());
  }
  auto session = std::make_shared<Session>();
  session->id = session_id;
  lru_.push_back(session_id);
  session->lru_pos = std::prev(lru_.end());
  sessions_.emplace(session_id, session);
  sessions_created_.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry& metrics = obs::global_metrics();
  metrics.counter(obs::kSessionCreatedTotal).inc();
  metrics.gauge(obs::kSessionActive)
      .set(static_cast<double>(sessions_.size()));
  return session;
}

void SessionManager::evict_locked(const std::string& session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  obs::MetricsRegistry& metrics = obs::global_metrics();
  metrics.histogram(obs::kSessionTurnsPerSession)
      .observe(static_cast<double>(
          it->second->turns.load(std::memory_order_relaxed)));
  // An in-flight turn keeps the Session alive through its shared_ptr and
  // completes against the orphaned state; only the id mapping goes away.
  lru_.erase(it->second->lru_pos);
  sessions_.erase(it);
  sessions_evicted_.fetch_add(1, std::memory_order_relaxed);
  metrics.counter(obs::kSessionEvictedTotal).inc();
  metrics.gauge(obs::kSessionActive)
      .set(static_cast<double>(sessions_.size()));
}

void SessionManager::publish_gauges() {
  obs::global_metrics()
      .gauge(obs::kSessionQueueDepth)
      .set(static_cast<double>(queued_.load(std::memory_order_relaxed)));
}

bool SessionManager::schedule(const std::shared_ptr<Session>& session,
                              Turn turn) {
  std::lock_guard<std::mutex> lock(session->mu);
  // Pending turns mean the strand is queued or running and will take this.
  if (session->pending.empty()) {
    std::lock_guard<std::mutex> strands(strands_mu_);
    if (stopped_.load(std::memory_order_relaxed) ||
        !server_.post([this, session] { run_strand(*session); })) {
      return false;
    }
    ++busy_strands_;
  }
  session->pending.push_back(std::move(turn));
  return true;
}

void SessionManager::run_strand(Session& session) {
  std::unique_lock<std::mutex> lock(session.mu);
  while (!session.pending.empty()) {
    // The running turn stays in `pending` (appends keep the reference
    // valid), so pending.size() is the session's inflight count.
    Turn& turn = session.pending.front();
    lock.unlock();
    process_turn(session, turn);
    lock.lock();
    session.pending.pop_front();
  }
  // Notify under the lock: stop() may return, and the manager be destroyed,
  // as soon as it is released.
  std::lock_guard<std::mutex> strands(strands_mu_);
  if (--busy_strands_ == 0) strands_idle_.notify_all();
}

void SessionManager::process_turn(Session& session, Turn& turn) {
  obs::MetricsRegistry& metrics = obs::global_metrics();
  const double start = util::steady_seconds();
  const double wait = std::max(0.0, start - turn.submit_seconds);
  queued_.fetch_sub(1, std::memory_order_relaxed);
  metrics.histogram(obs::kSessionQueueWaitSeconds).observe(wait);
  metrics.gauge(obs::kSessionInflight).add(1.0);
  publish_gauges();

  obs::Span span(obs::global_tracer(), obs::kSpanSessionTurn);
  span.set_attr("session", session.id);

  // Session state below is touched without a lock: the strand runs one
  // turn at a time, so this turn is its memory and history's only writer.
  rag::SessionPromptContext prompt_ctx;
  if (!session.seen_context_ids.empty()) {
    prompt_ctx.seen_context_ids = &session.seen_context_ids;
    prompt_ctx.memory_generation = session.memory_generation;
  }
  std::vector<llm::ContextDoc> history(session.history.begin(),
                                       session.history.end());
  if (!history.empty()) prompt_ctx.history_contexts = &history;

  TurnOutcome out;
  out.session_id = session.id;
  out.queue_wait_seconds = wait;
  out.turn = session.turns.fetch_add(1, std::memory_order_relaxed) + 1;
  span.set_attr("turn", out.turn);
  try {
    out.outcome = server_.compute(turn.question, wait, &prompt_ctx);
    out.deduped_contexts = prompt_ctx.deduped;
    out.history_contexts = prompt_ctx.history_attached;

    if (prompt_ctx.memory_stale) {
      // The knowledge base swapped generations mid-session: every memory
      // entry may have been re-ingested, so the whole memory resets and
      // restamps at the turn's generation.
      session.seen_context_ids.clear();
      session.seen_order.clear();
      memory_invalidations_.fetch_add(1, std::memory_order_relaxed);
      metrics.counter(obs::kSessionMemoryInvalidationsTotal).inc();
    }
    session.memory_generation = out.outcome.generation;
    for (std::string& id : prompt_ctx.attached_context_ids) {
      if (session.seen_context_ids.insert(id).second) {
        session.seen_order.push_back(std::move(id));
        if (session.seen_order.size() > opts_.max_memory_entries) {
          session.seen_context_ids.erase(session.seen_order.front());
          session.seen_order.pop_front();
        }
      }
    }
    if (opts_.max_history_turns > 0) {
      llm::ContextDoc doc;
      doc.id = "session:" + session.id + ":turn:" + std::to_string(out.turn);
      doc.title = "Earlier in this conversation";
      doc.text = "Q: " + turn.question + "\nA: " +
                 (out.outcome.processed.plain_text.empty()
                      ? out.outcome.response.text
                      : out.outcome.processed.plain_text);
      session.history.push_back(std::move(doc));
      while (session.history.size() > opts_.max_history_turns) {
        session.history.pop_front();
      }
    }

    if (prompt_ctx.deduped > 0) {
      dedup_dropped_.fetch_add(prompt_ctx.deduped,
                               std::memory_order_relaxed);
      metrics.counter(obs::kSessionDedupDroppedTotal)
          .inc(prompt_ctx.deduped);
    }
    if (prompt_ctx.history_attached > 0) {
      metrics.counter(obs::kSessionHistoryContextsTotal)
          .inc(prompt_ctx.history_attached);
    }
    span.set_attr("deduped",
                  static_cast<std::uint64_t>(prompt_ctx.deduped));
    span.set_attr("history",
                  static_cast<std::uint64_t>(prompt_ctx.history_attached));
    span.set_attr("degradation",
                  resilience::to_string(out.outcome.degradation));

    out.turn_seconds =
        std::max(0.0, util::steady_seconds() - turn.submit_seconds);
    completed_.fetch_add(1, std::memory_order_relaxed);
    metrics.histogram(obs::kSessionTurnSeconds).observe(out.turn_seconds);
    turn.promise.set_value(std::move(out));
  } catch (...) {
    turn.promise.set_exception(std::current_exception());
  }

  const double service = std::max(0.0, util::steady_seconds() - start);
  const double prev = ema_turn_seconds_.load(std::memory_order_relaxed);
  ema_turn_seconds_.store(prev <= 0.0 ? service : 0.8 * prev + 0.2 * service,
                          std::memory_order_relaxed);
  metrics.gauge(obs::kSessionInflight).add(-1.0);
}

SessionManager::Stats SessionManager::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  const auto shed = [this](Admission reason) {
    return shed_[static_cast<std::size_t>(reason)].load(
        std::memory_order_relaxed);
  };
  s.shed_session_inflight = shed(Admission::ShedSessionInflight);
  s.shed_queue_full = shed(Admission::ShedQueueFull);
  s.shed_new_session = shed(Admission::ShedNewSession);
  s.shed_deadline = shed(Admission::ShedDeadline);
  s.shed = s.shed_session_inflight + s.shed_queue_full + s.shed_new_session +
           s.shed_deadline;
  s.sessions_created = sessions_created_.load(std::memory_order_relaxed);
  s.sessions_evicted = sessions_evicted_.load(std::memory_order_relaxed);
  s.dedup_dropped = dedup_dropped_.load(std::memory_order_relaxed);
  s.memory_invalidations =
      memory_invalidations_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    s.active_sessions = sessions_.size();
  }
  s.queue_depth = queued_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace pkb::serve
