#pragma once
// Agentic multi-turn sessions over the serving layer — the production shape
// of the coding-agent workload: bursts of dependent, session-affine queries
// instead of independent one-shot questions.
//
// A SessionManager keys conversation state by session id. Each session is
// a serial strand on the Server's workers: it is posted to the server's
// queue when a turn arrives while it is idle, and the worker that pops it
// runs its turns one at a time in submit order. Each turn is
// one AugmentedWorkflow::ask(); the session's retrieval memory dedups
// context chunks the conversation has already seen
// (rag::SessionPromptContext), and prior turns are appended to the prompt
// after the document contexts.
//
// Admission control is open-loop friendly: submit() NEVER blocks. A turn
// that cannot be served within bounds is shed immediately with a typed
// Overload answer (degradation rung Unavailable — the bottom of the
// existing five-rung ladder), in shed order (depth = admitted turns not yet
// started):
//
//   1. per-session inflight cap      (one runaway agent cannot monopolize)
//   2. depth at the server's queue_capacity (hard capacity)
//   3. new sessions at high watermark (shed new before in-flight sessions)
//   4. estimated wait (EMA turn time x (depth / workers + 1)) past deadline
//
// Session state is single-writer by construction: a strand runs on one
// worker at a time, so a session's memory and history need no lock; the
// manager's map/LRU mutex covers lookup, creation, and eviction (capacity +
// idle TTL). Evicting a session mid-turn is safe — the running strand holds
// a shared_ptr and completes against the orphaned state.
//
// Everything is observable under pkb_session_* and the session_turn /
// admission spans (docs/OBSERVABILITY.md).

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "rag/stages.h"
#include "serve/server.h"

namespace pkb::serve {

struct SessionOptions {
  /// Not an input: set by the manager to the server's worker count.
  std::size_t lanes = 4;
  /// Max turns of one session queued-or-running at once; excess is shed.
  std::size_t max_inflight_per_session = 4;
  /// Max live sessions; the least recently active is evicted beyond this.
  std::size_t max_sessions = 1024;
  /// Idle eviction: sessions inactive this long are evicted on the next
  /// submit. 0 = never.
  double session_idle_ttl_seconds = 0.0;
  /// Conversation turns replayed into the prompt (most recent kept).
  std::size_t max_history_turns = 2;
  /// Retrieval-memory entries per session (oldest forgotten beyond this).
  std::size_t max_memory_entries = 512;
  /// Deadline-aware admission: shed when the estimated wait (EMA turn
  /// seconds x (depth / workers + 1)) would exceed this. 0 = disabled.
  double admission_deadline_seconds = 0.0;
  /// Seed for the service-time EMA before any turn has completed (lets
  /// deadline admission act from the first burst). 0 = learn only.
  double initial_turn_seconds_estimate = 0.0;
  /// New-session watermark: when the depth reaches this fraction of the
  /// server's queue_capacity, turns that would CREATE a session are shed
  /// while turns of existing sessions are still admitted (shed order: new
  /// before in-flight).
  double new_session_shed_fraction = 0.5;
  /// Test hook: time source for waits, EMA, and idle TTL (defaults to
  /// util::steady_seconds).
  std::function<double()> clock;
};

/// The admission decision for one submitted turn, in shed order.
enum class Admission : int {
  Admitted = 0,
  ShedSessionInflight,  ///< the session is over its inflight cap
  ShedQueueFull,        ///< depth is at the server's queue_capacity
  ShedNewSession,       ///< new session at the high watermark
  ShedDeadline,         ///< estimated wait past the admission deadline
};

[[nodiscard]] std::string_view to_string(Admission admission);

/// One completed (or shed) turn. A shed turn resolves immediately with a
/// typed Overload answer: degradation Unavailable, response mode
/// "shed-overload" — callers distinguish shed from served via shed() or
/// the admission field, never by blocking.
struct TurnOutcome {
  rag::WorkflowOutcome outcome;
  Admission admission = Admission::Admitted;
  std::string session_id;
  std::uint64_t turn = 0;  ///< 1-based turn number within the session
  std::size_t deduped_contexts = 0;   ///< dropped by the retrieval memory
  std::size_t history_contexts = 0;   ///< conversation contexts in prompt
  double queue_wait_seconds = 0.0;
  double turn_seconds = 0.0;  ///< submit -> completion (0 when shed)
  [[nodiscard]] bool shed() const { return admission != Admission::Admitted; }
};

/// Multi-turn session front end. Construct over a Server, submit() turns
/// from any thread, stop() (or destroy) to drain admitted turns.
class SessionManager {
 public:
  /// Turns run on the server's workers: it (and its workflow) must outlive
  /// the manager and keep running until stop(). Starts no threads.
  explicit SessionManager(Server& server, SessionOptions opts = {});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Submit one turn. Never blocks: the future is either pending on the
  /// session's strand or already resolved with a shed TurnOutcome.
  [[nodiscard]] std::future<TurnOutcome> submit(const std::string& session_id,
                                                std::string question);

  /// Blocking convenience: submit and wait.
  [[nodiscard]] TurnOutcome ask(const std::string& session_id,
                                std::string question);

  /// Stop admitting (later turns shed) and wait until every admitted turn
  /// has run. Idempotent; called by the destructor.
  void stop();

  /// hash(id) % options().lanes: a stable partition of session ids for
  /// callers that replay sessions on that many threads.
  [[nodiscard]] std::size_t lane_of(const std::string& session_id) const;

  /// Point-in-time session-serving statistics.
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t shed_session_inflight = 0;
    std::uint64_t shed_queue_full = 0;
    std::uint64_t shed_new_session = 0;
    std::uint64_t shed_deadline = 0;
    std::uint64_t sessions_created = 0;
    std::uint64_t sessions_evicted = 0;
    std::uint64_t dedup_dropped = 0;
    std::uint64_t memory_invalidations = 0;
    std::size_t active_sessions = 0;
    std::size_t queue_depth = 0;  ///< admitted turns not yet started
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const SessionOptions& options() const { return opts_; }

 private:
  struct Turn {
    std::string question;
    std::promise<TurnOutcome> promise;
    double submit_seconds = 0.0;
  };

  /// Conversation state for one session id, and its strand. The retrieval
  /// memory and history are written only by the strand's running turn.
  struct Session {
    std::string id;
    std::atomic<std::uint64_t> turns{0};
    std::atomic<double> last_active_seconds{0.0};
    /// Position in the manager's LRU list (guarded by sessions_mu_).
    std::list<std::string>::iterator lru_pos;

    /// Admitted turns not yet finished, in submit order (guarded by mu).
    /// Non-empty exactly while the strand is queued or running.
    std::mutex mu;
    std::deque<Turn> pending;
    [[nodiscard]] std::size_t inflight() {
      std::lock_guard<std::mutex> lock(mu);
      return pending.size();
    }

    // --- written only by the running turn ---------------------------------
    std::unordered_set<std::string> seen_context_ids;
    std::deque<std::string> seen_order;  ///< FIFO forget beyond the cap
    std::uint64_t memory_generation = 0;
    std::deque<llm::ContextDoc> history;  ///< last N turns, oldest first
  };

  /// Append `turn` to the strand, posting it if idle. False once stopped.
  [[nodiscard]] bool schedule(const std::shared_ptr<Session>& session,
                              Turn turn);
  void run_strand(Session& session);
  void process_turn(Session& session, Turn& turn);
  /// Find-or-create under sessions_mu_. Returns null without creating when
  /// `create_if_missing` is false.
  std::shared_ptr<Session> lookup_session(const std::string& session_id,
                                          bool create_if_missing);
  /// Build the immediately-resolved future for a shed turn.
  std::future<TurnOutcome> shed_turn(const std::string& session_id,
                                     Admission reason);
  /// Evict one session (sessions_mu_ held).
  void evict_locked(const std::string& session_id);
  /// Idle-TTL sweep from the LRU front (takes sessions_mu_).
  void sweep_idle(double now);
  void publish_gauges();
  [[nodiscard]] double now_seconds() const;

  Server& server_;
  SessionOptions opts_;
  /// Admitted turns not yet started: the admission depth.
  std::atomic<std::size_t> queued_{0};
  /// EMA of turn service seconds, the deadline-admission estimator.
  std::atomic<double> ema_turn_seconds_{0.0};

  /// Strands queued or running; stopped_ is written under strands_mu_.
  std::mutex strands_mu_;
  std::condition_variable strands_idle_;
  std::size_t busy_strands_ = 0;
  std::atomic<bool> stopped_{false};

  mutable std::mutex sessions_mu_;
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;
  /// Least recently active at the front (touched on submit).
  std::list<std::string> lru_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  /// Shed turns by Admission value (index 0, Admitted, stays 0).
  std::array<std::atomic<std::uint64_t>, 5> shed_{};
  std::atomic<std::uint64_t> sessions_created_{0};
  std::atomic<std::uint64_t> sessions_evicted_{0};
  std::atomic<std::uint64_t> dedup_dropped_{0};
  std::atomic<std::uint64_t> memory_invalidations_{0};
};

}  // namespace pkb::serve
