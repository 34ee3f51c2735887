#pragma once
// Agentic multi-turn sessions over the serving layer — the production shape
// of the coding-agent workload: bursts of dependent, session-affine queries
// instead of independent one-shot questions.
//
// A SessionManager keys conversation state by session id and routes every
// turn of a session to the same lane (worker thread + bounded queue, picked
// by hashing the id), so a session's turns execute in order. Each turn is
// one Server::run_session_turn, i.e. one AugmentedWorkflow::ask(); the
// session's own retrieval memory dedups context chunks the conversation has
// already seen (rag::SessionPromptContext). Prior turns are appended to the
// prompt through the stage graph's history path, after the document
// contexts.
//
// Admission control is open-loop friendly: submit() NEVER blocks. A turn
// that cannot be served within bounds is shed immediately with a typed
// Overload answer (degradation rung Unavailable — the bottom of the
// existing five-rung ladder), in shed order:
//
//   1. per-session inflight cap      (one runaway agent cannot monopolize)
//   2. lane queue full               (hard capacity)
//   3. new sessions at high watermark (shed new before in-flight sessions)
//   4. estimated wait past the admission deadline (EMA of lane service time)
//
// Session state is single-writer by construction: only the owning lane's
// worker thread touches a session's memory and history, so no per-session
// lock is needed; the manager's map/LRU mutex covers lookup, creation, and
// eviction (capacity + idle TTL). Evicting a session mid-turn is safe — the
// in-flight turn holds a shared_ptr and completes against the orphaned
// state.
//
// Everything is observable under pkb_session_* and the session_turn /
// admission spans (docs/OBSERVABILITY.md).

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rag/stages.h"
#include "serve/bounded_queue.h"
#include "serve/lru_cache.h"
#include "serve/server.h"

namespace pkb::serve {

struct SessionOptions {
  /// Affinity lanes: worker threads, each with its own bounded turn queue.
  std::size_t lanes = 4;
  /// Per-lane queue capacity; a full lane sheds (never blocks).
  std::size_t lane_queue_capacity = 16;
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
  /// Deadline-aware admission: shed when estimated wait (lane depth x EMA
  /// turn seconds) would exceed this. 0 = disabled.
  double admission_deadline_seconds = 0.0;
  /// Seed for the lane service-time EMA before any turn has completed
  /// (lets deadline admission act from the first burst). 0 = learn only.
  double initial_turn_seconds_estimate = 0.0;
  /// New-session watermark: when a lane's queue depth reaches this fraction
  /// of its capacity, turns that would CREATE a session are shed while
  /// turns of existing sessions are still admitted (shed order: new before
  /// in-flight).
  double new_session_shed_fraction = 0.5;
  /// Test hook: time source for waits, EMA, and idle TTL (defaults to
  /// steady_seconds).
  CacheClock clock;
};

/// The admission decision for one submitted turn, in shed order.
enum class Admission : int {
  Admitted = 0,
  ShedSessionInflight,  ///< the session is over its inflight cap
  ShedQueueFull,        ///< the lane queue is at capacity
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
/// from any thread, stop() (or destroy) to drain and join the lanes.
class SessionManager {
 public:
  /// The server (and its workflow) must outlive the manager. The manager
  /// runs turns on its own lane threads via Server::run_session_turn — the
  /// server's request queue and workers are not involved.
  explicit SessionManager(Server& server, SessionOptions opts = {});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Submit one turn. Never blocks: the future is either pending on the
  /// session's lane or already resolved with a shed TurnOutcome.
  [[nodiscard]] std::future<TurnOutcome> submit(const std::string& session_id,
                                                std::string question);

  /// Blocking convenience: submit and wait.
  [[nodiscard]] TurnOutcome ask(const std::string& session_id,
                                std::string question);

  /// Close the lane queues, drain queued turns, join the lane threads.
  /// Idempotent; called by the destructor.
  void stop();

  /// The lane a session's turns are routed to (stable for the manager's
  /// lifetime; exposed for affinity tests).
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
    std::size_t queue_depth = 0;  ///< sum across lanes
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const SessionOptions& options() const { return opts_; }

 private:
  /// Conversation state for one session id. The retrieval memory and
  /// history are written only by the owning lane's worker (affinity =
  /// single writer); the atomics are read cross-thread by admission and
  /// stats.
  struct Session {
    std::string id;
    std::atomic<std::uint64_t> inflight{0};
    std::atomic<std::uint64_t> turns{0};
    std::atomic<double> last_active_seconds{0.0};
    /// Position in the manager's LRU list (guarded by sessions_mu_).
    std::list<std::string>::iterator lru_pos;

    // --- lane-thread-only state -------------------------------------------
    std::unordered_set<std::string> seen_context_ids;
    std::deque<std::string> seen_order;  ///< FIFO forget beyond the cap
    std::uint64_t memory_generation = 0;
    std::deque<llm::ContextDoc> history;  ///< last N turns, oldest first
  };

  struct Turn {
    std::shared_ptr<Session> session;
    std::string question;
    std::promise<TurnOutcome> promise;
    double submit_seconds = 0.0;
  };

  struct Lane {
    explicit Lane(std::size_t capacity) : queue(capacity) {}
    std::size_t index = 0;
    BoundedQueue<Turn> queue;
    std::thread worker;
    /// EMA of turn service seconds, the deadline-admission estimator.
    std::atomic<double> ema_turn_seconds{0.0};
  };

  void lane_loop(Lane& lane);
  void process_turn(Lane& lane, Turn& turn);
  /// Find-or-create under sessions_mu_; `created` reports creation.
  /// Returns null without creating when `create_if_missing` is false.
  std::shared_ptr<Session> lookup_session(const std::string& session_id,
                                          bool create_if_missing,
                                          bool& created);
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
  std::vector<std::unique_ptr<Lane>> lanes_;

  mutable std::mutex sessions_mu_;
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;
  /// Least recently active at the front (touched on submit).
  std::list<std::string> lru_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> shed_session_inflight_{0};
  std::atomic<std::uint64_t> shed_queue_full_{0};
  std::atomic<std::uint64_t> shed_new_session_{0};
  std::atomic<std::uint64_t> shed_deadline_{0};
  std::atomic<std::uint64_t> sessions_created_{0};
  std::atomic<std::uint64_t> sessions_evicted_{0};
  std::atomic<std::uint64_t> dedup_dropped_{0};
  std::atomic<std::uint64_t> memory_invalidations_{0};
  std::atomic<bool> stopped_{false};
};

}  // namespace pkb::serve
