// Session load bench: an OPEN-LOOP generator driving the multi-turn session
// serving layer (serve/session.h) with realistic arrival processes. Unlike
// the closed-loop serve benches — whose clients wait for each answer and so
// can never push the server past saturation — arrivals here follow a
// precomputed schedule regardless of completions, which is the only way to
// observe the overload knee and verify that admission control sheds load
// before tail latency collapses.
//
// Four arrival modes, all rates relative to a measured capacity estimate
// (a short closed-loop calibration phase):
//   steady   — Poisson at 0.6x capacity (healthy steady state);
//   bursty   — on/off process: session-affine bursts at 2x capacity
//              separated by quiet gaps (the coding-agent shape);
//   diurnal  — sinusoidally modulated Poisson (thinning), peak near
//              capacity (the daily ramp);
//   overload — a rung ladder at {0.5, 1, 2, 4, 8}x capacity, deliberately
//              past saturation, for the knee measurement.
//
// Reports sustained QPS, p50/p95/p99 of admitted turns, shed rate, and the
// overload knee (first rung where shed rate exceeds 1%) to
// BENCH_sessions.json, and doubles as the CI acceptance gate: it exits
// nonzero unless >= 99% of ADMITTED turns are answered, no turn overdraws
// its deadline budget, and shedding rises monotonically before p99
// collapses (every rung's admitted p99 stays under the bound).
//
// Usage: session_load [--workers N] [--queue-capacity C] [--sessions S]
//                     [--requests-per-mode R] [--overload-window SECONDS]
//                     [--mode all|steady,bursty,diurnal,overload]
//                     [--deadline SECONDS] [--p99-bound SECONDS]
//                     [--admission-deadline SECONDS] [--seed S]
//                     [--output PATH]
//
// --admission-deadline overrides the deadline-aware admission threshold
// (default p99-bound/2; 0 disables it). Disabling it while keeping a tight
// --p99-bound demonstrates the collapse the gate exists to catch: queues
// grow unboundedly, p99 blows past the bound, and the bench exits nonzero.
#include "bench_common.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "resilience/resilience.h"
#include "serve/server.h"
#include "serve/session.h"
#include "util/clock.h"
#include "util/json.h"
#include "util/stats.h"

namespace {

using pkb::serve::Admission;
using pkb::serve::Server;
using pkb::serve::ServerOptions;
using pkb::serve::SessionManager;
using pkb::serve::SessionOptions;
using pkb::serve::TurnOutcome;
namespace res = pkb::resilience;

// Same scale as chaos_serve: simulated LLM latencies become ~5-35 ms real
// stalls, so the workers have a real service time to saturate.
constexpr double kLlmLatencyScale = 0.002;

constexpr double kOverloadMultipliers[] = {0.5, 1.0, 2.0, 4.0, 8.0};
constexpr std::size_t kRungs =
    sizeof(kOverloadMultipliers) / sizeof(kOverloadMultipliers[0]);
/// A rung sheds "at the knee" once more than 1% of its offered load is
/// rejected.
constexpr double kKneeShedRate = 0.01;
/// Slack for the monotone shed-before-collapse check (rates are measured
/// over finite windows).
constexpr double kMonotoneTolerance = 0.02;

struct Arrival {
  double at = 0.0;  ///< seconds from mode start
  std::string session;
  std::string question;
  int rung = -1;  ///< overload rung index; -1 outside overload mode
};

/// Rotating session pool: most arrivals continue an existing session, a
/// tenth start a brand-new one (displacing a pool slot), so admission
/// control sees a realistic mix of in-flight and new sessions.
class SessionPicker {
 public:
  SessionPicker(std::mt19937_64& rng, std::size_t pool_size)
      : rng_(rng), pool_(pool_size == 0 ? 1 : pool_size) {
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      pool_[i] = 's' + std::to_string(i);
    }
  }
  std::string pick() {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    if (u(rng_) < 0.1) {
      std::string fresh = "fresh-" + std::to_string(fresh_counter_++);
      pool_[rng_() % pool_.size()] = fresh;
      return fresh;
    }
    return pool_[rng_() % pool_.size()];
  }

 private:
  std::mt19937_64& rng_;
  std::vector<std::string> pool_;
  std::uint64_t fresh_counter_ = 0;
};

std::string question_text(std::size_t i) {
  const auto& qs = pkb::corpus::krylov_benchmark();
  return "turn " + std::to_string(i) + ": " + qs[i % qs.size()].question;
}

std::vector<Arrival> gen_steady(std::mt19937_64& rng, SessionPicker& pick,
                                double capacity_qps, std::size_t count) {
  std::vector<Arrival> arrivals;
  arrivals.reserve(count);
  std::exponential_distribution<double> gap(0.6 * capacity_qps);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += gap(rng);
    arrivals.push_back({t, pick.pick(), question_text(i), -1});
  }
  return arrivals;
}

std::vector<Arrival> gen_bursty(std::mt19937_64& rng, SessionPicker& pick,
                                double capacity_qps, std::size_t count) {
  std::vector<Arrival> arrivals;
  arrivals.reserve(count);
  std::exponential_distribution<double> burst_len(1.0 / 0.35);
  std::exponential_distribution<double> quiet_len(1.0 / 0.35);
  std::exponential_distribution<double> gap(2.0 * capacity_qps);
  double t = 0.0;
  while (arrivals.size() < count) {
    // One ON burst, all turns from the same session: the agent shape.
    const std::string session = pick.pick();
    const double burst_end = t + burst_len(rng);
    while (arrivals.size() < count) {
      t += gap(rng);
      if (t >= burst_end) break;
      arrivals.push_back({t, session, question_text(arrivals.size()), -1});
    }
    t = burst_end + quiet_len(rng);
  }
  return arrivals;
}

std::vector<Arrival> gen_diurnal(std::mt19937_64& rng, SessionPicker& pick,
                                 double capacity_qps, std::size_t count) {
  std::vector<Arrival> arrivals;
  arrivals.reserve(count);
  // Thinning against the peak rate; two full "days" over the run.
  const double lambda_max = 0.95 * capacity_qps;
  const double expected_duration =
      static_cast<double>(count) / (0.55 * capacity_qps);
  const double period = expected_duration / 2.0;
  std::exponential_distribution<double> gap(lambda_max);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  double t = 0.0;
  while (arrivals.size() < count) {
    t += gap(rng);
    const double lambda =
        capacity_qps *
        (0.55 + 0.4 * std::sin(2.0 * 3.14159265358979323846 * t / period));
    if (u(rng) * lambda_max < lambda) {
      arrivals.push_back({t, pick.pick(), question_text(arrivals.size()), -1});
    }
  }
  return arrivals;
}

std::vector<Arrival> gen_overload(std::mt19937_64& rng, SessionPicker& pick,
                                  double capacity_qps,
                                  double window_seconds) {
  std::vector<Arrival> arrivals;
  double t0 = 0.0;
  for (std::size_t r = 0; r < kRungs; ++r) {
    const double rate = kOverloadMultipliers[r] * capacity_qps;
    std::exponential_distribution<double> gap(rate);
    double t = t0;
    while (true) {
      t += gap(rng);
      if (t >= t0 + window_seconds) break;
      arrivals.push_back({t, pick.pick(), question_text(arrivals.size()),
                          static_cast<int>(r)});
    }
    t0 += window_seconds;
  }
  return arrivals;
}

struct RungResult {
  std::size_t arrivals = 0;
  std::size_t admitted = 0;
  std::size_t shed = 0;
  double shed_rate = 0.0;
  double p99 = 0.0;
};

struct ModeResult {
  std::string mode;
  double offered_qps = 0.0;
  double sustained_qps = 0.0;
  double wall_seconds = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  std::size_t total = 0;
  std::size_t admitted = 0;
  std::size_t shed = 0;
  std::size_t answered = 0;  ///< admitted turns with non-empty text
  double shed_rate = 0.0;
  double answered_rate = 1.0;
  double budget_spent_max = 0.0;
  SessionManager::Stats stats;
  std::vector<RungResult> rungs;
};

/// Run one mode's arrival schedule open-loop against a fresh server +
/// session manager (fresh metrics too, so the budget histogram is
/// per-mode).
ModeResult run_mode(const char* name,
                    const pkb::rag::AugmentedWorkflow& workflow,
                    const ServerOptions& sopts, const SessionOptions& mopts,
                    const std::vector<Arrival>& arrivals) {
  pkb::obs::global_metrics().reset();
  Server server(workflow, sopts);
  SessionManager manager(server, mopts);

  std::vector<std::pair<std::future<TurnOutcome>, int>> futures;
  futures.reserve(arrivals.size());
  pkb::util::Stopwatch wall;
  for (const Arrival& a : arrivals) {
    const double now = wall.seconds();
    if (a.at > now) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(a.at - now));
    }
    futures.emplace_back(manager.submit(a.session, a.question), a.rung);
  }

  ModeResult r;
  r.mode = name;
  r.total = arrivals.size();
  pkb::util::Summary latencies;
  std::vector<pkb::util::Summary> rung_latencies(kRungs);
  std::vector<RungResult> rungs(kRungs);
  for (auto& [future, rung] : futures) {
    const TurnOutcome out = future.get();
    const bool answered = !out.outcome.response.text.empty();
    if (out.shed()) {
      ++r.shed;
    } else {
      ++r.admitted;
      if (answered) ++r.answered;
      latencies.add(out.turn_seconds);
    }
    if (rung >= 0) {
      RungResult& rr = rungs[static_cast<std::size_t>(rung)];
      ++rr.arrivals;
      if (out.shed()) {
        ++rr.shed;
      } else {
        ++rr.admitted;
        rung_latencies[static_cast<std::size_t>(rung)].add(out.turn_seconds);
      }
    }
  }
  r.wall_seconds = wall.seconds();
  r.offered_qps = arrivals.empty()
                      ? 0.0
                      : static_cast<double>(arrivals.size()) /
                            arrivals.back().at;
  r.sustained_qps = static_cast<double>(r.admitted) / r.wall_seconds;
  r.p50 = latencies.percentile(50.0);
  r.p95 = latencies.percentile(95.0);
  r.p99 = latencies.percentile(99.0);
  r.shed_rate = r.total == 0
                    ? 0.0
                    : static_cast<double>(r.shed) /
                          static_cast<double>(r.total);
  r.answered_rate = r.admitted == 0
                        ? 1.0
                        : static_cast<double>(r.answered) /
                              static_cast<double>(r.admitted);
  r.budget_spent_max = pkb::obs::global_metrics()
                           .histogram(pkb::obs::kResilienceBudgetSpentSeconds)
                           .snapshot()
                           .max;
  r.stats = manager.stats();
  if (!arrivals.empty() && arrivals.front().rung >= 0) {
    for (std::size_t i = 0; i < kRungs; ++i) {
      RungResult& rr = rungs[i];
      rr.shed_rate = rr.arrivals == 0
                         ? 0.0
                         : static_cast<double>(rr.shed) /
                               static_cast<double>(rr.arrivals);
      rr.p99 = rung_latencies[i].percentile(99.0);
      r.rungs.push_back(rr);
    }
  }
  manager.stop();
  server.stop();
  return r;
}

void print_mode(const ModeResult& r) {
  std::printf("  %-8s offered %7.1f QPS | sustained %7.1f | p50 %6.1f ms | "
              "p99 %6.1f ms | shed %5.1f%% | answered %5.1f%%\n",
              r.mode.c_str(), r.offered_qps, r.sustained_qps, r.p50 * 1e3,
              r.p99 * 1e3, r.shed_rate * 100.0, r.answered_rate * 100.0);
}

pkb::util::Json mode_json(const ModeResult& r) {
  using pkb::util::Json;
  Json j = Json::object();
  j.set("mode", Json(r.mode));
  j.set("offered_qps", Json(r.offered_qps));
  j.set("sustained_qps", Json(r.sustained_qps));
  j.set("wall_seconds", Json(r.wall_seconds));
  j.set("p50_seconds", Json(r.p50));
  j.set("p95_seconds", Json(r.p95));
  j.set("p99_seconds", Json(r.p99));
  j.set("arrivals", Json(static_cast<double>(r.total)));
  j.set("admitted", Json(static_cast<double>(r.admitted)));
  j.set("shed", Json(static_cast<double>(r.shed)));
  j.set("shed_rate", Json(r.shed_rate));
  j.set("answered_rate", Json(r.answered_rate));
  j.set("budget_spent_max_seconds", Json(r.budget_spent_max));
  Json sessions = Json::object();
  sessions.set("created", Json(static_cast<double>(r.stats.sessions_created)));
  sessions.set("evicted", Json(static_cast<double>(r.stats.sessions_evicted)));
  sessions.set("dedup_dropped",
               Json(static_cast<double>(r.stats.dedup_dropped)));
  sessions.set("shed_new_session",
               Json(static_cast<double>(r.stats.shed_new_session)));
  sessions.set("shed_queue_full",
               Json(static_cast<double>(r.stats.shed_queue_full)));
  sessions.set("shed_deadline",
               Json(static_cast<double>(r.stats.shed_deadline)));
  sessions.set("shed_session_inflight",
               Json(static_cast<double>(r.stats.shed_session_inflight)));
  j.set("sessions", std::move(sessions));
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t workers = 4;
  std::size_t queue_capacity = 256;
  std::size_t pool_sessions = 24;
  std::size_t requests_per_mode = 240;
  double overload_window = 1.0;
  double deadline = 120.0;
  double p99_bound = 2.5;
  double admission_deadline = -1.0;  // < 0: derive from p99_bound below
  std::uint64_t seed = 42;
  std::string mode_arg = "all";
  std::string output = "BENCH_sessions.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--queue-capacity") == 0 &&
               i + 1 < argc) {
      queue_capacity =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      pool_sessions =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--requests-per-mode") == 0 &&
               i + 1 < argc) {
      requests_per_mode =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--overload-window") == 0 &&
               i + 1 < argc) {
      overload_window = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--deadline") == 0 && i + 1 < argc) {
      deadline = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--p99-bound") == 0 && i + 1 < argc) {
      p99_bound = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--admission-deadline") == 0 &&
               i + 1 < argc) {
      admission_deadline = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--mode") == 0 && i + 1 < argc) {
      mode_arg = argv[++i];
    } else if (std::strcmp(argv[i], "--output") == 0 && i + 1 < argc) {
      output = argv[++i];
    } else {
      std::fprintf(
          stderr,
          "usage: session_load [--workers N] [--queue-capacity C] "
          "[--sessions S] "
          "[--requests-per-mode R] [--overload-window SECONDS] "
          "[--mode all|steady,bursty,diurnal,overload] [--deadline SECONDS] "
          "[--p99-bound SECONDS] [--admission-deadline SECONDS] [--seed S] "
          "[--output PATH]\n");
      return 2;
    }
  }
  if (workers == 0) workers = 1;
  if (requests_per_mode == 0) requests_per_mode = 1;
  const auto mode_on = [&](const char* m) {
    return mode_arg == "all" || mode_arg.find(m) != std::string::npos;
  };

  const pkb::bench::Setup setup = pkb::bench::make_setup();
  pkb::bench::print_header("session serving (open-loop load + admission)",
                           setup);
  pkb::rag::AugmentedWorkflow workflow(*setup.db,
                                       pkb::rag::PipelineArm::RagRerank,
                                       setup.model, setup.retriever);
  res::ResilienceOptions ropts;
  ropts.request_deadline_seconds = deadline;
  ropts.seed = seed;
  res::Resilience engine(ropts);

  ServerOptions sopts;
  sopts.workers = 1;
  sopts.queue_capacity = queue_capacity;
  sopts.llm_latency_scale = kLlmLatencyScale;
  sopts.resilience = &engine;

  // --- Calibration: closed-loop mean turn time on one worker -> capacity
  // estimate. ---
  double mean_turn_seconds;
  {
    pkb::obs::global_metrics().reset();
    Server server(workflow, sopts);
    SessionManager manager(server);
    const std::size_t warm = 12;
    pkb::util::Stopwatch watch;
    for (std::size_t i = 0; i < warm; ++i) {
      const TurnOutcome out =
          manager.ask("cal" + std::to_string(i % 3), question_text(i));
      if (out.shed()) --i;  // calibration turns must all run
    }
    mean_turn_seconds = watch.seconds() / static_cast<double>(warm);
  }
  const double capacity_qps =
      static_cast<double>(workers) / mean_turn_seconds;
  std::printf("calibration: mean turn %.1f ms -> capacity estimate %.0f QPS "
              "(%zu workers)\n\n",
              mean_turn_seconds * 1e3, capacity_qps, workers);

  sopts.workers = workers;
  SessionOptions mopts;
  mopts.admission_deadline_seconds =
      admission_deadline < 0.0 ? p99_bound * 0.5 : admission_deadline;
  mopts.initial_turn_seconds_estimate = mean_turn_seconds;
  mopts.max_history_turns = 2;

  std::mt19937_64 rng(seed);
  SessionPicker picker(rng, pool_sessions);

  std::vector<ModeResult> results;
  if (mode_on("steady")) {
    results.push_back(run_mode(
        "steady", workflow, sopts, mopts,
        gen_steady(rng, picker, capacity_qps, requests_per_mode)));
    print_mode(results.back());
  }
  if (mode_on("bursty")) {
    results.push_back(run_mode(
        "bursty", workflow, sopts, mopts,
        gen_bursty(rng, picker, capacity_qps, requests_per_mode)));
    print_mode(results.back());
  }
  if (mode_on("diurnal")) {
    results.push_back(run_mode(
        "diurnal", workflow, sopts, mopts,
        gen_diurnal(rng, picker, capacity_qps, requests_per_mode)));
    print_mode(results.back());
  }
  const ModeResult* overload = nullptr;
  if (mode_on("overload")) {
    results.push_back(run_mode(
        "overload", workflow, sopts, mopts,
        gen_overload(rng, picker, capacity_qps, overload_window)));
    print_mode(results.back());
    overload = &results.back();
    for (std::size_t i = 0; i < overload->rungs.size(); ++i) {
      const RungResult& rr = overload->rungs[i];
      std::printf("    rung %.1fx: %4zu arrivals | shed %5.1f%% | "
                  "p99 %6.1f ms\n",
                  kOverloadMultipliers[i], rr.arrivals, rr.shed_rate * 100.0,
                  rr.p99 * 1e3);
    }
  }

  // --- Gates (evaluated when the overload ladder ran). ---
  double min_answered_rate = 1.0;
  std::size_t deadline_violations = 0;
  for (const ModeResult& r : results) {
    if (r.admitted > 0) {
      min_answered_rate = std::min(min_answered_rate, r.answered_rate);
    }
    if (r.budget_spent_max > deadline + 1e-9) ++deadline_violations;
  }
  int knee = -1;
  double knee_offered = 0.0, knee_shed = 0.0, knee_p99 = 0.0;
  bool monotone_shed = true;
  bool p99_bounded = true;
  if (overload != nullptr) {
    for (std::size_t i = 0; i < overload->rungs.size(); ++i) {
      const RungResult& rr = overload->rungs[i];
      if (knee < 0 && rr.shed_rate > kKneeShedRate) {
        knee = static_cast<int>(i);
        knee_offered = kOverloadMultipliers[i] * capacity_qps;
        knee_shed = rr.shed_rate;
        knee_p99 = rr.p99;
      }
      if (i > 0 && rr.shed_rate + kMonotoneTolerance <
                       overload->rungs[i - 1].shed_rate) {
        monotone_shed = false;
      }
      if (rr.admitted > 0 && rr.p99 > p99_bound) p99_bounded = false;
    }
  }
  const bool shed_before_collapse =
      overload == nullptr || (knee >= 0 && p99_bounded);
  const bool ok = min_answered_rate >= 0.99 && deadline_violations == 0 &&
                  shed_before_collapse && monotone_shed;

  if (overload != nullptr) {
    std::string knee_desc = "not reached";
    if (knee >= 0) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.0f QPS offered", knee_offered);
      knee_desc = buf;
    }
    std::printf("\nknee: %s | answered %.1f%% (gate >= 99%%) | deadline "
                "violations %zu | monotone shed %s | p99 bounded %s\n",
                knee_desc.c_str(), min_answered_rate * 100.0,
                deadline_violations, monotone_shed ? "yes" : "NO",
                p99_bounded ? "yes" : "NO");
  }

  using pkb::util::Json;
  Json config = Json::object();
  config.set("workers", Json(static_cast<double>(workers)));
  config.set("queue_capacity", Json(static_cast<double>(queue_capacity)));
  config.set("session_pool", Json(static_cast<double>(pool_sessions)));
  config.set("requests_per_mode",
             Json(static_cast<double>(requests_per_mode)));
  config.set("overload_window_seconds", Json(overload_window));
  config.set("deadline_seconds", Json(deadline));
  config.set("p99_bound_seconds", Json(p99_bound));
  config.set("admission_deadline_seconds",
             Json(mopts.admission_deadline_seconds));
  config.set("seed", Json(static_cast<double>(seed)));
  config.set("llm_latency_scale", Json(kLlmLatencyScale));
  config.set("capacity_qps_estimate", Json(capacity_qps));
  config.set("mean_turn_seconds", Json(mean_turn_seconds));

  Json modes = Json::array();
  for (const ModeResult& r : results) modes.push_back(mode_json(r));

  Json report = Json::object();
  report.set("config", std::move(config));
  report.set("modes", std::move(modes));
  if (overload != nullptr) {
    Json rungs = Json::array();
    for (std::size_t i = 0; i < overload->rungs.size(); ++i) {
      const RungResult& rr = overload->rungs[i];
      Json rj = Json::object();
      rj.set("multiplier", Json(kOverloadMultipliers[i]));
      rj.set("offered_qps", Json(kOverloadMultipliers[i] * capacity_qps));
      rj.set("arrivals", Json(static_cast<double>(rr.arrivals)));
      rj.set("admitted", Json(static_cast<double>(rr.admitted)));
      rj.set("shed", Json(static_cast<double>(rr.shed)));
      rj.set("shed_rate", Json(rr.shed_rate));
      rj.set("p99_seconds", Json(rr.p99));
      rungs.push_back(std::move(rj));
    }
    Json ov = Json::object();
    ov.set("rungs", std::move(rungs));
    ov.set("knee_offered_qps", Json(knee >= 0 ? knee_offered : 0.0));
    ov.set("knee_shed_rate", Json(knee >= 0 ? knee_shed : 0.0));
    ov.set("knee_p99_seconds", Json(knee >= 0 ? knee_p99 : 0.0));
    report.set("overload", std::move(ov));
  }
  Json gates = Json::object();
  gates.set("answered_rate", Json(min_answered_rate));
  gates.set("deadline_violations",
            Json(static_cast<double>(deadline_violations)));
  gates.set("shed_before_collapse", Json(shed_before_collapse));
  gates.set("monotone_shed", Json(monotone_shed));
  gates.set("ok", Json(ok));
  report.set("gates", std::move(gates));

  std::ofstream out(output);
  out << report.dump(2) << "\n";
  std::printf("wrote %s\n", output.c_str());
  if (!out.good()) return 1;
  if (!ok) {
    std::fprintf(stderr, "session_load: overload gate FAILED\n");
    return 1;
  }
  return 0;
}
