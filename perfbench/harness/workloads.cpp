#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <thread>
#include <unordered_map>

#include "corpus/questions.h"
#include "pipeline.h"
#include "serve/server.h"
#include "serve/session.h"

namespace pkb::perfbench {
namespace {

// --- fixed settings ----------------------------------------------------------

/// Set-ups per run (at least this many, and for at least kSetupSeconds);
/// setup_s is their median.
constexpr int kSetupRepeats = 3;
constexpr double kSetupSeconds = 1.0;
/// Workloads without a writer time one publish every kProbeIntervalSeconds
/// during their measured phase, into KBs adopting the base generation that
/// restart every kProbeRestartEvery publishes (fewer than the 47 that would
/// make a 188-chunk KB refit its embedder). Spreading them over the phase,
/// and timing the publishing thread's CPU rather than its wall time (which
/// waits for cores the saturated phase is using), keeps bursts of
/// interference on a shared machine from setting the median.
constexpr double kProbeIntervalSeconds = 0.1;
constexpr int kProbeRestartEvery = 40;
/// Answers checked against a serial ask: about one in kSampleEvery, at most
/// kSampleCap per phase.
constexpr std::uint64_t kSampleEvery = 16;
constexpr std::size_t kSampleCap = 96;
/// Request indices used for warm-up, disjoint from the measured stream.
constexpr std::uint64_t kWarmIndexBase = 1ULL << 40;
/// Answers of the first kCompareLimit requests are kept for comparing two
/// runs; storage is allocated up front so the harness's own memory does
/// not grow with throughput (peak_rss_mb is a system metric).
constexpr std::uint64_t kCompareLimit = 16384;
constexpr std::size_t kLatencyReserve = 1 << 17;
/// qps and latency_p99_ms are medians over the measured phase's windows of
/// this length: on a shared machine, stalls from other tenants come and go
/// within a run, and one bad stretch must not set a run's figure.
constexpr double kWindowSeconds = 1.0;

/// docs_qa: the bots' closed loop, one client per core.
constexpr std::size_t kDocsClients = 4;
constexpr std::size_t kDocsWorkers = 4;
/// live_ingest: three readers beside one writer.
constexpr std::size_t kIngestReaders = 3;
constexpr std::size_t kIngestWorkers = 3;
/// agent_sessions: the share of each turn's simulated LLM latency realized
/// as a real wait (SimLlm's 2-17 s become 1-8 ms), the turns per session
/// and the mean gap between a session's turns.
constexpr double kSessionLlmScale = 0.0005;
constexpr int kMinTurns = 3;
constexpr int kMaxTurns = 6;
constexpr double kTurnGapSeconds = 0.250;
constexpr std::uint64_t kSessionSampleEvery = 8;
constexpr std::size_t kSessionSampleCap = 16;
/// An open-loop run is invalid when the generator's p99 lateness exceeds
/// this: the generator, not the system, set the pace.
constexpr double kLateLimitSeconds = 0.010;

double warm_seconds(const RunOptions& o) {
  return std::min(1.0, 0.1 * o.seconds);
}
BuiltKb set_up(const KbConfig& cfg, const RunOptions& o, SetupSplit& split) {
  return o.tiny ? build_kb_repeated(cfg, 1, 0.0, split)
                : build_kb_repeated(cfg, kSetupRepeats, kSetupSeconds, split);
}
/// The traced mode splits its time over three phases: the untraced
/// production path, the untraced stage path and the traced stage path.
double phase_seconds(const RunOptions& o) {
  return o.trace ? o.seconds / 3.0 : o.seconds;
}

void mark_wrong(WorkloadResult& res, Accounting& acct, std::string what) {
  ++acct.wrong;
  if (acct.succeeded > 0) --acct.succeeded;
  res.problem(std::move(what));
}

// --- closed loop -------------------------------------------------------------

struct Sample {
  std::uint64_t index = 0;
  std::string question;
  rag::WorkflowOutcome outcome;
};

struct LoopResult {
  std::vector<double> latency;  ///< seconds per completed request
  std::vector<double> at;       ///< completion time of each, parallel
  /// By request index (first kCompareLimit requests; invalid = unanswered).
  std::vector<Fingerprint> answers;
  std::vector<Sample> samples;
  Accounting acct;
  double wall = 0.0;
  [[nodiscard]] std::uint64_t completed() const { return latency.size(); }
};

using RequestFn = std::function<rag::WorkflowOutcome(
    std::size_t client, std::uint64_t index, const std::string& question)>;

/// `clients` threads each send the next request of the seeded stream as soon
/// as their previous one returns, until `seconds` have passed. Request
/// indices start at `first_index`, so two runs see the same inputs.
LoopResult closed_loop(std::size_t clients, double seconds, std::uint64_t seed,
                       std::uint64_t first_index, bool keep_samples,
                       const RequestFn& fn) {
  std::atomic<std::uint64_t> next{first_index};
  std::vector<LoopResult> per(clients);
  LoopResult all;
  all.answers.resize(kCompareLimit);
  std::vector<double> finish(clients, 0.0);
  const double start = now_seconds();
  const double deadline = start + seconds;
  const std::size_t cap = std::max<std::size_t>(1, kSampleCap / clients);
  std::vector<std::thread> fleet;
  fleet.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    fleet.emplace_back([&, c] {
      LoopResult& r = per[c];
      r.latency.reserve(kLatencyReserve);
      r.at.reserve(kLatencyReserve);
      while (now_seconds() < deadline) {
        const std::uint64_t idx = next.fetch_add(1);
        const std::string q = stream_question(seed, idx);
        ++r.acct.attempted;
        try {
          const double t0 = now_seconds();
          rag::WorkflowOutcome out = fn(c, idx, q);
          const double t1 = now_seconds();
          r.latency.push_back(t1 - t0);
          r.at.push_back(t1);
          if (out.degraded()) {
            ++r.acct.degraded;
          } else {
            ++r.acct.succeeded;
          }
          if (idx - first_index < kCompareLimit) {
            all.answers[idx - first_index] = fingerprint(out);  // one writer
          }
          if (keep_samples && r.samples.size() < cap &&
              sampled(seed, idx, kSampleEvery)) {
            r.samples.push_back({idx, q, std::move(out)});
          }
        } catch (...) {
          ++r.acct.exceptions;
        }
      }
      finish[c] = now_seconds();
    });
  }
  for (std::thread& t : fleet) t.join();

  for (LoopResult& r : per) {
    all.latency.insert(all.latency.end(), r.latency.begin(), r.latency.end());
    all.at.insert(all.at.end(), r.at.begin(), r.at.end());
    for (Sample& s : r.samples) all.samples.push_back(std::move(s));
    all.acct.merge(r.acct);
  }
  all.wall = *std::max_element(finish.begin(), finish.end()) - start;
  return all;
}

/// Sampled answers against a serial AugmentedWorkflow::ask on the snapshot
/// each answer pinned.
void check_samples(Reference& ref, const std::vector<Sample>& samples,
                   Accounting& acct, WorkloadResult& res, const char* phase) {
  for (const Sample& s : samples) {
    const rag::AugmentedWorkflow& wf = ref.on(s.outcome.retrieval.snapshot);
    if (!(fingerprint(wf.ask(s.question)) == fingerprint(s.outcome))) {
      mark_wrong(res, acct,
                 std::string(phase) + ": request " + std::to_string(s.index) +
                     " differs from the serial answer");
    }
  }
  if (samples.empty()) {
    res.problem(std::string(phase) + ": no answer was sampled for checking");
  }
}

/// Answers of a second run against the first wherever both answered the
/// same request on the same generation. Returns how many were compared.
std::size_t compare_runs(const LoopResult& first, const LoopResult& second,
                         Accounting& acct, WorkloadResult& res,
                         const char* what) {
  std::size_t compared = 0;
  for (std::size_t idx = 0; idx < kCompareLimit; ++idx) {
    const Fingerprint& a = first.answers[idx];
    const Fingerprint& b = second.answers[idx];
    if (!a.valid || !b.valid || a.generation != b.generation) continue;
    ++compared;
    if (!(a == b)) {
      mark_wrong(res, acct,
                 std::string(what) + ": request " + std::to_string(idx) +
                     " answered differently");
    }
  }
  return compared;
}

void reconcile_server(const serve::Server::Stats& s, std::uint64_t attempted,
                      std::uint64_t degraded, WorkloadResult& res) {
  if (s.submitted != attempted) {
    res.problem("server submitted " + std::to_string(s.submitted) +
                " != attempted " + std::to_string(attempted));
  }
  if (s.computed + s.answer_cache.hits != s.submitted) {
    res.problem("server computed " + std::to_string(s.computed) +
                " + cache hits " + std::to_string(s.answer_cache.hits) +
                " != submitted " + std::to_string(s.submitted));
  }
  if (s.degraded != degraded) {
    res.problem("server degraded " + std::to_string(s.degraded) +
                " != observed " + std::to_string(degraded));
  }
}

// --- publishing --------------------------------------------------------------

struct Publishes {
  std::vector<double> seconds;  ///< time of each ingest_qa (see its producer)
  std::vector<double> swaps;    ///< Ingestor::swap_history
  double thread_cpu_seconds = 0.0;  ///< all CPU of the publishing thread
};

/// Run `phase` on the calling thread while another thread publishes
/// curated answers into KBs adopting `base` (the publish cost a workload
/// without a writer would pay, under its own load). Publish times are the
/// publishing thread's CPU seconds.
template <typename Fn>
Publishes publish_during(const rag::SnapshotPtr& base, std::uint64_t seed,
                         SpanBuffer* spans, WorkloadResult& res, Fn&& phase) {
  Publishes out;
  std::atomic<bool> stop{false};
  std::string error;
  std::thread prober([&] {
    const double cpu0 = thread_cpu_seconds();
    try {
      for (std::uint64_t n = 0; !stop.load();) {
        rag::KnowledgeBase kb(base);
        ingest::Ingestor ingestor(kb);
        for (int i = 0; i < kProbeRestartEvery && !stop.load(); ++i, ++n) {
          const double t0 = now_seconds();
          const double c0 = thread_cpu_seconds();
          in_span(spans, SpanKind::Publish, n, -1,
                  [&] { (void)ingest_curated(ingestor, seed, n); });
          out.seconds.push_back(thread_cpu_seconds() - c0);
          sleep_until_seconds(t0 + kProbeIntervalSeconds);
        }
        const std::vector<double> swaps = ingestor.swap_history();
        out.swaps.insert(out.swaps.end(), swaps.begin(), swaps.end());
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    out.thread_cpu_seconds = thread_cpu_seconds() - cpu0;
  });
  try {
    std::forward<Fn>(phase)();
  } catch (...) {
    stop.store(true);
    prober.join();
    throw;
  }
  stop.store(true);
  prober.join();
  if (!error.empty()) res.problem("publish probe failed: " + error);
  if (out.seconds.empty()) res.problem("publish probe timed nothing");
  return out;
}

// --- metrics -----------------------------------------------------------------

/// `values` grouped by equal windows of about kWindowSeconds spanning
/// [first, last] `at`; `width` receives the window length.
std::vector<std::vector<double>> by_window(const std::vector<double>& at,
                                           const std::vector<double>& values,
                                           double& width) {
  const auto [lo, hi] = std::minmax_element(at.begin(), at.end());
  const std::size_t count = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround((*hi - *lo) / kWindowSeconds)));
  width = (*hi - *lo) / static_cast<double>(count);
  std::vector<std::vector<double>> windows(count);
  for (std::size_t i = 0; i < at.size(); ++i) {
    const std::size_t w =
        width > 0.0 ? static_cast<std::size_t>((at[i] - *lo) / width) : 0;
    windows[std::min(w, count - 1)].push_back(values[i]);
  }
  return windows;
}

/// Median over the windows of each window's p99 latency.
double windowed_p99(const std::vector<double>& at,
                    const std::vector<double>& latency) {
  if (at.empty()) return 0.0;
  double width = 0.0;
  std::vector<double> p99s;
  for (const std::vector<double>& w : by_window(at, latency, width)) {
    if (!w.empty()) p99s.push_back(percentile(w, 99.0));
  }
  return median(p99s);
}

/// Median over the windows of completions per second (closed loops, where a
/// stall lowers the rate); the whole-phase rate when the phase is shorter
/// than one window.
double windowed_rate(const std::vector<double>& at, double phase_seconds) {
  if (at.empty()) return 0.0;
  double width = 0.0;
  std::vector<double> rates;
  for (const std::vector<double>& w : by_window(at, at, width)) {
    rates.push_back(static_cast<double>(w.size()) / width);
  }
  return width > 0.0 && rates.size() > 1
             ? median(rates)
             : static_cast<double>(at.size()) / phase_seconds;
}

/// `at` is when each of the phase's completed requests finished (or, for
/// turns, was due); `latency` is parallel to it.
void add_end_to_end(WorkloadResult& res, const SetupSplit& split, double qps,
                    const std::vector<double>& latency,
                    const std::vector<double>& at, double cpu_ms_per_req,
                    double publish_ms, double rss_mb) {
  const Accounting& a = res.accounting;
  const double ok = a.attempted == 0
                        ? 0.0
                        : static_cast<double>(a.attempted - a.failed()) /
                              static_cast<double>(a.attempted);
  res.add("setup_s", median(split.total), "s");
  res.add("qps", qps, "1/s");
  res.add("latency_p50_ms", percentile(latency, 50.0) * 1e3, "ms");
  res.add("latency_p99_ms", windowed_p99(at, latency) * 1e3, "ms");
  res.add("cpu_ms_per_req", cpu_ms_per_req, "ms");
  res.add("ok_ratio", ok, "ratio");
  res.add("publish_p50_ms", publish_ms, "ms");
  res.add("peak_rss_mb", rss_mb, "MiB");
}

/// Per-layer figures that do not come from spans; 0 where a workload has no
/// such layer (e.g. session figures on docs_qa).
struct LayerExtras {
  double serve_overhead_ms = 0.0;
  double trace_overhead_pct = 0.0;
  double lane_wait_p50_ms = 0.0;
  double lane_wait_p99_ms = 0.0;
  double shed_ratio = 0.0;
  double shed_session_inflight = 0.0;
  double shed_queue_full = 0.0;
  double shed_new_session = 0.0;
  double shed_deadline = 0.0;
  double dedup_ratio = 0.0;
  double late_p99_ms = 0.0;
  std::vector<double> swaps;
};

double mean_ms(const LayerSummary& l, SpanKind k) { return mean(l.self(k)) * 1e3; }

void add_per_layer(WorkloadResult& res, const LayerSummary& l,
                   const LayerExtras& x, const SetupSplit& split) {
  res.add("embed.ms", mean_ms(l, SpanKind::Embed), "ms");
  res.add("vectordb.search_ms", mean_ms(l, SpanKind::Search), "ms");
  res.add("lexical.augment_ms", mean_ms(l, SpanKind::Augment), "ms");
  res.add("rerank.ms", mean_ms(l, SpanKind::Rerank), "ms");
  res.add("rerank.p99_ms", percentile(l.self(SpanKind::Rerank), 99.0) * 1e3,
          "ms");
  res.add("prompt.ms", mean_ms(l, SpanKind::Prompt), "ms");
  res.add("llm.generate_ms", mean_ms(l, SpanKind::Generate), "ms");
  res.add("post.ms", mean_ms(l, SpanKind::Post), "ms");
  res.add("llm.stall_ms", mean_ms(l, SpanKind::LlmStall), "ms");
  res.add("serve.overhead_ms", x.serve_overhead_ms, "ms");
  res.add("trace.overhead_pct", x.trace_overhead_pct, "%");
  res.add("session.lane_wait_p50_ms", x.lane_wait_p50_ms, "ms");
  res.add("session.lane_wait_p99_ms", x.lane_wait_p99_ms, "ms");
  res.add("session.shed_ratio", x.shed_ratio, "ratio");
  res.add("session.shed_ratio.session_inflight", x.shed_session_inflight,
          "ratio");
  res.add("session.shed_ratio.queue_full", x.shed_queue_full, "ratio");
  res.add("session.shed_ratio.new_session", x.shed_new_session, "ratio");
  res.add("session.shed_ratio.deadline", x.shed_deadline, "ratio");
  res.add("session.dedup_ratio", x.dedup_ratio, "ratio");
  res.add("loadgen.late_p99_ms", x.late_p99_ms, "ms");
  res.add("ingest.publish_ms", median(l.self(SpanKind::Publish)) * 1e3, "ms");
  res.add("ingest.swap_us", median(x.swaps) * 1e6, "us");
  res.add("vectordb.index_build_ms", median(split.index) * 1e3, "ms");
  res.add("corpus.generate_s", median(split.corpus), "s");
  res.add("kb.build_s", median(split.kb), "s");
  for (SpanKind k : {SpanKind::Embed, SpanKind::Search, SpanKind::Augment,
                     SpanKind::Rerank, SpanKind::Prompt, SpanKind::Generate,
                     SpanKind::Post, SpanKind::Publish}) {
    const std::string name = span_name(k);
    res.add(name + ".calls", static_cast<double>(l.calls(k)), "count");
    res.add(name + ".failures", static_cast<double>(l.failed(k)), "count");
  }
}

/// Mean per-request time inside the six stages (and the LLM stall) of a
/// traced phase.
double stage_sum_per_request(const LayerSummary& l) {
  const std::uint64_t requests = l.calls(SpanKind::Request);
  if (requests == 0) return 0.0;
  double sum = 0.0;
  for (SpanKind k : {SpanKind::Embed, SpanKind::Search, SpanKind::Augment,
                     SpanKind::Rerank, SpanKind::Prompt, SpanKind::Generate,
                     SpanKind::Post, SpanKind::LlmStall}) {
    for (double s : l.self(k)) sum += s;
  }
  return sum / static_cast<double>(requests);
}

/// The traced split of one untraced request: stage self times plus the
/// serve overhead make up the untraced mean latency.
void note_split(WorkloadResult& res, double untraced_mean_s,
                const LayerSummary& l) {
  const double stages = stage_sum_per_request(l);
  const std::uint64_t requests = std::max<std::uint64_t>(
      1, l.calls(SpanKind::Request));
  double heavy = 0.0;
  for (SpanKind k : {SpanKind::Rerank, SpanKind::Generate}) {
    for (double s : l.self(k)) heavy += s;
  }
  heavy /= static_cast<double>(requests);
  char line[256];
  std::snprintf(line, sizeof line,
                "split: untraced mean latency %.4f ms = traced stages %.4f ms "
                "(rerank + generate %.1f%% of stages) + serve overhead "
                "%.4f ms",
                untraced_mean_s * 1e3, stages * 1e3,
                stages > 0.0 ? heavy / stages * 100.0 : 0.0,
                (untraced_mean_s - stages) * 1e3);
  res.notes.emplace_back(line);
}

void write_trace(const RunOptions& o, const std::vector<const SpanBuffer*>& bufs,
                 WorkloadResult& res) {
  if (o.span_path.empty()) return;
  if (!write_spans(o.span_path, bufs)) {
    res.problem("could not write spans to " + o.span_path);
  }
}

std::vector<const SpanBuffer*> pointers(const std::vector<SpanBuffer>& bufs) {
  std::vector<const SpanBuffer*> out;
  for (const SpanBuffer& b : bufs) out.push_back(&b);
  return out;
}

// --- agent sessions ------------------------------------------------------------

struct Turn {
  double due = 0.0;  ///< seconds after the schedule's start
  std::string session;
  std::string question;
};

double exponential(std::uint64_t h, double mean_value) {
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  return -std::log1p(-u) * mean_value;
}

/// Poisson session arrivals at rate / E[turns]; each session sends
/// kMinTurns..kMaxTurns turns with exponential gaps. Consecutive turn pairs
/// ask about the same Krylov question, so the retrieval memory has repeats.
/// The first rate x seconds turns are kept and the time axis is stretched
/// so the next turn would fall at `seconds`: every seed offers exactly the
/// same number of turns in the same window.
std::vector<Turn> session_schedule(std::uint64_t seed, double rate,
                                   double seconds, const std::string& tag) {
  const auto& qs = corpus::krylov_benchmark();
  const double mean_turns = 0.5 * (kMinTurns + kMaxTurns);
  const double session_gap = mean_turns / rate;
  const double horizon = 2.0 * seconds + 1.0;
  const std::size_t count =
      std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
  std::vector<Turn> turns;
  std::uint64_t h = mix(seed ^ mix(std::hash<std::string>{}(tag)));
  double t = 0.0;
  for (std::uint64_t s = 0;; ++s) {
    t += exponential(h = mix(h), session_gap);
    if (t >= horizon) break;
    const std::string id = tag + "-" + std::to_string(seed) + "-" +
                           std::to_string(s);
    const int n = kMinTurns + static_cast<int>((h = mix(h)) %
                                               (kMaxTurns - kMinTurns + 1));
    const std::uint64_t topic = (h = mix(h)) % qs.size();
    double due = t;
    for (int k = 1; k <= n; ++k) {
      const auto& q = qs[(topic + static_cast<std::uint64_t>(k - 1) / 2) %
                         qs.size()];
      turns.push_back({due, id,
                       "[" + id + " turn " + std::to_string(k) + "] " +
                           q.question});
      due += exponential(h = mix(h), kTurnGapSeconds);
    }
  }
  std::stable_sort(turns.begin(), turns.end(),
                   [](const Turn& a, const Turn& b) { return a.due < b.due; });
  if (turns.size() > count) {
    const double stretch = seconds / turns[count].due;
    turns.resize(count);
    for (Turn& turn : turns) turn.due *= stretch;
  }
  return turns;
}

struct SessionRun {
  std::vector<double> latency;   ///< from each turn's due time
  std::vector<double> at;        ///< each turn's due time, parallel
  std::vector<double> service;   ///< without the lane wait
  std::vector<double> late;      ///< generator lateness per send
  std::vector<double> lane_wait;
  std::vector<Fingerprint> answers;  ///< parallel to the schedule
  std::vector<char> shed;            ///< parallel to the schedule
  std::uint64_t deduped = 0;
  std::uint64_t contexts = 0;
  Accounting acct;
  double wall = 0.0;
  [[nodiscard]] std::uint64_t completed() const { return latency.size(); }
};

/// Open loop through SessionManager::submit: each turn is sent at its due
/// time whatever the state of earlier turns.
SessionRun drive_manager(serve::SessionManager& mgr,
                         const std::vector<Turn>& sched) {
  SessionRun run;
  run.answers.resize(sched.size());
  run.shed.assign(sched.size(), 0);
  std::vector<std::future<serve::TurnOutcome>> futures;
  std::vector<double> sent;
  futures.reserve(sched.size());
  sent.reserve(sched.size());
  const double start = now_seconds() + 0.005;
  for (const Turn& turn : sched) {
    const double due = start + turn.due;
    sleep_until_seconds(due);
    const double now = now_seconds();
    sent.push_back(now);
    run.late.push_back(now - due);
    futures.push_back(mgr.submit(turn.session, turn.question));
  }
  double finish = start;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    ++run.acct.attempted;
    try {
      const serve::TurnOutcome t = futures[i].get();
      if (t.shed()) {
        ++run.acct.shed;
        run.shed[i] = 1;
        continue;
      }
      const double done = sent[i] + t.turn_seconds;
      finish = std::max(finish, done);
      run.latency.push_back(done - (start + sched[i].due));
      run.at.push_back(sched[i].due);
      run.service.push_back(t.turn_seconds - t.queue_wait_seconds);
      run.lane_wait.push_back(t.queue_wait_seconds);
      run.answers[i] = fingerprint(t.outcome);
      run.deduped += t.deduped_contexts;
      run.contexts += t.outcome.retrieval.contexts.size();
      if (t.outcome.degraded()) {
        ++run.acct.degraded;
      } else {
        ++run.acct.succeeded;
      }
    } catch (...) {
      ++run.acct.exceptions;
    }
  }
  run.wall = finish - start;
  return run;
}

/// The same schedule through run_stages(): one thread per lane takes its
/// sessions' turns in due order, keeping each session's state in a
/// SessionReplica, and realizes the LLM latency as the server does.
SessionRun drive_replica(const rag::AugmentedWorkflow& wf,
                         const std::vector<Turn>& sched,
                         const std::vector<std::size_t>& lane_of,
                         std::size_t lanes, std::vector<SpanBuffer>* spans) {
  struct LaneOut {
    std::vector<double> latency, service;
    Accounting acct;
    double finish = 0.0;
    std::uint64_t deduped = 0, contexts = 0;
  };
  SessionRun run;
  run.answers.resize(sched.size());
  run.shed.assign(sched.size(), 0);
  std::vector<LaneOut> outs(lanes);
  const double start = now_seconds() + 0.005;
  std::vector<std::thread> threads;
  for (std::size_t l = 0; l < lanes; ++l) {
    threads.emplace_back([&, l] {
      LaneOut& out = outs[l];
      SpanBuffer* buf = spans != nullptr ? &(*spans)[l] : nullptr;
      std::unordered_map<std::string, SessionReplica> replicas;
      for (std::size_t i = 0; i < sched.size(); ++i) {
        if (lane_of[i] != l) continue;
        const Turn& turn = sched[i];
        const double due = start + turn.due;
        sleep_until_seconds(due);
        ++out.acct.attempted;
        try {
          SessionReplica& replica =
              replicas.try_emplace(turn.session, turn.session).first->second;
          const double t0 = now_seconds();
          std::size_t deduped = 0;
          const rag::WorkflowOutcome o = replica.turn(
              turn.question, [&](rag::SessionPromptContext& ctx) {
                rag::WorkflowOutcome r = run_stages(
                    wf, turn.question, buf, i, &ctx, kSessionLlmScale);
                deduped = ctx.deduped;
                return r;
              });
          const double done = now_seconds();
          out.latency.push_back(done - due);
          out.service.push_back(done - t0);
          out.finish = std::max(out.finish, done);
          out.deduped += deduped;
          out.contexts += o.retrieval.contexts.size();
          run.answers[i] = fingerprint(o);  // each index written by one lane
          ++out.acct.succeeded;
        } catch (...) {
          ++out.acct.exceptions;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  double finish = start;
  for (LaneOut& out : outs) {
    run.latency.insert(run.latency.end(), out.latency.begin(),
                       out.latency.end());
    run.service.insert(run.service.end(), out.service.begin(),
                       out.service.end());
    run.acct.merge(out.acct);
    run.deduped += out.deduped;
    run.contexts += out.contexts;
    finish = std::max(finish, out.finish);
  }
  run.wall = finish - start;
  return run;
}

/// Session ids in schedule order with the indices of their turns.
std::map<std::string, std::vector<std::size_t>> turns_by_session(
    const std::vector<Turn>& sched) {
  std::map<std::string, std::vector<std::size_t>> out;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    out[sched[i].session].push_back(i);
  }
  return out;
}

bool any_shed(const SessionRun& run, const std::vector<std::size_t>& idx) {
  return std::any_of(idx.begin(), idx.end(),
                     [&](std::size_t i) { return run.shed[i] != 0; });
}

/// A seeded sample of sessions replayed turn by turn through a serial
/// AugmentedWorkflow::ask with the same session hooks.
void check_sessions(const rag::AugmentedWorkflow& ref,
                    const std::vector<Turn>& sched, const SessionRun& run,
                    std::uint64_t seed, Accounting& acct,
                    WorkloadResult& res) {
  std::size_t checked = 0;
  for (const auto& [id, idx] : turns_by_session(sched)) {
    if (checked >= kSessionSampleCap) break;
    if (!sampled(seed, std::hash<std::string>{}(id), kSessionSampleEvery) ||
        any_shed(run, idx)) {
      continue;
    }
    ++checked;
    SessionReplica replica(id);
    for (std::size_t i : idx) {
      const std::string& q = sched[i].question;
      const rag::WorkflowOutcome o =
          replica.turn(q, [&](rag::SessionPromptContext& ctx) {
            return ref.ask(q, nullptr, nullptr, &ctx);
          });
      if (!(fingerprint(o) == run.answers[i])) {
        mark_wrong(res, acct,
                   "agent_sessions: " + id + " turn " + std::to_string(i) +
                       " differs from the serial answer");
      }
    }
  }
  if (checked == 0) res.problem("agent_sessions: no session was sampled");
}

/// Replica answers against the manager's, for sessions the manager served
/// in full.
void compare_sessions(const std::vector<Turn>& sched, const SessionRun& first,
                      const SessionRun& second, Accounting& acct,
                      WorkloadResult& res, const char* what) {
  for (const auto& [id, idx] : turns_by_session(sched)) {
    if (any_shed(first, idx)) continue;
    for (std::size_t i : idx) {
      if (second.answers[i].valid && !(first.answers[i] == second.answers[i])) {
        mark_wrong(res, acct,
                   std::string(what) + ": " + id + " turn " +
                       std::to_string(i) + " answered differently");
      }
    }
  }
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

// --- live ingest -----------------------------------------------------------------

struct IngestPhase {
  LoopResult reads;
  /// Writer-thread CPU seconds of each publish done inside the window.
  std::vector<double> publish_seconds;
  std::vector<double> swaps;
  double read_cpu_seconds = 0.0;  ///< process CPU minus the writer thread's
  double rss_mb = 0.0;
};

enum class ReadPath { Server, Stages, TracedStages };

/// One live_ingest phase on a fresh KnowledgeBase adopting `base`, so every
/// phase publishes the same generation sequence: readers warm up, then
/// read for `seconds` while the writer publishes curated answers back to
/// back. The post-publish reranker refit and the index rebuild stay inside
/// the window. A publish runs on the writer thread alone, so its time is
/// that thread's CPU: its wall time also counts waits for cores the readers
/// hold, which swung by a quarter between runs on a shared machine.
IngestPhase ingest_phase(const rag::SnapshotPtr& base, const RunOptions& o,
                         ReadPath path, std::vector<SpanBuffer>* reader_spans,
                         SpanBuffer* writer_spans, WorkloadResult& res) {
  rag::KnowledgeBase kb(base);
  const std::unique_ptr<rag::AugmentedWorkflow> wf = headline_workflow(kb);
  ingest::Ingestor ingestor(kb);
  std::optional<serve::Server> server;
  if (path == ReadPath::Server) {
    serve::ServerOptions so;
    so.workers = kIngestWorkers;
    server.emplace(*wf, so);
  }
  const RequestFn read = [&](std::size_t c, std::uint64_t idx,
                             const std::string& q) {
    if (server) return server->ask(q);
    SpanBuffer* buf = path == ReadPath::TracedStages ? &(*reader_spans)[c]
                                                      : nullptr;
    return run_stages(*wf, q, buf, idx);
  };
  const LoopResult warm = closed_loop(kIngestReaders, warm_seconds(o), o.seed,
                                      kWarmIndexBase, false, read);

  IngestPhase phase;
  std::atomic<bool> stop{false};
  double writer_cpu = 0.0;
  std::string writer_error;
  const double seconds = phase_seconds(o);
  const double cpu0 = process_cpu_seconds();
  const double deadline = now_seconds() + seconds;
  std::thread writer([&] {
    const double c0 = thread_cpu_seconds();
    try {
      for (std::uint64_t n = 0; !stop.load(); ++n) {
        const double cpu_before = thread_cpu_seconds();
        in_span(writer_spans, SpanKind::Publish, n, -1,
                [&] { (void)ingest_curated(ingestor, o.seed, n); });
        const double cpu = thread_cpu_seconds() - cpu_before;
        if (now_seconds() <= deadline) phase.publish_seconds.push_back(cpu);
      }
    } catch (const std::exception& e) {
      writer_error = e.what();
    }
    writer_cpu = thread_cpu_seconds() - c0;
  });
  phase.reads = closed_loop(kIngestReaders, seconds, o.seed, 0, true, read);
  stop.store(true);
  writer.join();
  phase.read_cpu_seconds = process_cpu_seconds() - cpu0 - writer_cpu;
  phase.rss_mb = peak_rss_mb();
  phase.swaps = ingestor.swap_history();
  if (!writer_error.empty()) res.problem("writer failed: " + writer_error);
  if (server) {
    server->stop();
    reconcile_server(server->stats(),
                     warm.acct.attempted + phase.reads.acct.attempted,
                     warm.acct.degraded + phase.reads.acct.degraded, res);
  }
  if (warm.acct.exceptions > 0) res.problem("live_ingest: warm-up failed");
  return phase;
}

}  // namespace

// --- docs_qa -------------------------------------------------------------------

WorkloadResult run_docs_qa(const RunOptions& o) {
  WorkloadResult res;
  SetupSplit split;
  const BuiltKb built = set_up(KbConfig{}, o, split);
  const rag::SnapshotPtr base = built.kb->snapshot();
  const std::unique_ptr<rag::AugmentedWorkflow> wf =
      headline_workflow(*built.kb);
  Reference ref;
  const double seconds = phase_seconds(o);

  serve::ServerOptions so;
  so.workers = kDocsWorkers;
  so.llm_latency_scale = 0.0;  // CPU only; default caches
  serve::Server server(*wf, so);
  const RequestFn via_server = [&](std::size_t, std::uint64_t,
                                   const std::string& q) {
    return server.ask(q);
  };
  const LoopResult warm = closed_loop(kDocsClients, warm_seconds(o), o.seed,
                                      kWarmIndexBase, false, via_server);
  SpanBuffer publish_spans;
  LoopResult run;
  const double cpu0 = process_cpu_seconds();
  const Publishes probe = publish_during(
      base, o.seed, o.trace ? &publish_spans : nullptr, res, [&] {
        run = closed_loop(kDocsClients, seconds, o.seed, 0, true, via_server);
      });
  const double cpu = process_cpu_seconds() - cpu0 - probe.thread_cpu_seconds;
  const double rss = peak_rss_mb();
  server.stop();
  reconcile_server(server.stats(), warm.acct.attempted + run.acct.attempted,
                   warm.acct.degraded + run.acct.degraded, res);
  if (warm.acct.exceptions > 0) res.problem("docs_qa: warm-up failed");
  res.accounting = run.acct;
  check_samples(ref, run.samples, res.accounting, res, "docs_qa");

  if (!o.trace) {
    const double completed = static_cast<double>(run.completed());
    add_end_to_end(res, split, windowed_rate(run.at, run.wall), run.latency,
                   run.at, cpu * 1e3 / completed,
                   median(probe.seconds) * 1e3, rss);
    return res;
  }

  const RequestFn direct = [&](std::size_t, std::uint64_t idx,
                               const std::string& q) {
    return run_stages(*wf, q, nullptr, idx);
  };
  (void)closed_loop(kDocsClients, warm_seconds(o), o.seed, kWarmIndexBase,
                    false, direct);
  LoopResult plain = closed_loop(kDocsClients, seconds, o.seed, 0, false,
                                 direct);
  std::vector<SpanBuffer> bufs(kDocsClients);
  const RequestFn traced_fn = [&](std::size_t c, std::uint64_t idx,
                                  const std::string& q) {
    return run_stages(*wf, q, &bufs[c], idx);
  };
  LoopResult traced = closed_loop(kDocsClients, seconds, o.seed, 0, false,
                                  traced_fn);
  Accounting extra = plain.acct;
  extra.merge(traced.acct);
  if (compare_runs(run, plain, extra, res, "docs_qa stages") == 0 ||
      compare_runs(run, traced, extra, res, "docs_qa traced") == 0) {
    res.problem("docs_qa: no request answered by both runs");
  }
  std::vector<const SpanBuffer*> all = pointers(bufs);
  all.push_back(&publish_spans);
  const LayerSummary layers = summarize(all);
  LayerExtras x;
  x.serve_overhead_ms =
      (mean(run.latency) - stage_sum_per_request(layers)) * 1e3;
  note_split(res, mean(run.latency), layers);
  x.trace_overhead_pct =
      (mean(traced.latency) / mean(plain.latency) - 1.0) * 100.0;
  x.swaps = probe.swaps;
  res.accounting.merge(extra);
  add_per_layer(res, layers, x, split);
  write_trace(o, all, res);
  return res;
}

// --- agent_sessions ----------------------------------------------------------------

WorkloadResult run_agent_sessions(const RunOptions& o) {
  WorkloadResult res;
  if (o.session_rate <= 0.0) {
    res.problem("agent_sessions needs a positive --session-rate");
    return res;
  }
  SetupSplit split;
  const BuiltKb built = set_up(KbConfig{}, o, split);
  const rag::SnapshotPtr base = built.kb->snapshot();
  const std::unique_ptr<rag::AugmentedWorkflow> wf =
      headline_workflow(*built.kb);
  Reference ref;

  serve::ServerOptions so;
  so.llm_latency_scale = kSessionLlmScale;
  serve::Server server(*wf, so);
  serve::SessionManager mgr(server);  // 4 lanes, default admission
  const std::vector<Turn> warm_sched =
      session_schedule(o.seed, o.session_rate, warm_seconds(o), "warm");
  const SessionRun warm = drive_manager(mgr, warm_sched);
  const std::vector<Turn> sched =
      session_schedule(o.seed, o.session_rate, phase_seconds(o), "agent");
  const serve::SessionManager::Stats before = mgr.stats();
  SpanBuffer publish_spans;
  SessionRun run;
  const double cpu0 = process_cpu_seconds();
  const Publishes probe = publish_during(
      base, o.seed, o.trace ? &publish_spans : nullptr, res,
      [&] { run = drive_manager(mgr, sched); });
  const double cpu = process_cpu_seconds() - cpu0 - probe.thread_cpu_seconds;
  const double rss = peak_rss_mb();
  mgr.stop();
  const serve::SessionManager::Stats st = mgr.stats();
  std::vector<std::size_t> lane_of;
  for (const Turn& t : sched) lane_of.push_back(mgr.lane_of(t.session));

  const std::uint64_t attempted = warm.acct.attempted + run.acct.attempted;
  if (st.submitted != attempted) {
    res.problem("sessions submitted " + std::to_string(st.submitted) +
                " != attempted " + std::to_string(attempted));
  }
  if (st.submitted != st.admitted + st.shed) {
    res.problem("sessions submitted != admitted + shed");
  }
  if (st.admitted != st.completed) {
    res.problem("sessions admitted " + std::to_string(st.admitted) +
                " != completed " + std::to_string(st.completed) +
                " at quiescence");
  }
  if (st.shed != warm.acct.shed + run.acct.shed) {
    res.problem("sessions shed count disagrees with the turns seen shed");
  }
  if (warm.acct.exceptions > 0) res.problem("agent_sessions: warm-up failed");
  const double late_p99 = percentile(run.late, 99.0);
  if (late_p99 > kLateLimitSeconds) {
    res.invalid = true;
    res.problem("load generator ran " + std::to_string(late_p99 * 1e3) +
                " ms late at p99: the generator set the pace");
  }
  res.accounting = run.acct;
  check_sessions(ref.on(base), sched, run, o.seed, res.accounting, res);

  if (!o.trace) {
    const double completed = static_cast<double>(run.completed());
    // Open loop: completions follow the schedule, so the whole-phase rate.
    add_end_to_end(res, split, completed / run.wall, run.latency, run.at,
                   cpu * 1e3 / std::max(1.0, completed),
                   median(probe.seconds) * 1e3, rss);
    return res;
  }

  const std::size_t lanes = mgr.options().lanes;
  const SessionRun plain = drive_replica(*wf, sched, lane_of, lanes, nullptr);
  std::vector<SpanBuffer> bufs(lanes);
  const SessionRun traced = drive_replica(*wf, sched, lane_of, lanes, &bufs);
  Accounting extra = plain.acct;
  extra.merge(traced.acct);
  compare_sessions(sched, run, plain, extra, res, "agent_sessions stages");
  compare_sessions(sched, run, traced, extra, res, "agent_sessions traced");
  std::vector<const SpanBuffer*> all = pointers(bufs);
  all.push_back(&publish_spans);
  const LayerSummary layers = summarize(all);
  LayerExtras x;
  x.serve_overhead_ms =
      (mean(run.latency) - stage_sum_per_request(layers)) * 1e3;
  note_split(res, mean(run.latency), layers);
  x.trace_overhead_pct =
      (mean(traced.service) / mean(plain.service) - 1.0) * 100.0;
  x.lane_wait_p50_ms = percentile(run.lane_wait, 50.0) * 1e3;
  x.lane_wait_p99_ms = percentile(run.lane_wait, 99.0) * 1e3;
  // Shed ratios of the measured phase alone (the stats are cumulative).
  const std::uint64_t submitted = st.submitted - before.submitted;
  x.shed_ratio = ratio(st.shed - before.shed, submitted);
  x.shed_session_inflight = ratio(
      st.shed_session_inflight - before.shed_session_inflight, submitted);
  x.shed_queue_full =
      ratio(st.shed_queue_full - before.shed_queue_full, submitted);
  x.shed_new_session =
      ratio(st.shed_new_session - before.shed_new_session, submitted);
  x.shed_deadline = ratio(st.shed_deadline - before.shed_deadline, submitted);
  x.dedup_ratio = ratio(run.deduped, run.contexts);
  x.late_p99_ms = late_p99 * 1e3;
  x.swaps = probe.swaps;
  res.accounting.merge(extra);
  add_per_layer(res, layers, x, split);
  write_trace(o, all, res);
  return res;
}

// --- live_ingest -----------------------------------------------------------------

WorkloadResult run_live_ingest(const RunOptions& o) {
  WorkloadResult res;
  SetupSplit split;
  KbConfig cfg;
  cfg.mailing_list_archive = true;
  if (o.tiny) cfg.archive_threads = 60;
  cfg.hnsw = true;
  rag::SnapshotPtr base;
  {
    const BuiltKb built = set_up(cfg, o, split);
    base = built.kb->snapshot();
  }
  Reference ref;

  IngestPhase run =
      ingest_phase(base, o, ReadPath::Server, nullptr, nullptr, res);
  res.accounting = run.reads.acct;
  check_samples(ref, run.reads.samples, res.accounting, res, "live_ingest");
  if (run.publish_seconds.empty()) {
    res.problem("live_ingest: no publish finished inside the window");
  }

  if (!o.trace) {
    const double completed = static_cast<double>(run.reads.completed());
    add_end_to_end(res, split, windowed_rate(run.reads.at, run.reads.wall),
                   run.reads.latency, run.reads.at, run.read_cpu_seconds * 1e3 / completed,
                   median(run.publish_seconds) * 1e3, run.rss_mb);
    return res;
  }

  IngestPhase plain =
      ingest_phase(base, o, ReadPath::Stages, nullptr, nullptr, res);
  std::vector<SpanBuffer> bufs(kIngestReaders);
  SpanBuffer writer_spans;
  IngestPhase traced = ingest_phase(base, o, ReadPath::TracedStages, &bufs,
                                    &writer_spans, res);
  Accounting extra = plain.reads.acct;
  extra.merge(traced.reads.acct);
  check_samples(ref, traced.reads.samples, extra, res, "live_ingest traced");
  (void)compare_runs(run.reads, plain.reads, extra, res,
                     "live_ingest stages");
  (void)compare_runs(run.reads, traced.reads, extra, res,
                     "live_ingest traced");
  std::vector<const SpanBuffer*> all = pointers(bufs);
  all.push_back(&writer_spans);
  const LayerSummary layers = summarize(all);
  LayerExtras x;
  x.serve_overhead_ms =
      (mean(run.reads.latency) - stage_sum_per_request(layers)) * 1e3;
  note_split(res, mean(run.reads.latency), layers);
  x.trace_overhead_pct =
      (mean(traced.reads.latency) / mean(plain.reads.latency) - 1.0) * 100.0;
  x.swaps = traced.swaps;
  res.accounting.merge(extra);
  add_per_layer(res, layers, x, split);
  write_trace(o, all, res);
  return res;
}

}  // namespace pkb::perfbench
