#pragma once
// Shared plumbing of the benchmark harness: run options, the result line,
// failure accounting, clocks, percentiles and answer fingerprints.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rag/workflow.h"

namespace pkb::perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// agent_sessions offered load, turns per second (from BENCHMARK.json).
  double session_rate = 0.0;
  /// Small corpus and short phases: the self-check size.
  bool tiny = false;
  /// Where the traced run writes its spans ("" = do not write).
  std::string span_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-workload failure accounting. A request is attempted once; it ends
/// succeeded, shed, degraded, wrong, or with an exception.
struct Accounting {
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t shed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t wrong = 0;
  std::uint64_t exceptions = 0;
  [[nodiscard]] std::uint64_t failed() const {
    return shed + degraded + wrong + exceptions;
  }
  void merge(const Accounting& o);
};

/// What a workload hands back to main(): the metrics for the mode it ran,
/// the accounting, and every correctness / reconciliation problem found.
struct WorkloadResult {
  std::vector<Metric> metrics;
  Accounting accounting;
  std::vector<std::string> problems;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;
  /// The run was paced by the load generator, not by the system.
  bool invalid = false;
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void problem(std::string what) { problems.push_back(std::move(what)); }
};

// --- clocks and resources --------------------------------------------------

/// steady_clock seconds.
[[nodiscard]] double now_seconds();
/// Process user + system CPU seconds.
[[nodiscard]] double process_cpu_seconds();
/// Calling thread's CPU seconds.
[[nodiscard]] double thread_cpu_seconds();
/// Peak resident set size of the process so far, MiB.
[[nodiscard]] double peak_rss_mb();
/// Sleep until the steady_seconds() instant `t` (no-op when past).
void sleep_until_seconds(double t);

// --- statistics ------------------------------------------------------------

/// Nearest-rank percentile (q in [0, 100]) of `xs`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> xs, double q);
[[nodiscard]] double median(std::vector<double> xs);
[[nodiscard]] double mean(const std::vector<double>& xs);

// --- inputs ----------------------------------------------------------------

/// SplitMix64: the seeded hash every generated input derives from.
[[nodiscard]] std::uint64_t mix(std::uint64_t x);

/// Request `index` of a sessionless question stream: the 37 Krylov
/// benchmark questions in a seeded order, each made unique by a variant
/// prefix.
[[nodiscard]] std::string stream_question(std::uint64_t seed,
                                          std::uint64_t index);

/// Deterministic sample membership (about one index in `every`).
[[nodiscard]] bool sampled(std::uint64_t seed, std::uint64_t index,
                           std::uint64_t every);

// --- answers ---------------------------------------------------------------

/// What the correctness checks compare: response text, final context ids
/// and the generation the answer was computed against.
struct Fingerprint {
  std::uint64_t text = 0;
  std::uint64_t contexts = 0;
  std::uint64_t generation = 0;
  bool valid = false;
  bool operator==(const Fingerprint& o) const {
    return text == o.text && contexts == o.contexts &&
           generation == o.generation && valid == o.valid;
  }
};
[[nodiscard]] Fingerprint fingerprint(const rag::WorkflowOutcome& outcome);

}  // namespace pkb::perfbench
