#pragma once
// Streaming summary statistics (count/sum/mean/percentiles).
//
// Used by the benches for their latency percentiles and by the evaluation
// aggregates. These are single-run, single-thread accumulators; the
// cross-request, thread-safe counterpart is the metrics registry in
// src/obs/metrics.h, whose histograms also keep the exact min/max/avg
// (docs/OBSERVABILITY.md). Not thread-safe — confine each instance to one
// thread or guard it externally.
//
// Usage:
//   Summary latencies;
//   for (double s : run()) latencies.add(s);
//   std::printf("p99 %.3f s\n", latencies.percentile(99.0));

#include <cstddef>
#include <vector>

namespace pkb::util {

/// Accumulates samples and reports summary statistics. Percentiles retain all
/// samples (fine at benchmark scale).
class Summary {
 public:
  /// Add one observation.
  void add(double x);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Arithmetic mean; 0 when empty.
  [[nodiscard]] double mean() const;

  /// Sum of all samples.
  [[nodiscard]] double sum() const { return sum_; }

  /// Linear-interpolated percentile, q in [0, 100]; 0 when empty.
  [[nodiscard]] double percentile(double q) const;

  /// Median (50th percentile).
  [[nodiscard]] double median() const { return percentile(50.0); }

  /// All samples in insertion order.
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
  double sum_ = 0.0;
};

}  // namespace pkb::util
