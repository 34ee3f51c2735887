#pragma once
// Streaming summary statistics (min/max/mean/stddev/percentiles).
//
// Used by the Table II latency benchmark and by the evaluation aggregates.
// These are single-run, single-thread accumulators; the cross-request,
// thread-safe counterpart is the metrics registry in src/obs/metrics.h,
// whose histograms report the same min/max/avg over the same samples
// (docs/OBSERVABILITY.md). Not thread-safe — confine each instance to one
// thread or guard it externally.
//
// Usage:
//   Summary latencies;
//   for (double s : run()) latencies.add(s);
//   std::printf("%s\n", latencies.min_max_avg(2).c_str());

#include <cstddef>
#include <string>
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

  /// Smallest / largest observation; 0 when empty.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Arithmetic mean; 0 when empty.
  [[nodiscard]] double mean() const;

  /// Sum of all samples.
  [[nodiscard]] double sum() const { return sum_; }

  /// Linear-interpolated percentile, q in [0, 100]; 0 when empty.
  [[nodiscard]] double percentile(double q) const;

  /// Median (50th percentile).
  [[nodiscard]] double median() const { return percentile(50.0); }

  /// "min/max/avg" rendered with `digits` decimals — the format of Table II.
  [[nodiscard]] std::string min_max_avg(int digits = 2) const;

  /// All samples in insertion order.
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
  double sum_ = 0.0;
};

/// Histogram with fixed-width bins over [lo, hi); out-of-range samples clamp
/// to the edge bins. Used for score-distribution displays (distinct from
/// obs::Histogram, whose log-spaced buckets serve latency aggregation).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  /// Record one sample into its bin.
  void add(double x);

  [[nodiscard]] std::size_t bin_count() const { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bin) const;
  [[nodiscard]] std::size_t total() const { return total_; }

  /// Lower edge of bin `i`.
  [[nodiscard]] double bin_lo(std::size_t i) const;

  /// ASCII bar chart, one row per bin.
  [[nodiscard]] std::string render(std::size_t width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace pkb::util
