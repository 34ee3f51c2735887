#pragma once
// Metrics registry — the always-on, queryable half of the observability
// layer (docs/OBSERVABILITY.md is the contract: names, labels, units).
//
// Three metric kinds:
//   * Counter   — monotonically increasing event count (atomic).
//   * Gauge     — last-set value (atomic double).
//   * Histogram — fixed-bucket latency distribution that also tracks exact
//                 min/max/sum/count, so min/max/avg read from a histogram
//                 equals the same statistic over the raw samples (the
//                 property bench/table2_latency relies on). Memory is
//                 O(buckets), not one entry per sample.
//
// Thread-safety: registry lookups are serialized by one mutex; Counter and
// Gauge updates are lock-free atomics; each Histogram has its own mutex.
// References returned by counter()/gauge()/histogram() stay valid for the
// registry's lifetime — reset() zeroes values in place, it never removes a
// registered series.
//
// Usage (hot path — look up, then bump):
//   obs::global_metrics()
//       .counter(obs::kLlmRequestsTotal, {{"model", config_.name}})
//       .inc();

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pkb::obs {

/// Label key/value pairs identifying one series within a metric family.
/// Order does not matter at the call site; the registry sorts by key.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Monotonic event counter.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-set value.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Default histogram bucket upper bounds in seconds (10 µs .. 25 s,
/// roughly 1-2.5-5 per decade). A final +Inf bucket is implicit.
[[nodiscard]] std::vector<double> default_latency_buckets();

/// Fixed-bucket histogram with exact min/max/sum/count.
class Histogram {
 public:
  /// `bounds` are the strictly increasing bucket upper bounds; a sample x
  /// lands in the first bucket with x <= bound, or the implicit +Inf bucket.
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);

  /// A consistent point-in-time copy of the histogram state.
  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< exact smallest observation; 0 when empty
    double max = 0.0;  ///< exact largest observation; 0 when empty
    std::vector<double> bounds;          ///< upper bounds (no +Inf entry)
    std::vector<std::uint64_t> buckets;  ///< per-bucket counts; size
                                         ///< bounds.size()+1, last is +Inf

    [[nodiscard]] double mean() const;
  };
  [[nodiscard]] Snapshot snapshot() const;

  void reset();

 private:
  mutable std::mutex mu_;
  Snapshot data_;
};

/// The process-wide metric store. Series identity is (name, sorted labels);
/// the first caller for a name fixes its kind, and a later call with the
/// same name but a different kind throws std::logic_error.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name, LabelSet labels = {});
  Gauge& gauge(std::string_view name, LabelSet labels = {});
  /// `bounds` empty means default_latency_buckets(); bounds are fixed by the
  /// first call for a name and ignored afterwards.
  Histogram& histogram(std::string_view name, LabelSet labels = {},
                       std::vector<double> bounds = {});

  /// Prometheus text exposition format (docs/OBSERVABILITY.md shows the
  /// shape). Families and label sets are emitted in sorted order, so the
  /// output is deterministic.
  [[nodiscard]] std::string prometheus_text() const;

  /// Zero every metric in place. Registered series (and references to them)
  /// survive; only the values reset.
  void reset();

 private:
  enum class Kind { Counter, Gauge, Histogram };
  struct Series {
    LabelSet labels;  ///< sorted by key
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Kind kind = Kind::Counter;
    std::map<std::string, Series> series;  ///< rendered label string -> series
  };

  Series& find_or_create(std::string_view name, LabelSet labels, Kind kind,
                         std::vector<double> bounds);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

/// The process-wide registry all instrumentation writes to.
MetricsRegistry& global_metrics();

}  // namespace pkb::obs
