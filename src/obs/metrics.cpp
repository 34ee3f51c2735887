#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace pkb::obs {

namespace {

/// Shortest %g rendering — round-trips typical latency values and prints
/// integers without a trailing ".0" (Prometheus-friendly).
std::string render_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Escape a label value for the Prometheus text format.
std::string escape_label_value(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Render a sorted label set as `{k="v",...}`; empty labels render as "".
/// `extra` appends one more pair (used for histogram `le`).
std::string render_labels(const LabelSet& labels,
                          const std::pair<std::string, std::string>* extra =
                              nullptr) {
  if (labels.empty() && extra == nullptr) return "";
  std::string out = "{";
  bool first = true;
  auto append = [&](const std::string& k, const std::string& v) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    out += escape_label_value(v);
    out += "\"";
  };
  for (const auto& [k, v] : labels) append(k, v);
  if (extra != nullptr) append(extra->first, extra->second);
  out += "}";
  return out;
}

}  // namespace

std::vector<double> default_latency_buckets() {
  return {1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 0.01,
          0.025, 0.05,  0.1,  0.25, 0.5,    1.0,  2.5,  5.0,    10.0, 25.0};
}

Histogram::Histogram(std::vector<double> bounds) {
  if (bounds.empty()) {
    throw std::invalid_argument("Histogram: need at least one bucket bound");
  }
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    if (!(bounds[i] > bounds[i - 1])) {
      throw std::invalid_argument("Histogram: bounds must strictly increase");
    }
  }
  data_.bounds = std::move(bounds);
  data_.buckets.assign(data_.bounds.size() + 1, 0);
}

void Histogram::observe(double x) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it =
      std::lower_bound(data_.bounds.begin(), data_.bounds.end(), x);
  const std::size_t bucket =
      static_cast<std::size_t>(it - data_.bounds.begin());
  ++data_.buckets[bucket];
  if (data_.count == 0 || x < data_.min) data_.min = x;
  if (data_.count == 0 || x > data_.max) data_.max = x;
  data_.sum += x;
  ++data_.count;
}

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return data_;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  data_.count = 0;
  data_.sum = data_.min = data_.max = 0.0;
  std::fill(data_.buckets.begin(), data_.buckets.end(), 0);
}

double Histogram::Snapshot::mean() const {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

MetricsRegistry::Series& MetricsRegistry::find_or_create(
    std::string_view name, LabelSet labels, Kind kind,
    std::vector<double> bounds) {
  std::sort(labels.begin(), labels.end());
  const std::string key = render_labels(labels);

  std::lock_guard<std::mutex> lock(mu_);
  auto [fit, family_inserted] = families_.try_emplace(std::string(name));
  Family& family = fit->second;
  if (family_inserted) {
    family.kind = kind;
  } else if (family.kind != kind) {
    throw std::logic_error("metric '" + std::string(name) +
                           "' already registered with a different kind");
  }
  auto [sit, series_inserted] = family.series.try_emplace(key);
  Series& series = sit->second;
  if (series_inserted) {
    series.labels = std::move(labels);
    switch (kind) {
      case Kind::Counter:
        series.counter = std::make_unique<Counter>();
        break;
      case Kind::Gauge:
        series.gauge = std::make_unique<Gauge>();
        break;
      case Kind::Histogram:
        series.histogram = std::make_unique<Histogram>(
            bounds.empty() ? default_latency_buckets() : std::move(bounds));
        break;
    }
  }
  return series;
}

Counter& MetricsRegistry::counter(std::string_view name, LabelSet labels) {
  return *find_or_create(name, std::move(labels), Kind::Counter, {}).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, LabelSet labels) {
  return *find_or_create(name, std::move(labels), Kind::Gauge, {}).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name, LabelSet labels,
                                      std::vector<double> bounds) {
  return *find_or_create(name, std::move(labels), Kind::Histogram,
                         std::move(bounds))
              .histogram;
}

std::string MetricsRegistry::prometheus_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    out += "# TYPE " + name + " ";
    switch (family.kind) {
      case Kind::Counter:
        out += "counter\n";
        break;
      case Kind::Gauge:
        out += "gauge\n";
        break;
      case Kind::Histogram:
        out += "histogram\n";
        break;
    }
    for (const auto& [key, series] : family.series) {
      switch (family.kind) {
        case Kind::Counter:
          out += name + key + " " +
                 std::to_string(series.counter->value()) + "\n";
          break;
        case Kind::Gauge:
          out += name + key + " " + render_number(series.gauge->value()) +
                 "\n";
          break;
        case Kind::Histogram: {
          const Histogram::Snapshot snap = series.histogram->snapshot();
          std::uint64_t cum = 0;
          for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
            cum += snap.buckets[i];
            const std::pair<std::string, std::string> le{
                "le", i < snap.bounds.size() ? render_number(snap.bounds[i])
                                             : "+Inf"};
            out += name + "_bucket" + render_labels(series.labels, &le) +
                   " " + std::to_string(cum) + "\n";
          }
          out += name + "_sum" + key + " " + render_number(snap.sum) + "\n";
          out += name + "_count" + key + " " + std::to_string(snap.count) +
                 "\n";
          break;
        }
      }
    }
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, family] : families_) {
    for (auto& [key, series] : family.series) {
      if (series.counter) series.counter->reset();
      if (series.gauge) series.gauge->reset();
      if (series.histogram) series.histogram->reset();
    }
  }
}

MetricsRegistry& global_metrics() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never freed
  return *registry;
}

}  // namespace pkb::obs
