#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/strings.h"

namespace pkb::util {

void Summary::add(double x) {
  samples_.push_back(x);
  sum_ += x;
}

double Summary::min() const {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double Summary::max() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double Summary::mean() const {
  if (samples_.empty()) return 0.0;
  return sum_ / static_cast<double>(samples_.size());
}

double Summary::percentile(double q) const {
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(q, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - std::floor(rank);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::string Summary::min_max_avg(int digits) const {
  return format_double(min(), digits) + " / " + format_double(max(), digits) +
         " / " + format_double(mean(), digits);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (!(hi > lo) || bins == 0) {
    throw std::invalid_argument("Histogram: need hi > lo and bins > 0");
  }
}

void Histogram::add(double x) {
  const double t = (x - lo_) / (hi_ - lo_);
  auto bin = static_cast<std::ptrdiff_t>(
      std::floor(t * static_cast<double>(counts_.size())));
  bin = std::clamp<std::ptrdiff_t>(
      bin, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

std::size_t Histogram::count(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range("Histogram::count");
  return counts_[bin];
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                   static_cast<double>(counts_.size());
}

std::string Histogram::render(std::size_t width) const {
  const std::size_t peak =
      counts_.empty()
          ? 0
          : *std::max_element(counts_.begin(), counts_.end());
  std::string out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    char label[32];
    std::snprintf(label, sizeof label, "%8.2f | ", bin_lo(i));
    out += label;
    const std::size_t bar =
        peak == 0 ? 0 : counts_[i] * width / std::max<std::size_t>(peak, 1);
    out.append(bar, '#');
    out += "  (" + std::to_string(counts_[i]) + ")\n";
  }
  return out;
}

}  // namespace pkb::util
