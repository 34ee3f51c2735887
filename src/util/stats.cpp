#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace pkb::util {

void Summary::add(double x) {
  samples_.push_back(x);
  sum_ += x;
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

}  // namespace pkb::util
