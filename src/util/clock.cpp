#include "util/clock.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>

namespace pkb::util {

void SimClock::advance(double seconds) {
  if (seconds < 0.0) {
    throw std::invalid_argument("SimClock::advance: negative duration");
  }
  // CAS loop: fetch_add on atomic<double> needs libstdc++ opt-in; this is
  // equivalent and portable.
  double cur = now_.load(std::memory_order_relaxed);
  while (!now_.compare_exchange_weak(cur, cur + seconds,
                                     std::memory_order_relaxed)) {
  }
}

std::string SimClock::timestamp() const { return format(now()); }

std::string SimClock::format(double abs_seconds) {
  const double s = std::max(0.0, abs_seconds);
  const auto total = static_cast<std::uint64_t>(s);
  const std::uint64_t day = total / 86400;
  const std::uint64_t hh = (total % 86400) / 3600;
  const std::uint64_t mm = (total % 3600) / 60;
  const std::uint64_t ss = total % 60;
  char buf[48];
  std::snprintf(buf, sizeof buf, "day %llu %02llu:%02llu:%02llu",
                static_cast<unsigned long long>(day),
                static_cast<unsigned long long>(hh),
                static_cast<unsigned long long>(mm),
                static_cast<unsigned long long>(ss));
  return buf;
}

}  // namespace pkb::util
