#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "corpus/questions.h"

namespace pkb::perfbench {

void Accounting::merge(const Accounting& o) {
  attempted += o.attempted;
  succeeded += o.succeeded;
  shed += o.shed;
  degraded += o.degraded;
  wrong += o.wrong;
  exceptions += o.exceptions;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void sleep_until_seconds(double t) {
  const double wait = t - now_seconds();
  if (wait > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  const double rank = std::ceil(q / 100.0 * static_cast<double>(xs.size()));
  const std::size_t k =
      std::min(xs.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k),
                   xs.end());
  return xs[k];
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string stream_question(std::uint64_t seed, std::uint64_t index) {
  const auto& qs = corpus::krylov_benchmark();
  const std::uint64_t pick = mix(seed * 1000003ULL + index / qs.size()) +
                             index % qs.size();
  return "variant " + std::to_string(seed) + "." + std::to_string(index) +
         ": " + qs[pick % qs.size()].question;
}

bool sampled(std::uint64_t seed, std::uint64_t index, std::uint64_t every) {
  return mix(seed ^ mix(index + 0x5bd1e995ULL)) % every == 0;
}

namespace {

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

}  // namespace

Fingerprint fingerprint(const rag::WorkflowOutcome& outcome) {
  Fingerprint f;
  f.text = fnv1a(kFnvBasis, outcome.response.text);
  f.contexts = kFnvBasis;
  for (const rag::RetrievedContext& ctx : outcome.retrieval.contexts) {
    f.contexts = fnv1a(f.contexts, ctx.doc->id);
    f.contexts = fnv1a(f.contexts, "\x1f");
  }
  f.generation = outcome.generation;
  f.valid = true;
  return f;
}

}  // namespace pkb::perfbench
