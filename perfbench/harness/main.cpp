// Benchmark harness for the PETSc knowledge-base assistant.
//
// Usage: pkb_perfbench --workload docs_qa|agent_sessions|live_ingest
//                      [--seed N] [--seconds S] [--trace 0|1]
//                      [--session-rate TURNS_PER_S] [--tiny] [--spans PATH]
//
// Prints an accounting line and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when an answer check or a counter reconciliation fails, 2 on bad usage.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/log.h"
#include "workloads.h"

namespace {

using pkb::perfbench::RunOptions;
using pkb::perfbench::WorkloadResult;

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string result_line(const WorkloadResult& res, bool correct) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.accounting.attempted);
  out += ", \"failed\": " + std::to_string(res.accounting.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& m = res.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: pkb_perfbench --workload docs_qa|agent_sessions|"
               "live_ingest [--seed N] [--seconds S] [--trace 0|1] "
               "[--session-rate R] [--tiny] [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(a, "--workload") == 0 && has_value) {
      o.workload = argv[++i];
    } else if (std::strcmp(a, "--seed") == 0 && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(a, "--seconds") == 0 && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(a, "--trace") == 0 && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (std::strcmp(a, "--session-rate") == 0 && has_value) {
      o.session_rate = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(a, "--spans") == 0 && has_value) {
      o.span_path = argv[++i];
    } else if (std::strcmp(a, "--tiny") == 0) {
      o.tiny = true;
    } else {
      return usage();
    }
  }
  if (!(o.seconds > 0.0)) return usage();
  pkb::util::set_log_level(pkb::util::LogLevel::Warn);

  WorkloadResult res;
  if (o.workload == "docs_qa") {
    res = pkb::perfbench::run_docs_qa(o);
  } else if (o.workload == "agent_sessions") {
    res = pkb::perfbench::run_agent_sessions(o);
  } else if (o.workload == "live_ingest") {
    res = pkb::perfbench::run_live_ingest(o);
  } else {
    return usage();
  }

  const auto& a = res.accounting;
  std::printf("accounting %s: attempted=%llu succeeded=%llu failed=%llu "
              "shed=%llu degraded=%llu wrong=%llu exceptions=%llu\n",
              o.workload.c_str(), static_cast<unsigned long long>(a.attempted),
              static_cast<unsigned long long>(a.succeeded),
              static_cast<unsigned long long>(a.failed()),
              static_cast<unsigned long long>(a.shed),
              static_cast<unsigned long long>(a.degraded),
              static_cast<unsigned long long>(a.wrong),
              static_cast<unsigned long long>(a.exceptions));
  for (const std::string& n : res.notes) std::printf("%s\n", n.c_str());
  for (const std::string& p : res.problems) {
    std::printf("problem: %s\n", p.c_str());
  }
  const bool correct = res.problems.empty() && !res.invalid &&
                       a.attempted > 0;
  std::printf("%s\n", result_line(res, correct).c_str());
  return correct ? 0 : 1;
}
