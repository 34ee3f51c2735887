#pragma once
// The three workloads. Each builds its inputs from RunOptions::seed, runs
// the untraced measurement (end-to-end metrics) or, with RunOptions::trace,
// the untraced reference phase plus the traced phases (per-layer metrics),
// and checks its answers.

#include "common.h"

namespace pkb::perfbench {

[[nodiscard]] WorkloadResult run_docs_qa(const RunOptions& opts);
[[nodiscard]] WorkloadResult run_agent_sessions(const RunOptions& opts);
[[nodiscard]] WorkloadResult run_live_ingest(const RunOptions& opts);

}  // namespace pkb::perfbench
