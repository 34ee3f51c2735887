#pragma once
// In-memory span recording for the traced run. Each thread owns a
// SpanBuffer (no locking on the hot path); spans carry name, start, end,
// request id and parent, and are written out once the run has ended.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace pkb::perfbench {

/// Layer boundaries the harness records, one per public entry point it
/// times. The names are the per-layer metric prefixes.
enum class SpanKind : std::uint8_t {
  Request = 0,   ///< one whole request as the harness drives it
  Embed,         ///< Retriever::embed_stage
  Search,        ///< Retriever::search_stage
  Augment,       ///< Retriever::augment_stage
  Rerank,        ///< Retriever::rerank_stage
  Prompt,        ///< global_stage_graph().stage(Prompt).run
  Generate,      ///< global_stage_graph().stage(Generate).run
  Post,          ///< global_stage_graph().stage(Postprocess).run
  LlmStall,      ///< realized simulated-LLM latency (sleep)
  Publish,       ///< Ingestor::ingest_qa
  kCount,
};

[[nodiscard]] const char* span_name(SpanKind kind);

struct SpanRecord {
  double start = 0.0;
  double end = 0.0;
  std::uint64_t request = 0;
  std::int32_t parent = -1;  ///< index in the same buffer, -1 = root
  SpanKind kind = SpanKind::Request;
  bool failed = false;
};

class SpanBuffer {
 public:
  /// Open a span; returns its index for close() and as a parent.
  std::int32_t open(SpanKind kind, std::uint64_t request,
                    std::int32_t parent) {
    spans_.push_back({now_seconds(), 0.0, request, parent, kind, false});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t index, bool failed = false) {
    SpanRecord& s = spans_[static_cast<std::size_t>(index)];
    s.end = now_seconds();
    s.failed = failed;
  }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
};

/// Run `fn` inside a span of `kind` when `buf` is non-null; a throwing `fn`
/// closes its span as failed and rethrows.
template <typename Fn>
void in_span(SpanBuffer* buf, SpanKind kind, std::uint64_t request,
             std::int32_t parent, Fn&& fn) {
  if (buf == nullptr) {
    std::forward<Fn>(fn)();
    return;
  }
  const std::int32_t idx = buf->open(kind, request, parent);
  try {
    std::forward<Fn>(fn)();
  } catch (...) {
    buf->close(idx, /*failed=*/true);
    throw;
  }
  buf->close(idx);
}

/// Self time per span kind over a set of buffers: a span's duration minus
/// the part its children cover.
struct LayerSummary {
  std::vector<double> self_seconds[static_cast<int>(SpanKind::kCount)];
  std::uint64_t failures[static_cast<int>(SpanKind::kCount)] = {};
  [[nodiscard]] const std::vector<double>& self(SpanKind k) const {
    return self_seconds[static_cast<int>(k)];
  }
  [[nodiscard]] std::uint64_t calls(SpanKind k) const {
    return self(k).size();
  }
  [[nodiscard]] std::uint64_t failed(SpanKind k) const {
    return failures[static_cast<int>(k)];
  }
};

[[nodiscard]] LayerSummary summarize(const std::vector<const SpanBuffer*>& bufs);

/// Write every span as one tab-separated line (thread, index, name,
/// request, parent, start_us, end_us, failed). Returns false on I/O error.
bool write_spans(const std::string& path,
                 const std::vector<const SpanBuffer*>& bufs);

}  // namespace pkb::perfbench
