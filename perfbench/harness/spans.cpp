#include "spans.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace pkb::perfbench {

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::Request:
      return "request";
    case SpanKind::Embed:
      return "embed";
    case SpanKind::Search:
      return "vectordb.search";
    case SpanKind::Augment:
      return "lexical.augment";
    case SpanKind::Rerank:
      return "rerank";
    case SpanKind::Prompt:
      return "prompt";
    case SpanKind::Generate:
      return "llm.generate";
    case SpanKind::Post:
      return "post";
    case SpanKind::LlmStall:
      return "llm.stall";
    case SpanKind::Publish:
      return "ingest.publish";
    case SpanKind::kCount:
      break;
  }
  return "?";
}

LayerSummary summarize(const std::vector<const SpanBuffer*>& bufs) {
  LayerSummary out;
  for (const SpanBuffer* buf : bufs) {
    const std::vector<SpanRecord>& spans = buf->spans();
    std::vector<double> child_seconds(spans.size(), 0.0);
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0) {
        child_seconds[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      const int k = static_cast<int>(s.kind);
      out.self_seconds[k].push_back(s.end - s.start - child_seconds[i]);
      if (s.failed) ++out.failures[k];
    }
  }
  return out;
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanBuffer*>& bufs) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path);
  out << "thread\tindex\tname\trequest\tparent\tstart_us\tend_us\tfailed\n";
  char line[160];
  for (std::size_t t = 0; t < bufs.size(); ++t) {
    const std::vector<SpanRecord>& spans = bufs[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::snprintf(line, sizeof line, "%zu\t%zu\t%s\t%llu\t%d\t%.3f\t%.3f\t%d\n",
                    t, i, span_name(s.kind),
                    static_cast<unsigned long long>(s.request), s.parent,
                    s.start * 1e6, s.end * 1e6, s.failed ? 1 : 0);
      out << line;
    }
  }
  return out.good();
}

}  // namespace pkb::perfbench
