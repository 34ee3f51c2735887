#include "replay/trace.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/binio.h"
#include "util/clock.h"

namespace pkb::replay {

namespace {

namespace fs = std::filesystem;
namespace bin = pkb::util;

constexpr std::uint32_t kTraceMagic = 0x54424B50;  // "PKBT" little-endian
// Version 1 keeps two retrieve-record counters from the removed sharded
// scan (failed and total shards). They are written as 0 and skipped on load;
// retiring them needs a version bump and a re-recorded trace corpus.
constexpr std::uint32_t kTraceVersion = 1;

void write_context_refs(std::ostream& out,
                        const std::vector<rag::ContextRef>& refs) {
  bin::write_u64(out, refs.size());
  for (const rag::ContextRef& ref : refs) {
    bin::write_str(out, ref.id);
    bin::write_f64(out, ref.score);
    bin::write_str(out, ref.via);
    bin::write_u64(out, ref.first_pass_rank);
  }
}

std::vector<rag::ContextRef> read_context_refs(std::istream& in,
                                               const char* what) {
  const std::uint64_t n = bin::read_count(in, what);
  std::vector<rag::ContextRef> refs(n);
  for (rag::ContextRef& ref : refs) {
    ref.id = bin::read_str(in, what);
    ref.score = bin::read_f64(in, what);
    ref.via = bin::read_str(in, what);
    ref.first_pass_rank = bin::read_u64(in, what);
  }
  return refs;
}

void write_string_list(std::ostream& out,
                       const std::vector<std::string>& list) {
  bin::write_u64(out, list.size());
  for (const std::string& s : list) bin::write_str(out, s);
}

std::vector<std::string> read_string_list(std::istream& in, const char* what) {
  const std::uint64_t n = bin::read_count(in, what);
  std::vector<std::string> list(n);
  for (std::string& s : list) s = bin::read_str(in, what);
  return list;
}

}  // namespace

TraceRecorder::TraceRecorder(RecorderOptions opts) : opts_(std::move(opts)) {
  // Resume id assignment past any traces already on disk, so a restarted
  // server never overwrites an earlier session's recordings.
  const std::vector<std::uint64_t> existing = list(opts_.dir);
  if (!existing.empty()) {
    next_id_.store(existing.back() + 1, std::memory_order_relaxed);
  }
}

bool TraceRecorder::sample() {
  if (opts_.sample_every == 0) return false;
  const std::uint64_t n = ordinal_.fetch_add(1, std::memory_order_relaxed);
  if (n % opts_.sample_every == 0) return true;
  obs::global_metrics().counter(obs::kReplaySampledOutTotal).inc();
  return false;
}

std::uint64_t TraceRecorder::record(rag::StageTrace trace) {
  pkb::util::Stopwatch watch;
  obs::Span span(obs::global_tracer(), obs::kSpanTraceRecord);
  {
    std::lock_guard<std::mutex> lock(dir_mu_);
    if (!dir_ready_) {
      fs::create_directories(opts_.dir);
      dir_ready_ = true;
    }
  }
  trace.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const std::string path = trace_path(opts_.dir, trace.id);
  save(trace, path);
  records_.fetch_add(1, std::memory_order_relaxed);

  std::error_code ec;
  const std::uint64_t bytes = fs::file_size(path, ec);
  obs::MetricsRegistry& metrics = obs::global_metrics();
  metrics.counter(obs::kReplayRecordsTotal).inc();
  if (!ec) metrics.counter(obs::kReplayRecordBytesTotal).inc(bytes);
  metrics.histogram(obs::kReplayRecordSeconds).observe(watch.seconds());
  span.set_attr("id", trace.id);
  span.set_attr("bytes", bytes);
  return trace.id;
}

std::string TraceRecorder::trace_path(const std::string& dir,
                                      std::uint64_t id) {
  char name[32];
  std::snprintf(name, sizeof name, "trace_%06llu.pkbt",
                static_cast<unsigned long long>(id));
  return (fs::path(dir) / name).string();
}

void TraceRecorder::save(const rag::StageTrace& trace,
                         const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open trace file: " + path);

  bin::write_u32(out, kTraceMagic);
  bin::write_u32(out, kTraceVersion);
  bin::write_u64(out, trace.id);

  bin::write_str(out, trace.question);
  bin::write_str(out, trace.arm);
  bin::write_str(out, trace.model);
  bin::write_str(out, trace.reranker);
  bin::write_u64(out, trace.first_pass_k);
  bin::write_u64(out, trace.final_l);

  bin::write_u64(out, trace.generation);
  bin::write_str(out, trace.degradation);
  bin::write_u64(out, trace.history_id);
  bin::write_f64(out, trace.embed_seconds);
  bin::write_f64(out, trace.search_seconds);
  bin::write_f64(out, trace.rerank_seconds);

  bin::write_str(out, trace.embed.embedder);
  bin::write_f32_array(out, trace.embed.query_vec);

  write_context_refs(out, trace.retrieve.candidates);
  bin::write_u64(out, 0);  // retired shard counters, see kTraceVersion
  bin::write_u64(out, 0);

  bin::write_u8(out, trace.rerank.rerank_degraded ? 1 : 0);
  write_context_refs(out, trace.rerank.contexts);

  bin::write_str(out, trace.prompt.system);
  bin::write_u64(out, trace.prompt.contexts.size());
  for (const llm::ContextDoc& doc : trace.prompt.contexts) {
    bin::write_str(out, doc.id);
    bin::write_str(out, doc.title);
    bin::write_str(out, doc.text);
    bin::write_f64(out, doc.score);
  }
  bin::write_u64(out, trace.prompt.max_attended);
  bin::write_str(out, trace.prompt.prompt);

  const llm::LlmResponse& resp = trace.generate.response;
  bin::write_str(out, resp.text);
  bin::write_f64(out, resp.latency_seconds);
  bin::write_u64(out, resp.prompt_tokens);
  bin::write_u64(out, resp.completion_tokens);
  bin::write_str(out, resp.mode);
  write_string_list(out, resp.used_context_ids);

  bin::write_str(out, trace.post.plain_text);
  bin::write_u8(out, trace.post.all_code_ok ? 1 : 0);
  bin::write_u64(out, trace.post.code_blocks);
  write_string_list(out, trace.post.sources);

  out.flush();
  if (!out) throw std::runtime_error("short write on trace file: " + path);
}

rag::StageTrace TraceRecorder::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);

  if (bin::read_u32(in, "trace magic") != kTraceMagic) {
    throw std::runtime_error("not a PKBT trace file: " + path);
  }
  const std::uint32_t version = bin::read_u32(in, "trace version");
  if (version != kTraceVersion) {
    throw std::runtime_error("unsupported trace version " +
                             std::to_string(version) + ": " + path);
  }

  rag::StageTrace trace;
  trace.id = bin::read_u64(in, "trace id");

  trace.question = bin::read_str(in, "question");
  trace.arm = bin::read_str(in, "arm");
  trace.model = bin::read_str(in, "model");
  trace.reranker = bin::read_str(in, "reranker");
  trace.first_pass_k = bin::read_u64(in, "first_pass_k");
  trace.final_l = bin::read_u64(in, "final_l");

  trace.generation = bin::read_u64(in, "generation");
  trace.degradation = bin::read_str(in, "degradation");
  trace.history_id = bin::read_u64(in, "history_id");
  trace.embed_seconds = bin::read_f64(in, "embed_seconds");
  trace.search_seconds = bin::read_f64(in, "search_seconds");
  trace.rerank_seconds = bin::read_f64(in, "rerank_seconds");

  trace.embed.embedder = bin::read_str(in, "embedder");
  trace.embed.query_vec = bin::read_f32_array(in, "query_vec");

  trace.retrieve.candidates = read_context_refs(in, "candidates");
  (void)bin::read_u64(in, "shards_failed");
  (void)bin::read_u64(in, "shards_total");

  trace.rerank.rerank_degraded = bin::read_u8(in, "rerank_degraded") != 0;
  trace.rerank.contexts = read_context_refs(in, "contexts");

  trace.prompt.system = bin::read_str(in, "system prompt");
  const std::uint64_t prompt_ctx = bin::read_count(in, "prompt contexts");
  trace.prompt.contexts.resize(prompt_ctx);
  for (llm::ContextDoc& doc : trace.prompt.contexts) {
    doc.id = bin::read_str(in, "prompt context id");
    doc.title = bin::read_str(in, "prompt context title");
    doc.text = bin::read_str(in, "prompt context text");
    doc.score = bin::read_f64(in, "prompt context score");
  }
  trace.prompt.max_attended = bin::read_u64(in, "max_attended");
  trace.prompt.prompt = bin::read_str(in, "prompt");

  llm::LlmResponse& resp = trace.generate.response;
  resp.text = bin::read_str(in, "response text");
  resp.latency_seconds = bin::read_f64(in, "response latency");
  resp.prompt_tokens = bin::read_u64(in, "prompt_tokens");
  resp.completion_tokens = bin::read_u64(in, "completion_tokens");
  resp.mode = bin::read_str(in, "response mode");
  resp.used_context_ids = read_string_list(in, "used_context_ids");

  trace.post.plain_text = bin::read_str(in, "plain_text");
  trace.post.all_code_ok = bin::read_u8(in, "all_code_ok") != 0;
  trace.post.code_blocks = bin::read_u64(in, "code_blocks");
  trace.post.sources = read_string_list(in, "sources");

  return trace;
}

std::vector<std::uint64_t> TraceRecorder::list(const std::string& dir) {
  std::vector<std::uint64_t> ids;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long id = 0;
    if (std::sscanf(name.c_str(), "trace_%llu.pkbt", &id) == 1) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace pkb::replay
