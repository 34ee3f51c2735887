#pragma once
// Span tracer — the per-request half of the observability layer
// (docs/OBSERVABILITY.md documents the span tree one ask() produces).
//
// RAII `Span` objects form trees: a Span opened while another Span is open
// on the same thread becomes its child; when the outermost span on a thread
// closes, the finished trace is pushed into a bounded ring (oldest evicted).
// Durations are real wall microseconds relative to the tracer's epoch
// (`util::Stopwatch` semantics). Tracing is always on: every Span records.
//
// Thread-safety: open/close and all Tracer queries are serialized by one
// mutex. Span::set_attr must be called from the thread that created the
// span (the normal RAII usage); attribute writes are then unsynchronized by
// construction because no other thread can reach an open span.
//
// Usage:
//   obs::Span span(obs::global_tracer(), obs::kSpanRetrieve);
//   span.set_attr("k", opts_.first_pass_k);
//   ...  // nested Spans become children
//   // span closes at scope exit; the root's close records the trace

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace pkb::obs {

/// One recorded span. Children are stored inline, in open order.
struct SpanData {
  std::string name;
  double start_us = 0.0;  ///< relative to the tracer's epoch
  double dur_us = 0.0;
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<SpanData> children;
};

/// One finished per-request span tree.
struct Trace {
  std::uint64_t id = 0;
  SpanData root;
};

class Span;

/// Collects finished traces into a bounded ring.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 64);

  /// Copies of the retained traces, oldest first. Trace ids increase in
  /// close order, so a caller finds the traces finished after a point by
  /// comparing ids with the last one it saw.
  [[nodiscard]] std::vector<Trace> traces() const;

  /// The most recently finished trace, if any.
  [[nodiscard]] std::optional<Trace> latest() const;

  /// All retained traces in the Chrome trace-event format (complete "X"
  /// events; ts/dur in microseconds; tid = trace id). Load the output in
  /// chrome://tracing or Perfetto.
  [[nodiscard]] std::string chrome_trace_json(int indent = 0) const;

 private:
  friend class Span;

  /// Returns the opened span's storage.
  SpanData* open_span(std::string_view name);
  void close_span(SpanData* span);
  [[nodiscard]] double now_us() const;

  struct ThreadState {
    std::unique_ptr<SpanData> root;  ///< owns the tree while it is open
    std::vector<SpanData*> stack;    ///< open spans, outermost first
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t next_trace_id_ = 1;
  std::deque<Trace> done_;
  std::map<std::thread::id, ThreadState> active_;
};

/// RAII handle for one span. Not copyable or movable: open and close happen
/// on the same thread, in scope order.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a key/value attribute. Numeric overloads render with
  /// shortest-%g / decimal.
  void set_attr(std::string_view key, std::string_view value);
  void set_attr(std::string_view key, const char* value);
  void set_attr(std::string_view key, double value);
  void set_attr(std::string_view key, std::uint64_t value);
  void set_attr(std::string_view key, bool value);

 private:
  Tracer& tracer_;
  SpanData* data_;
};

/// Render one span tree as an indented ASCII tree (the pkb_cli `:trace`
/// view): name, duration, and attributes per line.
[[nodiscard]] std::string render_tree(const SpanData& root);

/// The process-wide tracer all instrumentation writes to.
Tracer& global_tracer();

}  // namespace pkb::obs
