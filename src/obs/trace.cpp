#include "obs/trace.h"

#include <cstdio>

#include "util/json.h"

namespace pkb::obs {

namespace {

std::string render_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      epoch_(std::chrono::steady_clock::now()) {}

std::vector<Trace> Tracer::traces() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {done_.begin(), done_.end()};
}

std::optional<Trace> Tracer::latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (done_.empty()) return std::nullopt;
  return done_.back();
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

SpanData* Tracer::open_span(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  ThreadState& state = active_[std::this_thread::get_id()];
  SpanData* span = nullptr;
  if (state.stack.empty()) {
    state.root = std::make_unique<SpanData>();
    span = state.root.get();
  } else {
    // Strict nesting: only the innermost open span gains children, so the
    // pointers held in `stack` (into ancestors' children vectors) are never
    // invalidated by this push_back.
    state.stack.back()->children.emplace_back();
    span = &state.stack.back()->children.back();
  }
  span->name = std::string(name);
  span->start_us = now_us();
  state.stack.push_back(span);
  return span;
}

void Tracer::close_span(SpanData* span) {
  std::lock_guard<std::mutex> lock(mu_);
  span->dur_us = now_us() - span->start_us;
  const auto it = active_.find(std::this_thread::get_id());
  if (it == active_.end()) return;
  ThreadState& state = it->second;
  if (state.stack.empty() || state.stack.back() != span) return;
  state.stack.pop_back();
  if (state.stack.empty()) {
    done_.push_back(Trace{next_trace_id_++, std::move(*state.root)});
    active_.erase(it);
    while (done_.size() > capacity_) done_.pop_front();
  }
}

namespace {

void append_chrome_events(const SpanData& span, std::uint64_t tid,
                          pkb::util::Json& events) {
  pkb::util::Json event = pkb::util::Json::object();
  event.set("name", span.name);
  event.set("ph", "X");
  event.set("pid", 1);
  event.set("tid", tid);
  event.set("ts", span.start_us);
  event.set("dur", span.dur_us);
  if (!span.attrs.empty()) {
    pkb::util::Json args = pkb::util::Json::object();
    for (const auto& [k, v] : span.attrs) args.set(k, v);
    event.set("args", std::move(args));
  }
  events.push_back(std::move(event));
  for (const SpanData& child : span.children) {
    append_chrome_events(child, tid, events);
  }
}

void render_tree_node(const SpanData& span, const std::string& prefix,
                      bool last, bool root, std::string& out) {
  if (!root) {
    out += prefix + (last ? "└─ " : "├─ ");
  }
  out += span.name + " " + render_number(span.dur_us) + "us";
  for (const auto& [k, v] : span.attrs) {
    out += " " + k + "=" + v;
  }
  out += "\n";
  const std::string child_prefix =
      root ? "" : prefix + (last ? "   " : "│  ");
  for (std::size_t i = 0; i < span.children.size(); ++i) {
    render_tree_node(span.children[i], child_prefix,
                     i + 1 == span.children.size(), false, out);
  }
}

}  // namespace

std::string Tracer::chrome_trace_json(int indent) const {
  pkb::util::Json events = pkb::util::Json::array();
  for (const Trace& trace : traces()) {
    append_chrome_events(trace.root, trace.id, events);
  }
  pkb::util::Json out = pkb::util::Json::object();
  out.set("traceEvents", std::move(events));
  return out.dump(indent);
}

std::string render_tree(const SpanData& root) {
  std::string out;
  render_tree_node(root, "", true, true, out);
  return out;
}

Span::Span(Tracer& tracer, std::string_view name)
    : tracer_(tracer), data_(tracer.open_span(name)) {}

Span::~Span() { tracer_.close_span(data_); }

void Span::set_attr(std::string_view key, std::string_view value) {
  data_->attrs.emplace_back(std::string(key), std::string(value));
}

void Span::set_attr(std::string_view key, const char* value) {
  set_attr(key, std::string_view(value));
}

void Span::set_attr(std::string_view key, double value) {
  set_attr(key, std::string_view(render_number(value)));
}

void Span::set_attr(std::string_view key, std::uint64_t value) {
  set_attr(key, std::string_view(std::to_string(value)));
}

void Span::set_attr(std::string_view key, bool value) {
  set_attr(key, std::string_view(value ? "true" : "false"));
}

Tracer& global_tracer() {
  static Tracer* tracer = new Tracer();  // never freed
  return *tracer;
}

}  // namespace pkb::obs
