#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/string_util.h"

namespace ppdb::obs {

namespace {

/// The trace currently being built on this thread, if any. Owned by the
/// TraceScope that started it; spans append via the raw pointer without
/// locking because only the owning thread touches it.
struct ActiveTrace {
  Tracer* tracer = nullptr;
  TraceRecord record;
  std::chrono::steady_clock::time_point epoch;
  /// Parent index for the next span started on this thread (-1 = root).
  int32_t current_parent = -1;
};

thread_local ActiveTrace* t_active = nullptr;

std::string EscapeJson(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

int64_t MicrosBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

}  // namespace

// --- TraceRecord -----------------------------------------------------------

std::string TraceRecord::ToJson() const {
  std::string out = "{\"trace_id\":\"" + EscapeJson(trace_id) +
                    "\",\"name\":\"" + EscapeJson(name) +
                    "\",\"start_us\":" + std::to_string(start_us) +
                    ",\"duration_us\":" + std::to_string(duration_us) +
                    ",\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (i > 0) out += ',';
    out += StrCat({"{\"name\":\"", EscapeJson(span.name), "\",\"parent\":",
                   std::to_string(span.parent_index), ",\"start_us\":",
                   std::to_string(span.start_us), ",\"duration_us\":",
                   std::to_string(span.duration_us)});
    if (!span.notes.empty()) {
      out += ",\"notes\":{";
      for (size_t n = 0; n < span.notes.size(); ++n) {
        if (n > 0) out += ',';
        out += StrCat({"\"", EscapeJson(span.notes[n].first), "\":\"",
                       EscapeJson(span.notes[n].second), "\""});
      }
      out += '}';
    }
    out += '}';
  }
  out += "]}";
  return out;
}

// --- Tracer ----------------------------------------------------------------

Tracer& Tracer::Default() {
  // Leaked for the same reason as MetricsRegistry::Default: static users.
  static Tracer* tracer = new Tracer();  // ppdb-lint: allow(raw-new)
  return *tracer;
}

Tracer::Tracer(Options options) : options_(std::move(options)) {
  options_.ring_capacity = std::max<size_t>(1, options_.ring_capacity);
  clock_ = std::move(options_.clock);
}

std::chrono::steady_clock::time_point Tracer::Now() const {
  MutexLock lock(clock_mu_);
  return clock_ ? clock_() : std::chrono::steady_clock::now();
}

void Tracer::Commit(TraceRecord record) {
  MutexLock lock(mu_);
  ring_.push_back(std::move(record));
  while (ring_.size() > options_.ring_capacity) ring_.pop_front();
  ++completed_;
}

std::vector<TraceRecord> Tracer::Snapshot() const {
  MutexLock lock(mu_);
  return std::vector<TraceRecord>(ring_.begin(), ring_.end());
}

std::string Tracer::SnapshotJson() const {
  const std::vector<TraceRecord> traces = Snapshot();
  std::string out = "[";
  for (size_t i = 0; i < traces.size(); ++i) {
    if (i > 0) out += ',';
    out += traces[i].ToJson();
  }
  out += ']';
  return out;
}

int64_t Tracer::traces_completed() const {
  MutexLock lock(mu_);
  return completed_;
}

void Tracer::set_clock(
    std::function<std::chrono::steady_clock::time_point()> clock) {
  MutexLock lock(clock_mu_);
  clock_ = std::move(clock);
}

// --- TraceScope ------------------------------------------------------------

TraceScope::TraceScope(Tracer& tracer, std::string trace_id,
                       std::string name) {
  if (t_active != nullptr) return;  // nested: attach to the outer trace
  tracer_ = &tracer;
  owns_ = true;
  started_ = tracer.Now();
  // ppdb-lint: allow(raw-new) -- ownership passes through the thread_local
  // raw pointer; the owning TraceScope deletes it in its destructor.
  auto* active = new ActiveTrace();
  active->tracer = &tracer;
  active->epoch = started_;
  active->record.trace_id = std::move(trace_id);
  active->record.name = std::move(name);
  active->record.start_us = MicrosBetween(
      std::chrono::steady_clock::time_point{}, started_);
  t_active = active;
}

TraceScope::~TraceScope() {
  if (!owns_) return;
  ActiveTrace* active = t_active;
  t_active = nullptr;
  active->record.duration_us = MicrosBetween(started_, tracer_->Now());
  tracer_->Commit(std::move(active->record));
  delete active;
}

// --- SpanScope -------------------------------------------------------------

SpanScope::SpanScope(std::string_view name) {
  ActiveTrace* active = t_active;
  if (active == nullptr) return;
  started_ = active->tracer->Now();
  SpanRecord span;
  span.name = std::string(name);
  span.parent_index = active->current_parent;
  span.start_us = MicrosBetween(active->epoch, started_);
  index_ = static_cast<int32_t>(active->record.spans.size());
  active->record.spans.push_back(std::move(span));
  prior_parent_ = active->current_parent;
  active->current_parent = index_;
}

SpanScope::~SpanScope() {
  if (index_ < 0) return;
  ActiveTrace* active = t_active;
  if (active == nullptr) return;  // trace ended before the span (bug guard)
  active->record.spans[static_cast<size_t>(index_)].duration_us =
      MicrosBetween(started_, active->tracer->Now());
  active->current_parent = prior_parent_;
}

void SpanScope::Note(std::string_view key, std::string_view value) {
  if (index_ < 0 || t_active == nullptr) return;
  t_active->record.spans[static_cast<size_t>(index_)].notes.emplace_back(
      std::string(key), std::string(value));
}

void SpanScope::Note(std::string_view key, int64_t value) {
  Note(key, std::string_view(std::to_string(value)));
}

}  // namespace ppdb::obs
