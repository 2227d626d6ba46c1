#include "span_recorder.h"

#include <cstdio>
#include <fstream>

#include "common/check.h"

namespace rfidclean::e2ebench {

double SpanRecorder::NowMs() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
      .count();
}

int SpanRecorder::Begin(const char* name, const char* layer, int run) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run;
  span.start_ms = NowMs();
  spans_.push_back(span);
  child_ms_.push_back(0.0);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  RFID_CHECK(!open_.empty() && open_.back() == id);
  open_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ms = NowMs();
  if (span.parent >= 0) {
    child_ms_[static_cast<std::size_t>(span.parent)] +=
        span.end_ms - span.start_ms;
  }
}

double SpanRecorder::SelfMs(int id) const {
  const Span& span = spans_[static_cast<std::size_t>(id)];
  // Children are opened and closed strictly inside their parent on one
  // thread, so they never overlap and their durations simply add up.
  return span.end_ms - span.start_ms - child_ms_[static_cast<std::size_t>(id)];
}

std::map<std::string, double> SpanRecorder::SelfMsByLayer() const {
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end_ms < spans_[i].start_ms) continue;
    by_layer[spans_[i].layer] += SelfMs(static_cast<int>(i));
  }
  return by_layer;
}

double SpanRecorder::RootMs() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0 && span.end_ms >= span.start_ms) {
      total += span.end_ms - span.start_ms;
    }
  }
  return total;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char line[512];
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ms < span.start_ms) continue;
    std::snprintf(line, sizeof(line),
                  "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %zu, \"parent\": %d, \"run\": %d, "
                  "\"self_us\": %.3f}}",
                  first ? "" : ",\n", span.name, span.layer,
                  span.start_ms * 1000.0,
                  (span.end_ms - span.start_ms) * 1000.0, i, span.parent,
                  span.run, SelfMs(static_cast<int>(i)) * 1000.0);
    os << line;
    first = false;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace rfidclean::e2ebench
