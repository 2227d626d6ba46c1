#ifndef RFIDCLEAN_E2EBENCH_SPAN_RECORDER_H_
#define RFIDCLEAN_E2EBENCH_SPAN_RECORDER_H_

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace rfidclean::e2ebench {

/// Benchmark-side span recorder: the benchmark wraps each public call it
/// makes into the library in a span, so per-layer time is measured from
/// outside the program (no probe inside src/). Spans stay in memory and are
/// written once, at exit, as a Chrome trace-event file.
///
/// Single-threaded: only the benchmark's own thread opens spans. Names and
/// layers must be string literals (they are stored as pointers).
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    const char* layer = "";
    double start_ms = 0.0;
    double end_ms = -1.0;  ///< < start_ms while the span is open
    int parent = -1;       ///< index of the enclosing span, -1 for roots
    int run = 0;           ///< repetition / query index the span belongs to
  };

  /// Opens a span as a child of the innermost open span; returns its index.
  int Begin(const char* name, const char* layer, int run);
  /// Closes span `id`, which must be the innermost open span.
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  double NowMs() const;

  /// Duration minus the time its direct children cover.
  double SelfMs(int id) const;
  /// Σ self time per layer over every closed span.
  std::map<std::string, double> SelfMsByLayer() const;
  /// Σ duration of root spans (the wall time the trace accounts for).
  double RootMs() const;

  /// Writes every span as a Chrome trace-event "X" event (loadable in
  /// Perfetto or chrome://tracing); returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<double> child_ms_;  // per span: Σ direct-child duration
};

/// RAII span; a null recorder makes it a no-op, so one code path serves the
/// traced and the untraced run.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, const char* layer,
             int run = 0)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name, layer, run) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace rfidclean::e2ebench

#endif  // RFIDCLEAN_E2EBENCH_SPAN_RECORDER_H_
