#ifndef RFIDCLEAN_OBS_TRACE_H_
#define RFIDCLEAN_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// \file
/// Structured timeline tracing for the cleaning pipeline.
///
/// Every traced thread owns a fixed-capacity ring buffer of trace events
/// (span begin/end, instants, counter samples) that only it writes;
/// recording an event is a relaxed atomic load (armed?), one clock read and
/// a few stores — no locks, no allocation. When the ring fills, the oldest
/// events are overwritten and a dropped-events counter keeps the loss
/// visible. Sinks live in the per-thread sink registry the metric sinks
/// use (obs/sink_registry.h): a worker that exits folds its buffer into a
/// retired list so short-lived BatchCleaner workers keep their tracks.
///
/// `CollectTrace()` snapshots all buffers; obs/trace_export.h turns the
/// snapshot into Chrome trace-event JSON loadable in Perfetto and
/// chrome://tracing. Like metric snapshots, collection is exact only once
/// the traced workers are quiesced (BatchCleaner joins its pool before
/// returning).
///
/// Configure with -DRFIDCLEAN_TRACE=OFF to compile every probe to a no-op
/// (the build defines RFIDCLEAN_TRACE_OFF), exactly like RFIDCLEAN_STATS:
/// cleaning results are bit-identical either way. With tracing compiled in
/// but not started, every probe costs one relaxed load and a branch.
///
/// Spans are RAII scopes opened with the RFID_TRACE_SPAN macro; statements
/// that exist purely to feed the tracer are wrapped in RFID_TRACE(...) so
/// disabled builds drop them entirely:
///
///   RFID_TRACE_SPAN(span, "forward", "forward_layer");
///   RFID_TRACE(span.AddArg("width", width));
///
/// Event names, categories and argument names must be string literals (or
/// otherwise outlive the trace session): the ring stores the pointers.

#if defined(RFIDCLEAN_TRACE_OFF)
#define RFIDCLEAN_TRACE_ENABLED 0
#define RFID_TRACE(expr) ((void)0)
#define RFID_TRACE_SPAN(var, category, name) \
  [[maybe_unused]] ::rfidclean::obs::TraceSpan var
#else
#define RFIDCLEAN_TRACE_ENABLED 1
#define RFID_TRACE(expr) expr
#define RFID_TRACE_SPAN(var, category, name) \
  ::rfidclean::obs::TraceSpan var((category), (name))
#endif

namespace rfidclean::obs {

/// Maximum key/value arguments attached to one trace event.
inline constexpr int kMaxTraceArgs = 4;

/// Tracing configuration, passed to StartTracing. Defined in all build
/// modes so callers compile unchanged when tracing is compiled out.
struct TraceOptions {
  /// Ring capacity, in events, of each per-thread buffer. When a thread
  /// records more, the oldest events are overwritten (drop-oldest) and the
  /// thread's dropped-events counter grows.
  std::size_t buffer_events = std::size_t{1} << 16;
};

enum class TraceEventType : std::uint8_t {
  kBegin,    ///< span opened (Chrome "ph":"B")
  kEnd,      ///< span closed (Chrome "ph":"E"; carries the span's args)
  kInstant,  ///< point event (Chrome "ph":"i", thread-scoped)
  kCounter,  ///< counter-track sample (Chrome "ph":"C")
};

/// One recorded event. Name/category/argument-name pointers must refer to
/// storage that outlives the trace session (string literals in practice).
struct TraceEvent {
  TraceEventType type = TraceEventType::kInstant;
  std::uint8_t num_args = 0;
  const char* name = nullptr;
  const char* category = nullptr;
  /// Nanoseconds since the trace session epoch (StartTracing).
  std::uint64_t ts_nanos = 0;
  const char* arg_names[kMaxTraceArgs] = {};
  std::uint64_t arg_values[kMaxTraceArgs] = {};
};

/// One thread's linearized (oldest-first) event stream.
struct TraceThread {
  int tid = 0;            ///< registration-order id, stable for the session
  std::string name;       ///< from SetTraceThreadName(); may be empty
  std::uint64_t dropped_events = 0;  ///< events lost to ring overwrite
  std::vector<TraceEvent> events;
};

/// Self-describing record of one cleaned tag: what went in, what came out,
/// and how long each phase took. Appended to the trace metadata and
/// optionally embedded in --stats JSON.
struct TagProvenance {
  long long tag = 0;                    ///< tag id (0 for single-tag runs)
  std::uint64_t input_digest = 0;       ///< FNV-1a of the input l-sequence
  std::uint64_t constraint_digest = 0;  ///< FNV-1a of the constraint set
  std::uint64_t graph_digest = 0;       ///< FNV-1a of the output graph; 0 on failure
  double forward_millis = 0.0;
  double backward_millis = 0.0;
  std::string status;  ///< "ok" or the failure status string
};

/// Snapshot of one trace session: per-thread event streams (sorted by tid)
/// plus the provenance records collected so far.
struct TraceCollection {
  std::vector<TraceThread> threads;
  std::vector<TagProvenance> provenance;

  std::uint64_t DroppedEvents() const {
    std::uint64_t dropped = 0;
    for (const TraceThread& thread : threads) dropped += thread.dropped_events;
    return dropped;
  }
  std::size_t NumEvents() const {
    std::size_t n = 0;
    for (const TraceThread& thread : threads) n += thread.events.size();
    return n;
  }
};

/// Whether this build can trace at all (compile-time constant).
constexpr bool TraceCompiledIn() { return RFIDCLEAN_TRACE_ENABLED != 0; }

#if RFIDCLEAN_TRACE_ENABLED

namespace internal {
/// Session-armed flag. Relaxed is sufficient: arming happens-before any
/// traced work in the supported flows (tracing is started before workers
/// are spawned), and a probe that races a start/stop merely lands in or
/// out of the session.
extern std::atomic<bool> g_trace_armed;
inline bool TraceArmed() {
  return g_trace_armed.load(std::memory_order_relaxed);
}

void EmitBegin(const char* category, const char* name);
void EmitEnd(const char* category, const char* name,
             const char* const* arg_names, const std::uint64_t* arg_values,
             int num_args);
}  // namespace internal

/// Begins a fresh trace session: clears any previous events/provenance,
/// re-arms every registered thread buffer at `options.buffer_events`
/// capacity and resets the timestamp epoch. Quiesce traced threads first.
void StartTracing(const TraceOptions& options);

/// Disarms tracing and releases all buffered events and provenance.
void StopTracing();

/// Whether a trace session is active.
bool TraceActive();

/// Snapshots every live and retired thread buffer plus the provenance
/// records, without disturbing the session. Threads are sorted by tid;
/// events within a thread are oldest-first.
TraceCollection CollectTrace();

/// Names the calling thread's track in the exported trace ("worker-3").
/// No-op unless a session is active.
void SetTraceThreadName(const std::string& name);

/// Records a point event on the calling thread's track.
void TraceInstant(const char* category, const char* name);
void TraceInstant(const char* category, const char* name,
                  const char* arg_name, std::uint64_t arg_value);

/// Records one sample of the process-wide counter track `name`.
void TraceCounter(const char* name, std::uint64_t value);

/// Appends one tag's provenance record to the session. No-op unless a
/// session is active.
void RecordTagProvenance(TagProvenance provenance);

/// RAII span: emits a begin event at construction and an end event (with
/// any accumulated args) at destruction. The armed decision is latched at
/// construction so a begin/end pair never splits across a session edge.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name)
      : armed_(internal::TraceArmed()), category_(category), name_(name) {
    if (armed_) internal::EmitBegin(category_, name_);
  }
  ~TraceSpan() {
    if (armed_) {
      internal::EmitEnd(category_, name_, arg_names_, arg_values_, num_args_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a key/value argument to the span's end event (merged into
  /// the span by trace viewers). At most kMaxTraceArgs stick; extras are
  /// ignored. `arg_name` must outlive the session.
  void AddArg(const char* arg_name, std::uint64_t value) {
    if (!armed_ || num_args_ >= kMaxTraceArgs) return;
    arg_names_[num_args_] = arg_name;
    arg_values_[num_args_] = value;
    ++num_args_;
  }

 private:
  bool armed_;
  const char* category_;
  const char* name_;
  int num_args_ = 0;
  const char* arg_names_[kMaxTraceArgs] = {};
  std::uint64_t arg_values_[kMaxTraceArgs] = {};
};

#else  // !RFIDCLEAN_TRACE_ENABLED

inline void StartTracing(const TraceOptions&) {}
inline void StopTracing() {}
inline bool TraceActive() { return false; }
inline TraceCollection CollectTrace() { return {}; }
inline void SetTraceThreadName(const std::string&) {}
inline void TraceInstant(const char*, const char*) {}
inline void TraceInstant(const char*, const char*, const char*,
                         std::uint64_t) {}
inline void TraceCounter(const char*, std::uint64_t) {}
inline void RecordTagProvenance(TagProvenance) {}

/// Zero-state stand-in so unwrapped `span.AddArg(...)` calls still compile
/// in trace-off builds (the RFID_TRACE_SPAN macro declares one of these).
class TraceSpan {
 public:
  constexpr TraceSpan() = default;
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  void AddArg(const char*, std::uint64_t) {}
};

#endif  // RFIDCLEAN_TRACE_ENABLED

}  // namespace rfidclean::obs

#endif  // RFIDCLEAN_OBS_TRACE_H_
