#include "obs/trace.h"

#if RFIDCLEAN_TRACE_ENABLED

#include <algorithm>
#include <chrono>
#include <mutex>
#include <utility>

#include "obs/sink_registry.h"

namespace rfidclean::obs {
namespace {

std::uint64_t SteadyNowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Session epoch (steady-clock nanos at StartTracing). Read without the
/// registry lock on the hot path; written only while arming a session.
std::atomic<std::uint64_t> g_epoch_nanos{0};

/// Per-thread event ring. Only its owning thread writes events; arming,
/// collection and teardown touch it under the registry mutex while the
/// owning thread is quiesced (same contract as the metric sinks).
struct TraceSink {
  std::vector<TraceEvent> ring;
  std::size_t next = 0;          ///< write cursor
  std::uint64_t written = 0;     ///< total events ever recorded
  int tid = 0;
  std::string name;

  void Arm(std::size_t capacity) {
    ring.assign(capacity, TraceEvent{});
    next = 0;
    written = 0;
  }

  void Disarm() {
    ring.clear();
    ring.shrink_to_fit();
    next = 0;
    written = 0;
  }

  void Append(const TraceEvent& event) {
    if (ring.empty()) return;  // armed flag raced a stop; drop quietly
    ring[next] = event;
    ++next;
    if (next == ring.size()) next = 0;
    ++written;
  }

  std::uint64_t DroppedEvents() const {
    return written > ring.size() ? written - ring.size() : 0;
  }

  /// Oldest-first copy of the ring's surviving events.
  TraceThread Linearize() const {
    TraceThread thread;
    thread.tid = tid;
    thread.name = name;
    thread.dropped_events = DroppedEvents();
    const std::size_t kept =
        written < ring.size() ? static_cast<std::size_t>(written) : ring.size();
    thread.events.reserve(kept);
    const std::size_t start = written > ring.size() ? next : 0;
    for (std::size_t i = 0; i < kept; ++i) {
      thread.events.push_back(ring[(start + i) % ring.size()]);
    }
    return thread;
  }
};

/// Session state: the linearized buffers of threads that exited mid-session
/// (short-lived BatchCleaner workers keep their tracks), the provenance
/// records, the options and the next thread id.
struct TraceState {
  using Sink = TraceSink;
  std::vector<TraceThread> retired;
  std::vector<TagProvenance> provenance;
  TraceOptions options;
  int next_tid = 0;

  void Register(TraceSink& sink) {
    sink.tid = next_tid++;
    if (internal::TraceArmed()) sink.Arm(options.buffer_events);
  }
  void Retire(const TraceSink& sink) {
    if (internal::TraceArmed() && sink.written > 0) {
      retired.push_back(sink.Linearize());
    }
  }
};

using Registry = internal::SinkRegistry<TraceState>;

std::uint64_t SessionNanos() {
  const std::uint64_t epoch = g_epoch_nanos.load(std::memory_order_relaxed);
  const std::uint64_t now = SteadyNowNanos();
  return now > epoch ? now - epoch : 0;
}

TraceEvent MakeEvent(TraceEventType type, const char* category,
                     const char* name) {
  TraceEvent event;
  event.type = type;
  event.category = category;
  event.name = name;
  event.ts_nanos = SessionNanos();
  return event;
}

}  // namespace

namespace internal {

std::atomic<bool> g_trace_armed{false};

void EmitBegin(const char* category, const char* name) {
  Registry::Local().Append(MakeEvent(TraceEventType::kBegin, category, name));
}

void EmitEnd(const char* category, const char* name,
             const char* const* arg_names, const std::uint64_t* arg_values,
             int num_args) {
  TraceEvent event = MakeEvent(TraceEventType::kEnd, category, name);
  if (num_args > kMaxTraceArgs) num_args = kMaxTraceArgs;
  event.num_args = static_cast<std::uint8_t>(num_args);
  for (int i = 0; i < num_args; ++i) {
    event.arg_names[i] = arg_names[i];
    event.arg_values[i] = arg_values[i];
  }
  Registry::Local().Append(event);
}

}  // namespace internal

void StartTracing(const TraceOptions& options) {
  Registry& registry = Registry::Get();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.options = options;
  if (registry.options.buffer_events < 8) registry.options.buffer_events = 8;
  registry.retired.clear();
  registry.provenance.clear();
  for (TraceSink* sink : registry.live) {
    sink->Arm(registry.options.buffer_events);
  }
  g_epoch_nanos.store(SteadyNowNanos(), std::memory_order_relaxed);
  internal::g_trace_armed.store(true, std::memory_order_release);
}

void StopTracing() {
  Registry& registry = Registry::Get();
  std::lock_guard<std::mutex> lock(registry.mutex);
  internal::g_trace_armed.store(false, std::memory_order_release);
  registry.retired.clear();
  registry.provenance.clear();
  for (TraceSink* sink : registry.live) sink->Disarm();
}

bool TraceActive() { return internal::TraceArmed(); }

TraceCollection CollectTrace() {
  Registry& registry = Registry::Get();
  std::lock_guard<std::mutex> lock(registry.mutex);
  TraceCollection collection;
  collection.threads = registry.retired;
  for (const TraceSink* sink : registry.live) {
    if (sink->written > 0 || !sink->name.empty()) {
      collection.threads.push_back(sink->Linearize());
    }
  }
  std::sort(collection.threads.begin(), collection.threads.end(),
            [](const TraceThread& a, const TraceThread& b) {
              return a.tid < b.tid;
            });
  collection.provenance = registry.provenance;
  return collection;
}

void SetTraceThreadName(const std::string& name) {
  if (!internal::TraceArmed()) return;
  TraceSink& sink = Registry::Local();
  Registry& registry = Registry::Get();
  std::lock_guard<std::mutex> lock(registry.mutex);
  sink.name = name;
}

void TraceInstant(const char* category, const char* name) {
  if (!internal::TraceArmed()) return;
  Registry::Local().Append(MakeEvent(TraceEventType::kInstant, category, name));
}

void TraceInstant(const char* category, const char* name,
                  const char* arg_name, std::uint64_t arg_value) {
  if (!internal::TraceArmed()) return;
  TraceEvent event = MakeEvent(TraceEventType::kInstant, category, name);
  event.num_args = 1;
  event.arg_names[0] = arg_name;
  event.arg_values[0] = arg_value;
  Registry::Local().Append(event);
}

void TraceCounter(const char* name, std::uint64_t value) {
  if (!internal::TraceArmed()) return;
  TraceEvent event = MakeEvent(TraceEventType::kCounter, "counters", name);
  event.num_args = 1;
  event.arg_names[0] = "value";
  event.arg_values[0] = value;
  Registry::Local().Append(event);
}

void RecordTagProvenance(TagProvenance provenance) {
  if (!internal::TraceArmed()) return;
  Registry& registry = Registry::Get();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.provenance.push_back(std::move(provenance));
}

}  // namespace rfidclean::obs

#endif  // RFIDCLEAN_TRACE_ENABLED
