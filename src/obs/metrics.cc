#include "obs/metrics.h"

#if RFIDCLEAN_STATS_ENABLED

#include <bit>
#include <mutex>

#include "obs/sink_registry.h"

namespace rfidclean::obs {
namespace {

/// Per-thread accumulation buffer. Only its owning thread writes it;
/// Snapshot()/ResetAll() read and clear it under the registry mutex, so a
/// snapshot taken while a thread is mid-increment may miss that increment
/// but never tears state the tests rely on — callers quiesce their workers
/// (BatchCleaner joins its pool) before reading totals.
struct ThreadSink {
  std::uint64_t counters[kNumCounters] = {};
  double phase_millis[kNumPhases] = {};
  HistogramData dists[kNumDists];

  void FoldInto(std::uint64_t* counters_out, double* phases_out,
                HistogramData* dists_out) const {
    for (int i = 0; i < kNumCounters; ++i) counters_out[i] += counters[i];
    for (int i = 0; i < kNumPhases; ++i) phases_out[i] += phase_millis[i];
    for (int i = 0; i < kNumDists; ++i) dists_out[i].MergeFrom(dists[i]);
  }

  void Clear() {
    for (std::uint64_t& c : counters) c = 0;
    for (double& p : phase_millis) p = 0.0;
    for (HistogramData& d : dists) d = HistogramData{};
  }
};

/// The folded totals of sinks whose threads have exited (BatchCleaner
/// workers are short-lived; their counts must outlive them).
struct MetricsState {
  using Sink = ThreadSink;
  ThreadSink retired;

  void Register(ThreadSink&) {}
  void Retire(const ThreadSink& sink) {
    sink.FoldInto(retired.counters, retired.phase_millis, retired.dists);
  }
};

using Registry = internal::SinkRegistry<MetricsState>;

int BucketOf(std::uint64_t value) {
  const int bucket = std::bit_width(value);  // 0 -> 0, v>0 -> floor(log2)+1
  return bucket < kHistogramBuckets ? bucket : kHistogramBuckets - 1;
}

}  // namespace

void Add(Counter counter, std::uint64_t n) {
  Registry::Local().counters[static_cast<int>(counter)] += n;
}

void AddMillis(Phase phase, double millis) {
  Registry::Local().phase_millis[static_cast<int>(phase)] += millis;
}

void ObserveValue(Dist dist, std::uint64_t value) {
  HistogramData& h = Registry::Local().dists[static_cast<int>(dist)];
  h.count += 1;
  h.sum += value;
  if (value > h.max) h.max = value;
  h.buckets[BucketOf(value)] += 1;
}

namespace internal {

void SnapshotInto(std::uint64_t* counters, double* phases,
                  HistogramData* dists) {
  Registry& registry = Registry::Get();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.retired.FoldInto(counters, phases, dists);
  for (const ThreadSink* sink : registry.live) {
    sink->FoldInto(counters, phases, dists);
  }
}

void ResetAll() {
  Registry& registry = Registry::Get();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.retired.Clear();
  for (ThreadSink* sink : registry.live) sink->Clear();
}

}  // namespace internal
}  // namespace rfidclean::obs

#endif  // RFIDCLEAN_STATS_ENABLED
