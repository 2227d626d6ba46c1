#ifndef RFIDCLEAN_OBS_CLEANING_STATS_H_
#define RFIDCLEAN_OBS_CLEANING_STATS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

/// \file
/// Point-in-time aggregation of the pipeline metrics (obs/metrics.h) into a
/// value type that tools, benches and tests can snapshot, diff, check and
/// serialize. `Capture()` sums all thread sinks; quiesce worker threads
/// first (BatchCleaner joins its pool before returning) for exact totals.

namespace rfidclean::obs {

/// Aggregated pipeline metrics at one instant. All fields are process-wide
/// sums since start (or the last `Reset()`).
struct CleaningStats {
  std::uint64_t counters[kNumCounters] = {};
  double phase_millis[kNumPhases] = {};
  HistogramData dists[kNumDists];

  /// Sums every live + retired thread sink. All-zero when stats are
  /// compiled out (RFIDCLEAN_STATS=OFF).
  static CleaningStats Capture();

  /// Zeroes all sinks so the next Capture() covers a fresh window.
  static void Reset();

  std::uint64_t Get(Counter counter) const {
    return counters[static_cast<int>(counter)];
  }
  double Millis(Phase phase) const {
    return phase_millis[static_cast<int>(phase)];
  }
  const HistogramData& Hist(Dist dist) const {
    return dists[static_cast<int>(dist)];
  }

  /// Pointwise `this - earlier`, for windowed measurements around a phase.
  CleaningStats DeltaSince(const CleaningStats& earlier) const;

  /// Checks the cross-counter invariants documented in ALGORITHM.md §9
  /// (e.g. edges_killed + edges_kept == edges_built). Returns one message
  /// per violated invariant; empty means consistent. Always empty when
  /// stats are compiled out.
  std::vector<std::string> CheckInvariants() const;

  /// Serializes counters, phase times and histogram summaries as one JSON
  /// object (stable key order; counters as integers, times as doubles),
  /// indented by `indent` spaces. Layout documented in README "--stats".
  /// When `provenance` is non-null, the object additionally carries a
  /// "provenance" array of per-tag records (obs/trace_export.h layout).
  void WriteJson(std::ostream& os, int indent = 0,
                 const std::vector<TagProvenance>* provenance = nullptr) const;
};

/// Samples a fixed subset of the pipeline counters into trace counter
/// tracks (forward_nodes, forward_edges, backward_edges_killed,
/// batch_tags_cleaned), one point per call. Called once a clean is over
/// (after BatchCleaner::CleanAll joins its pool, after a single-tag
/// Build), never while other threads write their sinks: Capture() reads
/// every sink without synchronization. No-op unless stats and tracing are
/// both compiled in and a trace session is active.
void TraceSampleCounterTracks();

/// Snake-case stable identifier for each enumerator, used as the JSON key.
const char* CounterName(Counter counter);
const char* PhaseName(Phase phase);
const char* DistName(Dist dist);

}  // namespace rfidclean::obs

#endif  // RFIDCLEAN_OBS_CLEANING_STATS_H_
