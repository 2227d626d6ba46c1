#ifndef RFIDCLEAN_RUNTIME_ARENA_H_
#define RFIDCLEAN_RUNTIME_ARENA_H_

#include <algorithm>
#include <cstddef>

#include "core/builder.h"
#include "core/streaming.h"

namespace rfidclean::runtime {

/// Thread-confined allocation recycler for consecutive cleanings. Each
/// BatchCleaner lane owns one WorkerArena; before cleaning a tag it
/// pre-reserves the StreamingCleaner's node/edge/layer storage to the
/// high-water marks observed over the tags the lane already processed,
/// so in steady state a per-tag build performs one up-front reservation
/// instead of a geometric regrowth chain of its work arrays (the dominant
/// allocations of the forward phase). Purely an allocation hint: the
/// cleaning result is bit-identical with or without it.
///
/// Not thread-safe by design — one instance per pool lane.
class WorkerArena {
 public:
  /// Applies the recorded high-water marks to a fresh cleaner about to
  /// consume `expected_ticks` ticks.
  void Prepare(StreamingCleaner* cleaner, Timestamp expected_ticks) const {
    cleaner->ReserveCapacity(node_hint_, edge_hint_,
                             std::max(expected_ticks, tick_hint_),
                             key_hint_);
  }

  /// Records the peak node/edge/key counts of a finished build (BuildStats
  /// is filled by StreamingCleaner::Finish) and the tick count it spanned.
  void Observe(const BuildStats& stats, Timestamp ticks) {
    node_hint_ = std::max(node_hint_, stats.peak_nodes);
    edge_hint_ = std::max(edge_hint_, stats.peak_edges);
    key_hint_ = std::max(key_hint_, stats.peak_keys);
    tick_hint_ = std::max(tick_hint_, ticks);
  }

  std::size_t node_hint() const { return node_hint_; }
  std::size_t edge_hint() const { return edge_hint_; }
  std::size_t key_hint() const { return key_hint_; }
  Timestamp tick_hint() const { return tick_hint_; }

 private:
  std::size_t node_hint_ = 0;
  std::size_t edge_hint_ = 0;
  std::size_t key_hint_ = 0;
  Timestamp tick_hint_ = 0;
};

}  // namespace rfidclean::runtime

#endif  // RFIDCLEAN_RUNTIME_ARENA_H_
