#include "core/forward.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfidclean::internal_core {

ForwardEngine::ForwardEngine(std::size_t num_locations)
    : num_locations_(num_locations) {
  prob_of_location_.assign(num_locations, 0.0);
}

void ForwardEngine::ReserveCapacity(std::size_t nodes, std::size_t edges,
                                    Timestamp ticks, std::size_t keys) {
  work_.key_id.reserve(nodes);
  work_.edge_begin.reserve(nodes > 0 ? nodes + 1 : 0);
  work_.apriori.reserve(nodes);
  work_.edge_to.reserve(edges);
  if (ticks > 0) {
    work_.layer_begin.reserve(static_cast<std::size_t>(ticks) + 1);
  }
  if (keys > 0) {
    work_.keys.Reserve(keys);
    EnsureKeyCapacity(keys);
    memo_pool_.reserve(keys);
  }
}

void ForwardEngine::FillProbabilities(
    const std::vector<Candidate>& candidates) {
  for (const Candidate& candidate : candidates) {
    // Bounds-abort matches the ConstraintSet::CheckId failure an
    // out-of-range id would have hit inside successor generation.
    RFID_CHECK_GE(candidate.location, 0);
    RFID_CHECK_LT(static_cast<std::size_t>(candidate.location),
                  num_locations_);
    prob_of_location_[static_cast<std::size_t>(candidate.location)] =
        candidate.probability;
  }
}

void ForwardEngine::EnsureKeyCapacity(std::size_t num_keys) {
  // The location cache always catches up with the arena (independent of
  // the hint-driven scratch growth below): every id the consume loop can
  // see has been interned, and every Intern batch is followed by a call
  // here before the ids are consumed.
  for (std::size_t k = location_of_key_.size(); k < work_.keys.size(); ++k) {
    location_of_key_.push_back(
        work_.keys.location(static_cast<std::int32_t>(k)));
  }
  if (key_stamp_.size() >= num_keys) return;
  key_stamp_.resize(num_keys, 0);
  node_of_key_.resize(num_keys, kInvalidNode);
  memo_.resize(num_keys);
  location_of_key_.reserve(num_keys);
}

std::size_t ForwardEngine::ApproximateBytes() const {
  return work_.ApproximateBytes() + work_.keys.ApproximateBytes() +
         key_stamp_.capacity() * sizeof(std::uint32_t) +
         node_of_key_.capacity() * sizeof(NodeId) +
         memo_.capacity() * sizeof(MemoEntry) +
         memo_pool_.capacity() * sizeof(std::int32_t) +
         location_of_key_.capacity() * sizeof(LocationId);
}

WorkGraph ForwardEngine::TakeWork() {
  std::vector<std::uint32_t>().swap(key_stamp_);
  std::vector<NodeId>().swap(node_of_key_);
  std::vector<MemoEntry>().swap(memo_);
  std::vector<std::int32_t>().swap(memo_pool_);
  std::vector<LocationId>().swap(location_of_key_);
  work_.keys.ReleaseInternState();
  return std::move(work_);
}

void ForwardEngine::BeginSources(const SuccessorGenerator& successors,
                                 const std::vector<Candidate>& candidates) {
  RFID_TRACE_SPAN(span, "forward", "forward_sources");
  RFID_CHECK(work_.layer_begin.empty());
  work_.layer_begin.push_back(0);
  FillProbabilities(candidates);
  successors.ForEachSourceKey(
      candidates, &successor_scratch_, [this](const NodeKey& key) {
        work_.key_id.push_back(work_.keys.Intern(key, stamp_));
        work_.apriori.push_back(
            prob_of_location_[static_cast<std::size_t>(key.location)]);
      });
  EnsureKeyCapacity(work_.keys.size());
  const std::size_t width = work_.num_nodes();
  work_.edge_begin.assign(width + 1, 0);
  work_.layer_begin.push_back(static_cast<std::int32_t>(width));
  prev_locations_.clear();  // First AdvanceLayer always opens a new epoch.
  RFID_TRACE(span.AddArg("width", width));
#if RFIDCLEAN_STATS_ENABLED
  obs::Add(obs::Counter::kForwardLayers);
  obs::Add(obs::Counter::kForwardNodes, width);
  obs::ObserveValue(obs::Dist::kLayerWidth, width);
#endif
}

Status ForwardEngine::AdvanceLayer(
    const SuccessorGenerator& successors, Timestamp t,
    const std::vector<Candidate>& next_candidates) {
  RFID_TRACE_SPAN(span, "forward", "forward_layer");
  RFID_TRACE(span.AddArg("t", static_cast<std::uint64_t>(t)));
  RFID_CHECK_GE(work_.layer_begin.size(), 2u);

  // The memo epoch tracks the candidate *location sequence*: while
  // consecutive ticks present the same locations in the same order (the
  // steady state of a stationary a-priori model), memoized expansions stay
  // valid. prev_locations_ starts empty, so the first layer always opens
  // epoch 1 and the default MemoEntry epoch 0 never matches.
  bool same_locations = prev_locations_.size() == next_candidates.size();
  if (same_locations) {
    for (std::size_t i = 0; i < next_candidates.size(); ++i) {
      if (prev_locations_[i] != next_candidates[i].location) {
        same_locations = false;
        break;
      }
    }
  }
  if (!same_locations) {
    ++candidate_epoch_;
    memo_pool_.clear();  // Every memo entry just went stale.
    prev_locations_.clear();
    for (const Candidate& candidate : next_candidates) {
      prev_locations_.push_back(candidate.location);
    }
  }
  FillProbabilities(next_candidates);
  ++stamp_;

  const std::int32_t frontier_begin =
      work_.layer_begin[work_.layer_begin.size() - 2];
  const std::int32_t frontier_end = work_.layer_begin.back();
  const std::size_t edges_before = work_.num_edges();

#if RFIDCLEAN_STATS_ENABLED
  // Per-layer accumulation in locals, flushed once below: the frontier loop
  // must not touch a thread-local sink per node or per edge.
  std::uint64_t stats_memo_hits = 0;
#endif

  for (std::int32_t id = frontier_begin; id < frontier_end; ++id) {
    const std::size_t idx = static_cast<std::size_t>(id);
    // Within 32 bits: the edge count is kept to FitsWorkGraph below.
    work_.edge_begin[idx] = static_cast<std::uint32_t>(work_.num_edges());
    const std::int32_t parent_key = work_.key_id[idx];

    scratch_ids_.clear();
    const MemoEntry memo = memo_[static_cast<std::size_t>(parent_key)];
    if (memo.epoch == candidate_epoch_) {
      // Stored by an earlier tick of this epoch, or by a duplicate parent
      // key earlier in this layer (sources are not deduplicated).
      RFID_STATS(++stats_memo_hits);
      for (std::int32_t k = 0; k < memo.count; ++k) {
        scratch_ids_.push_back(
            memo_pool_[static_cast<std::size_t>(memo.begin + k)]);
      }
    } else {
      // Copy the parent key out of the arena: interning the successors can
      // grow the TL pool under a live view.
      work_.keys.key(parent_key).CopyTo(&parent_scratch_);
      const bool parent_tl_empty = parent_scratch_.departures.size() == 0;
      bool results_tl_empty = true;
      successors.ForEachSuccessor(
          t, parent_scratch_, next_candidates, &successor_scratch_,
          [this, &results_tl_empty](const NodeKey& key) {
            if (key.departures.size() != 0) results_tl_empty = false;
            scratch_ids_.push_back(work_.keys.Intern(key, stamp_));
          });
      EnsureKeyCapacity(work_.keys.size());
      if (parent_tl_empty && results_tl_empty) {
        // With no traveling-time bookkeeping on either side, the expansion
        // depends on t only through the departure-kept test `1 < window`,
        // which is t-invariant — so it can be replayed at any later tick
        // of the same epoch.
        MemoEntry& slot = memo_[static_cast<std::size_t>(parent_key)];
        slot.epoch = candidate_epoch_;
        slot.begin = static_cast<std::int32_t>(memo_pool_.size());
        slot.count = static_cast<std::int32_t>(scratch_ids_.size());
        memo_pool_.insert(memo_pool_.end(), scratch_ids_.begin(),
                          scratch_ids_.end());
      }
    }

    const std::size_t edges_after = work_.num_edges() + scratch_ids_.size();
    if (!FitsWorkGraph(edges_after)) {
      work_.RollBackExpansion();
      return WorkGraphBoundError(edges_after, "edges", t + 1);
    }
    for (const std::int32_t key_id : scratch_ids_) {
      const std::size_t k = static_cast<std::size_t>(key_id);
      NodeId target;
      if (key_stamp_[k] == stamp_) {
        target = node_of_key_[k];
      } else {
        if (!FitsWorkGraph(work_.num_nodes() + 1)) {
          work_.RollBackExpansion();
          return WorkGraphBoundError(work_.num_nodes() + 1, "nodes", t + 1);
        }
        key_stamp_[k] = stamp_;
        target = static_cast<NodeId>(work_.num_nodes());
        node_of_key_[k] = target;
        // Every in-edge of this node is created in this call, from this
        // tick's table, so each would carry this one label.
        work_.key_id.push_back(key_id);
        work_.apriori.push_back(
            prob_of_location_[static_cast<std::size_t>(location_of_key_[k])]);
      }
      work_.edge_to.push_back(target);
    }
  }

  const std::int32_t layer_end = static_cast<std::int32_t>(work_.num_nodes());
  const bool non_empty = layer_end != frontier_end;
#if RFIDCLEAN_STATS_ENABLED
  // Expansion work happened whether or not the layer gets recorded.
  const std::uint64_t stats_frontier =
      static_cast<std::uint64_t>(frontier_end - frontier_begin);
  obs::Add(obs::Counter::kForwardMemoHits, stats_memo_hits);
  obs::Add(obs::Counter::kForwardExpansions, stats_frontier - stats_memo_hits);
  if (non_empty) {
    const std::uint64_t stats_width =
        static_cast<std::uint64_t>(layer_end - frontier_end);
    obs::Add(obs::Counter::kForwardLayers);
    obs::Add(obs::Counter::kForwardNodes, stats_width);
    obs::Add(obs::Counter::kForwardEdges, work_.num_edges() - edges_before);
    obs::ObserveValue(obs::Dist::kLayerWidth, stats_width);
  }
  RFID_TRACE(span.AddArg("memo_hits", stats_memo_hits));
#endif
  RFID_TRACE(
      span.AddArg("width", static_cast<std::uint64_t>(layer_end -
                                                      frontier_end)));
  RFID_TRACE(span.AddArg("edges", work_.num_edges() - edges_before));
  if (!non_empty) {
    // Structural dead end: no frontier node admits any successor at t + 1,
    // so every interpretation dies here (CleanSequence books the unit of
    // mass in the explain summary). An empty expansion appended no node
    // and no edge, and the frontier's refreshed (empty) CSR slices are
    // indistinguishable from their previous state — the caller observes
    // the graph exactly as before.
    return InfeasibleSequenceError();
  }
  // The last frontier slice ends, and the new (unexpanded) layer's slices
  // begin and end, at the edge count.
  work_.edge_begin.resize(static_cast<std::size_t>(layer_end) + 1);
  std::fill(work_.edge_begin.begin() + frontier_end, work_.edge_begin.end(),
            static_cast<std::uint32_t>(work_.num_edges()));
  work_.layer_begin.push_back(layer_end);
  return Status::Ok();
}

}  // namespace rfidclean::internal_core
