#ifndef RFIDCLEAN_CORE_FORWARD_H_
#define RFIDCLEAN_CORE_FORWARD_H_

#include <cstdint>
#include <vector>

#include "core/key_arena.h"
#include "core/location_node.h"
#include "core/successor.h"
#include "core/work_graph.h"
#include "model/lsequence.h"

namespace rfidclean::internal_core {

/// The forward phase of Algorithm 1 (lines 1-14), driven tick by tick by
/// StreamingCleaner (the one cleaning pipeline, docs/ALGORITHM.md §7):
/// materialize the source layer, then expand layer by layer, interning
/// equal keys and labeling each edge with the a-priori probability of its
/// target location. Produces the CSR WorkGraph consumed by
/// ConditionAndCompact.
///
/// Locality-oriented internals (see docs/ALGORITHM.md §8):
///  - node keys live in a per-build NodeKeyArena; nodes and the per-layer
///    dedup work on dense 4-byte key ids (stamp arrays indexed by id, no
///    per-layer hashing),
///  - edges append to one contiguous array — each frontier node is expanded
///    exactly once, so its out-edges form a CSR slice for free,
///  - successor expansion is memoized per parent key across ticks while the
///    candidate location sequence repeats and no traveling-time bookkeeping
///    is pending (the common steady state), skipping the constraint checks
///    and key construction entirely.
///
/// All scratch state (stamps, memo, probability table, key buffers) is
/// owned by the engine, so batch workers that reuse one engine-per-cleaner
/// pattern never reallocate it. Not thread-safe; one engine per build.
class ForwardEngine {
 public:
  /// `num_locations` bounds every candidate location id (matching the
  /// ConstraintSet the successor generator was built from).
  explicit ForwardEngine(std::size_t num_locations);

  /// Pre-sizes node, edge, layer, and interned-key storage. Purely an
  /// allocation hint; results are bit-identical with or without it.
  void ReserveCapacity(std::size_t nodes, std::size_t edges, Timestamp ticks,
                       std::size_t keys);

  /// Creates the source layer (Algorithm 1, lines 1-4): one node per
  /// candidate — sources are intentionally not deduplicated, matching
  /// Definition 2's one-node-per-reading semantics — with the candidate's
  /// probability as the node's a-priori source probability. Must be the
  /// first call.
  void BeginSources(const SuccessorGenerator& successors,
                    const std::vector<Candidate>& candidates);

  /// Expands the current frontier (time t) to time t + 1 under
  /// `next_candidates` and records the new layer. Returns false, recording
  /// nothing, when the new layer would be empty — no frontier node admits
  /// a successor, so every interpretation dies at t + 1. An empty expansion
  /// appends no node and no edge either, so the graph stays observably at
  /// its previous state (the streaming cleaner's failed-Push contract).
  bool AdvanceLayer(const SuccessorGenerator& successors, Timestamp t,
                    const std::vector<Candidate>& next_candidates);

  /// Layers recorded so far (== ticks consumed).
  Timestamp num_layers() const { return work_.num_layers(); }

  const WorkGraph& work() const { return work_; }

  /// Distinct keys interned so far (capacity-recycling diagnostic).
  std::size_t num_keys() const { return work_.keys.size(); }

  /// Surrenders the work graph to ConditionAndCompact. The engine must not
  /// be used afterwards.
  WorkGraph&& TakeWork() { return std::move(work_); }

 private:
  /// Writes each candidate's probability into the dense per-location table.
  /// Stale entries from earlier ticks are never read: successor locations
  /// always come from the current tick's candidates. Last write wins for
  /// duplicate locations, matching the linear candidate scans this
  /// replaces.
  void FillProbabilities(const std::vector<Candidate>& candidates);

  /// Grows the key-indexed scratch arrays (dedup stamps, memo) to cover
  /// `num_keys` arena entries.
  void EnsureKeyCapacity(std::size_t num_keys);

  WorkGraph work_;
  std::size_t num_locations_;
  std::vector<double> prob_of_location_;

  // Per-layer node dedup, indexed by key id: key k already has a node in
  // the layer being built iff key_stamp_[k] == stamp_. O(1), no hashing,
  // no per-layer clearing.
  std::vector<std::uint32_t> key_stamp_;
  std::vector<NodeId> node_of_key_;
  std::uint32_t stamp_ = 0;

  // Successor-expansion memo, indexed by parent key id. An entry is valid
  // iff its epoch equals candidate_epoch_, which bumps whenever the
  // candidate *location sequence* changes between ticks; it is only stored
  // when the parent and every result carry an empty TL, which makes the
  // expansion provably independent of t (see AdvanceLayer). Ids of
  // memoized expansions live in memo_pool_, recycled on epoch bumps.
  struct MemoEntry {
    std::uint32_t epoch = 0;  // 0 = never valid (epochs start at 1)
    std::int32_t begin = 0;
    std::int32_t count = 0;
  };
  std::vector<MemoEntry> memo_;
  std::vector<std::int32_t> memo_pool_;
  std::uint32_t candidate_epoch_ = 0;
  std::vector<LocationId> prev_locations_;

  // Expansion scratch. parent_scratch_ holds a stable copy of the frontier
  // node's key: arena references invalidate when expansion interns new
  // keys. successor_scratch_ is the generator's in-place key buffer.
  NodeKey parent_scratch_;
  NodeKey successor_scratch_;
  std::vector<std::int32_t> scratch_ids_;

  // Dense key-id → location cache, filled by EnsureKeyCapacity: the edge
  // consume loop reads one int32 instead of chasing the arena's key record
  // (SmallVector-bearing, 2+ cache lines) per edge.
  std::vector<LocationId> location_of_key_;
};

}  // namespace rfidclean::internal_core

#endif  // RFIDCLEAN_CORE_FORWARD_H_
