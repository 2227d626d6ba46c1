#ifndef RFIDCLEAN_CORE_SUCCESSOR_H_
#define RFIDCLEAN_CORE_SUCCESSOR_H_

#include <cstdint>
#include <vector>

#include "constraints/constraint_set.h"
#include "core/location_node.h"
#include "model/lsequence.h"

namespace rfidclean {

struct SuccessorOptions {
  /// Reachability-aware TL pruning. The paper keeps a TL entry (τ', l')
  /// until τ - τ' ≥ maxTravelingTime(l'). We additionally drop it as soon
  /// as *no* traveling-time violation is reachable anymore: to violate
  /// travelingTime(l', l'', ν) the object must arrive at l'' before
  /// τ' + ν, and its earliest possible arrival — now + hop-distance from
  /// its current location under the direct-unreachability graph — never
  /// decreases over time, so once every target is out of reach the entry
  /// can never matter again. This merges node variants that differ only in
  /// irrelevant TL entries; it provably preserves the represented
  /// trajectory set and all conditioned probabilities (cross-checked by
  /// the randomized property suite) while shrinking TT graphs by an order
  /// of magnitude. Disable to reproduce the paper's exact node identity
  /// (the ablation bench measures the difference).
  bool reachability_tl_pruning = true;
};

/// Minimum number of one-tick moves between every pair of locations under
/// the direct-unreachability constraints. Computed once per ConstraintSet
/// (BFS over adjacency lists of the "can move in one tick" graph) and
/// shareable across every SuccessorGenerator built for that set — the
/// batch runtime computes it once instead of once per tag.
class HopDistances {
 public:
  static constexpr Timestamp kUnreachable = 1 << 29;

  static HopDistances Compute(const ConstraintSet& constraints);

  /// Hop count of the shortest move sequence from `from` to `to`
  /// (0 when equal, kUnreachable when none exists).
  Timestamp hop(LocationId from, LocationId to) const {
    return hops_[static_cast<std::size_t>(from) * num_locations_ +
                 static_cast<std::size_t>(to)];
  }

  std::size_t num_locations() const { return num_locations_; }

 private:
  std::vector<Timestamp> hops_;
  std::size_t num_locations_ = 0;
};

/// Why ForEachSuccessor refused (or would refuse) a candidate target
/// location, for decision-level attribution (obs/explain.h). kAdmissible
/// means the move passes every Definition-3 check — the forward phase
/// therefore materializes the edge.
enum class SuccessorReject : std::uint8_t {
  kAdmissible,   ///< the move/stay satisfies all checks
  kUnreachable,  ///< condition 2: DU forbids the direct move
  kLatency,      ///< condition 4: the latency bound pins the object in place
  kTravelTime,   ///< condition 5 / Def.-3 completion: a TT bound is violated
};

/// Implements the successor relation of Definition 3: which location nodes
/// at time t+1 consistently extend a given node at time t, under the
/// integrity constraints and the candidate locations of the next time
/// point. Candidates are passed per call, so the generator serves both the
/// batch builder (reading them from an LSequence) and the streaming cleaner
/// (receiving them one tick at a time).
///
/// Beyond the paper's six conditions, the generator rejects a direct move
/// l1 -> l2 when travelingTime(l1, l2, nu) ∈ IC with nu > 1 (Def. 3 checks
/// TT constraints only against TL, which never contains the current stay;
/// for map-inferred constraint sets the DU constraint between non-adjacent
/// locations subsumes this, but hand-written sets need the explicit check to
/// keep ct-graph paths ≡ Def.-2-valid trajectories). See DESIGN.md.
///
/// All generation methods are const and touch only state fixed at
/// construction, so one generator can be shared across threads.
class SuccessorGenerator {
 public:
  /// The constraint set must outlive the generator. Computes the hop
  /// distances itself; prefer the overload below when constructing several
  /// generators for the same constraint set.
  explicit SuccessorGenerator(
      const ConstraintSet& constraints,
      const SuccessorOptions& options = SuccessorOptions());

  /// As above, but reuses hop distances precomputed with
  /// HopDistances::Compute(constraints). Only consulted during
  /// construction; `hops` need not outlive the call.
  SuccessorGenerator(const ConstraintSet& constraints,
                     const HopDistances& hops,
                     const SuccessorOptions& options = SuccessorOptions());

  /// Streams the keys of the source nodes (timestamp 0) for the given
  /// candidate locations through `fn`: one per candidate l, with δ = 0 if
  /// l carries a latency constraint (the stay observably starts at τ=0,
  /// Definition 2) and δ = ⊥ otherwise; TL is empty. Each key is built in
  /// `*scratch` and passed by reference — copy it inside `fn` if it must
  /// survive the next iteration.
  template <typename Fn>
  void ForEachSourceKey(const std::vector<Candidate>& candidates,
                        NodeKey* scratch, Fn&& fn) const {
    for (const Candidate& candidate : candidates) {
      scratch->location = candidate.location;
      scratch->delta =
          constraints_->HasLatency(candidate.location) ? 0 : kDeltaBottom;
      scratch->departures.clear();
      fn(static_cast<const NodeKey&>(*scratch));
    }
  }

  /// Streams the keys of the successors at time t+1 of the node (t, from),
  /// restricted to `next_candidates` (the candidate locations at time
  /// t+1), through `fn`. Successor keys are unique per target location.
  /// Each key is built in `*scratch` (which must not alias `from`) and
  /// passed by reference — copy it inside `fn` if it must survive the next
  /// iteration. The scratch's departure list keeps its heap capacity
  /// across calls, so a long-lived scratch makes TL maintenance
  /// allocation-free.
  template <typename Fn>
  void ForEachSuccessor(Timestamp t, const NodeKey& from,
                        const std::vector<Candidate>& next_candidates,
                        NodeKey* scratch, Fn&& fn) const {
    const LocationId l1 = from.location;
    const Timestamp arrival = t + 1;
    for (const Candidate& candidate : next_candidates) {
      const LocationId l2 = candidate.location;
      if (l1 != l2) {
        // Condition 2: l2 directly reachable from l1.
        if (constraints_->IsUnreachable(l1, l2)) continue;
        // Condition 4: leaving l1 is only allowed once its latency
        // constraint is satisfied; δ ≠ ⊥ means the stay is still too short
        // (saturation invariant, §4.1 fact B).
        if (from.delta != kDeltaBottom) continue;
        // Condition 5: no pending traveling-time constraint from a
        // recently left location forbids arriving at l2 now.
        bool violates_tt = false;
        for (std::size_t i = 0; i < from.departures.size(); ++i) {
          const Departure& d = from.departures[i];
          Timestamp required = constraints_->MinTravelTicks(d.location, l2);
          if (required > 0 && arrival - d.time < required) {
            violates_tt = true;
            break;
          }
        }
        if (violates_tt) continue;
        // Def. 3 completion (see class comment): a one-tick move cannot
        // satisfy a traveling-time bound of two or more ticks.
        if (constraints_->MinTravelTicks(l1, l2) > 1) continue;
      }
      BuildSuccessorKey(t, from, l2, scratch);
      fn(static_cast<const NodeKey&>(*scratch));
    }
  }

  /// Re-runs the Definition-3 checks for the single move (t, from) ->
  /// (t+1, to) and names the first one that fails, in the exact order
  /// ForEachSuccessor applies them — the two must stay in lockstep so that
  /// ClassifyRejection(...) == kAdmissible iff ForEachSuccessor would emit
  /// the successor key. Only the lockstep test
  /// (SuccessorGeneratorTest.ClassifyRejectionLockstepAndGroupClasses)
  /// calls it: it is the per-move reference that the explain attribution
  /// pass's per-group classification (core/explain_attribution.cc) must
  /// agree with.
  SuccessorReject ClassifyRejection(Timestamp t, const NodeKey& from,
                                    LocationId to) const;

  const ConstraintSet& constraints() const { return *constraints_; }

 private:
  /// Builds into `*out` the successor key for a legal move/stay, applying
  /// δ saturation and TL maintenance (Def. 3, conditions 3 and 6) in a
  /// single sorted-merge pass over the parent's departure list. `out` must
  /// not alias `from`.
  void BuildSuccessorKey(Timestamp t, const NodeKey& from, LocationId to,
                         NodeKey* out) const;

  /// True while the TL entry (departure_time, from) can still cause a
  /// traveling-time violation for an object sitting at `at` at time
  /// `arrival`.
  bool DepartureStillRelevant(Timestamp departure_time, LocationId from,
                              LocationId at, Timestamp arrival) const;

  /// Ticks after departure from `from` during which the entry stays
  /// relevant at location `at` (window_[from * n + at]).
  std::vector<Timestamp> window_;

  const ConstraintSet* constraints_;
};

}  // namespace rfidclean

#endif  // RFIDCLEAN_CORE_SUCCESSOR_H_
