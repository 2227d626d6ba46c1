#ifndef RFIDCLEAN_ANALYSIS_FEASIBILITY_H_
#define RFIDCLEAN_ANALYSIS_FEASIBILITY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "constraints/constraint_set.h"
#include "model/lsequence.h"

namespace rfidclean {

/// \file
/// Static feasibility analysis of an l-sequence under a constraint set.
///
/// The engine (core/forward.h + core/work_graph.cc) discovers that a branch
/// of the ct-graph is inconsistent only during the backward sweep, after
/// every layer has been materialized. This analyzer answers the same
/// question — "can candidate (t, l) lie on any valid trajectory?" — ahead
/// of time, on a sound relaxation of Definition 3 that ignores the TL
/// component and the exact stay length:
///
///   state  := (location, fresh?)        fresh = arrived on this tick
///   stay   l -> l           any state -> non-fresh, always allowed
///   move   l -> l' (l≠l')   forbidden iff DU(l, l'), or TT(l, l') > 1,
///                           or (fresh and LT(l) > 1)
///
/// Every Definition-3 step is a step of the relaxation (dropping conditions
/// can only admit more behavior), so every node the engine would build maps
/// to a relaxed state with the same location and freshness. A forward pass
/// over the candidate lists marks states reachable from tick 0; a backward
/// pass marks states from which the final tick is reachable. A candidate
/// whose states are never both is *statically dead*: the backward sweep
/// would assign it suffix mass 0 (no source-to-sink path through it), so
/// removing it from the candidate list before the build cannot change the
/// conditioned graph — see docs/ALGORITHM.md §11 for the full argument.
///
/// When some tick has no admissible candidate at all, the whole clean is
/// doomed: no valid trajectory exists and the build would fail after
/// materializing (and then killing) every layer. `PreflightPlan::doomed_at`
/// reports the first such tick so callers can fail in O(analysis) instead.

/// All-pairs travel-time lower bounds implied by the constraint closure.
///
/// The one-tick move graph has an edge a -> b (a ≠ b) iff !DU(a, b) and
/// TT(a, b) <= 1 — exactly the moves SuccessorGenerator can ever emit.
/// Path length is measured in ticks: the first hop costs 1, and extending a
/// path through an intermediate m costs max(1, LT(m)) because a latency
/// constraint forces the object to sit at m before moving on. The closure
/// bound mtt(a, b) = max(shortest path, TT(a, b)) is therefore a sound
/// lower bound on the ticks any valid trajectory needs to get from a to b.
/// Used by the constraint auditor (constraint_audit.h) to detect
/// contradictions and redundancies; O(n^2 log n) Dijkstra from every
/// source, computed once per constraint set.
class TravelClosure {
 public:
  /// Sentinel for "no path in the one-tick move graph" (mirrors
  /// HopDistances::kUnreachable; large but far from Timestamp overflow).
  static constexpr Timestamp kUnreachable = 1 << 29;

  explicit TravelClosure(const ConstraintSet& constraints);

  std::size_t num_locations() const { return num_locations_; }

  /// True when a one-tick move from -> to is admissible in isolation.
  bool HasDirectEdge(LocationId from, LocationId to) const;

  /// Shortest-path tick bound alone (0 when from == to, kUnreachable when
  /// no path exists). Deliberately excludes the direct TT(from, to) bound,
  /// so the auditor can compare a TT constraint against what the *rest* of
  /// the closure already implies.
  Timestamp PathTicks(LocationId from, LocationId to) const;

  /// max(PathTicks, TT(from, to)): the closure's min-travel-ticks matrix.
  Timestamp MinTravelTicks(LocationId from, LocationId to) const;

  /// Whether any valid trajectory can ever get from `from` to `to`.
  bool Reachable(LocationId from, LocationId to) const {
    return PathTicks(from, to) < kUnreachable;
  }

 private:
  std::size_t num_locations_ = 0;
  const ConstraintSet* constraints_;
  std::vector<Timestamp> path_ticks_;  // num_locations^2
};

/// Result of one FeasibilityOracle::Analyze pass over an l-sequence.
struct PreflightPlan {
  /// First tick with no admissible candidate, or -1 when the clean can
  /// succeed. When >= 0 the build is statically doomed.
  Timestamp doomed_at = -1;

  /// When doomed: the first tick none of whose candidates the forward
  /// relaxation reaches from tick 0 (doomed_at names tick 0 for every
  /// doomed plan, since no tick keeps an admissible candidate). Wherever
  /// the relaxation is exact over the prefix, this is the tick at which a
  /// clean without the preflight finds its dead end. -1 otherwise.
  Timestamp dead_end_at = -1;

  /// Per tick, aligned with the candidate list Analyze saw: true when the
  /// candidate can lie on a valid trajectory under the relaxation.
  std::vector<std::vector<bool>> admissible;

  /// Candidates with admissible[t][i] == false, summed over all ticks.
  std::size_t candidates_pruned = 0;

  /// Relaxed one-tick transitions with a statically-dead endpoint — the
  /// upper bound on work-graph edges the pruned build can no longer touch.
  std::size_t edges_pruned = 0;

  bool doomed() const { return doomed_at >= 0; }
  bool any_pruned() const { return candidates_pruned > 0; }

  /// True when some candidate at tick t is statically dead (callers skip
  /// the copy in FilterTick otherwise).
  bool PrunedAt(Timestamp t) const;

  /// Copies the admissible subset of `in` — which must be the exact
  /// candidate list Analyze saw at tick t — into `*out` (cleared first),
  /// preserving order and probabilities. No renormalization: conditioning
  /// renormalizes, and identical inputs keep the output graphs
  /// byte-identical with pruning on or off.
  void FilterTick(Timestamp t, const std::vector<Candidate>& in,
                  std::vector<Candidate>* out) const;
};

/// Stateless-per-call analyzer binding a constraint set to the relaxation
/// above. Construct once per constraint set and share freely: Analyze is
/// const and allocation-local, so one oracle serves concurrent cleaners.
class FeasibilityOracle {
 public:
  /// The constraint set must outlive the oracle.
  explicit FeasibilityOracle(const ConstraintSet& constraints);

  const ConstraintSet& constraints() const { return *constraints_; }

  /// Closure matrix over the same constraint set (computed eagerly at
  /// construction, once per oracle).
  const TravelClosure& closure() const { return closure_; }

  /// Runs the forward/backward admissibility passes over `sequence`.
  /// Records the preflight counters and trace span (obs).
  PreflightPlan Analyze(const LSequence& sequence) const;

 private:
  const ConstraintSet* constraints_;
  TravelClosure closure_;
};

}  // namespace rfidclean

#endif  // RFIDCLEAN_ANALYSIS_FEASIBILITY_H_
