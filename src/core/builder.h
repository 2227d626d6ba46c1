#ifndef RFIDCLEAN_CORE_BUILDER_H_
#define RFIDCLEAN_CORE_BUILDER_H_

#include <optional>

#include "analysis/feasibility.h"
#include "common/result.h"
#include "constraints/constraint_set.h"
#include "core/ct_graph.h"
#include "core/successor.h"
#include "model/lsequence.h"

namespace rfidclean {

/// Everything that tunes one cleaning run.
struct CleanOptions {
  /// Successor-relation knobs (TL pruning; see SuccessorOptions).
  SuccessorOptions successor;
  /// Run the static feasibility analysis (analysis/feasibility.h) before
  /// building: statically doomed sequences fail fast without materializing
  /// a single layer, and statically dead candidates are pruned from the
  /// per-tick lists. Sound — the output graph is byte-identical either way
  /// (docs/ALGORITHM.md §11); turn off only to measure the difference.
  bool preflight = true;
  /// Read by nothing: the forward phase is one sequential sweep. It stays
  /// declared only because e2ebench/e2e_bench.cc assigns it, CI's
  /// "End-to-end benchmark tests" step compiles e2ebench against this
  /// library, and e2ebench changes only with the benchmark itself. Delete
  /// it with the next e2ebench change (ROADMAP item 7).
  int forward_threads = 1;
};

/// Diagnostics of one ct-graph construction.
struct BuildStats {
  double preflight_millis = 0.0;
  double forward_millis = 0.0;
  double backward_millis = 0.0;
  /// First tick the preflight analysis found statically doomed, or -1.
  /// Set (with the build failing fast) only when preflight runs.
  Timestamp doomed_at = -1;
  /// Statically dead candidates the preflight analysis removed before the
  /// forward phase saw them (0 when preflight is off).
  std::size_t preflight_candidates_pruned = 0;
  /// Node/edge counts at the end of the forward phase, before the backward
  /// phase prunes dead branches.
  std::size_t peak_nodes = 0;
  std::size_t peak_edges = 0;
  /// Distinct node keys interned during the forward phase (the arena's
  /// high-water mark, recycled across cleanings in batch mode).
  std::size_t peak_keys = 0;
  /// Counts in the returned graph.
  std::size_t final_nodes = 0;
  std::size_t final_edges = 0;

  double TotalMillis() const {
    return preflight_millis + forward_millis + backward_millis;
  }
};

/// Algorithm 1: builds the conditioned trajectory graph of an l-sequence
/// under a set of integrity constraints.
///
/// The *forward phase* sweeps timestamps in increasing order, materializing
/// only nodes that are successors of already-materialized nodes (interning
/// equal keys) and labeling edges with the a-priori probability of their
/// target (time, location) pair. Each node records its `loss`: the a-priori
/// probability mass of candidate continuations that are not successors.
///
/// The *backward phase* sweeps timestamps in decreasing order. Where the
/// paper's pseudo-code propagates an additive per-node `loss`, this
/// implementation tracks the complementary *surviving suffix mass*
/// S(n) = Σ_k p(k)·S(k) directly and conditions each edge to
/// p(k)·S(k)/S(n) — the same quantity as the paper's "divide by 1 − loss",
/// but free of the catastrophic `1 − x` cancellation that breaks the
/// additive form when nearly all of a node's continuation mass is invalid
/// (which genuinely happens under calibrated a-priori models). Layers are
/// rescaled by their maximum S so values stay representable at any sequence
/// length; within-layer ratios are all that matter. Death ("loss = 1") is
/// the structural condition S(n) = 0 — no surviving successor, matching
/// Proposition 1. Finally the surviving source probabilities are
/// conditioned, weighting each source by its surviving mass (see the
/// erratum note in DESIGN.md).
///
/// Complexity is polynomial in the sequence length (data complexity §5):
/// linear in the number of materialized nodes and edges.
///
/// Build() runs the one cleaning routine the batch runtime also runs per
/// tag (internal_core::CleanSequence in core/streaming.h): preflight, one
/// StreamingCleaner Push per tick, then Finish. The constructor
/// precomputes the successor generator's constraint tables (hop distances,
/// TL relevance windows) once; Build() can then be called any number of
/// times, for any sequences, without re-deriving them.
class CtGraphBuilder {
 public:
  /// The constraint set must outlive the builder. `options` tunes the
  /// successor relation (see SuccessorOptions); preflight is on.
  explicit CtGraphBuilder(const ConstraintSet& constraints,
                          const SuccessorOptions& options = SuccessorOptions());

  /// As above with full control, including CleanOptions::preflight.
  CtGraphBuilder(const ConstraintSet& constraints,
                 const CleanOptions& options);

  /// Builds the ct-graph of `sequence`. Fails with InvalidArgument when
  /// the sequence is empty, and with FailedPrecondition when the
  /// constraints rule out every interpretation of the readings — at the
  /// first tick where none survives.
  Result<CtGraph> Build(const LSequence& sequence,
                        BuildStats* stats = nullptr) const;

  const SuccessorGenerator& successors() const { return successors_; }

  /// The preflight analyzer, or nullptr when CleanOptions::preflight was
  /// off. Shareable across threads (Analyze is const).
  const FeasibilityOracle* oracle() const {
    return oracle_.has_value() ? &*oracle_ : nullptr;
  }

 private:
  SuccessorGenerator successors_;
  std::optional<FeasibilityOracle> oracle_;
};

}  // namespace rfidclean

#endif  // RFIDCLEAN_CORE_BUILDER_H_
