#ifndef RFIDCLEAN_CORE_WORK_GRAPH_H_
#define RFIDCLEAN_CORE_WORK_GRAPH_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/ct_graph.h"
#include "core/key_arena.h"

namespace rfidclean {

struct BuildStats;
class SuccessorGenerator;

namespace internal_core {

/// Mutable node record of a clean under construction (built by the
/// ForwardEngine that StreamingCleaner drives). A flat POD: the
/// node's identity lives in the build's NodeKeyArena (key_id) and its
/// outgoing edges are the contiguous slice [edge_begin, edge_begin +
/// edge_count) of WorkGraph::edges — the forward phase expands each node
/// exactly once, so the CSR slice is free to maintain and the backward
/// sweep streams edges sequentially instead of chasing per-node vectors.
struct WorkNode {
  std::int32_t key_id = -1;
  Timestamp time = 0;
  std::int32_t edge_begin = 0;
  std::int32_t edge_count = 0;
  double source_probability = 0.0;
  /// Relative a-priori mass of the node's *valid* suffixes (see the
  /// backward-phase commentary in builder.h: this replaces the paper's
  /// additive `loss` with its numerically robust complement).
  double survived = 1.0;
  bool alive = true;
};

/// One outgoing edge. The source is implicit (the owning node's CSR
/// slice). `probability` carries the a-priori mass of the target during
/// the forward phase and the conditioned mass after the backward phase;
/// the backward phase writes 0 for edges that die (no surviving suffix),
/// so after it "alive" is exactly `probability > 0`.
struct WorkEdge {
  NodeId to = kInvalidNode;
  double probability = 0.0;
};

/// The forward-phase output in compressed-sparse-row form: node records in
/// timestamp order, their concatenated edge slices, the per-timestamp layer
/// offsets, and the arena holding each distinct node key once.
///
/// Layer t is the node-id range [layer_begin[t], layer_begin[t + 1]);
/// nodes are appended layer by layer, so ids ascend with time and a layer
/// is always contiguous. layer_begin has num_layers() + 1 entries (empty
/// until the source layer is pushed).
struct WorkGraph {
  NodeKeyArena keys;
  std::vector<WorkNode> nodes;
  std::vector<WorkEdge> edges;
  std::vector<std::int32_t> layer_begin;

  Timestamp num_layers() const {
    return layer_begin.empty()
               ? 0
               : static_cast<Timestamp>(layer_begin.size() - 1);
  }
};

/// One a-priori candidate of one tick, as the explain attribution pass
/// (core/explain_attribution.h) needs it: the raw location/probability pair
/// plus whether the preflight plan statically removed it before the forward
/// phase saw it. Defined in every build mode — the struct is ABI for
/// ConditionAndCompact's optional parameter; the pass itself compiles away
/// with RFIDCLEAN_EXPLAIN=OFF.
struct ExplainTickCandidate {
  LocationId location = -1;
  double probability = 0.0;
  bool pruned = false;
};

/// Side-channel inputs of the explain attribution pass (docs/ALGORITHM.md
/// §14): the full per-tick candidate lists the build consumed (before
/// preflight filtering), which also carry every a-priori label the
/// backward sweep overwrites; the per-tick renormalization deltas of the
/// streaming filter; and the successor generator the build used, so
/// rejected moves can be re-classified against the Definition-3 checks.
/// StreamingCleaner fills it only when a session was armed at its first
/// Push, so it always holds one entry per layer from layer 0; passing it
/// never changes the produced graph.
struct ExplainBuildContext {
  std::vector<std::vector<ExplainTickCandidate>> ticks;
  std::vector<double> alpha_deltas;
  const SuccessorGenerator* successors = nullptr;
};

/// The status of a sequence the integrity constraints rule out entirely,
/// whichever step finds it (a Push dead end, Finish's total death, the
/// preflight fast path). analysis/feasibility.cc and the test oracles
/// match its message verbatim.
Status InfeasibleSequenceError();

/// Runs the backward conditioning phase (survival masses, per-layer
/// rescaling, source weighting) and compacts the survivors into a CtGraph.
/// Consumes `graph`. Fills the backward timing and final counts of `stats`
/// when given. Fails with FailedPrecondition when no interpretation
/// survives. When `explain` is non-null and an explain session is armed,
/// runs the attribution pass once the sweep and the reachability pass have
/// decided which nodes die and which survive (or once the sweep has found
/// the total death) and records one ExplainTagSummary; the returned graph
/// is byte-identical with or without it.
Result<CtGraph> ConditionAndCompact(WorkGraph&& graph, BuildStats* stats,
                                    const ExplainBuildContext* explain =
                                        nullptr);

}  // namespace internal_core
}  // namespace rfidclean

#endif  // RFIDCLEAN_CORE_WORK_GRAPH_H_
