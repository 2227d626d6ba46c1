#ifndef RFIDCLEAN_CORE_WORK_GRAPH_H_
#define RFIDCLEAN_CORE_WORK_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/ct_graph.h"
#include "core/key_arena.h"

namespace rfidclean {

struct BuildStats;
class SuccessorGenerator;

namespace internal_core {

/// The forward-phase output as columns (docs/ALGORITHM.md §8): per node a
/// key id, an edge offset and an a-priori label, 16 B; per edge its
/// target, 4 B; the per-timestamp layer offsets; and the arena holding each
/// distinct node key once.
///
/// Layer t is the node-id range [layer_begin[t], layer_begin[t + 1]);
/// nodes are appended layer by layer, so ids ascend with time, a layer is
/// always contiguous and a node's time is its layer. layer_begin has
/// num_layers() + 1 entries (empty until the source layer is pushed).
///
/// Node i's out-edges are edge_to[edge_begin[i], edge_begin[i + 1]): the
/// forward phase expands each node exactly once, in id order, so the slices
/// are back to back. edge_begin has num_nodes() + 1 entries once the source
/// layer exists, and every offset of the last, unexpanded layer equals
/// num_edges().
///
/// apriori[k] is the a-priori probability of node k's (time, location)
/// pair, the label Algorithm 1 puts on each of k's in-edges (every in-edge
/// of k is created by one AdvanceLayer from one probability table, so they
/// all carry this value). On layer 0 it is the source probability. The
/// backward sweep overwrites it with a(k)·S̃(k), k's rescaled survival
/// weight.
struct WorkGraph {
  NodeKeyArena keys;
  std::vector<std::int32_t> key_id;
  std::vector<std::uint32_t> edge_begin;
  std::vector<double> apriori;
  std::vector<NodeId> edge_to;
  std::vector<std::int32_t> layer_begin;

  std::size_t num_nodes() const { return key_id.size(); }
  std::size_t num_edges() const { return edge_to.size(); }
  Timestamp num_layers() const {
    return layer_begin.empty()
               ? 0
               : static_cast<Timestamp>(layer_begin.size() - 1);
  }

  /// Bytes the five columns hold, from their capacities (the key arena
  /// reports its own).
  std::size_t ApproximateBytes() const;

  /// Undoes a partial expansion of the last recorded layer, as a failed
  /// AdvanceLayer leaves it: drops every node and edge appended past that
  /// layer and sets its nodes' edge offsets back to the edge count they all
  /// held before. The expansion writes only those nodes' offsets, so
  /// edge_begin's last entry still holds that count. Keys interned on the
  /// way stay in the arena, unused.
  void RollBackExpansion();
};

/// The 32-bit bound of the work graph: node ids, layer offsets and edge
/// offsets are 32-bit, so a graph holds at most INT32_MAX nodes and
/// INT32_MAX edges. Whether `count` nodes, or `count` edges, fit.
constexpr bool FitsWorkGraph(std::size_t count) {
  return count <= static_cast<std::size_t>(INT32_MAX);
}

/// ResourceExhausted for an append at tick `tick` that would leave `count`
/// `what` ("nodes" or "edges"), past FitsWorkGraph.
Status WorkGraphBoundError(std::size_t count, const char* what,
                           Timestamp tick);

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
