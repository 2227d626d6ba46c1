#include "core/work_graph.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "core/builder.h"
#include "core/explain_attribution.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfidclean::internal_core {

namespace {

// The backward sweep feeds the CSR records to simd::GatherProducts as
// strided typed arrays; these pin the layouts the strides encode.
constexpr std::size_t kEdgeStrideDoubles = sizeof(WorkEdge) / sizeof(double);
constexpr std::size_t kEdgeStrideInts =
    sizeof(WorkEdge) / sizeof(std::int32_t);
constexpr std::size_t kNodeStrideDoubles = sizeof(WorkNode) / sizeof(double);
static_assert(kEdgeStrideDoubles == 2 && kEdgeStrideInts == 4 &&
                  offsetof(WorkEdge, to) == 0 &&
                  offsetof(WorkEdge, probability) == sizeof(double),
              "GatherProducts strides assume this WorkEdge layout");
static_assert(kNodeStrideDoubles == 5 &&
                  offsetof(WorkNode, survived) == 3 * sizeof(double),
              "GatherProducts strides assume this WorkNode layout");

/// Folds the arena's per-build intern counters into the obs sinks.
/// ConditionAndCompact is the one place that sees every build's arena
/// (builder and streaming both funnel through it), so the arena itself
/// never needs thread-local access.
void FlushKeyArenaStats(const NodeKeyArena& keys) {
#if RFIDCLEAN_STATS_ENABLED
  const NodeKeyArena::InternStats arena = keys.intern_stats();
  obs::Add(obs::Counter::kForwardKeysInterned, keys.size());
  obs::Add(obs::Counter::kKeyInternCalls, arena.intern_calls);
  obs::Add(obs::Counter::kKeyProbeSteps, arena.probe_steps);
  obs::ObserveValue(obs::Dist::kKeyProbeMax, arena.probe_max);
  if (arena.persistent_capacity > 0) {
    obs::ObserveValue(obs::Dist::kKeyOccupancyPct,
                      100 * arena.persistent_entries /
                          arena.persistent_capacity);
  }
#else
  (void)keys;
#endif
}

}  // namespace

Status InfeasibleSequenceError() {
  return FailedPreconditionError(
      "the integrity constraints rule out every interpretation of the "
      "readings");
}

Result<CtGraph> ConditionAndCompact(WorkGraph&& work, BuildStats* stats,
                                    const ExplainBuildContext* explain) {
  Stopwatch stopwatch;
  obs::PhaseTimer phase_timer(obs::Phase::kBackward);
  FlushKeyArenaStats(work.keys);
  std::vector<WorkNode>& nodes = work.nodes;
  std::vector<WorkEdge>& edges = work.edges;
  const Timestamp length = work.num_layers();
  RFID_CHECK_GT(length, 0);
  // The attribution pass reads the liveness this routine decides, so it
  // runs once per outcome, after the sweep and the reachability pass.
  const bool explaining = explain != nullptr && obs::ExplainArmed();
  auto layer_range = [&work](Timestamp t) {
    return std::pair<std::int32_t, std::int32_t>(
        work.layer_begin[static_cast<std::size_t>(t)],
        work.layer_begin[static_cast<std::size_t>(t) + 1]);
  };

  // --- Backward phase (Algorithm 1, lines 15-29), reformulated over
  // surviving masses: S(n) = Σ_k p(k) · S(k) with S(target) = 1, so the
  // conditioned probability of edge (n, k) is p(k)·S(k)/S(n) — the paper's
  // "divide by (1 - loss)" without subtractive cancellation. Layers are
  // rescaled by their maximum so S stays representable at any length, and
  // a node is dead iff S(n) = 0 (Proposition 1, detected structurally).
  // Both sweeps stream the layer's nodes and their CSR edge slices in
  // ascending id order — all memory access is sequential except the gather
  // of the next layer's `survived`.
#if RFIDCLEAN_STATS_ENABLED
  // Accumulated in locals over the whole sweep, flushed once after it: the
  // backward loops are the second-hottest path after interning.
  std::uint64_t stats_edges_kept = 0;
  std::uint64_t stats_nodes_dead = 0;
#endif
  {
    RFID_TRACE_SPAN(sweep_span, "backward", "backward_sweep");
    RFID_TRACE(
        sweep_span.AddArg("renorm_passes",
                          static_cast<std::uint64_t>(length - 1)));
    // Per-edge p(k)·S(k) products of one layer's contiguous edge slab,
    // computed by the dispatched kernel and consumed by both passes.
    // Per-node masses use the fixed zero-skipping 4-lane blocked reduction
    // of simd.h — scalar, vector, and SIMD-off builds all sum in this one
    // order, so the emitted graph is bit-identical across them, and exact-
    // zero products (statically dead edges) do not shift lane assignment,
    // preserving preflight byte-identity (ALGORITHM.md §11, §13).
    std::vector<double> products;
    // The vector gather scales node ids in 32-bit lanes (simd.h).
    const bool gather_in_range =
        nodes.size() <=
        static_cast<std::size_t>(INT32_MAX) / kNodeStrideDoubles;
    for (Timestamp t = length - 2; t >= 0; --t) {
      const auto [begin, end] = layer_range(t);
      if (begin == end) continue;  // Empty layer: nothing to condition.
      const std::size_t slab_begin = static_cast<std::size_t>(
          nodes[static_cast<std::size_t>(begin)].edge_begin);
      const WorkNode& last = nodes[static_cast<std::size_t>(end) - 1];
      const std::size_t slab_end =
          static_cast<std::size_t>(last.edge_begin) +
          static_cast<std::size_t>(last.edge_count);
      const std::size_t slab_n = slab_end - slab_begin;
      products.resize(slab_n);
      if (slab_n > 0) {
        if (gather_in_range) {
          simd::GatherProducts(&edges[slab_begin].probability,
                               kEdgeStrideDoubles, &edges[slab_begin].to,
                               kEdgeStrideInts, &nodes[0].survived,
                               kNodeStrideDoubles, slab_n, products.data());
        } else {
          for (std::size_t k = 0; k < slab_n; ++k) {
            const WorkEdge& edge = edges[slab_begin + k];
            products[k] =
                edge.probability *
                nodes[static_cast<std::size_t>(edge.to)].survived;
          }
        }
      }
      double layer_max = 0.0;
      for (std::int32_t id = begin; id < end; ++id) {
        WorkNode& node = nodes[static_cast<std::size_t>(id)];
        const double mass = simd::BlockedSumSkipZero4(
            products.data() +
                (static_cast<std::size_t>(node.edge_begin) - slab_begin),
            static_cast<std::size_t>(node.edge_count));
        node.survived = mass;
        layer_max = std::max(layer_max, mass);
      }
      for (std::int32_t id = begin; id < end; ++id) {
        WorkNode& node = nodes[static_cast<std::size_t>(id)];
        if (node.survived <= 0.0) {
          // Dead node: its edges are never read again (the node is skipped
          // by reachability and compaction), so they keep their a-priori
          // labels.
          node.alive = false;
          RFID_STATS(++stats_nodes_dead);
          continue;
        }
        WorkEdge* out =
            edges.data() + static_cast<std::size_t>(node.edge_begin);
        const double* node_products =
            products.data() +
            (static_cast<std::size_t>(node.edge_begin) - slab_begin);
        for (std::int32_t k = 0; k < node.edge_count; ++k) {
          // products[k] / S(n) evaluates bit-identically to the previous
          // left-to-right p(k)·S(k)/S(n) and skips re-gathering the
          // target's survived mass.
          const double conditioned =
              node_products[k] / node.survived;
          out[k].probability = conditioned > 0.0 ? conditioned : 0.0;
          RFID_STATS(stats_edges_kept +=
                     static_cast<std::uint64_t>(conditioned > 0.0));
        }
        node.survived /= layer_max;
      }
    }
#if RFIDCLEAN_STATS_ENABLED
    RFID_TRACE(sweep_span.AddArg("edges_killed",
                                 edges.size() - stats_edges_kept));
    RFID_TRACE(sweep_span.AddArg("nodes_dead", stats_nodes_dead));
#endif
  }
#if RFIDCLEAN_STATS_ENABLED
  // An edge is "kept" iff conditioning left it a positive probability on a
  // live owner; everything else (zeroed in place, or stranded on a dead
  // node) is killed. kept + killed == built by construction.
  obs::Add(obs::Counter::kBackwardEdgesBuilt, edges.size());
  obs::Add(obs::Counter::kBackwardEdgesKept, stats_edges_kept);
  obs::Add(obs::Counter::kBackwardEdgesKilled,
           edges.size() - stats_edges_kept);
  obs::Add(obs::Counter::kBackwardNodesDead, stats_nodes_dead);
  obs::Add(obs::Counter::kBackwardRenormPasses,
           static_cast<std::uint64_t>(length - 1));
#endif

  // Lines 30-31 with the source-weighting erratum fix (see DESIGN.md):
  // each surviving source is weighted by its surviving suffix mass.
  double source_mass = 0.0;
  {
    const auto [begin, end] = layer_range(0);
    for (std::int32_t id = begin; id < end; ++id) {
      WorkNode& node = nodes[static_cast<std::size_t>(id)];
      if (node.alive) {
        node.source_probability *= node.survived;
        source_mass += node.source_probability;
      }
    }
  }
  if (source_mass <= 0.0) {
    // Total death is booked entirely to the backward phase (compaction
    // never ran); both splits are sampled so their counts stay paired.
    RFID_STATS(
        obs::ObserveValue(obs::Dist::kMassLostBackwardPpb, 1000000000u));
    RFID_STATS(obs::ObserveValue(obs::Dist::kMassLostCompactionPpb, 0u));
    Status failure = InfeasibleSequenceError();
    if (explaining) {
      RecordExplainAttribution(work, *explain, {}, failure.message(),
                               1000000000u, 0u);
    }
    return failure;
  }
  // Source mass is the survival-weighted total; the complement is the
  // a-priori probability mass the constraints ruled out. Sampled in
  // parts-per-billion (clamped: rescaling can leave source_mass at 1+ε).
  // Computed outside the stats gate because the explain summary carries the
  // same integer — the two must reconcile exactly (obs_stats_test).
  const double lost = 1.0 - source_mass;
  const std::uint64_t backward_ppb =
      lost > 0.0 ? static_cast<std::uint64_t>(lost * 1e9) : 0u;
  RFID_STATS(obs::ObserveValue(obs::Dist::kMassLostBackwardPpb, backward_ppb));

  // --- Compaction: alive nodes reachable from a surviving source through
  // live edges (explicit reachability: per-edge products can underflow to
  // zero under extreme probability ranges). A live edge is one whose
  // conditioned probability stayed positive and whose target is alive.
  // Every edge points into the next layer, so one pass in id order settles
  // each node's reachability before the node is visited: it numbers the
  // survivors in id order and counts their TL entries and live edges, and
  // the write pass fills arrays of exactly that size, which folds the graph
  // digest node by node (CtGraph::Arrays).
  RFID_TRACE_SPAN(compact_span, "backward", "compact");
  // kInvalidNode: not reached (yet); kReached: reached, not yet numbered.
  constexpr NodeId kReached = std::numeric_limits<NodeId>::max();
  std::vector<NodeId> remap(nodes.size(), kInvalidNode);
  {
    const auto [begin, end] = layer_range(0);
    for (std::int32_t id = begin; id < end; ++id) {
      const WorkNode& node = nodes[static_cast<std::size_t>(id)];
      if (node.alive && node.source_probability > 0.0) {
        remap[static_cast<std::size_t>(id)] = kReached;
      }
    }
  }
  std::size_t survivors = 0;
  std::size_t live_edges = 0;
  std::size_t departures = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (remap[i] == kInvalidNode) continue;
    remap[i] = static_cast<NodeId>(survivors++);
    const WorkNode& node = nodes[i];
    departures += work.keys.key(node.key_id).departures.size();
    const WorkEdge* out =
        edges.data() + static_cast<std::size_t>(node.edge_begin);
    for (std::int32_t k = 0; k < node.edge_count; ++k) {
      const std::size_t to = static_cast<std::size_t>(out[k].to);
      if (out[k].probability > 0.0 && nodes[to].alive) {
        remap[to] = kReached;
        ++live_edges;
      }
    }
  }

  // Conditioned source mass compaction drops: surviving t = 0 sources no
  // longer reachable. Structurally zero (every parent of an alive node is
  // alive), but sampled honestly so the per-phase split is measured, not
  // asserted.
  double stranded_mass = 0.0;
  {
    const auto [begin, end] = layer_range(0);
    for (std::int32_t id = begin; id < end; ++id) {
      const WorkNode& node = nodes[static_cast<std::size_t>(id)];
      if (node.alive && remap[static_cast<std::size_t>(id)] == kInvalidNode) {
        stranded_mass += node.source_probability;
      }
    }
  }
  const std::uint64_t compaction_ppb =
      stranded_mass > 0.0
          ? static_cast<std::uint64_t>(stranded_mass * 1e9)
          : 0u;
  RFID_STATS(
      obs::ObserveValue(obs::Dist::kMassLostCompactionPpb, compaction_ppb));
  // Before the write pass, so the pass's tables are freed before the
  // compacted arrays allocate.
  if (explaining) {
    RecordExplainAttribution(work, *explain, remap, "ok", backward_ppb,
                             compaction_ppb);
  }

  CtGraph::Arrays compact(length, survivors, departures, live_edges);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (remap[i] == kInvalidNode) continue;
    const WorkNode& node = nodes[i];
    const NodeKeyView key = work.keys.key(node.key_id);
    compact.AddNode(node.time, key.location, key.delta,
                    node.time == 0 ? node.source_probability / source_mass
                                   : 0.0);
    for (const Departure& d : key.departures) compact.AddDeparture(d);
    const WorkEdge* out =
        edges.data() + static_cast<std::size_t>(node.edge_begin);
    for (std::int32_t k = 0; k < node.edge_count; ++k) {
      if (out[k].probability <= 0.0) continue;
      const NodeId to = remap[static_cast<std::size_t>(out[k].to)];
      if (to == kInvalidNode) continue;
      compact.AddEdge(CtGraph::Edge{to, out[k].probability});
    }
  }
  RFID_TRACE(
      compact_span.AddArg("nodes", static_cast<std::uint64_t>(survivors)));
  RFID_TRACE(compact_span.AddArg(
      "edges", static_cast<std::uint64_t>(live_edges)));
  Result<CtGraph> graph = CtGraph::FromArrays(std::move(compact));
  RFID_CHECK(graph.ok());  // Construction invariants guarantee validity.
  if (stats != nullptr) {
    stats->backward_millis = stopwatch.ElapsedMillis();
    stats->final_nodes = graph.value().NumNodes();
    stats->final_edges = graph.value().NumEdges();
  }
  return graph;
}

}  // namespace rfidclean::internal_core
