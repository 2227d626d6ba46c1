#include "core/work_graph.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/builder.h"
#include "core/explain_attribution.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfidclean::internal_core {

namespace {

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

std::size_t WorkGraph::ApproximateBytes() const {
  return key_id.capacity() * sizeof(std::int32_t) +
         edge_begin.capacity() * sizeof(std::uint32_t) +
         apriori.capacity() * sizeof(double) +
         edge_to.capacity() * sizeof(NodeId) +
         layer_begin.capacity() * sizeof(std::int32_t);
}

void WorkGraph::RollBackExpansion() {
  RFID_CHECK_GE(layer_begin.size(), 2u);
  const std::size_t frontier_begin =
      static_cast<std::size_t>(layer_begin[layer_begin.size() - 2]);
  const std::size_t frontier_end =
      static_cast<std::size_t>(layer_begin.back());
  RFID_CHECK_EQ(edge_begin.size(), frontier_end + 1);
  const std::uint32_t edges_before = edge_begin.back();
  key_id.resize(frontier_end);
  apriori.resize(frontier_end);
  edge_to.resize(edges_before);
  std::fill(edge_begin.begin() + static_cast<std::ptrdiff_t>(frontier_begin),
            edge_begin.end(), edges_before);
}

Status WorkGraphBoundError(std::size_t count, const char* what,
                           Timestamp tick) {
  return ResourceExhaustedError(StrFormat(
      "tick %d would take the work graph to %zu %s, past the 32-bit limit "
      "of %d",
      tick, count, what, INT32_MAX));
}

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
  const std::vector<std::uint32_t>& edge_begin = work.edge_begin;
  const std::vector<NodeId>& edge_to = work.edge_to;
  std::vector<double>& apriori = work.apriori;
  const std::size_t num_nodes = work.num_nodes();
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
  //
  // `survival` keeps each node's raw S(n); the last layer's is 1. Once a
  // layer's masses are summed, each node's label becomes
  // a(n)·(S(n) / max) — the rescaled weight S̃ its parents gather — so the
  // conditioned probability of edge (n, k) is apriori[k] / survival[n],
  // computed where it is read, from the same two operands each time. On
  // layer 0 that weight is the source's surviving mass. Every access but
  // the gather of the next layer's labels is sequential.
  std::vector<double> survival(num_nodes, 1.0);
  // The conditioned probability of edge e out of node n, as the edges_kept
  // counter, the reachability pass and the fill read it.
  const auto conditioned = [&](std::size_t n, std::size_t e) {
    return apriori[static_cast<std::size_t>(edge_to[e])] / survival[n];
  };
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
    // The labels of one layer's contiguous edge slab, gathered per edge.
    // Per-node masses use the fixed zero-skipping 4-lane blocked reduction
    // of simd.h — scalar, vector, and SIMD-off builds all sum in this one
    // order, so the emitted graph is bit-identical across them, and exact-
    // zero terms (statically dead edges) do not shift lane assignment,
    // preserving preflight byte-identity (ALGORITHM.md §11, §13).
    std::vector<double> products;
    for (Timestamp t = length - 2; t >= 0; --t) {
      const auto [begin, end] = layer_range(t);
      if (begin == end) continue;  // Empty layer: nothing to condition.
      const std::size_t slab_begin =
          edge_begin[static_cast<std::size_t>(begin)];
      const std::size_t slab_end = edge_begin[static_cast<std::size_t>(end)];
      products.resize(slab_end - slab_begin);
      for (std::size_t e = slab_begin; e < slab_end; ++e) {
        products[e - slab_begin] =
            apriori[static_cast<std::size_t>(edge_to[e])];
      }
      double layer_max = 0.0;
      for (std::int32_t id = begin; id < end; ++id) {
        const std::size_t n = static_cast<std::size_t>(id);
        const double mass = simd::BlockedSumSkipZero4(
            products.data() + (edge_begin[n] - slab_begin),
            edge_begin[n + 1] - edge_begin[n]);
        survival[n] = mass;
        layer_max = std::max(layer_max, mass);
      }
      for (std::int32_t id = begin; id < end; ++id) {
        const std::size_t n = static_cast<std::size_t>(id);
        if (survival[n] <= 0.0) {
          // Dead node: its parents gather exactly 0 from it.
          apriori[n] = 0.0;
          RFID_STATS(++stats_nodes_dead);
          continue;
        }
#if RFIDCLEAN_STATS_ENABLED
        for (std::size_t e = edge_begin[n]; e < edge_begin[n + 1]; ++e) {
          stats_edges_kept +=
              static_cast<std::uint64_t>(conditioned(n, e) > 0.0);
        }
#endif
        apriori[n] *= survival[n] / layer_max;
      }
    }
#if RFIDCLEAN_STATS_ENABLED
    RFID_TRACE(sweep_span.AddArg("edges_killed",
                                 edge_to.size() - stats_edges_kept));
    RFID_TRACE(sweep_span.AddArg("nodes_dead", stats_nodes_dead));
#endif
  }
#if RFIDCLEAN_STATS_ENABLED
  // An edge is "kept" iff conditioning left it a positive probability on a
  // live owner; everything else (a zero quotient, or stranded on a dead
  // node) is killed. kept + killed == built by construction.
  obs::Add(obs::Counter::kBackwardEdgesBuilt, edge_to.size());
  obs::Add(obs::Counter::kBackwardEdgesKept, stats_edges_kept);
  obs::Add(obs::Counter::kBackwardEdgesKilled,
           edge_to.size() - stats_edges_kept);
  obs::Add(obs::Counter::kBackwardNodesDead, stats_nodes_dead);
  obs::Add(obs::Counter::kBackwardRenormPasses,
           static_cast<std::uint64_t>(length - 1));
#endif

  // Lines 30-31 with the source-weighting erratum fix (see DESIGN.md):
  // each surviving source is weighted by its surviving suffix mass, which
  // the sweep's last layer already wrote into its label.
  double source_mass = 0.0;
  {
    const auto [begin, end] = layer_range(0);
    for (std::int32_t id = begin; id < end; ++id) {
      const std::size_t n = static_cast<std::size_t>(id);
      if (survival[n] > 0.0) source_mass += apriori[n];
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
      RecordExplainAttribution(work, *explain, survival, {},
                               failure.message(), 1000000000u, 0u);
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
  // conditioned probability is positive; its target is then alive, since a
  // dead node's label is 0. Every edge points into the next layer, so one
  // pass in id order settles each node's reachability before the node is
  // visited: it numbers the survivors in id order and counts their TL
  // entries and live edges, and the write pass fills arrays of exactly that
  // size, which folds the graph digest node by node (CtGraph::Arrays).
  RFID_TRACE_SPAN(compact_span, "backward", "compact");
  // kInvalidNode: not reached (yet); kReached: reached, not yet numbered.
  constexpr NodeId kReached = std::numeric_limits<NodeId>::max();
  std::vector<NodeId> remap(num_nodes, kInvalidNode);
  {
    const auto [begin, end] = layer_range(0);
    for (std::int32_t id = begin; id < end; ++id) {
      const std::size_t n = static_cast<std::size_t>(id);
      if (survival[n] > 0.0 && apriori[n] > 0.0) remap[n] = kReached;
    }
  }
  std::size_t survivors = 0;
  std::size_t live_edges = 0;
  std::size_t departures = 0;
  for (std::size_t n = 0; n < num_nodes; ++n) {
    if (remap[n] == kInvalidNode) continue;
    remap[n] = static_cast<NodeId>(survivors++);
    departures += work.keys.key(work.key_id[n]).departures.size();
    for (std::size_t e = edge_begin[n]; e < edge_begin[n + 1]; ++e) {
      if (conditioned(n, e) > 0.0) {
        remap[static_cast<std::size_t>(edge_to[e])] = kReached;
        ++live_edges;
      }
    }
  }

  // Conditioned source mass compaction drops: surviving t = 0 sources no
  // longer reachable. Structurally zero (every parent of an alive node is
  // alive), but sampled honestly so the per-phase split is measured, not
  // asserted.
  double stranded_mass = 0.0;
  std::size_t sources = 0;
  {
    const auto [begin, end] = layer_range(0);
    for (std::int32_t id = begin; id < end; ++id) {
      const std::size_t n = static_cast<std::size_t>(id);
      if (remap[n] != kInvalidNode) {
        ++sources;
      } else if (survival[n] > 0.0) {
        stranded_mass += apriori[n];
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
    RecordExplainAttribution(work, *explain, survival, remap, "ok",
                             backward_ppb, compaction_ppb);
  }

  CtGraph::Arrays compact(length, survivors, sources, departures,
                          live_edges);
  const std::size_t num_sources =
      static_cast<std::size_t>(work.layer_begin[1]);
  Timestamp t = 0;
  for (std::size_t n = 0; n < num_nodes; ++n) {
    if (remap[n] == kInvalidNode) continue;
    while (n >= static_cast<std::size_t>(
                    work.layer_begin[static_cast<std::size_t>(t) + 1])) {
      ++t;
    }
    const NodeKeyView key = work.keys.key(work.key_id[n]);
    compact.AddNode(t, key.location, key.delta,
                    n < num_sources ? apriori[n] / source_mass : 0.0);
    for (const Departure& d : key.departures) compact.AddDeparture(d);
    for (std::size_t e = edge_begin[n]; e < edge_begin[n + 1]; ++e) {
      const double probability = conditioned(n, e);
      if (probability <= 0.0) continue;
      const NodeId to = remap[static_cast<std::size_t>(edge_to[e])];
      if (to == kInvalidNode) continue;
      compact.AddEdge(CtGraph::Edge{to, probability});
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
