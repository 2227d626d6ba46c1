#include "analysis/work_graph_audit.h"

#include <cmath>
#include <unordered_set>

#include "common/strings.h"

namespace rfidclean {

namespace {

using internal_audit::AppendViolation;
using internal_core::WorkGraph;

void Append(const AuditOptions& options, AuditReport* report,
            AuditCheck check, NodeId node, Timestamp time,
            std::string message) {
  AuditViolation violation;
  violation.check = check;
  violation.node = node;
  violation.time = time;
  violation.message = std::move(message);
  AppendViolation(options, report, std::move(violation));
}

/// Layer offsets and column lengths must be checkable before anything that
/// indexes through them; returns whether they are usable.
bool CheckLayerOffsets(const WorkGraph& graph, const AuditOptions& options,
                       AuditReport* report) {
  const auto& offsets = graph.layer_begin;
  const std::size_t num_nodes = graph.num_nodes();
  if (offsets.empty()) {
    if (num_nodes != 0 || graph.num_edges() != 0 ||
        !graph.apriori.empty() || !graph.edge_begin.empty()) {
      Append(options, report, AuditCheck::kCsrLayerOffsets, kInvalidNode, -1,
             StrFormat("no layers recorded but %zu nodes and %zu edges "
                       "exist",
                       num_nodes, graph.num_edges()));
      return false;
    }
    return true;
  }
  bool usable = true;
  if (graph.apriori.size() != num_nodes ||
      graph.edge_begin.size() != num_nodes + 1) {
    Append(options, report, AuditCheck::kCsrLayerOffsets, kInvalidNode, -1,
           StrFormat("columns disagree: %zu key ids, %zu labels, %zu edge "
                     "offsets (want %zu)",
                     num_nodes, graph.apriori.size(),
                     graph.edge_begin.size(), num_nodes + 1));
    usable = false;
  }
  if (offsets.front() != 0) {
    Append(options, report, AuditCheck::kCsrLayerOffsets, kInvalidNode, 0,
           StrFormat("layer_begin starts at %d, want 0", offsets.front()));
    usable = false;
  }
  for (std::size_t t = 0; t + 1 < offsets.size(); ++t) {
    if (offsets[t] > offsets[t + 1]) {
      Append(options, report, AuditCheck::kCsrLayerOffsets, kInvalidNode,
             static_cast<Timestamp>(t),
             StrFormat("layer_begin decreases: %d then %d", offsets[t],
                       offsets[t + 1]));
      usable = false;
    }
  }
  if (offsets.back() < 0 ||
      static_cast<std::size_t>(offsets.back()) != num_nodes) {
    Append(options, report, AuditCheck::kCsrLayerOffsets, kInvalidNode,
           static_cast<Timestamp>(offsets.size()) - 1,
           StrFormat("layer_begin ends at %d, want the node count %zu",
                     offsets.back(), num_nodes));
    usable = false;
  }
  return usable;
}

/// Edge offsets start at 0, never decrease, end at the edge count, and the
/// unexpanded last layer's offsets all equal it (its nodes own no edges
/// yet). Returns whether every slice lies inside the edge column.
bool CheckEdgeOffsets(const WorkGraph& graph, const AuditOptions& options,
                      AuditReport* report) {
  const auto& offsets = graph.edge_begin;
  const std::size_t num_edges = graph.num_edges();
  bool usable = true;
  if (offsets.front() != 0) {
    Append(options, report, AuditCheck::kCsrEdgeSlices, 0, 0,
           StrFormat("edge_begin starts at %u, want 0", offsets.front()));
    usable = false;
  }
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) {
      Append(options, report, AuditCheck::kCsrEdgeSlices,
             static_cast<NodeId>(i), -1,
             StrFormat("edge_begin decreases: %u then %u", offsets[i],
                       offsets[i + 1]));
      usable = false;
    }
  }
  if (offsets.back() != num_edges) {
    Append(options, report, AuditCheck::kCsrEdgeSlices, kInvalidNode, -1,
           StrFormat("edge_begin ends at %u but the edge column holds %zu",
                     offsets.back(), num_edges));
    usable = false;
  }
  const Timestamp last = graph.num_layers() - 1;
  for (std::int32_t id = graph.layer_begin[static_cast<std::size_t>(last)];
       id < graph.layer_begin.back(); ++id) {
    const std::uint32_t begin = offsets[static_cast<std::size_t>(id)];
    if (begin != num_edges) {
      Append(options, report, AuditCheck::kCsrEdgeSlices, id, last,
             StrFormat("frontier node's edges begin at %u, before the "
                       "edge count %zu: it owns edges before expansion",
                       begin, num_edges));
    }
  }
  return usable;
}

}  // namespace

void AuditWorkGraphStructure(const WorkGraph& graph,
                             const AuditOptions& options,
                             AuditReport* report) {
  report->nodes_checked += graph.num_nodes();
  report->edges_checked += graph.num_edges();
  report->length = graph.num_layers();

  const bool layers_usable = CheckLayerOffsets(graph, options, report);

  // Key ids must index the arena, and labels lie in (0, 1], whatever the
  // layer offsets say: both are checked by index. A node's time is its
  // layer, so it is reported only when the offsets are usable (-1 else).
  const std::size_t num_keys = graph.keys.size();
  Timestamp time = -1;
  for (std::size_t n = 0; n < graph.num_nodes(); ++n) {
    if (layers_usable) {
      while (static_cast<std::size_t>(
                 graph.layer_begin[static_cast<std::size_t>(time + 1)]) <= n) {
        ++time;
      }
    }
    const NodeId id = static_cast<NodeId>(n);
    const std::int32_t key_id = graph.key_id[n];
    if (key_id < 0 || static_cast<std::size_t>(key_id) >= num_keys) {
      Append(options, report, AuditCheck::kCsrKeyInterning, id, time,
             StrFormat("key id %d outside the arena of %zu keys", key_id,
                       num_keys));
    }
    if (n >= graph.apriori.size()) continue;  // Reported as a short column.
    // Layer 0's label is the source probability, every other layer's the
    // a-priori probability of the node's location.
    const double p = graph.apriori[n];
    if (!std::isfinite(p) || p <= 0.0 || p > 1.0) {
      Append(options, report, AuditCheck::kCsrProbabilities, id, time,
             StrFormat("a-priori label %g outside (0, 1]", p));
    }
  }
  const Timestamp length = graph.num_layers();
  if (!layers_usable || length == 0 ||
      !CheckEdgeOffsets(graph, options, report)) {
    return;
  }

  std::unordered_set<std::int32_t> layer_keys;
  for (Timestamp t = 0; t < length; ++t) {
    const std::size_t layer = static_cast<std::size_t>(t);
    const std::int32_t begin = graph.layer_begin[layer];
    const std::int32_t end = graph.layer_begin[layer + 1];
    // Edges out of layer t land in layer t + 1; the last layer has none
    // (CheckEdgeOffsets).
    const bool expanded = t + 1 < length;
    const std::int32_t target_begin = expanded ? end : 0;
    const std::int32_t target_end =
        expanded ? graph.layer_begin[layer + 2] : 0;
    layer_keys.clear();
    for (std::int32_t id = begin; id < end; ++id) {
      const std::size_t n = static_cast<std::size_t>(id);
      const std::int32_t key_id = graph.key_id[n];
      // The source layer intentionally holds one node per candidate
      // reading (no dedup), so equal keys are legal there.
      if (t > 0 && key_id >= 0 &&
          static_cast<std::size_t>(key_id) < num_keys &&
          !layer_keys.insert(key_id).second) {
        Append(options, report, AuditCheck::kCsrKeyInterning, id, t,
               StrFormat("key id %d appears twice in one layer", key_id));
      }
      for (std::size_t e = graph.edge_begin[n]; e < graph.edge_begin[n + 1];
           ++e) {
        const NodeId to = graph.edge_to[e];
        if (to < target_begin || to >= target_end) {
          Append(options, report, AuditCheck::kEdgeTargetRange, id, t,
                 StrFormat("edge target %d outside the next layer "
                           "[%d, %d)",
                           to, target_begin, target_end));
        }
      }
    }
  }
}

AuditReport AuditWorkGraph(const WorkGraph& graph,
                           const AuditOptions& options) {
  AuditReport report;
  AuditWorkGraphStructure(graph, options, &report);
  return report;
}

}  // namespace rfidclean
