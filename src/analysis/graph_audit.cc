#include "analysis/graph_audit.h"

#include <cstddef>
#include <utility>
#include <vector>

#include "analysis/numeric_audit.h"
#include "common/strings.h"
#include "core/self_audit.h"

namespace rfidclean {

namespace {

using internal_audit::AppendViolation;

bool EdgeTargetInRange(const CtGraph& graph, const CtGraph::Edge& edge) {
  return edge.to >= 0 &&
         static_cast<std::size_t>(edge.to) < graph.NumNodes();
}

/// Edge target indices and layering: every edge must land inside the graph
/// and advance the timestamp by exactly one.
void AuditEdges(const CtGraph& graph, const AuditOptions& options,
                AuditReport* report) {
  for (std::size_t i = 0; i < graph.NumNodes(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    const Timestamp time = graph.TimeOf(id);
    for (const CtGraph::Edge& edge : graph.OutEdges(id)) {
      ++report->edges_checked;
      if (!EdgeTargetInRange(graph, edge)) {
        AppendViolation(
            options, report,
            AuditViolation{AuditCheck::kEdgeTargetRange, id, time,
                           StrFormat("edge targets unknown node %d",
                                     edge.to)});
        continue;
      }
      const Timestamp to_time = graph.TimeOf(edge.to);
      if (to_time != time + 1) {
        AppendViolation(
            options, report,
            AuditViolation{AuditCheck::kLayering, id, time,
                           StrFormat("edge to node %d jumps t=%d -> t=%d "
                                     "instead of advancing by one",
                                     edge.to, time, to_time)});
      }
    }
  }
}

/// Kahn's algorithm over the raw edge relation. The layering check already
/// implies acyclicity on a well-formed graph, but a corrupt graph can lie
/// about its timestamps, so the topological sort works purely from edges.
void AuditAcyclicity(const CtGraph& graph, const AuditOptions& options,
                     AuditReport* report) {
  std::vector<std::size_t> in_degree(graph.NumNodes(), 0);
  for (std::size_t i = 0; i < graph.NumNodes(); ++i) {
    for (const CtGraph::Edge& edge : graph.OutEdges(static_cast<NodeId>(i))) {
      if (EdgeTargetInRange(graph, edge)) {
        ++in_degree[static_cast<std::size_t>(edge.to)];
      }
    }
  }
  std::vector<NodeId> ready;
  for (std::size_t i = 0; i < graph.NumNodes(); ++i) {
    if (in_degree[i] == 0) ready.push_back(static_cast<NodeId>(i));
  }
  std::size_t processed = 0;
  while (!ready.empty()) {
    const NodeId id = ready.back();
    ready.pop_back();
    ++processed;
    for (const CtGraph::Edge& edge : graph.OutEdges(id)) {
      if (!EdgeTargetInRange(graph, edge)) continue;
      if (--in_degree[static_cast<std::size_t>(edge.to)] == 0) {
        ready.push_back(edge.to);
      }
    }
  }
  if (processed < graph.NumNodes()) {
    // Name one node still carrying in-degree: it lies on (or behind) a
    // cycle, which gives the diagnostics a concrete anchor.
    NodeId witness = kInvalidNode;
    for (std::size_t i = 0; i < graph.NumNodes(); ++i) {
      if (in_degree[i] > 0) {
        witness = static_cast<NodeId>(i);
        break;
      }
    }
    AppendViolation(
        options, report,
        AuditViolation{
            AuditCheck::kAcyclicity, witness,
            witness == kInvalidNode ? Timestamp{-1}
                                    : graph.TimeOf(witness),
            StrFormat("topological sort stuck with %zu of %zu nodes "
                      "unprocessed (cycle)",
                      graph.NumNodes() - processed, graph.NumNodes())});
  }
}

/// Layer occupancy plus source/target termination.
void AuditLayers(const CtGraph& graph, const AuditOptions& options,
                 AuditReport* report) {
  for (Timestamp t = 0; t < graph.length(); ++t) {
    if (graph.NodesAt(t).empty()) {
      AppendViolation(options, report,
                      AuditViolation{AuditCheck::kLayerNonEmpty,
                                     kInvalidNode, t, "layer has no nodes"});
    }
  }
  for (std::size_t i = 0; i < graph.NumNodes(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    const Timestamp time = graph.TimeOf(id);
    const std::size_t out_degree = graph.OutEdges(id).size();
    const bool is_target = time == graph.length() - 1;
    if (is_target && out_degree != 0) {
      AppendViolation(
          options, report,
          AuditViolation{AuditCheck::kTermination, id, time,
                         StrFormat("target node has %zu outgoing edge(s)",
                                   out_degree)});
    } else if (!is_target && out_degree == 0) {
      AppendViolation(
          options, report,
          AuditViolation{AuditCheck::kTermination, id, time,
                         "non-target node has no outgoing edge (dead "
                         "branch not pruned)"});
    }
  }
}

/// Forward reachability from the sources and backward reachability from
/// the targets: a node failing either is not on any source→target path, so
/// the path↔trajectory bijection of Definition 4 is broken.
void AuditReachability(const CtGraph& graph, const AuditOptions& options,
                       AuditReport* report) {
  if (graph.length() <= 0 || graph.NumNodes() == 0) return;
  std::vector<bool> forward(graph.NumNodes(), false);
  std::vector<NodeId> stack;
  for (NodeId id : graph.SourceNodes()) {
    forward[static_cast<std::size_t>(id)] = true;
    stack.push_back(id);
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    for (const CtGraph::Edge& edge : graph.OutEdges(id)) {
      if (!EdgeTargetInRange(graph, edge)) continue;
      if (!forward[static_cast<std::size_t>(edge.to)]) {
        forward[static_cast<std::size_t>(edge.to)] = true;
        stack.push_back(edge.to);
      }
    }
  }

  // Backward sweep needs the reverse adjacency once.
  std::vector<std::vector<NodeId>> reverse(graph.NumNodes());
  for (std::size_t i = 0; i < graph.NumNodes(); ++i) {
    for (const CtGraph::Edge& edge : graph.OutEdges(static_cast<NodeId>(i))) {
      if (EdgeTargetInRange(graph, edge)) {
        reverse[static_cast<std::size_t>(edge.to)].push_back(
            static_cast<NodeId>(i));
      }
    }
  }
  std::vector<bool> backward(graph.NumNodes(), false);
  for (NodeId id : graph.TargetNodes()) {
    backward[static_cast<std::size_t>(id)] = true;
    stack.push_back(id);
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    for (NodeId from : reverse[static_cast<std::size_t>(id)]) {
      if (!backward[static_cast<std::size_t>(from)]) {
        backward[static_cast<std::size_t>(from)] = true;
        stack.push_back(from);
      }
    }
  }

  for (std::size_t i = 0; i < graph.NumNodes(); ++i) {
    if (forward[i] && backward[i]) continue;
    const NodeId id = static_cast<NodeId>(i);
    const char* reason =
        !forward[i] && !backward[i]
            ? "orphan node: reachable from no source and no target"
            : (!forward[i] ? "node is unreachable from every source"
                           : "node reaches no target");
    AppendViolation(options, report,
                    AuditViolation{AuditCheck::kReachability, id,
                                   graph.TimeOf(id), reason});
  }
}

}  // namespace

void AuditStructure(const CtGraph& graph, const AuditOptions& options,
                    AuditReport* report) {
  report->length = graph.length();
  report->nodes_checked = graph.NumNodes();
  if (graph.length() <= 0) {
    AppendViolation(options, report,
                    AuditViolation{AuditCheck::kLayerNonEmpty, kInvalidNode,
                                   -1, "graph spans no timestamps"});
    return;
  }
  AuditEdges(graph, options, report);
  AuditAcyclicity(graph, options, report);
  AuditLayers(graph, options, report);
  AuditReachability(graph, options, report);
}

AuditReport AuditGraph(const CtGraph& graph, const AuditOptions& options) {
  AuditReport report;
  AuditStructure(graph, options, &report);
  AuditNumerics(graph, options, &report);
  return report;
}

namespace {

/// Options of the installed self-audit hook. A plain global: the hook is a
/// process-wide debugging aid flipped at startup (CLI flag, test
/// fixture), not a per-build knob.
AuditOptions g_self_audit_options;

Status SelfAuditFn(const CtGraph& graph) {
  return AuditGraph(graph, g_self_audit_options).ToStatus();
}

}  // namespace

void EnableSelfAudit(const AuditOptions& options) {
  g_self_audit_options = options;
  SetCtGraphAuditHook(&SelfAuditFn);
}

void DisableSelfAudit() { SetCtGraphAuditHook(nullptr); }

}  // namespace rfidclean
