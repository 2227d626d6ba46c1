#include "analysis/numeric_audit.h"

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/float_eq.h"
#include "common/strings.h"

namespace rfidclean {

namespace {

using internal_audit::AppendViolation;

bool TargetInRange(const CtGraph& graph, const CtGraph::Edge& edge) {
  return edge.to >= 0 &&
         static_cast<std::size_t>(edge.to) < graph.NumNodes();
}

/// A conditioned probability must be a finite value in (0, 1]: zero-mass
/// nodes and edges are pruned by the backward phase, so a zero here means a
/// dead branch survived compaction.
bool CheckProbability(double p, AuditCheck check, NodeId node,
                      Timestamp time, const char* what,
                      const AuditOptions& options, AuditReport* report) {
  const char* problem = nullptr;
  if (std::isnan(p)) {
    problem = "is NaN";
  } else if (std::isinf(p)) {
    problem = "is infinite";
  } else if (p < 0.0) {
    problem = "is negative";
  } else if (p == 0.0) {
    problem = "is zero (unpruned dead branch)";
  } else if (p > 1.0 + options.epsilon) {
    problem = "exceeds 1";
  }
  if (problem == nullptr) return true;
  AppendViolation(options, report,
                  AuditViolation{check, node, time,
                                 StrFormat("%s probability %g %s", what, p,
                                           problem)});
  return false;
}

}  // namespace

double TotalPathMass(const CtGraph& graph) {
  if (graph.length() <= 0) return 0.0;
  std::vector<double> suffix(graph.NumNodes(), 0.0);
  for (NodeId id : graph.TargetNodes()) {
    suffix[static_cast<std::size_t>(id)] = 1.0;
  }
  for (Timestamp t = graph.length() - 2; t >= 0; --t) {
    for (NodeId id : graph.NodesAt(t)) {
      double mass = 0.0;
      for (const CtGraph::Edge& edge : graph.OutEdges(id)) {
        if (!TargetInRange(graph, edge)) continue;
        mass += edge.probability * suffix[static_cast<std::size_t>(edge.to)];
      }
      suffix[static_cast<std::size_t>(id)] = mass;
    }
  }
  double total = 0.0;
  for (NodeId id : graph.SourceNodes()) {
    total += graph.SourceProbability(id) *
             suffix[static_cast<std::size_t>(id)];
  }
  return total;
}

void AuditNumerics(const CtGraph& graph, const AuditOptions& options,
                   AuditReport* report) {
  if (graph.length() <= 0) return;

  double source_sum = 0.0;
  for (NodeId id : graph.SourceNodes()) {
    const double probability = graph.SourceProbability(id);
    CheckProbability(probability, AuditCheck::kFiniteProbabilities, id,
                     0, "source", options, report);
    source_sum += probability;
  }
  if (!ApproxOne(source_sum, options.epsilon)) {
    AppendViolation(
        options, report,
        AuditViolation{AuditCheck::kSourceNormalization, kInvalidNode, 0,
                       StrFormat("source probabilities sum to %.12f",
                                 source_sum)});
  }

  for (Timestamp time = 0; time < graph.length(); ++time) {
    for (const NodeId id : graph.NodesAt(time)) {
      const auto out_edges = graph.OutEdges(id);
      if (out_edges.empty()) continue;
      double out_sum = 0.0;
      bool finite = true;
      for (const CtGraph::Edge edge : out_edges) {
        finite &= CheckProbability(edge.probability,
                                   AuditCheck::kFiniteProbabilities, id, time,
                                   "edge", options, report);
        out_sum += edge.probability;
      }
      // A broken summand already produced a finite-probabilities violation;
      // reporting the (necessarily broken) sum on top would be noise.
      if (finite && !ApproxOne(out_sum, options.epsilon)) {
        AppendViolation(
            options, report,
            AuditViolation{AuditCheck::kEdgeNormalization, id, time,
                           StrFormat("outgoing probabilities sum to %.12f",
                                     out_sum)});
      }
    }
  }

  // The sweep compounds one rounding step per layer, so the tolerance
  // scales with the graph length.
  report->path_mass = TotalPathMass(graph);
  const double tolerance =
      options.epsilon * static_cast<double>(graph.length() > 0
                                                ? graph.length()
                                                : 1);
  if (!ApproxOne(report->path_mass, tolerance)) {
    AppendViolation(
        options, report,
        AuditViolation{AuditCheck::kPathMass, kInvalidNode, -1,
                       StrFormat("total conditioned path mass is %.12f, "
                                 "not 1 (tolerance %g)",
                                 report->path_mass, tolerance)});
  }
}

}  // namespace rfidclean
