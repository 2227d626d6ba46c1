#include "query/window_query.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "query/marginals.h"

namespace rfidclean {

namespace {

void CheckWindow(const CtGraph& graph, Timestamp from, Timestamp to) {
  RFID_CHECK_GE(from, 0);
  RFID_CHECK_LE(from, to);
  RFID_CHECK_LT(to, graph.length());
}

/// Total mass of paths whose steps inside [from, to] all satisfy
/// `allowed(location)`: a forward pass over the graph with disallowed
/// nodes zeroed inside the window.
template <typename Allowed>
double MassOfConstrainedPaths(const CtGraph& graph, Timestamp from,
                              Timestamp to, Allowed allowed) {
  std::vector<double> alpha(graph.NumNodes(), 0.0);
  for (NodeId id : graph.SourceNodes()) {
    const Timestamp time = graph.TimeOf(id);
    bool ok = time < from || time > to || allowed(graph.LocationOf(id));
    alpha[static_cast<std::size_t>(id)] =
        ok ? graph.SourceProbability(id) : 0.0;
  }
  for (Timestamp t = 0; t + 1 < graph.length(); ++t) {
    for (NodeId id : graph.NodesAt(t)) {
      double mass = alpha[static_cast<std::size_t>(id)];
      if (mass == 0.0) continue;
      for (const CtGraph::Edge& edge : graph.OutEdges(id)) {
        const Timestamp next_time = graph.TimeOf(edge.to);
        bool ok = next_time < from || next_time > to ||
                  allowed(graph.LocationOf(edge.to));
        if (ok) {
          alpha[static_cast<std::size_t>(edge.to)] +=
              mass * edge.probability;
        }
      }
    }
  }
  double total = 0.0;
  for (NodeId id : graph.TargetNodes()) {
    total += alpha[static_cast<std::size_t>(id)];
  }
  return std::clamp(total, 0.0, 1.0);
}

}  // namespace

double ProbabilityVisitedInWindow(const CtGraph& graph, LocationId location,
                                  Timestamp from, Timestamp to) {
  CheckWindow(graph, from, to);
  double avoided = MassOfConstrainedPaths(
      graph, from, to,
      [location](LocationId at) { return at != location; });
  return 1.0 - avoided;
}

double ExpectedTicksAtInWindow(const CtGraph& graph, LocationId location,
                               Timestamp from, Timestamp to) {
  CheckWindow(graph, from, to);
  std::vector<double> marginals = NodeMarginals(graph);
  double expected = 0.0;
  for (Timestamp t = from; t <= to; ++t) {
    for (NodeId id : graph.NodesAt(t)) {
      if (graph.LocationOf(id) == location) {
        expected += marginals[static_cast<std::size_t>(id)];
      }
    }
  }
  return expected;
}

double ProbabilityStayedThroughWindow(const CtGraph& graph,
                                      LocationId location, Timestamp from,
                                      Timestamp to) {
  CheckWindow(graph, from, to);
  return MassOfConstrainedPaths(
      graph, from, to,
      [location](LocationId at) { return at == location; });
}

}  // namespace rfidclean
