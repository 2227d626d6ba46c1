#include "query/flow.h"

#include "common/check.h"
#include "query/marginals.h"

namespace rfidclean {

std::vector<double> ExpectedTransitionCounts(const CtGraph& graph,
                                             std::size_t num_locations) {
  std::vector<double> flow(num_locations * num_locations, 0.0);
  std::vector<double> marginals = NodeMarginals(graph);
  for (Timestamp t = 0; t + 1 < graph.length(); ++t) {
    for (NodeId id : graph.NodesAt(t)) {
      const LocationId from = graph.LocationOf(id);
      RFID_CHECK_LT(static_cast<std::size_t>(from), num_locations);
      double mass = marginals[static_cast<std::size_t>(id)];
      if (mass == 0.0) continue;
      for (const CtGraph::Edge& edge : graph.OutEdges(id)) {
        LocationId to = graph.LocationOf(edge.to);
        flow[static_cast<std::size_t>(from) * num_locations +
             static_cast<std::size_t>(to)] += mass * edge.probability;
      }
    }
  }
  return flow;
}

}  // namespace rfidclean
