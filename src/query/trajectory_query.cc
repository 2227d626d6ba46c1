#include "query/trajectory_query.h"

#include <vector>

#include "query/pattern_matcher.h"

namespace rfidclean {

namespace {

/// Sparse per-node map from DFA state to accumulated probability mass.
/// Queries touch very few states per node.
struct StateMass {
  int state = 0;
  double mass = 0.0;

  friend bool operator==(const StateMass&, const StateMass&) = default;
};

using NodeStates = std::vector<StateMass>;

void Accumulate(NodeStates* states, int state, double mass) {
  for (StateMass& entry : *states) {
    if (entry.state == state) {
      entry.mass += mass;
      return;
    }
  }
  states->push_back(StateMass{state, mass});
}

}  // namespace

double EvaluateTrajectoryQuery(const CtGraph& graph, const Pattern& pattern) {
  PatternMatcher matcher(pattern);
  std::vector<NodeStates> masses(graph.NumNodes());

  for (NodeId id : graph.SourceNodes()) {
    int state = matcher.Step(matcher.StartState(), graph.LocationOf(id));
    Accumulate(&masses[static_cast<std::size_t>(id)], state,
               graph.SourceProbability(id));
  }
  for (Timestamp t = 0; t + 1 < graph.length(); ++t) {
    for (NodeId id : graph.NodesAt(t)) {
      NodeStates& current = masses[static_cast<std::size_t>(id)];
      if (current.empty()) continue;
      for (const CtGraph::Edge& edge : graph.OutEdges(id)) {
        LocationId next_location = graph.LocationOf(edge.to);
        NodeStates& next = masses[static_cast<std::size_t>(edge.to)];
        for (const StateMass& entry : current) {
          int state = matcher.Step(entry.state, next_location);
          Accumulate(&next, state, entry.mass * edge.probability);
        }
      }
      current.clear();
      current.shrink_to_fit();
    }
  }
  double probability = 0.0;
  for (NodeId id : graph.TargetNodes()) {
    for (const StateMass& entry : masses[static_cast<std::size_t>(id)]) {
      if (matcher.IsAccepting(entry.state)) probability += entry.mass;
    }
  }
  // Clamp floating-point drift.
  if (probability < 0.0) probability = 0.0;
  if (probability > 1.0) probability = 1.0;
  return probability;
}

}  // namespace rfidclean
