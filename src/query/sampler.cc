#include "query/sampler.h"

#include "common/check.h"

namespace rfidclean {

namespace {

/// Roulette pick over probabilities that sum to 1 (within drift).
template <typename Container, typename Prob>
std::size_t Pick(const Container& entries, Prob prob, Rng& rng) {
  RFID_CHECK(!entries.empty());
  double target = rng.UniformDouble();
  double acc = 0.0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    acc += prob(entries[i]);
    if (target < acc) return i;
  }
  return entries.size() - 1;  // Floating-point slack.
}

}  // namespace

TrajectorySampler::TrajectorySampler(const CtGraph& graph) : graph_(&graph) {}

Trajectory TrajectorySampler::Sample(Rng& rng) const {
  const auto sources = graph_->SourceNodes();
  std::size_t pick = Pick(
      sources, [this](NodeId id) { return graph_->SourceProbability(id); },
      rng);
  NodeId current = sources[pick];
  Trajectory trajectory;
  trajectory.Append(graph_->LocationOf(current));
  for (Timestamp t = 1; t < graph_->length(); ++t) {
    const auto edges = graph_->OutEdges(current);
    std::size_t e = Pick(
        edges, [](const CtGraph::Edge edge) { return edge.probability; },
        rng);
    current = edges[e].to;
    trajectory.Append(graph_->LocationOf(current));
  }
  return trajectory;
}

}  // namespace rfidclean
