#ifndef RFIDCLEAN_QUERY_MOST_LIKELY_H_
#define RFIDCLEAN_QUERY_MOST_LIKELY_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/ct_graph.h"
#include "model/trajectory.h"

namespace rfidclean {

/// The single most probable valid trajectory under the conditioned
/// distribution, with its probability — max-product (Viterbi) dynamic
/// programming over the ct-graph. Log-space scores keep hour-long
/// trajectories away from underflow. Ties are broken toward the earlier
/// node in layer order (deterministic).
///
/// This is the cleaned counterpart of UncleanedModel::MostLikelyTrajectory:
/// the argmax over *valid* trajectories of p*(t | Θ ∧ IC) instead of the
/// per-instant independent argmax (which is usually not even valid).
///
/// Templated over the structural graph concept so an owning CtGraph and a
/// zero-copy store::CtGraphView yield bit-identical answers (same visit
/// order, same float operations).
///
/// When no target node has a finite score, the answer is
/// {Trajectory(), 0.0}: an empty trajectory with probability zero. A
/// consistent graph never gets there (its probabilities are positive), but
/// a view mapped with MapVerify::kStructural has unverified probability
/// sections, and NaN or zero probabilities there would leave every target
/// at -inf (docs/ALGORITHM.md §12).
template <typename Graph>
std::pair<Trajectory, double> MostLikelyTrajectoryOf(const Graph& graph) {
  RFID_CHECK_GT(graph.length(), 0);
  constexpr double kMinusInfinity = -std::numeric_limits<double>::infinity();
  std::vector<double> best(graph.NumNodes(), kMinusInfinity);
  std::vector<NodeId> parent(graph.NumNodes(), kInvalidNode);

  for (NodeId id : graph.SourceNodes()) {
    best[static_cast<std::size_t>(id)] =
        std::log(graph.SourceProbability(id));
  }
  for (Timestamp t = 0; t + 1 < graph.length(); ++t) {
    for (NodeId id : graph.NodesAt(t)) {
      double score = best[static_cast<std::size_t>(id)];
      if (score == kMinusInfinity) continue;
      for (const auto& edge : graph.OutEdges(id)) {
        double candidate = score + std::log(edge.probability);
        if (candidate > best[static_cast<std::size_t>(edge.to)]) {
          best[static_cast<std::size_t>(edge.to)] = candidate;
          parent[static_cast<std::size_t>(edge.to)] = id;
        }
      }
    }
  }

  NodeId argmax = kInvalidNode;
  double max_score = kMinusInfinity;
  for (NodeId id : graph.TargetNodes()) {
    const double score = best[static_cast<std::size_t>(id)];
    if (std::isfinite(score) && score > max_score) {
      max_score = score;
      argmax = id;
    }
  }
  if (argmax == kInvalidNode) return {Trajectory(), 0.0};

  std::vector<LocationId> reversed;
  for (NodeId id = argmax; id != kInvalidNode;
       id = parent[static_cast<std::size_t>(id)]) {
    reversed.push_back(graph.LocationOf(id));
  }
  std::reverse(reversed.begin(), reversed.end());
  return {Trajectory(std::move(reversed)), std::exp(max_score)};
}

std::pair<Trajectory, double> MostLikelyTrajectory(const CtGraph& graph);

}  // namespace rfidclean

#endif  // RFIDCLEAN_QUERY_MOST_LIKELY_H_
