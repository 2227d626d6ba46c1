#include "query/top_k.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace rfidclean {

namespace {

/// One of a node's k best prefixes: its log-probability and the
/// back-pointer (predecessor node, rank within that node's list).
struct Prefix {
  double log_probability = 0.0;
  NodeId parent = kInvalidNode;
  int parent_rank = -1;
};

bool BetterPrefix(const Prefix& a, const Prefix& b) {
  return a.log_probability > b.log_probability;
}

}  // namespace

std::vector<std::pair<Trajectory, double>> TopKTrajectories(
    const CtGraph& graph, std::size_t k) {
  RFID_CHECK_GT(k, 0u);
  std::vector<std::vector<Prefix>> best(graph.NumNodes());

  for (NodeId id : graph.SourceNodes()) {
    best[static_cast<std::size_t>(id)].push_back(
        Prefix{std::log(graph.SourceProbability(id)), kInvalidNode,
               -1});
  }
  for (Timestamp t = 0; t + 1 < graph.length(); ++t) {
    for (NodeId id : graph.NodesAt(t)) {
      const std::vector<Prefix>& prefixes =
          best[static_cast<std::size_t>(id)];
      if (prefixes.empty()) continue;
      for (const CtGraph::Edge& edge : graph.OutEdges(id)) {
        std::vector<Prefix>& target =
            best[static_cast<std::size_t>(edge.to)];
        double step = std::log(edge.probability);
        for (int rank = 0; rank < static_cast<int>(prefixes.size());
             ++rank) {
          Prefix candidate{
              prefixes[static_cast<std::size_t>(rank)].log_probability +
                  step,
              id, rank};
          if (target.size() < k) {
            target.push_back(candidate);
            std::push_heap(target.begin(), target.end(), BetterPrefix);
          } else if (BetterPrefix(candidate, target.front())) {
            std::pop_heap(target.begin(), target.end(), BetterPrefix);
            target.back() = candidate;
            std::push_heap(target.begin(), target.end(), BetterPrefix);
          } else {
            // The heap front is the worst kept prefix; since this node's
            // prefixes are sorted descending, later ranks only get worse.
            break;
          }
        }
      }
    }
    // Sort the next layer's lists descending so rank order is meaningful.
    for (NodeId id : graph.NodesAt(t + 1)) {
      std::vector<Prefix>& prefixes = best[static_cast<std::size_t>(id)];
      std::sort(prefixes.begin(), prefixes.end(), BetterPrefix);
    }
  }

  // Collect candidate endpoints at the target layer and keep the global k.
  struct Endpoint {
    double log_probability;
    NodeId node;
    int rank;
  };
  std::vector<Endpoint> endpoints;
  for (NodeId id : graph.TargetNodes()) {
    const std::vector<Prefix>& prefixes =
        best[static_cast<std::size_t>(id)];
    for (int rank = 0; rank < static_cast<int>(prefixes.size()); ++rank) {
      endpoints.push_back(
          Endpoint{prefixes[static_cast<std::size_t>(rank)].log_probability,
                   id, rank});
    }
  }
  std::sort(endpoints.begin(), endpoints.end(),
            [](const Endpoint& a, const Endpoint& b) {
              return a.log_probability > b.log_probability;
            });
  if (endpoints.size() > k) endpoints.resize(k);

  std::vector<std::pair<Trajectory, double>> out;
  for (const Endpoint& endpoint : endpoints) {
    std::vector<LocationId> reversed;
    NodeId node = endpoint.node;
    int rank = endpoint.rank;
    while (node != kInvalidNode) {
      reversed.push_back(graph.LocationOf(node));
      const Prefix& prefix =
          best[static_cast<std::size_t>(node)][static_cast<std::size_t>(
              rank)];
      node = prefix.parent;
      rank = prefix.parent_rank;
    }
    std::reverse(reversed.begin(), reversed.end());
    out.emplace_back(Trajectory(std::move(reversed)),
                     std::exp(endpoint.log_probability));
  }
  return out;
}

}  // namespace rfidclean
