#include "core/ct_graph.h"

#include <cmath>

#include "common/check.h"
#include "common/float_eq.h"
#include "common/fnv.h"
#include "common/strings.h"
#include "core/graph_digest.h"

namespace rfidclean {

Result<CtGraph> CtGraph::Assemble(std::vector<Node> nodes,
                                  Timestamp length) {
  if (length <= 0) return InvalidArgumentError("length must be positive");
  CtGraph graph;
  graph.nodes_by_time_.resize(static_cast<std::size_t>(length));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    Timestamp time = nodes[i].time;
    if (time < 0 || time >= length) {
      return InvalidArgumentError(
          StrFormat("node %zu has timestamp %d outside [0, %d)", i, time,
                    length));
    }
    for (const Edge& edge : nodes[i].out_edges) {
      if (edge.to < 0 || static_cast<std::size_t>(edge.to) >= nodes.size()) {
        return InvalidArgumentError(
            StrFormat("node %zu has an edge to unknown node %d", i,
                      edge.to));
      }
    }
    graph.nodes_by_time_[static_cast<std::size_t>(time)].push_back(
        static_cast<NodeId>(i));
  }
  graph.nodes_ = std::move(nodes);
  RFID_RETURN_IF_ERROR(graph.CheckConsistency());
  return graph;
}

CtGraph CtGraph::AssembleUnchecked(std::vector<Node> nodes,
                                   Timestamp length) {
  RFID_CHECK_GT(length, 0);
  CtGraph graph;
  graph.nodes_by_time_.resize(static_cast<std::size_t>(length));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    RFID_CHECK_GE(nodes[i].time, 0);
    RFID_CHECK_LT(nodes[i].time, length);
    graph.nodes_by_time_[static_cast<std::size_t>(nodes[i].time)].push_back(
        static_cast<NodeId>(i));
  }
  graph.nodes_ = std::move(nodes);
  return graph;
}

std::size_t CtGraph::NumEdges() const {
  std::size_t count = 0;
  for (const Node& node : nodes_) count += node.out_edges.size();
  return count;
}

std::uint64_t CtGraph::Digest() const {
  Fnv64 fnv;
  MixGraphDigestHeader(&fnv, length(), nodes_.size());
  for (const Node& node : nodes_) {
    MixGraphDigestNode(&fnv, node.time, node.key.location, node.key.delta,
                       node.key.departures, node.source_probability,
                       node.out_edges);
  }
  return fnv.Digest();
}

const CtGraph::Node& CtGraph::node(NodeId id) const {
  RFID_CHECK_GE(id, 0);
  RFID_CHECK_LT(static_cast<std::size_t>(id), nodes_.size());
  return nodes_[static_cast<std::size_t>(id)];
}

const std::vector<NodeId>& CtGraph::NodesAt(Timestamp t) const {
  RFID_CHECK_GE(t, 0);
  RFID_CHECK_LT(t, length());
  return nodes_by_time_[static_cast<std::size_t>(t)];
}

double CtGraph::TrajectoryProbability(const Trajectory& trajectory) const {
  if (trajectory.length() != length()) return 0.0;
  NodeId current = kInvalidNode;
  double probability = 0.0;
  for (NodeId id : SourceNodes()) {
    if (node(id).key.location == trajectory.At(0)) {
      current = id;
      probability = node(id).source_probability;
      break;
    }
  }
  if (current == kInvalidNode) return 0.0;
  for (Timestamp t = 1; t < length(); ++t) {
    NodeId next = kInvalidNode;
    for (const Edge& edge : node(current).out_edges) {
      if (node(edge.to).key.location == trajectory.At(t)) {
        next = edge.to;
        probability *= edge.probability;
        break;
      }
    }
    if (next == kInvalidNode) return 0.0;
    current = next;
  }
  return probability;
}

std::vector<std::pair<Trajectory, double>> CtGraph::EnumerateTrajectories(
    std::size_t max_paths) const {
  std::vector<std::pair<Trajectory, double>> out;
  std::vector<LocationId> steps;
  // Depth-first over the layered DAG.
  auto dfs = [&](auto&& self, NodeId id, double probability) -> void {
    steps.push_back(node(id).key.location);
    if (node(id).time == length() - 1) {
      RFID_CHECK_LT(out.size(), max_paths);
      out.emplace_back(Trajectory(steps), probability);
    } else {
      for (const Edge& edge : node(id).out_edges) {
        self(self, edge.to, probability * edge.probability);
      }
    }
    steps.pop_back();
  };
  for (NodeId id : SourceNodes()) {
    dfs(dfs, id, node(id).source_probability);
  }
  return out;
}

Status CtGraph::CheckConsistency(double tolerance) const {
  if (nodes_by_time_.empty()) return InternalError("empty ct-graph");
  double source_sum = 0.0;
  for (NodeId id : SourceNodes()) source_sum += node(id).source_probability;
  if (!ApproxOne(source_sum, tolerance)) {
    return InternalError(
        StrFormat("source probabilities sum to %.12f", source_sum));
  }
  std::vector<bool> has_in_edge(nodes_.size(), false);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.time < length() - 1) {
      if (n.out_edges.empty()) {
        return InternalError(StrFormat(
            "non-target node %zu at time %d has no outgoing edge", i,
            n.time));
      }
      double out_sum = 0.0;
      for (const Edge& edge : n.out_edges) {
        if (edge.probability <= 0.0) {
          return InternalError("non-positive edge probability");
        }
        if (node(edge.to).time != n.time + 1) {
          return InternalError("edge does not advance time by one");
        }
        has_in_edge[static_cast<std::size_t>(edge.to)] = true;
        out_sum += edge.probability;
      }
      if (!ApproxOne(out_sum, tolerance)) {
        return InternalError(StrFormat(
            "outgoing probabilities of node %zu sum to %.12f", i, out_sum));
      }
    } else if (!n.out_edges.empty()) {
      return InternalError("target node has outgoing edges");
    }
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].time > 0 && !has_in_edge[i]) {
      return InternalError(
          StrFormat("non-source node %zu is unreachable", i));
    }
  }
  return Status::Ok();
}

std::size_t CtGraph::ApproximateBytes() const {
  std::size_t bytes = sizeof(CtGraph);
  bytes += nodes_.capacity() * sizeof(Node);
  for (const Node& node : nodes_) {
    bytes += node.out_edges.capacity() * sizeof(Edge);
    bytes += node.key.departures.HeapBytes();
  }
  bytes += nodes_by_time_.capacity() * sizeof(std::vector<NodeId>);
  for (const auto& layer : nodes_by_time_) {
    bytes += layer.capacity() * sizeof(NodeId);
  }
  return bytes;
}

}  // namespace rfidclean
