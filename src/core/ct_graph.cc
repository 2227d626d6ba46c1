#include "core/ct_graph.h"

#include <cmath>
#include <limits>

#include "common/float_eq.h"
#include "common/strings.h"

namespace rfidclean {

namespace {

/// Converts Assemble's input records into flat arrays, sized exactly.
CtGraph::Arrays ToArrays(const std::vector<CtGraph::Node>& nodes,
                         Timestamp length) {
  std::size_t departures = 0;
  std::size_t edges = 0;
  for (const CtGraph::Node& node : nodes) {
    departures += node.key.departures.size();
    edges += node.out_edges.size();
  }
  CtGraph::Arrays arrays(length, nodes.size(), departures, edges);
  for (const CtGraph::Node& node : nodes) {
    arrays.AddNode(node.time, node.key.location, node.key.delta,
                   node.source_probability);
    node.key.departures.ForEach(
        [&arrays](const Departure& d) { arrays.AddDeparture(d); });
    for (const CtGraph::Edge& edge : node.out_edges) arrays.AddEdge(edge);
  }
  return arrays;
}

}  // namespace

CtGraph::Arrays::Arrays(Timestamp length, std::size_t nodes,
                        std::size_t departures, std::size_t edges)
    : length_(length), declared_nodes_(nodes) {
  MixGraphDigestHeader(&fnv_, length, nodes);
  records_.reserve(nodes + 1);  // + the sentinel Adopt appends
  departures_.reserve(departures);
  edges_.reserve(edges);
  source_probabilities_.reserve(nodes);
}

void CtGraph::Arrays::MixLastNode() {
  const NodeRecord& record = records_.back();
  MixGraphDigestNode(
      &fnv_, record.time, record.location, record.delta,
      std::span<const Departure>(departures_).subspan(record.tl_begin),
      source_probabilities_.back(),
      std::span<const Edge>(edges_).subspan(record.edge_begin));
}

Result<CtGraph> CtGraph::Adopt(Arrays arrays) {
  const Timestamp length = arrays.length_;
  if (length <= 0) return InvalidArgumentError("length must be positive");
  const std::size_t num_nodes = arrays.records_.size();
  if (num_nodes != arrays.declared_nodes_) {
    return InvalidArgumentError(
        StrFormat("the fill added %zu nodes to a graph declared with %zu",
                  num_nodes, arrays.declared_nodes_));
  }
  if (num_nodes > static_cast<std::size_t>(
                      std::numeric_limits<NodeId>::max()) ||
      arrays.departures_.size() > std::numeric_limits<std::uint32_t>::max() ||
      arrays.edges_.size() > std::numeric_limits<std::uint32_t>::max()) {
    return InvalidArgumentError(
        StrFormat("%zu nodes, %zu TL entries and %zu edges exceed the "
                  "graph's 32-bit ids and offsets",
                  num_nodes, arrays.departures_.size(),
                  arrays.edges_.size()));
  }
  CtGraph graph;
  graph.length_ = length;
  // Counting sort of the ids by timestamp: stable, so each layer lists its
  // ids in ascending order.
  graph.layer_begin_.assign(static_cast<std::size_t>(length) + 1, 0);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const Timestamp time = arrays.records_[i].time;
    if (time < 0 || time >= length) {
      return InvalidArgumentError(
          StrFormat("node %zu has timestamp %d outside [0, %d)", i, time,
                    length));
    }
    ++graph.layer_begin_[static_cast<std::size_t>(time) + 1];
  }
  for (std::size_t t = 1; t < graph.layer_begin_.size(); ++t) {
    graph.layer_begin_[t] += graph.layer_begin_[t - 1];
  }
  graph.layer_ids_.resize(num_nodes);
  std::vector<std::uint32_t> cursor(graph.layer_begin_.begin(),
                                    graph.layer_begin_.end() - 1);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const std::size_t t =
        static_cast<std::size_t>(arrays.records_[i].time);
    graph.layer_ids_[cursor[t]++] = static_cast<NodeId>(i);
  }
  if (num_nodes > 0) arrays.MixLastNode();
  graph.digest_ = arrays.fnv_.Digest();
  arrays.records_.push_back(NodeRecord{
      0, kInvalidLocation, kDeltaBottom,
      static_cast<std::uint32_t>(arrays.departures_.size()),
      static_cast<std::uint32_t>(arrays.edges_.size())});
  graph.records_ = std::move(arrays.records_);
  graph.departures_ = std::move(arrays.departures_);
  graph.edges_ = std::move(arrays.edges_);
  graph.source_probabilities_ = std::move(arrays.source_probabilities_);
  return graph;
}

Result<CtGraph> CtGraph::FromArrays(Arrays arrays) {
  CtGraph graph;
  RFID_ASSIGN_OR_RETURN(graph, Adopt(std::move(arrays)));
  const std::size_t num_nodes = graph.NumNodes();
  for (std::size_t i = 0; i < num_nodes; ++i) {
    for (const Edge& edge : graph.OutEdges(static_cast<NodeId>(i))) {
      if (edge.to < 0 || static_cast<std::size_t>(edge.to) >= num_nodes) {
        return InvalidArgumentError(StrFormat(
            "node %zu has an edge to unknown node %d", i, edge.to));
      }
    }
  }
  RFID_RETURN_IF_ERROR(graph.CheckConsistency());
  return graph;
}

Result<CtGraph> CtGraph::Assemble(const std::vector<Node>& nodes,
                                  Timestamp length) {
  return FromArrays(ToArrays(nodes, length));
}

CtGraph CtGraph::AssembleUnchecked(const std::vector<Node>& nodes,
                                   Timestamp length) {
  Result<CtGraph> graph = Adopt(ToArrays(nodes, length));
  RFID_CHECK(graph.ok());
  return std::move(graph).value();
}

double CtGraph::TrajectoryProbability(const Trajectory& trajectory) const {
  if (trajectory.length() != length()) return 0.0;
  NodeId current = kInvalidNode;
  double probability = 0.0;
  for (NodeId id : SourceNodes()) {
    if (LocationOf(id) == trajectory.At(0)) {
      current = id;
      probability = SourceProbability(id);
      break;
    }
  }
  if (current == kInvalidNode) return 0.0;
  for (Timestamp t = 1; t < length(); ++t) {
    NodeId next = kInvalidNode;
    for (const Edge& edge : OutEdges(current)) {
      if (LocationOf(edge.to) == trajectory.At(t)) {
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
    steps.push_back(LocationOf(id));
    if (TimeOf(id) == length() - 1) {
      RFID_CHECK_LT(out.size(), max_paths);
      out.emplace_back(Trajectory(steps), probability);
    } else {
      for (const Edge& edge : OutEdges(id)) {
        self(self, edge.to, probability * edge.probability);
      }
    }
    steps.pop_back();
  };
  for (NodeId id : SourceNodes()) {
    dfs(dfs, id, SourceProbability(id));
  }
  return out;
}

Status CtGraph::CheckConsistency(double tolerance) const {
  if (length_ <= 0) return InternalError("empty ct-graph");
  double source_sum = 0.0;
  for (NodeId id : SourceNodes()) source_sum += SourceProbability(id);
  if (!ApproxOne(source_sum, tolerance)) {
    return InternalError(
        StrFormat("source probabilities sum to %.12f", source_sum));
  }
  std::vector<bool> has_in_edge(NumNodes(), false);
  for (std::size_t i = 0; i < NumNodes(); ++i) {
    const Timestamp time = records_[i].time;
    const std::span<const Edge> out_edges = OutEdges(static_cast<NodeId>(i));
    if (time < length() - 1) {
      if (out_edges.empty()) {
        return InternalError(StrFormat(
            "non-target node %zu at time %d has no outgoing edge", i, time));
      }
      double out_sum = 0.0;
      for (const Edge& edge : out_edges) {
        if (edge.probability <= 0.0) {
          return InternalError("non-positive edge probability");
        }
        if (TimeOf(edge.to) != time + 1) {
          return InternalError("edge does not advance time by one");
        }
        has_in_edge[static_cast<std::size_t>(edge.to)] = true;
        out_sum += edge.probability;
      }
      if (!ApproxOne(out_sum, tolerance)) {
        return InternalError(StrFormat(
            "outgoing probabilities of node %zu sum to %.12f", i, out_sum));
      }
    } else if (!out_edges.empty()) {
      return InternalError("target node has outgoing edges");
    }
  }
  for (std::size_t i = 0; i < NumNodes(); ++i) {
    if (records_[i].time > 0 && !has_in_edge[i]) {
      return InternalError(
          StrFormat("non-source node %zu is unreachable", i));
    }
  }
  return Status::Ok();
}

std::size_t CtGraph::ApproximateBytes() const {
  return sizeof(CtGraph) + records_.capacity() * sizeof(NodeRecord) +
         departures_.capacity() * sizeof(Departure) +
         edges_.capacity() * sizeof(Edge) +
         source_probabilities_.capacity() * sizeof(double) +
         layer_begin_.capacity() * sizeof(std::uint32_t) +
         layer_ids_.capacity() * sizeof(NodeId);
}

}  // namespace rfidclean
