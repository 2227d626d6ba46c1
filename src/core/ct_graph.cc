#include "core/ct_graph.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/float_eq.h"
#include "common/strings.h"

namespace rfidclean {

namespace {

/// Fills arrays from Assemble's input records, visited in `order` (node
/// positions, layer order), with each edge target mapped through `new_id`
/// (identity when empty). Sizes every column exactly.
CtGraph::Arrays ToArrays(const std::vector<CtGraph::Node>& nodes,
                         Timestamp length, std::span<const NodeId> order,
                         std::span<const NodeId> new_id) {
  std::size_t sources = 0;
  std::size_t departures = 0;
  std::size_t edges = 0;
  for (const CtGraph::Node& node : nodes) {
    sources += node.time == 0;
    departures += node.key.departures.size();
    edges += node.out_edges.size();
  }
  CtGraph::Arrays arrays(length, nodes.size(), sources, departures, edges);
  auto add = [&](const CtGraph::Node& node) {
    arrays.AddNode(node.time, node.key.location, node.key.delta,
                   node.source_probability);
    node.key.departures.ForEach(
        [&arrays](const Departure& d) { arrays.AddDeparture(d); });
    for (const CtGraph::Edge& edge : node.out_edges) {
      arrays.AddEdge(new_id.empty()
                         ? edge
                         : CtGraph::Edge{new_id[static_cast<std::size_t>(
                                             edge.to)],
                                         edge.probability});
    }
  };
  if (order.empty()) {
    for (const CtGraph::Node& node : nodes) add(node);
  } else {
    for (const NodeId i : order) add(nodes[static_cast<std::size_t>(i)]);
  }
  return arrays;
}

}  // namespace

CtGraph::Arrays::Arrays(Timestamp length, std::size_t nodes,
                        std::size_t sources, std::size_t departures,
                        std::size_t edges)
    : length_(length), declared_nodes_(nodes), declared_sources_(sources) {
  MixGraphDigestHeader(&fnv_, length, nodes);
  layer_begin_.reserve(length > 0 ? static_cast<std::size_t>(length) + 1
                                  : 1);
  layer_begin_.push_back(0);
  location_.reserve(nodes);
  delta_.reserve(nodes);
  tl_begin_.reserve(nodes + 1);  // + the end offset Adopt appends
  edge_begin_.reserve(nodes + 1);
  departures_.reserve(departures);
  edge_to_.reserve(edges);
  edge_probability_.reserve(edges);
  source_probability_.reserve(sources);
}

void CtGraph::Arrays::MixLastNode() {
  const std::uint32_t edge_begin = edge_begin_.back();
  MixGraphDigestNode(
      &fnv_, time_, location_.back(), delta_.back(),
      std::span<const Departure>(departures_).subspan(tl_begin_.back()),
      time_ == 0 && !source_probability_.empty() ? source_probability_.back()
                                                 : 0.0,
      EdgeRange(edge_to_.data() + edge_begin,
                reinterpret_cast<const unsigned char*>(
                    edge_probability_.data() + edge_begin),
                edge_to_.size() - edge_begin));
}

void CtGraph::Arrays::EnterLayer(Timestamp time) {
  if (!defect_.ok()) return;
  const std::size_t node = location_.size();
  if (time < 0 || time >= length_) {
    defect_ = InvalidArgumentError(StrFormat(
        "node %zu has timestamp %d outside [0, %d)", node, time, length_));
  } else if (time < time_) {
    defect_ = InvalidArgumentError(
        StrFormat("node %zu has timestamp %d below its predecessor's %d",
                  node, time, time_));
  } else {
    while (time_ < time) {
      layer_begin_.push_back(static_cast<std::uint32_t>(node));
      ++time_;
    }
  }
}

void CtGraph::Arrays::RejectSourceProbability(Timestamp time,
                                              double source_probability) {
  // Only sources carry p_N: the blob keeps layer 0's source probabilities
  // alone, so any other would change the graph on a store round trip and
  // break the digest its header carries.
  if (!defect_.ok()) return;
  defect_ = InvalidArgumentError(
      StrFormat("node %zu at t=%d has source probability %.17g; only "
                "t = 0 nodes carry one",
                location_.size() - 1, time, source_probability));
}

Result<CtGraph> CtGraph::Adopt(Arrays arrays) {
  const Timestamp length = arrays.length_;
  if (length <= 0) return InvalidArgumentError("length must be positive");
  const std::size_t num_nodes = arrays.location_.size();
  if (num_nodes != arrays.declared_nodes_) {
    return InvalidArgumentError(
        StrFormat("the fill added %zu nodes to a graph declared with %zu",
                  num_nodes, arrays.declared_nodes_));
  }
  RFID_RETURN_IF_ERROR(arrays.defect_);
  if (arrays.source_probability_.size() != arrays.declared_sources_) {
    return InvalidArgumentError(
        StrFormat("the fill added %zu sources to a graph declared with %zu",
                  arrays.source_probability_.size(),
                  arrays.declared_sources_));
  }
  if (num_nodes > static_cast<std::size_t>(
                      std::numeric_limits<NodeId>::max()) ||
      arrays.departures_.size() > std::numeric_limits<std::uint32_t>::max() ||
      arrays.edge_to_.size() > std::numeric_limits<std::uint32_t>::max()) {
    return InvalidArgumentError(
        StrFormat("%zu nodes, %zu TL entries and %zu edges exceed the "
                  "graph's 32-bit ids and offsets",
                  num_nodes, arrays.departures_.size(),
                  arrays.edge_to_.size()));
  }
  if (num_nodes > 0) arrays.MixLastNode();
  CtGraph graph;
  graph.length_ = length;
  graph.digest_ = arrays.fnv_.Digest();
  while (arrays.layer_begin_.size() <= static_cast<std::size_t>(length)) {
    arrays.layer_begin_.push_back(static_cast<std::uint32_t>(num_nodes));
  }
  arrays.tl_begin_.push_back(
      static_cast<std::uint32_t>(arrays.departures_.size()));
  arrays.edge_begin_.push_back(
      static_cast<std::uint32_t>(arrays.edge_to_.size()));
  graph.layer_begin_ = std::move(arrays.layer_begin_);
  graph.location_ = std::move(arrays.location_);
  graph.delta_ = std::move(arrays.delta_);
  graph.tl_begin_ = std::move(arrays.tl_begin_);
  graph.edge_begin_ = std::move(arrays.edge_begin_);
  graph.departures_ = std::move(arrays.departures_);
  graph.edge_to_ = std::move(arrays.edge_to_);
  graph.edge_probability_ = std::move(arrays.edge_probability_);
  graph.source_probability_ = std::move(arrays.source_probability_);
  return graph;
}

Result<CtGraph> CtGraph::FromArrays(Arrays arrays) {
  CtGraph graph;
  RFID_ASSIGN_OR_RETURN(graph, Adopt(std::move(arrays)));
  RFID_RETURN_IF_ERROR(graph.CheckConsistency());
  return graph;
}

Result<CtGraph> CtGraph::Assemble(const std::vector<Node>& nodes,
                                  Timestamp length) {
  if (length <= 0) return InvalidArgumentError("length must be positive");
  // Every layer of a valid graph holds a node, so a longer graph is
  // rejected before anything is sized from `length`.
  if (static_cast<std::size_t>(length) > nodes.size()) {
    return InvalidArgumentError(
        StrFormat("length %d exceeds the %zu nodes; every layer of a "
                  "ct-graph holds a node",
                  length, nodes.size()));
  }
  bool in_layer_order = true;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Timestamp time = nodes[i].time;
    if (time < 0 || time >= length) {
      return InvalidArgumentError(
          StrFormat("node %zu has timestamp %d outside [0, %d)", i, time,
                    length));
    }
    if (time > 0 && nodes[i].source_probability != 0.0) {
      return InvalidArgumentError(
          StrFormat("node %zu at t=%d has source probability %.17g; only "
                    "t = 0 nodes carry one",
                    i, time, nodes[i].source_probability));
    }
    for (const Edge& edge : nodes[i].out_edges) {
      if (edge.to < 0 || static_cast<std::size_t>(edge.to) >= nodes.size()) {
        return InvalidArgumentError(StrFormat(
            "node %zu has an edge to unknown node %d", i, edge.to));
      }
    }
    in_layer_order &= i == 0 || time >= nodes[i - 1].time;
  }
  if (in_layer_order) return FromArrays(ToArrays(nodes, length, {}, {}));
  // Renumber into layer order, stable within each layer (counting sort).
  std::vector<NodeId> layer_begin(static_cast<std::size_t>(length) + 1, 0);
  for (const Node& node : nodes) {
    ++layer_begin[static_cast<std::size_t>(node.time) + 1];
  }
  for (std::size_t t = 1; t < layer_begin.size(); ++t) {
    layer_begin[t] += layer_begin[t - 1];
  }
  std::vector<NodeId> new_id(nodes.size());
  std::vector<NodeId> order(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId id =
        layer_begin[static_cast<std::size_t>(nodes[i].time)]++;
    new_id[i] = id;
    order[static_cast<std::size_t>(id)] = static_cast<NodeId>(i);
  }
  return FromArrays(ToArrays(nodes, length, order, new_id));
}

CtGraph CtGraph::AssembleUnchecked(const std::vector<Node>& nodes,
                                   Timestamp length) {
  Result<CtGraph> graph = Adopt(ToArrays(nodes, length, {}, {}));
  RFID_CHECK(graph.ok());
  return std::move(graph).value();
}

Timestamp CtGraph::TimeOf(NodeId id) const {
  const std::uint32_t target = static_cast<std::uint32_t>(CheckedIndex(id));
  // The last layer whose first id is <= id: empty layers share their
  // offset with the next, which upper_bound steps past.
  const auto after = std::upper_bound(
      layer_begin_.begin(), layer_begin_.begin() + length_, target);
  return static_cast<Timestamp>(after - layer_begin_.begin()) - 1;
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
    for (const Edge edge : OutEdges(current)) {
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
  // Depth-first over the layered DAG; the depth is the node's time.
  auto dfs = [&](auto&& self, NodeId id, double probability) -> void {
    steps.push_back(LocationOf(id));
    if (static_cast<Timestamp>(steps.size()) == length()) {
      RFID_CHECK_LT(out.size(), max_paths);
      out.emplace_back(Trajectory(steps), probability);
    } else {
      for (const Edge edge : OutEdges(id)) {
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
  // Layer by layer: every edge out of layer t must land in layer t + 1's
  // id interval, which also keeps it inside the graph.
  std::vector<bool> has_in_edge(NumNodes(), false);
  const Timestamp last = length() - 1;
  for (Timestamp t = 0; t < last; ++t) {
    const NodeId next_begin =
        static_cast<NodeId>(layer_begin_[static_cast<std::size_t>(t) + 1]);
    const NodeId next_end =
        static_cast<NodeId>(layer_begin_[static_cast<std::size_t>(t) + 2]);
    for (const NodeId id : NodesAt(t)) {
      const EdgeRange out_edges = EdgesOf(static_cast<std::size_t>(id));
      if (out_edges.empty()) {
        return InternalError(StrFormat(
            "non-target node %d at time %d has no outgoing edge", id, t));
      }
      double out_sum = 0.0;
      for (const Edge edge : out_edges) {
        if (edge.to < next_begin || edge.to >= next_end) {
          return InternalError(StrFormat(
              "node %d at time %d has an edge to node %d outside layer %d",
              id, t, edge.to, t + 1));
        }
        if (edge.probability <= 0.0) {
          return InternalError("non-positive edge probability");
        }
        has_in_edge[static_cast<std::size_t>(edge.to)] = true;
        out_sum += edge.probability;
      }
      if (!ApproxOne(out_sum, tolerance)) {
        return InternalError(StrFormat(
            "outgoing probabilities of node %d sum to %.12f", id, out_sum));
      }
    }
  }
  const std::size_t last_begin =
      layer_begin_[static_cast<std::size_t>(last)];
  if (edge_begin_[last_begin] != edge_begin_[NumNodes()]) {
    return InternalError("target node has outgoing edges");
  }
  for (std::size_t i = layer_begin_[1]; i < NumNodes(); ++i) {
    if (!has_in_edge[i]) {
      return InternalError(
          StrFormat("non-source node %zu is unreachable", i));
    }
  }
  return Status::Ok();
}

std::size_t CtGraph::ApproximateBytes() const {
  return sizeof(CtGraph) +
         layer_begin_.capacity() * sizeof(std::uint32_t) +
         location_.capacity() * sizeof(LocationId) +
         delta_.capacity() * sizeof(Timestamp) +
         tl_begin_.capacity() * sizeof(std::uint32_t) +
         edge_begin_.capacity() * sizeof(std::uint32_t) +
         departures_.capacity() * sizeof(Departure) +
         edge_to_.capacity() * sizeof(NodeId) +
         edge_probability_.capacity() * sizeof(double) +
         source_probability_.capacity() * sizeof(double);
}

}  // namespace rfidclean
