#ifndef RFIDCLEAN_CORE_CT_GRAPH_H_
#define RFIDCLEAN_CORE_CT_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "common/status.h"
#include "core/graph_digest.h"
#include "core/location_node.h"
#include "model/trajectory.h"

namespace rfidclean {

/// Identifier of a node within a CtGraph (dense, 0-based).
using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// The conditioned trajectory graph of Definition 4, as returned by
/// CtGraphBuilder (Algorithm 1): a DAG layered by timestamp whose
/// source-to-target paths one-to-one correspond to the valid trajectories,
/// and whose probabilities are conditioned so that
///   p(path) = p_N(source) · Π p_E(edge) = p*(trajectory | IC).
///
/// After construction the graph is immutable. Invariants (checked by
/// CheckConsistency):
///  - source probabilities sum to 1;
///  - every non-target node's outgoing edge probabilities sum to 1;
///  - every node lies on some source-to-target path.
///
/// Storage is flat (docs/ALGORITHM.md §8): one record per node, one array
/// of TL entries, one contiguous edge array, one source probability per
/// node and a per-layer id index. A node's TL entries and out-edges are
/// slices of the shared arrays that end where the next id's begin.
class CtGraph {
 public:
  /// An empty graph (length 0); useful only as an assignment target.
  CtGraph() = default;

  struct Edge {
    NodeId to = kInvalidNode;
    double probability = 0.0;
  };

  /// Input record of Assemble and AssembleUnchecked: one node with its own
  /// key and edge list, as the text reader and hand-built tests produce it.
  /// The graph itself does not store nodes this way.
  struct Node {
    Timestamp time = 0;
    NodeKey key;
    /// p_N for source nodes (time == 0); unused otherwise.
    double source_probability = 0.0;
    std::vector<Edge> out_edges;
  };

  /// One node of the flat layout. Its TL entries are
  /// departures[tl_begin, next.tl_begin) and its out-edges are
  /// edges[edge_begin, next.edge_begin), where `next` is the record of the
  /// following id; the record array ends with a sentinel for the last id.
  struct NodeRecord {
    Timestamp time = 0;
    LocationId location = kInvalidLocation;
    Timestamp delta = kDeltaBottom;
    std::uint32_t tl_begin = 0;
    std::uint32_t edge_begin = 0;
  };

  /// The flat arrays of a graph under construction, filled node by node in
  /// id order: each AddNode is followed by that node's TL entries and
  /// out-edges. Compaction, the blob decoder and Assemble fill one and hand
  /// it to FromArrays.
  ///
  /// The fill also computes the graph digest (core/graph_digest.h): the
  /// constructor mixes the header, each AddNode mixes the node before it,
  /// whose TL entries and edges are then complete and still in cache, and
  /// the graph that adopts the arrays mixes the last one. So the digest
  /// costs no walk of its own and is paid on the thread that builds the
  /// graph.
  class Arrays {
   public:
    /// Starts a graph of `length` time points and exactly `nodes` nodes,
    /// and sizes every array for exactly this many elements, so a filler
    /// that knows its counts allocates each array once. FromArrays fails
    /// when the fill adds another number of nodes.
    Arrays(Timestamp length, std::size_t nodes, std::size_t departures,
           std::size_t edges);

    void AddNode(Timestamp time, LocationId location, Timestamp delta,
                 double source_probability) {
      if (!records_.empty()) MixLastNode();
      records_.push_back(NodeRecord{
          time, location, delta,
          static_cast<std::uint32_t>(departures_.size()),
          static_cast<std::uint32_t>(edges_.size())});
      source_probabilities_.push_back(source_probability);
    }
    void AddDeparture(const Departure& departure) {
      departures_.push_back(departure);
    }
    void AddEdge(const Edge& edge) { edges_.push_back(edge); }

   private:
    friend class CtGraph;

    /// Mixes the last added node, which must be complete, into fnv_.
    void MixLastNode();

    Timestamp length_;
    std::size_t declared_nodes_;
    Fnv64 fnv_;
    std::vector<NodeRecord> records_;
    std::vector<Departure> departures_;
    std::vector<Edge> edges_;
    std::vector<double> source_probabilities_;
  };

  /// The validating constructor every checked graph goes through: checks
  /// the node count against the declared one, node timestamps against
  /// [0, length) and edge targets against the node count, builds the
  /// per-layer index (ids keep their order within each layer) and runs
  /// CheckConsistency.
  static Result<CtGraph> FromArrays(Arrays arrays);

  /// Assembles a graph from raw node records spanning `length` time points
  /// (deserialization support). Node ids are the records' positions; every
  /// invariant is re-validated by FromArrays.
  static Result<CtGraph> Assemble(const std::vector<Node>& nodes,
                                  Timestamp length);

  /// Assembles WITHOUT validating any invariant: edges may dangle, layers
  /// may be empty, probabilities may be NaN or unnormalized. Exists so the
  /// auditor (analysis/graph_audit.h) can be exercised against corrupted
  /// graphs that the checked paths refuse to construct; never use it to
  /// build graphs for queries. Node timestamps must still lie in
  /// [0, length) (RFID_CHECK) so the per-layer index can be built.
  static CtGraph AssembleUnchecked(const std::vector<Node>& nodes,
                                   Timestamp length);

  /// Number of time points spanned (T = [0, length)).
  Timestamp length() const { return length_; }

  std::size_t NumNodes() const { return source_probabilities_.size(); }
  std::size_t NumEdges() const { return edges_.size(); }
  /// TL entries over all nodes.
  std::size_t NumDepartures() const { return departures_.size(); }

  /// Ids of the nodes at time `t`, in ascending id order.
  std::span<const NodeId> NodesAt(Timestamp t) const {
    RFID_CHECK_GE(t, 0);
    RFID_CHECK_LT(t, length_);
    const std::uint32_t begin = layer_begin_[static_cast<std::size_t>(t)];
    return {layer_ids_.data() + begin,
            layer_begin_[static_cast<std::size_t>(t) + 1] - begin};
  }
  std::span<const NodeId> SourceNodes() const { return NodesAt(0); }
  std::span<const NodeId> TargetNodes() const {
    return NodesAt(length() - 1);
  }

  // Accessor set shared with store::CtGraphView (docs/ALGORITHM.md §12), so
  // the templated query algorithms (query/marginals.h, query/most_likely.h,
  // query/stay_query.h) run unchanged on either representation.
  Timestamp TimeOf(NodeId id) const { return Record(id).time; }
  LocationId LocationOf(NodeId id) const { return Record(id).location; }
  /// p_N of a source node; what the node was given otherwise (0 for every
  /// graph the builder or a decoder produces).
  double SourceProbability(NodeId id) const {
    return source_probabilities_[CheckedIndex(id)];
  }
  std::span<const Edge> OutEdges(NodeId id) const {
    const std::size_t i = CheckedIndex(id);
    const std::uint32_t begin = records_[i].edge_begin;
    return {edges_.data() + begin, records_[i + 1].edge_begin - begin};
  }
  /// The δ component of the node's key (kDeltaBottom when absent).
  Timestamp DeltaOf(NodeId id) const { return Record(id).delta; }
  /// The TL component of the node's key, sorted by location.
  std::span<const Departure> DeparturesOf(NodeId id) const {
    const std::size_t i = CheckedIndex(id);
    const std::uint32_t begin = records_[i].tl_begin;
    return {departures_.data() + begin, records_[i + 1].tl_begin - begin};
  }

  /// Conditioned probability of `trajectory` (0 when it is not represented,
  /// i.e. not valid). A trajectory follows at most one path: successor keys
  /// are unique per (parent, target location).
  double TrajectoryProbability(const Trajectory& trajectory) const;

  /// Enumerates every represented trajectory with its conditioned
  /// probability. Intended for tests and small graphs; aborts (RFID_CHECK)
  /// when more than `max_paths` paths exist.
  std::vector<std::pair<Trajectory, double>> EnumerateTrajectories(
      std::size_t max_paths = 1u << 20) const;

  /// Verifies the class invariants within `tolerance`.
  Status CheckConsistency(double tolerance = 1e-9) const;

  /// Resident size of the graph in bytes: the object plus the capacity of
  /// every array it owns. This is the quantity reported by the §6.7 memory
  /// experiment.
  std::size_t ApproximateBytes() const;

  /// Stable FNV-1a digest of the graph structure: length, every node's
  /// (time, key, source-probability bit pattern) and every edge's
  /// (target, probability bit pattern) in id order. Equal graphs digest
  /// equally across runs, platforms and build configurations; used as the
  /// graph digest in trace provenance and in the blob header. Computed
  /// while the graph was filled (Arrays), so this reads a stored value.
  std::uint64_t Digest() const { return digest_; }

 private:
  /// Moves `arrays` in, appends the sentinel record, builds the per-layer
  /// index and stores the digest. Fails when the length is not positive,
  /// the fill added another number of nodes than it declared, a node's
  /// timestamp lies outside [0, length) or a count outgrows the 32-bit ids
  /// and offsets; checks nothing else.
  static Result<CtGraph> Adopt(Arrays arrays);

  std::size_t CheckedIndex(NodeId id) const {
    RFID_CHECK_GE(id, 0);
    RFID_CHECK_LT(static_cast<std::size_t>(id), NumNodes());
    return static_cast<std::size_t>(id);
  }
  const NodeRecord& Record(NodeId id) const {
    return records_[CheckedIndex(id)];
  }

  Timestamp length_ = 0;
  std::uint64_t digest_ = kEmptyGraphDigest;
  std::vector<NodeRecord> records_;  // NumNodes() + 1, sentinel last
  std::vector<Departure> departures_;
  std::vector<Edge> edges_;
  std::vector<double> source_probabilities_;
  std::vector<std::uint32_t> layer_begin_;  // length + 1 offsets into...
  std::vector<NodeId> layer_ids_;           // ...ids grouped by layer
};

}  // namespace rfidclean

#endif  // RFIDCLEAN_CORE_CT_GRAPH_H_
