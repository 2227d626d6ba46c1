#ifndef RFIDCLEAN_CORE_CT_GRAPH_H_
#define RFIDCLEAN_CORE_CT_GRAPH_H_

#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <ranges>
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

/// Longest graph a text or blob reader accepts (2^24 time points): far
/// above anything the cleaner produces, and a bound on what a header may
/// size before any node is read.
inline constexpr Timestamp kMaxGraphLength = Timestamp{1} << 24;

/// Identifier of a node within a CtGraph (dense, 0-based).
using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// One out-edge, as CtGraph and store::CtGraphView yield it.
struct GraphEdge {
  NodeId to = kInvalidNode;
  double probability = 0.0;
};

/// The ids of one layer. Both graphs number their nodes in layer order, so
/// a layer is an id interval [first, last): a random-access range.
using IdRange = std::ranges::iota_view<NodeId, NodeId>;

/// Random-access range over one node's out-edges, which both graphs keep
/// as two columns: targets, and probabilities as 8-byte doubles in
/// `kByteOrder`. It yields GraphEdge values. CtGraph's column is in host
/// order and a blob's EDGEPROB section little-endian, so on little-endian
/// hosts the two graphs share one type.
template <std::endian kByteOrder>
class BasicEdgeRange {
 public:
  class Iterator {
   public:
    using iterator_concept = std::random_access_iterator_tag;
    using value_type = GraphEdge;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;
    Iterator(const NodeId* targets, const unsigned char* probabilities,
             difference_type index)
        : targets_(targets), probabilities_(probabilities), index_(index) {}

    GraphEdge operator*() const { return (*this)[0]; }
    GraphEdge operator[](difference_type n) const {
      const std::size_t i = static_cast<std::size_t>(index_ + n);
      return GraphEdge{targets_[i], Load(probabilities_ + 8 * i)};
    }
    Iterator& operator++() { return *this += 1; }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    Iterator& operator--() { return *this -= 1; }
    Iterator operator--(int) {
      Iterator old = *this;
      --*this;
      return old;
    }
    Iterator& operator+=(difference_type n) {
      index_ += n;
      return *this;
    }
    Iterator& operator-=(difference_type n) {
      index_ -= n;
      return *this;
    }
    friend Iterator operator+(Iterator it, difference_type n) {
      return it += n;
    }
    friend Iterator operator+(difference_type n, Iterator it) {
      return it += n;
    }
    friend Iterator operator-(Iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const Iterator& a, const Iterator& b) {
      return a.index_ - b.index_;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.index_ == b.index_;
    }
    friend auto operator<=>(const Iterator& a, const Iterator& b) {
      return a.index_ <=> b.index_;
    }

   private:
    static double Load(const unsigned char* bytes) {
      std::uint64_t bits = 0;
      if constexpr (kByteOrder == std::endian::native) {
        std::memcpy(&bits, bytes, sizeof(bits));
      } else {
        for (int b = 7; b >= 0; --b) {
          const int byte = kByteOrder == std::endian::little ? b : 7 - b;
          bits = (bits << 8) | bytes[byte];
        }
      }
      return std::bit_cast<double>(bits);
    }

    const NodeId* targets_ = nullptr;
    const unsigned char* probabilities_ = nullptr;
    difference_type index_ = 0;
  };

  BasicEdgeRange(const NodeId* targets, const unsigned char* probabilities,
                 std::size_t count)
      : targets_(targets), probabilities_(probabilities), count_(count) {}

  Iterator begin() const { return Iterator(targets_, probabilities_, 0); }
  Iterator end() const {
    return Iterator(targets_, probabilities_,
                    static_cast<std::ptrdiff_t>(count_));
  }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  GraphEdge operator[](std::size_t i) const {
    return begin()[static_cast<std::ptrdiff_t>(i)];
  }

 private:
  const NodeId* targets_;
  const unsigned char* probabilities_;
  std::size_t count_;
};

/// CtGraph's out-edge range.
using EdgeRange = BasicEdgeRange<std::endian::native>;

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
/// Node ids run in layer order (a class invariant, enforced by the fill),
/// so each layer is an id interval, as in every blob.
///
/// Storage is the blob's columns (docs/ALGORITHM.md §8): per layer its
/// first id; per node its location, δ, and the first index of its TL
/// entries and out-edges; one array of TL entries; edge targets and edge
/// probabilities; and layer 0's source probabilities. A node's TL entries
/// and out-edges end where the next id's begin.
class CtGraph {
 public:
  /// An empty graph (length 0); useful only as an assignment target.
  CtGraph() = default;

  using Edge = GraphEdge;

  /// Input record of Assemble and AssembleUnchecked: one node with its own
  /// key and edge list, as the text reader and hand-built tests produce it.
  /// The graph itself does not store nodes this way.
  struct Node {
    Timestamp time = 0;
    NodeKey key;
    /// p_N for source nodes (time == 0); must be 0 otherwise.
    double source_probability = 0.0;
    std::vector<Edge> out_edges;
  };

  /// The columns of a graph under construction, filled node by node in id
  /// order, which must be layer order: each AddNode is followed by that
  /// node's TL entries and out-edges. Compaction, the blob decoder and
  /// Assemble fill one and hand it to FromArrays.
  ///
  /// The fill also computes the graph digest (core/graph_digest.h): the
  /// constructor mixes the header, each AddNode mixes the node before it,
  /// whose TL entries and edges are then complete and still in cache, and
  /// the graph that adopts the arrays mixes the last one. So the digest
  /// costs no walk of its own and is paid on the thread that builds the
  /// graph.
  class Arrays {
   public:
    /// Starts a graph of `length` time points, exactly `nodes` nodes of
    /// which `sources` lie at t = 0, and sizes every column for exactly
    /// this many elements, so a filler that knows its counts allocates each
    /// column once. FromArrays fails when the fill adds another number of
    /// nodes or sources.
    Arrays(Timestamp length, std::size_t nodes, std::size_t sources,
           std::size_t departures, std::size_t edges);

    void AddNode(Timestamp time, LocationId location, Timestamp delta,
                 double source_probability) {
      if (!location_.empty()) MixLastNode();
      if (time != time_) [[unlikely]] EnterLayer(time);
      location_.push_back(location);
      delta_.push_back(delta);
      tl_begin_.push_back(static_cast<std::uint32_t>(departures_.size()));
      edge_begin_.push_back(static_cast<std::uint32_t>(edge_to_.size()));
      if (time == 0) {
        source_probability_.push_back(source_probability);
      } else if (source_probability != 0.0) [[unlikely]] {
        RejectSourceProbability(time, source_probability);
      }
    }
    void AddDeparture(const Departure& departure) {
      departures_.push_back(departure);
    }
    void AddEdge(const Edge& edge) {
      edge_to_.push_back(edge.to);
      edge_probability_.push_back(edge.probability);
    }

   private:
    friend class CtGraph;

    /// Mixes the last added node, which must be complete, into fnv_.
    void MixLastNode();
    /// Moves the fill to a node at `time`: opens the layers up to it, or
    /// records the defect when `time` lies outside [0, length) or below
    /// the previous node's.
    void EnterLayer(Timestamp time);
    void RejectSourceProbability(Timestamp time, double source_probability);

    Timestamp length_;
    std::size_t declared_nodes_;
    std::size_t declared_sources_;
    Timestamp time_ = 0;  // of the last added node
    Status defect_;       // the first node that breaks layer order
    Fnv64 fnv_;
    std::vector<std::uint32_t> layer_begin_;
    std::vector<LocationId> location_;
    std::vector<Timestamp> delta_;
    std::vector<std::uint32_t> tl_begin_;
    std::vector<std::uint32_t> edge_begin_;
    std::vector<Departure> departures_;
    std::vector<NodeId> edge_to_;
    std::vector<double> edge_probability_;
    std::vector<double> source_probability_;
  };

  /// The validating constructor every checked graph goes through: checks
  /// the node and source counts against the declared ones, node timestamps
  /// against [0, length) and layer order, and every edge against the next
  /// layer's id interval, then runs CheckConsistency.
  static Result<CtGraph> FromArrays(Arrays arrays);

  /// Assembles a graph from raw node records spanning `length` time points
  /// (deserialization support). Records out of layer order are renumbered
  /// into it, stable within each layer; otherwise node ids are the
  /// records' positions. A length above the node count, a timestamp
  /// outside [0, length) and a dangling edge target are rejected before
  /// anything is sized or renumbered; every invariant is then re-validated
  /// by FromArrays.
  static Result<CtGraph> Assemble(const std::vector<Node>& nodes,
                                  Timestamp length);

  /// Assembles WITHOUT validating any invariant: edges may dangle, layers
  /// may be empty, probabilities may be NaN or unnormalized. Exists so the
  /// auditor (analysis/graph_audit.h) can be exercised against corrupted
  /// graphs that the checked paths refuse to construct; never use it to
  /// build graphs for queries. Nodes must still come in layer order with
  /// timestamps in [0, length), and only t = 0 nodes may carry a source
  /// probability (RFID_CHECK), as every graph's must.
  static CtGraph AssembleUnchecked(const std::vector<Node>& nodes,
                                   Timestamp length);

  /// Number of time points spanned (T = [0, length)).
  Timestamp length() const { return length_; }

  std::size_t NumNodes() const { return location_.size(); }
  std::size_t NumEdges() const { return edge_to_.size(); }
  /// TL entries over all nodes.
  std::size_t NumDepartures() const { return departures_.size(); }

  /// Ids of the nodes at time `t`, in ascending id order.
  IdRange NodesAt(Timestamp t) const {
    RFID_CHECK_GE(t, 0);
    RFID_CHECK_LT(t, length_);
    const std::size_t i = static_cast<std::size_t>(t);
    return IdRange(static_cast<NodeId>(layer_begin_[i]),
                   static_cast<NodeId>(layer_begin_[i + 1]));
  }
  IdRange SourceNodes() const { return NodesAt(0); }
  IdRange TargetNodes() const { return NodesAt(length() - 1); }

  // Accessor set shared with store::CtGraphView (docs/ALGORITHM.md §12), so
  // the templated query algorithms (query/marginals.h, query/most_likely.h,
  // query/stay_query.h) run unchanged on either representation.
  /// Timestamp of `id`, recovered from the layer offsets (binary search).
  Timestamp TimeOf(NodeId id) const;
  LocationId LocationOf(NodeId id) const {
    return location_[CheckedIndex(id)];
  }
  /// p_N of a source node; 0 for every other node.
  double SourceProbability(NodeId id) const {
    const std::size_t i = CheckedIndex(id);
    return i < source_probability_.size() ? source_probability_[i] : 0.0;
  }
  EdgeRange OutEdges(NodeId id) const { return EdgesOf(CheckedIndex(id)); }
  /// The δ component of the node's key (kDeltaBottom when absent).
  Timestamp DeltaOf(NodeId id) const { return delta_[CheckedIndex(id)]; }
  /// The TL component of the node's key, sorted by location.
  std::span<const Departure> DeparturesOf(NodeId id) const {
    const std::size_t i = CheckedIndex(id);
    return std::span<const Departure>(departures_)
        .subspan(tl_begin_[i], tl_begin_[i + 1] - tl_begin_[i]);
  }

  /// The columns themselves, each sized exactly (docs/ALGORITHM.md §8).
  /// The blob encoder copies LAYERS, SRCPROB, EDGEROWS and EDGEPROB
  /// straight from them.
  struct Columns {
    std::span<const std::uint32_t> layer_begin;      // length + 1
    std::span<const LocationId> location;            // per node
    std::span<const Timestamp> delta;                // per node
    std::span<const std::uint32_t> tl_begin;         // nodes + 1
    std::span<const std::uint32_t> edge_begin;       // nodes + 1
    std::span<const Departure> departures;           // TL entries
    std::span<const NodeId> edge_to;                 // per edge
    std::span<const double> edge_probability;        // per edge
    std::span<const double> source_probability;      // layer 0's nodes
  };
  Columns columns() const {
    return Columns{layer_begin_, location_,  delta_,
                   tl_begin_,    edge_begin_, departures_,
                   edge_to_,     edge_probability_, source_probability_};
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
  /// every column it owns. This is the quantity reported by the §6.7 memory
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
  /// Moves `arrays` in, closes the layer offsets and the TL and edge
  /// offsets, and stores the digest. Fails when the length is not
  /// positive, the fill added another number of nodes or sources than it
  /// declared, a node broke layer order or carried a source probability
  /// off layer 0, or a count outgrows the 32-bit ids and offsets; checks
  /// nothing else.
  static Result<CtGraph> Adopt(Arrays arrays);

  std::size_t CheckedIndex(NodeId id) const {
    RFID_CHECK_GE(id, 0);
    RFID_CHECK_LT(static_cast<std::size_t>(id), NumNodes());
    return static_cast<std::size_t>(id);
  }
  EdgeRange EdgesOf(std::size_t i) const {
    const std::uint32_t begin = edge_begin_[i];
    return EdgeRange(
        edge_to_.data() + begin,
        reinterpret_cast<const unsigned char*>(edge_probability_.data() +
                                               begin),
        edge_begin_[i + 1] - begin);
  }

  Timestamp length_ = 0;
  std::uint64_t digest_ = kEmptyGraphDigest;
  std::vector<std::uint32_t> layer_begin_;  // length + 1
  std::vector<LocationId> location_;
  std::vector<Timestamp> delta_;
  std::vector<std::uint32_t> tl_begin_;    // nodes + 1
  std::vector<std::uint32_t> edge_begin_;  // nodes + 1
  std::vector<Departure> departures_;
  std::vector<NodeId> edge_to_;
  std::vector<double> edge_probability_;
  std::vector<double> source_probability_;  // layer_begin_[1]
};

}  // namespace rfidclean

#endif  // RFIDCLEAN_CORE_CT_GRAPH_H_
