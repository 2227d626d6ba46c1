#ifndef RFIDCLEAN_STORE_CTGRAPH_VIEW_H_
#define RFIDCLEAN_STORE_CTGRAPH_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/ct_graph.h"
#include "core/location_node.h"
#include "store/blob_layout.h"
#include "store/mmap_file.h"

/// \file
/// Immutable zero-copy view over a binary ct-graph blob. The fixed-width
/// sections — layer offsets, CSR edge rows, source and edge probability
/// doubles — are read in place from the mapped bytes (never copied); of the
/// varint-compressed sections only the node locations and edge targets are
/// decoded into owned arrays at Map time. The per-node deltas and TL lists
/// are parsed and validated there but not kept. The view satisfies the
/// same structural graph concept as CtGraph (length / NodesAt / OutEdges /
/// LocationOf / SourceProbability / TimeOf), so the templated query
/// algorithms in src/query run on either representation and produce
/// bit-identical results; invariants of the aliasing are specified in
/// docs/ALGORITHM.md §12.
///
/// Lifetime: a view never owns the blob bytes unless constructed through
/// an overload taking a keepalive. Map(data, size) requires the caller to
/// keep [data, data + size) alive and unchanged for the view's lifetime.

namespace rfidclean::store {

/// One out-edge as surfaced by CtGraphView: value type, field-compatible
/// with CtGraph::Edge.
struct EdgeRef {
  NodeId to = kInvalidNode;
  double probability = 0.0;
};

/// Random-access range over one node's out-edges, materializing EdgeRef
/// values from the split target/probability arrays.
class EdgeRange {
 public:
  class Iterator {
   public:
    Iterator(const NodeId* targets, const unsigned char* prob,
             std::size_t index)
        : targets_(targets), prob_(prob), index_(index) {}
    EdgeRef operator*() const {
      return EdgeRef{targets_[index_],
                     LoadDouble(prob_ + std::size_t{8} * index_)};
    }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    const NodeId* targets_;
    const unsigned char* prob_;
    std::size_t index_;
  };

  EdgeRange(const NodeId* targets, const unsigned char* prob,
            std::size_t count)
      : targets_(targets), prob_(prob), count_(count) {}

  Iterator begin() const { return Iterator(targets_, prob_, 0); }
  Iterator end() const { return Iterator(targets_, prob_, count_); }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  EdgeRef operator[](std::size_t i) const {
    return EdgeRef{targets_[i], LoadDouble(prob_ + std::size_t{8} * i)};
  }

 private:
  const NodeId* targets_;
  const unsigned char* prob_;
  std::size_t count_;
};

/// Contiguous node-id range [first, last): blob node ids are dense in
/// layer order, so a layer *is* an id interval.
class IdRange {
 public:
  class Iterator {
   public:
    explicit Iterator(NodeId id) : id_(id) {}
    NodeId operator*() const { return id_; }
    Iterator& operator++() {
      ++id_;
      return *this;
    }
    friend bool operator==(const Iterator&, const Iterator&) = default;

   private:
    NodeId id_;
  };

  IdRange(NodeId first, NodeId last) : first_(first), last_(last) {}
  Iterator begin() const { return Iterator(first_); }
  Iterator end() const { return Iterator(last_); }
  std::size_t size() const { return static_cast<std::size_t>(last_ - first_); }
  bool empty() const { return first_ == last_; }
  NodeId operator[](std::size_t i) const {
    return first_ + static_cast<NodeId>(i);
  }
  NodeId front() const { return first_; }

 private:
  NodeId first_;
  NodeId last_;
};

/// How much re-verification Map performs beyond the always-on structural
/// parse (magic, geometry, per-section CRCs, varint decoding, index-range
/// validation — everything memory safety depends on).
///
/// kStructural is the load fast path: it checksums the geometry-bearing
/// sections (layers, keys, edge rows, edge targets — everything indexing
/// arithmetic derives from) and skips the two probability payloads, which
/// are only ever read as opaque doubles and cannot affect memory safety.
/// kFull additionally checksums those payloads, recomputes the FNV graph
/// digest against the stored header digest and re-runs the semantic
/// consistency checks (source mass, per-node outgoing mass, reachability)
/// — the mode for `store verify`, audits and differential tests, where
/// catching corruption or encoder/decoder drift matters more than load
/// latency.
enum class MapVerify {
  kStructural,
  kFull,
};

class CtGraphView {
 public:
  /// An unmapped view; usable only as an assignment target.
  CtGraphView() = default;

  /// Maps a blob from caller-owned bytes. Always runs the full structural
  /// parse (checksums, geometry, section decoding); see MapVerify for what
  /// kFull adds.
  static Result<CtGraphView> Map(const unsigned char* data, std::size_t size,
                                 MapVerify verify = MapVerify::kStructural);

  /// Convenience: memory-maps a standalone blob file and keeps the
  /// mapping alive inside the view.
  static Result<CtGraphView> MapFile(
      const std::string& path, MapVerify verify = MapVerify::kStructural);

  /// As Map, with a keepalive the view retains (e.g. the store reader's
  /// shared container mapping).
  static Result<CtGraphView> Map(const unsigned char* data, std::size_t size,
                                 std::shared_ptr<const MmapFile> keepalive,
                                 MapVerify verify = MapVerify::kStructural);

  // -- Graph concept (mirrors CtGraph) --
  Timestamp length() const { return contents_.parsed.header.length; }
  std::size_t NumNodes() const {
    return static_cast<std::size_t>(contents_.parsed.header.num_nodes);
  }
  std::size_t NumEdges() const {
    return static_cast<std::size_t>(contents_.parsed.header.num_edges);
  }
  IdRange NodesAt(Timestamp t) const {
    RFID_CHECK_GE(t, 0);
    RFID_CHECK_LT(t, length());
    return IdRange(static_cast<NodeId>(contents_.LayerBegin(t)),
                   static_cast<NodeId>(contents_.LayerBegin(t + 1)));
  }
  IdRange SourceNodes() const { return NodesAt(0); }
  IdRange TargetNodes() const { return NodesAt(length() - 1); }
  LocationId LocationOf(NodeId id) const {
    return contents_.locations[CheckedIndex(id)];
  }
  /// p_N of a source node; 0 for non-sources.
  double SourceProbability(NodeId id) const {
    const std::size_t i = CheckedIndex(id);
    if (i >= contents_.LayerBegin(1)) return 0.0;
    return LoadDouble(contents_.source_prob + std::size_t{8} * i);
  }
  EdgeRange OutEdges(NodeId id) const {
    const std::size_t i = CheckedIndex(id);
    const std::uint32_t begin = contents_.EdgeRow(i);
    const std::uint32_t end = contents_.EdgeRow(i + 1);
    return EdgeRange(contents_.edge_targets.data() + begin,
                     contents_.edge_prob + std::uint64_t{8} * begin,
                     end - begin);
  }
  /// Timestamp of `id`, recovered from the layer offsets (binary search).
  Timestamp TimeOf(NodeId id) const;

  // -- Provenance carried by the blob header --
  std::int64_t tag() const { return contents_.parsed.header.tag; }
  std::uint64_t input_digest() const {
    return contents_.parsed.header.input_digest;
  }
  std::uint64_t constraint_digest() const {
    return contents_.parsed.header.constraint_digest;
  }

  /// FNV digest of the viewed graph, bit-identical to what
  /// CtGraph::Digest() returns for the equivalent owning graph. Decodes the
  /// deltas and TL lists, which the view does not keep, again.
  std::uint64_t Digest() const;

  /// Re-verifies the CtGraph semantic invariants (source mass, per-node
  /// outgoing mass, reachability) against the mapped bytes. Run by
  /// Map(..., MapVerify::kFull); exposed for audits of long-lived
  /// mappings.
  Status CheckConsistency(double tolerance = 1e-9) const;

  /// Decodes the viewed bytes into an owning CtGraph (full re-validation).
  Result<CtGraph> Materialize() const;

 private:
  std::size_t CheckedIndex(NodeId id) const {
    RFID_CHECK_GE(id, 0);
    RFID_CHECK_LT(static_cast<std::size_t>(id), NumNodes());
    return static_cast<std::size_t>(id);
  }

  BlobContents contents_;
  std::shared_ptr<const MmapFile> keepalive_;
};

}  // namespace rfidclean::store

#endif  // RFIDCLEAN_STORE_CTGRAPH_VIEW_H_
