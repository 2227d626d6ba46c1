#include "store/graph_codec.h"

#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/strings.h"
#include "common/varint.h"
#include "core/self_audit.h"
#include "obs/metrics.h"
#include "store/blob_layout.h"

namespace rfidclean::store {

namespace {

/// Rebuilds `graph` with ids renumbered into layer order (stable within
/// each layer). The result is equivalent — same nodes, same edges, same
/// probabilities — but its Digest() reflects the new id order.
CtGraph Canonicalize(const CtGraph& graph) {
  std::vector<NodeId> new_id(graph.NumNodes(), kInvalidNode);
  std::vector<NodeId> old_order;
  old_order.reserve(graph.NumNodes());
  for (Timestamp t = 0; t < graph.length(); ++t) {
    for (NodeId id : graph.NodesAt(t)) {
      new_id[static_cast<std::size_t>(id)] =
          static_cast<NodeId>(old_order.size());
      old_order.push_back(id);
    }
  }
  std::vector<CtGraph::Node> nodes;
  nodes.reserve(graph.NumNodes());
  for (NodeId old : old_order) {
    CtGraph::Node node;
    node.time = graph.TimeOf(old);
    node.key.location = graph.LocationOf(old);
    node.key.delta = graph.DeltaOf(old);
    for (const Departure& departure : graph.DeparturesOf(old)) {
      node.key.departures.push_back(departure);
    }
    node.source_probability = graph.SourceProbability(old);
    for (const CtGraph::Edge& edge : graph.OutEdges(old)) {
      node.out_edges.push_back(CtGraph::Edge{
          new_id[static_cast<std::size_t>(edge.to)], edge.probability});
    }
    nodes.push_back(std::move(node));
  }
  return CtGraph::AssembleUnchecked(nodes, graph.length());
}

/// LEB128 bytes of the largest value a varint section holds. Each value
/// is a 32-bit count, or the zigzag map of a 32-bit value or of the
/// difference of two, so it stays below 2^34: five 7-bit groups.
constexpr std::uint64_t kMaxVarintBytes = 5;

/// The six section payloads of a blob, written by one walk over a graph's
/// nodes into one scratch buffer that is never zero-filled. A fixed-width
/// section gets a region of exactly its size, a varint section (KEYS,
/// EDGETGT) one of kMaxVarintBytes per value, so nothing has to be sized
/// before the walk.
class SectionScratch {
 public:
  /// Sizes the regions for `graph`. Write takes `graph` or a graph with
  /// the same counts, such as its canonical renumbering.
  explicit SectionScratch(const CtGraph& graph) {
    const std::uint64_t nodes = graph.NumNodes();
    const std::uint64_t edges = graph.NumEdges();
    // In SectionId order: LAYERS, KEYS, SRCPROB, EDGEROWS, EDGETGT, EDGEPROB.
    const std::uint64_t capacity[kNumSections] = {
        4 * (static_cast<std::uint64_t>(graph.length()) + 1),
        kMaxVarintBytes * (3 * nodes + 2 * graph.NumDepartures()),
        8 * static_cast<std::uint64_t>(graph.SourceNodes().size()),
        4 * (nodes + 1),
        kMaxVarintBytes * edges,
        8 * edges,
    };
    std::uint64_t total = 0;
    for (const std::uint64_t bytes : capacity) total += bytes;
    scratch_ = std::make_unique_for_overwrite<unsigned char[]>(
        static_cast<std::size_t>(total));
    unsigned char* region = scratch_.get();
    for (std::uint32_t i = 0; i < kNumSections; ++i) {
      begin_[i] = region;
      capacity_[i] = capacity[i];
      region += capacity[i];
    }
  }

  /// Writes all six sections from `graph`'s nodes in id order. Returns
  /// false as soon as a node's time falls below its predecessor's, i.e.
  /// when the ids are not in layer order (the blob stores nodes in layer
  /// order).
  bool Write(const CtGraph& graph) {
    unsigned char* layers = Begin(SectionId::kLayers);
    unsigned char* keys = Begin(SectionId::kKeys);
    unsigned char* source_prob = Begin(SectionId::kSourceProb);
    unsigned char* edge_rows = Begin(SectionId::kEdgeRows);
    unsigned char* edge_targets = Begin(SectionId::kEdgeTargets);
    unsigned char* edge_prob = Begin(SectionId::kEdgeProb);
    const std::size_t num_nodes = graph.NumNodes();
    Timestamp prev_time = 0;
    Timestamp layer = 0;  // the first layer whose offset is not written yet
    std::int64_t prev_location = 0;
    std::int64_t prev_target = 0;
    std::uint32_t edge_cursor = 0;
    StoreU32(edge_rows, 0);
    edge_rows += 4;
    for (std::size_t i = 0; i < num_nodes; ++i) {
      const NodeId id = static_cast<NodeId>(i);
      const Timestamp time = graph.TimeOf(id);
      if (time < prev_time) return false;
      prev_time = time;
      // Every layer up to this node's begins here: the ids before it are
      // exactly the nodes of the earlier layers.
      for (; layer <= time; ++layer) {
        StoreU32(layers, static_cast<std::uint32_t>(i));
        layers += 4;
      }
      const LocationId location = graph.LocationOf(id);
      keys = WriteZigzag(keys, location - prev_location);
      prev_location = location;
      keys = WriteZigzag(keys, graph.DeltaOf(id));
      const std::span<const Departure> departures = graph.DeparturesOf(id);
      keys = WriteVarint(keys, departures.size());
      std::int64_t prev_tl_location = 0;
      for (const Departure& departure : departures) {
        keys = WriteZigzag(keys, departure.time);
        keys = WriteZigzag(keys, departure.location - prev_tl_location);
        prev_tl_location = departure.location;
      }
      if (time == 0) {
        StoreDouble(source_prob, graph.SourceProbability(id));
        source_prob += 8;
      }
      const std::span<const CtGraph::Edge> out_edges = graph.OutEdges(id);
      edge_cursor += static_cast<std::uint32_t>(out_edges.size());
      StoreU32(edge_rows, edge_cursor);
      edge_rows += 4;
      for (const CtGraph::Edge& edge : out_edges) {
        edge_targets = WriteZigzag(edge_targets, edge.to - prev_target);
        prev_target = edge.to;
        StoreDouble(edge_prob, edge.probability);
        edge_prob += 8;
      }
    }
    for (; layer <= graph.length(); ++layer) {
      StoreU32(layers, static_cast<std::uint32_t>(num_nodes));
      layers += 4;
    }
    const unsigned char* const ends[kNumSections] = {
        layers, keys, source_prob, edge_rows, edge_targets, edge_prob};
    for (std::uint32_t i = 0; i < kNumSections; ++i) {
      bytes_[i] = static_cast<std::uint64_t>(ends[i] - begin_[i]);
    }
    // A fixed-width section fills its region exactly; a varint section
    // stays within its bound.
    for (const SectionId id : {SectionId::kLayers, SectionId::kSourceProb,
                               SectionId::kEdgeRows, SectionId::kEdgeProb}) {
      RFID_CHECK_EQ(Bytes(id), Capacity(id));
    }
    RFID_CHECK_LE(Bytes(SectionId::kKeys), Capacity(SectionId::kKeys));
    RFID_CHECK_LE(Bytes(SectionId::kEdgeTargets),
                  Capacity(SectionId::kEdgeTargets));
    return true;
  }

  /// The payload bytes of the last complete Write, in SectionId order.
  std::span<const unsigned char> Payload(std::uint32_t index) const {
    return {begin_[index], static_cast<std::size_t>(bytes_[index])};
  }

 private:
  static std::uint32_t Index(SectionId id) {
    return static_cast<std::uint32_t>(id) - 1;
  }
  unsigned char* Begin(SectionId id) { return begin_[Index(id)]; }
  std::uint64_t Capacity(SectionId id) const { return capacity_[Index(id)]; }
  std::uint64_t Bytes(SectionId id) const { return bytes_[Index(id)]; }

  std::unique_ptr<unsigned char[]> scratch_;
  unsigned char* begin_[kNumSections] = {};
  std::uint64_t capacity_[kNumSections] = {};
  std::uint64_t bytes_[kNumSections] = {};
};

/// Allocates the blob once at its exact size (zero-filled, which covers
/// every reserved field and padding byte), copies the six payloads to
/// their 8-aligned offsets and writes the header and the section table.
/// `graph` is the graph the payloads were written from.
std::string AssembleBlob(const CtGraph& graph, const SectionScratch& sections,
                         std::int64_t tag,
                         const GraphProvenance& provenance) {
  std::uint64_t offsets[kNumSections] = {};
  std::uint64_t blob_bytes = kBlobPreludeBytes;
  for (std::uint32_t i = 0; i < kNumSections; ++i) {
    offsets[i] = blob_bytes;
    blob_bytes = AlignUp(blob_bytes + sections.Payload(i).size());
  }
  std::string blob(static_cast<std::size_t>(blob_bytes), '\0');
  unsigned char* const base = reinterpret_cast<unsigned char*>(blob.data());
  for (std::uint32_t i = 0; i < kNumSections; ++i) {
    const std::span<const unsigned char> payload = sections.Payload(i);
    unsigned char* const at = base + offsets[i];
    if (!payload.empty()) std::memcpy(at, payload.data(), payload.size());
    unsigned char* const entry =
        base + kBlobHeaderBytes + std::size_t{kSectionEntryBytes} * i;
    StoreU32(entry, i + 1);
    StoreU32(entry + 4, Crc32(at, payload.size()));
    StoreU64(entry + 8, offsets[i]);
    StoreU64(entry + 16, payload.size());
  }

  // Header fields at their docs/FORMATS.md offsets; flags and reserved
  // fields stay zero.
  std::memcpy(base, kBlobMagic, sizeof(kBlobMagic));
  StoreU32(base + 8, kFormatVersion);
  StoreU64(base + 16, static_cast<std::uint64_t>(tag));
  StoreU32(base + 24, static_cast<std::uint32_t>(graph.length()));
  StoreU64(base + 32, graph.NumNodes());
  StoreU64(base + 40, graph.NumEdges());
  StoreU64(base + 48, provenance.input_digest);
  StoreU64(base + 56, provenance.constraint_digest);
  StoreU64(base + 64, graph.Digest());
  StoreU32(base + kBlobHeaderBytes - 4,
           Crc32(base + kBlobHeaderBytes, kBlobTableBytes,
                 Crc32(base, kBlobHeaderBytes - 4)));
  return blob;
}

}  // namespace

std::string EncodeCtGraphBlob(const CtGraph& graph, std::int64_t tag,
                              const GraphProvenance& provenance) {
  RFID_STATS(obs::PhaseTimer timer(obs::Phase::kStoreEncode));
  RFID_CHECK_GT(graph.length(), 0);
  SectionScratch sections(graph);
  std::string blob;
  if (sections.Write(graph)) {
    blob = AssembleBlob(graph, sections, tag, provenance);
  } else {
    // The renumbered graph has the same counts, so the same regions fit.
    const CtGraph canonical = Canonicalize(graph);
    RFID_CHECK(sections.Write(canonical));
    blob = AssembleBlob(canonical, sections, tag, provenance);
  }
  RFID_STATS(obs::Add(obs::Counter::kStoreBlobsEncoded));
  RFID_STATS(obs::Add(obs::Counter::kStoreBytesEncoded, blob.size()));
  return blob;
}

Result<CtGraph> DecodeCtGraphBlob(const unsigned char* data,
                                  std::size_t size) {
  BlobContents contents;
  RFID_ASSIGN_OR_RETURN(contents, ParseBlobContents(data, size));
  const BlobHeader& header = contents.parsed.header;

  // The fill folds the graph digest that is checked against the header
  // below (CtGraph::Arrays).
  CtGraph::Arrays arrays(header.length,
                         static_cast<std::size_t>(header.num_nodes),
                         static_cast<std::size_t>(contents.num_departures),
                         static_cast<std::size_t>(header.num_edges));
  const std::uint32_t num_sources = contents.LayerBegin(1);
  Timestamp t = 0;
  RFID_RETURN_IF_ERROR(WalkKeys(
      contents.parsed, [&](std::uint64_t i, LocationId location,
                           Timestamp delta, std::span<const Departure> tl) {
        while (i >= contents.LayerBegin(t + 1)) ++t;
        const double source_probability =
            i < num_sources ? LoadDouble(contents.source_prob + 8 * i) : 0.0;
        arrays.AddNode(t, location, delta, source_probability);
        for (const Departure& departure : tl) arrays.AddDeparture(departure);
        for (std::uint32_t e = contents.EdgeRow(i);
             e < contents.EdgeRow(i + 1); ++e) {
          arrays.AddEdge(CtGraph::Edge{
              contents.edge_targets[e],
              LoadDouble(contents.edge_prob + std::size_t{8} * e)});
        }
      }));

  Result<CtGraph> graph = CtGraph::FromArrays(std::move(arrays));
  if (!graph.ok()) {
    return InvalidArgumentError(StrFormat(
        "ct-graph blob: decoded graph fails invariants: %s",
        graph.status().message().c_str()));
  }
  const std::uint64_t digest = graph->Digest();
  if (digest != header.graph_digest) {
    return InvalidArgumentError(StrFormat(
        "ct-graph blob: stored graph digest %016llx does not match decoded "
        "graph %016llx",
        static_cast<unsigned long long>(header.graph_digest),
        static_cast<unsigned long long>(digest)));
  }
  RFID_RETURN_IF_ERROR(RunCtGraphAuditHook(*graph));
  return graph;
}

Result<BlobInfo> InspectCtGraphBlob(const unsigned char* data,
                                    std::size_t size) {
  ParsedBlob parsed;
  RFID_ASSIGN_OR_RETURN(parsed, ParseAndVerifyBlob(data, size));
  BlobInfo info;
  info.header = parsed.header;
  info.blob_bytes = parsed.size;
  return info;
}

}  // namespace rfidclean::store
