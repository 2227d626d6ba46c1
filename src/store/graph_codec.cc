#include "store/graph_codec.h"

#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/fnv.h"
#include "common/strings.h"
#include "common/varint.h"
#include "core/graph_digest.h"
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

/// Everything the write pass needs to know before it allocates: the
/// exact size and offset of every section, the blob size, and the graph
/// digest for the header.
struct BlobPlan {
  std::uint64_t section_bytes[kNumSections] = {};
  std::uint64_t section_offset[kNumSections] = {};
  std::uint64_t blob_bytes = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t digest = 0;

  std::uint64_t Bytes(SectionId id) const {
    return section_bytes[static_cast<std::uint32_t>(id) - 1];
  }
  std::uint64_t Offset(SectionId id) const {
    return section_offset[static_cast<std::uint32_t>(id) - 1];
  }
};

/// Pass 1: one walk over the nodes in id order that sizes both varint
/// sections, counts the edges and mixes the graph digest. Returns false
/// as soon as a node's time falls below its predecessor's, i.e. when the
/// ids are not in layer order (the blob stores nodes in layer order).
bool PlanBlob(const CtGraph& graph, BlobPlan* plan) {
  const std::size_t num_nodes = graph.NumNodes();
  Fnv64 fnv;
  MixGraphDigestHeader(&fnv, graph.length(), num_nodes);
  std::uint64_t key_bytes = 0;
  std::uint64_t target_bytes = 0;
  std::uint64_t num_edges = 0;
  Timestamp prev_time = 0;
  std::int64_t prev_location = 0;
  std::int64_t prev_target = 0;
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    const Timestamp time = graph.TimeOf(id);
    if (time < prev_time) return false;
    prev_time = time;
    const LocationId location = graph.LocationOf(id);
    const Timestamp delta = graph.DeltaOf(id);
    const std::span<const Departure> departures = graph.DeparturesOf(id);
    key_bytes += VarintSize(ZigzagEncode(location - prev_location)) +
                 VarintSize(ZigzagEncode(delta)) +
                 VarintSize(departures.size());
    prev_location = location;
    std::int64_t prev_tl_location = 0;
    for (const Departure& departure : departures) {
      key_bytes += VarintSize(ZigzagEncode(departure.time)) +
                   VarintSize(
                       ZigzagEncode(departure.location - prev_tl_location));
      prev_tl_location = departure.location;
    }
    const std::span<const CtGraph::Edge> out_edges = graph.OutEdges(id);
    for (const CtGraph::Edge& edge : out_edges) {
      target_bytes += VarintSize(ZigzagEncode(edge.to - prev_target));
      prev_target = edge.to;
    }
    num_edges += out_edges.size();
    MixGraphDigestNode(&fnv, time, location, delta, departures,
                       graph.SourceProbability(id), out_edges);
  }

  // In SectionId order: LAYERS, KEYS, SRCPROB, EDGEROWS, EDGETGT, EDGEPROB.
  const std::uint64_t sizes[kNumSections] = {
      4 * (static_cast<std::uint64_t>(graph.length()) + 1),
      key_bytes,
      8 * static_cast<std::uint64_t>(graph.SourceNodes().size()),
      4 * (static_cast<std::uint64_t>(num_nodes) + 1),
      target_bytes,
      8 * num_edges,
  };
  std::uint64_t offset = kBlobPreludeBytes;
  for (std::uint32_t i = 0; i < kNumSections; ++i) {
    plan->section_bytes[i] = sizes[i];
    plan->section_offset[i] = offset;
    offset = AlignUp(offset + sizes[i]);
  }
  plan->blob_bytes = offset;
  plan->num_edges = num_edges;
  plan->digest = fnv.Digest();
  return true;
}

/// Pass 2: allocates the blob once at its final size (zero-filled, which
/// covers every reserved field and padding byte) and writes the header,
/// the section table and all six payloads in place.
std::string WriteBlob(const CtGraph& graph, const BlobPlan& plan,
                      std::int64_t tag, const GraphProvenance& provenance) {
  std::string blob(static_cast<std::size_t>(plan.blob_bytes), '\0');
  unsigned char* const base = reinterpret_cast<unsigned char*>(blob.data());
  auto section = [&](SectionId id) { return base + plan.Offset(id); };

  unsigned char* layers = section(SectionId::kLayers);
  std::uint32_t running = 0;
  for (Timestamp t = 0; t < graph.length(); ++t) {
    StoreU32(layers, running);
    layers += 4;
    running += static_cast<std::uint32_t>(graph.NodesAt(t).size());
  }
  StoreU32(layers, running);

  unsigned char* keys = section(SectionId::kKeys);
  unsigned char* source_prob = section(SectionId::kSourceProb);
  unsigned char* edge_rows = section(SectionId::kEdgeRows);
  unsigned char* edge_targets = section(SectionId::kEdgeTargets);
  unsigned char* edge_prob = section(SectionId::kEdgeProb);
  std::int64_t prev_location = 0;
  std::int64_t prev_target = 0;
  std::uint32_t edge_cursor = 0;
  StoreU32(edge_rows, 0);
  edge_rows += 4;
  for (std::size_t i = 0; i < graph.NumNodes(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
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
    if (graph.TimeOf(id) == 0) {
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
  // The sizing pass and this one must agree byte for byte.
  RFID_CHECK(keys ==
             section(SectionId::kKeys) + plan.Bytes(SectionId::kKeys));
  RFID_CHECK(edge_targets == section(SectionId::kEdgeTargets) +
                                 plan.Bytes(SectionId::kEdgeTargets));

  // Header fields at their docs/FORMATS.md offsets; flags and reserved
  // fields stay zero.
  std::memcpy(base, kBlobMagic, sizeof(kBlobMagic));
  StoreU32(base + 8, kFormatVersion);
  StoreU64(base + 16, static_cast<std::uint64_t>(tag));
  StoreU32(base + 24, static_cast<std::uint32_t>(graph.length()));
  StoreU64(base + 32, graph.NumNodes());
  StoreU64(base + 40, plan.num_edges);
  StoreU64(base + 48, provenance.input_digest);
  StoreU64(base + 56, provenance.constraint_digest);
  StoreU64(base + 64, plan.digest);
  for (std::uint32_t i = 0; i < kNumSections; ++i) {
    unsigned char* entry =
        base + kBlobHeaderBytes + std::size_t{kSectionEntryBytes} * i;
    const unsigned char* payload = base + plan.section_offset[i];
    StoreU32(entry, i + 1);
    StoreU32(entry + 4,
             Crc32(payload, static_cast<std::size_t>(plan.section_bytes[i])));
    StoreU64(entry + 8, plan.section_offset[i]);
    StoreU64(entry + 16, plan.section_bytes[i]);
  }
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
  BlobPlan plan;
  std::string blob;
  if (PlanBlob(graph, &plan)) {
    blob = WriteBlob(graph, plan, tag, provenance);
  } else {
    const CtGraph canonical = Canonicalize(graph);
    RFID_CHECK(PlanBlob(canonical, &plan));
    blob = WriteBlob(canonical, plan, tag, provenance);
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

  CtGraph::Arrays arrays;
  arrays.Reserve(static_cast<std::size_t>(header.num_nodes),
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

  Result<CtGraph> graph =
      CtGraph::FromArrays(std::move(arrays), header.length);
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
