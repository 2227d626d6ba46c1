#include "store/graph_codec.h"

#include <bit>
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

/// LEB128 bytes of the largest value a varint section holds. Each value
/// is a 32-bit count, or the zigzag map of a 32-bit value or of the
/// difference of two, so it stays below 2^34: five 7-bit groups.
constexpr std::uint64_t kMaxVarintBytes = 5;

/// Bytes of `column` in the blob's little-endian layout.
template <typename T>
std::uint64_t ColumnBytes(std::span<const T> column) {
  return std::uint64_t{sizeof(T)} * column.size();
}

/// Writes `column` to `at` in the blob's little-endian layout: one copy on
/// little-endian hosts.
template <typename T>
void CopyColumn(std::span<const T> column, unsigned char* at) {
  if constexpr (std::endian::native == std::endian::little) {
    if (!column.empty()) std::memcpy(at, column.data(), column.size_bytes());
  } else {
    for (const T value : column) {
      if constexpr (sizeof(T) == 4) {
        StoreU32(at, value);
      } else {
        StoreDouble(at, value);
      }
      at += sizeof(T);
    }
  }
}

/// The two varint sections, KEYS and EDGETGT, written by one walk over a
/// graph's columns into one scratch buffer that is never zero-filled: a
/// region of kMaxVarintBytes per value each, so nothing has to be sized
/// before the walk.
class VarintSections {
 public:
  explicit VarintSections(const CtGraph::Columns& columns) {
    const std::uint64_t keys_capacity =
        kMaxVarintBytes *
        (3 * columns.location.size() + 2 * columns.departures.size());
    const std::uint64_t targets_capacity =
        kMaxVarintBytes * columns.edge_to.size();
    scratch_ = std::make_unique_for_overwrite<unsigned char[]>(
        static_cast<std::size_t>(keys_capacity + targets_capacity));
    unsigned char* keys = scratch_.get();
    unsigned char* targets = keys + keys_capacity;

    std::int64_t prev_location = 0;
    const std::size_t num_nodes = columns.location.size();
    for (std::size_t i = 0; i < num_nodes; ++i) {
      const LocationId location = columns.location[i];
      keys = WriteZigzag(keys, location - prev_location);
      prev_location = location;
      keys = WriteZigzag(keys, columns.delta[i]);
      const std::uint32_t tl_end = columns.tl_begin[i + 1];
      keys = WriteVarint(keys, tl_end - columns.tl_begin[i]);
      std::int64_t prev_tl_location = 0;
      for (std::uint32_t d = columns.tl_begin[i]; d < tl_end; ++d) {
        const Departure& departure = columns.departures[d];
        keys = WriteZigzag(keys, departure.time);
        keys = WriteZigzag(keys, departure.location - prev_tl_location);
        prev_tl_location = departure.location;
      }
    }
    std::int64_t prev_target = 0;
    for (const NodeId to : columns.edge_to) {
      targets = WriteZigzag(targets, to - prev_target);
      prev_target = to;
    }
    keys_ = {scratch_.get(), static_cast<std::size_t>(keys - scratch_.get())};
    const unsigned char* targets_begin = scratch_.get() + keys_capacity;
    targets_ = {targets_begin,
                static_cast<std::size_t>(targets - targets_begin)};
    RFID_CHECK_LE(keys_.size(), keys_capacity);
    RFID_CHECK_LE(targets_.size(), targets_capacity);
  }

  std::span<const unsigned char> keys() const { return keys_; }
  std::span<const unsigned char> targets() const { return targets_; }

 private:
  std::unique_ptr<unsigned char[]> scratch_;
  std::span<const unsigned char> keys_;
  std::span<const unsigned char> targets_;
};

}  // namespace

std::string EncodeCtGraphBlob(const CtGraph& graph, std::int64_t tag,
                              const GraphProvenance& provenance) {
  RFID_STATS(obs::PhaseTimer timer(obs::Phase::kStoreEncode));
  RFID_CHECK_GT(graph.length(), 0);
  const CtGraph::Columns columns = graph.columns();
  const VarintSections varints(columns);
  // In SectionId order: LAYERS, KEYS, SRCPROB, EDGEROWS, EDGETGT, EDGEPROB.
  const std::uint64_t sizes[kNumSections] = {
      ColumnBytes(columns.layer_begin), varints.keys().size(),
      ColumnBytes(columns.source_probability),
      ColumnBytes(columns.edge_begin), varints.targets().size(),
      ColumnBytes(columns.edge_probability)};
  std::uint64_t offsets[kNumSections] = {};
  std::uint64_t blob_bytes = kBlobPreludeBytes;
  for (std::uint32_t i = 0; i < kNumSections; ++i) {
    offsets[i] = blob_bytes;
    blob_bytes = AlignUp(blob_bytes + sizes[i]);
  }
  // Zero-filled, which covers every reserved field and padding byte.
  std::string blob(static_cast<std::size_t>(blob_bytes), '\0');
  unsigned char* const base = reinterpret_cast<unsigned char*>(blob.data());
  CopyColumn(columns.layer_begin, base + offsets[0]);
  if (!varints.keys().empty()) {
    std::memcpy(base + offsets[1], varints.keys().data(),
                varints.keys().size());
  }
  CopyColumn(columns.source_probability, base + offsets[2]);
  CopyColumn(columns.edge_begin, base + offsets[3]);
  if (!varints.targets().empty()) {
    std::memcpy(base + offsets[4], varints.targets().data(),
                varints.targets().size());
  }
  CopyColumn(columns.edge_probability, base + offsets[5]);
  for (std::uint32_t i = 0; i < kNumSections; ++i) {
    unsigned char* const entry =
        base + kBlobHeaderBytes + std::size_t{kSectionEntryBytes} * i;
    StoreU32(entry, i + 1);
    StoreU32(entry + 4,
             Crc32(base + offsets[i], static_cast<std::size_t>(sizes[i])));
    StoreU64(entry + 8, offsets[i]);
    StoreU64(entry + 16, sizes[i]);
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
  const std::uint32_t num_sources = contents.LayerBegin(1);
  CtGraph::Arrays arrays(header.length,
                         static_cast<std::size_t>(header.num_nodes),
                         num_sources,
                         static_cast<std::size_t>(contents.num_departures),
                         static_cast<std::size_t>(header.num_edges));
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
