#include "store/blob_layout.h"

#include <cstring>

#include "common/crc32.h"
#include "common/simd.h"
#include "common/strings.h"
#include "common/varint.h"
#include "obs/metrics.h"

namespace rfidclean::store {

namespace {

Status BlobError(const char* what, const std::string& detail) {
  return InvalidArgumentError(StrFormat("ct-graph blob: %s: %s", what,
                                        detail.c_str()));
}

Status CrcError(const char* region, std::uint32_t stored,
                std::uint32_t computed) {
  RFID_STATS(obs::Add(obs::Counter::kStoreCrcFailures));
  return InvalidArgumentError(
      StrFormat("ct-graph blob: %s checksum mismatch (stored %08x, computed "
                "%08x)",
                region, stored, computed));
}

const char* SectionName(SectionId id) {
  switch (id) {
    case SectionId::kLayers: return "LAYERS";
    case SectionId::kKeys: return "KEYS";
    case SectionId::kSourceProb: return "SRCPROB";
    case SectionId::kEdgeRows: return "EDGEROWS";
    case SectionId::kEdgeTargets: return "EDGETGT";
    case SectionId::kEdgeProb: return "EDGEPROB";
  }
  return "?";
}

/// Decodes the EDGETGT section into targets[0, num_edges): per edge in CSR
/// order, zigzag(to - prev_target) with one running prev_target across the
/// whole section (init 0). Each target must land in its source node's next
/// layer, which also proves it is a valid NodeId.
Status DecodeEdgeTargets(const BlobContents& contents, NodeId* targets) {
  const ParsedBlob& blob = contents.parsed;
  const unsigned char* cursor = blob.SectionData(SectionId::kEdgeTargets);
  const unsigned char* end =
      cursor + blob.SectionSize(SectionId::kEdgeTargets);
  const std::int32_t length = blob.header.length;

  std::int64_t prev_target = 0;
  for (std::int32_t t = 0; t < length; ++t) {
    const std::uint64_t layer_lo = contents.LayerBegin(t);
    const std::uint64_t layer_hi = contents.LayerBegin(t + 1);
    const std::uint64_t next_lo = t + 1 < length ? layer_hi : 0;
    const std::uint64_t next_hi =
        t + 1 < length ? contents.LayerBegin(t + 2) : 0;
    for (std::uint64_t node = layer_lo; node < layer_hi; ++node) {
      const std::uint64_t row_begin = contents.EdgeRow(node);
      const std::uint64_t row_end = contents.EdgeRow(node + 1);
      if (t == length - 1) {
        if (row_end != row_begin) {
          return BlobError("EDGEROWS section",
                           StrFormat("target node %llu has %llu edges",
                                     static_cast<unsigned long long>(node),
                                     static_cast<unsigned long long>(
                                         row_end - row_begin)));
        }
        continue;
      }
      if (row_end == row_begin) {
        return BlobError(
            "EDGEROWS section",
            StrFormat("non-target node %llu has no outgoing edge",
                      static_cast<unsigned long long>(node)));
      }
      for (std::uint64_t e = row_begin; e < row_end; ++e) {
        std::int64_t delta = 0;
        if (!GetZigzag(&cursor, end, &delta)) {
          return BlobError("EDGETGT section",
                           "truncated or malformed varint");
        }
        const std::int64_t to = prev_target + delta;
        if (to < static_cast<std::int64_t>(next_lo) ||
            to >= static_cast<std::int64_t>(next_hi)) {
          return BlobError(
              "EDGETGT section",
              StrFormat("edge %llu of node %llu targets %lld outside layer "
                        "%d",
                        static_cast<unsigned long long>(e - row_begin),
                        static_cast<unsigned long long>(node),
                        static_cast<long long>(to), t + 1));
        }
        prev_target = to;
        targets[e] = static_cast<NodeId>(to);
      }
    }
  }
  if (cursor != end) {
    return BlobError("EDGETGT section",
                     StrFormat("%zu trailing bytes after the last edge",
                               static_cast<std::size_t>(end - cursor)));
  }
  return Status::Ok();
}

}  // namespace

namespace internal_blob {

Status KeyError(std::uint64_t node, const std::string& detail) {
  return BlobError("KEYS section",
                   StrFormat("node %llu: %s",
                             static_cast<unsigned long long>(node),
                             detail.c_str()));
}

Status KeySectionError(const std::string& detail) {
  return BlobError("KEYS section", detail);
}

}  // namespace internal_blob

Result<ParsedBlob> ParseAndVerifyBlob(const unsigned char* data,
                                      std::size_t size,
                                      SectionChecks checks) {
  if (size < kBlobPreludeBytes) {
    return BlobError("truncated",
                     StrFormat("%zu bytes, need at least %u for the header "
                               "and section table",
                               size, kBlobPreludeBytes));
  }
  if (std::memcmp(data, kBlobMagic, sizeof(kBlobMagic)) != 0) {
    return BlobError("bad magic", "not a ct-graph blob");
  }

  ParsedBlob blob;
  blob.base = data;
  blob.size = size;
  BlobHeader& header = blob.header;
  header.version = LoadU32(data + 8);
  if (header.version != kFormatVersion) {
    return BlobError("unsupported format version",
                     StrFormat("%u (this build reads version %u)",
                               header.version, kFormatVersion));
  }

  // The header checksum covers bytes [0, 92) plus the whole section table
  // [96, 288) — everything that describes geometry — so any flipped bit in
  // either is caught before a single derived offset is trusted.
  const std::uint32_t stored_header_crc = LoadU32(data + kBlobHeaderBytes - 4);
  const std::uint32_t computed_header_crc =
      Crc32(data + kBlobHeaderBytes, kBlobTableBytes,
            Crc32(data, kBlobHeaderBytes - 4));
  if (stored_header_crc != computed_header_crc) {
    return CrcError("header", stored_header_crc, computed_header_crc);
  }

  header.flags = LoadU32(data + 12);
  header.tag = LoadI64(data + 16);
  header.length = LoadI32(data + 24);
  header.num_nodes = LoadU64(data + 32);
  header.num_edges = LoadU64(data + 40);
  header.input_digest = LoadU64(data + 48);
  header.constraint_digest = LoadU64(data + 56);
  header.graph_digest = LoadU64(data + 64);

  if (header.flags != 0) {
    return BlobError("unsupported flags",
                     StrFormat("%08x (v1 defines none)", header.flags));
  }
  if (header.length < 1 || header.length > kMaxBlobLength) {
    return BlobError("length out of range",
                     StrFormat("%d", header.length));
  }
  if (header.num_nodes < 1 || header.num_nodes > kMaxBlobNodes) {
    return BlobError("node count out of range",
                     StrFormat("%llu", static_cast<unsigned long long>(
                                           header.num_nodes)));
  }
  if (header.num_edges > kMaxBlobEdges) {
    return BlobError("edge count out of range",
                     StrFormat("%llu", static_cast<unsigned long long>(
                                           header.num_edges)));
  }

  // Section table: six known ids in order, payloads packed back-to-back on
  // 8-byte boundaries, the last one ending flush with the blob. Pinning the
  // geometry this tightly makes the writer's output the *only* accepted
  // encoding of a given graph (golden-fixture byte identity) and leaves no
  // slack bytes for a parser differential to hide in.
  std::uint64_t expected_offset = kBlobPreludeBytes;
  for (std::uint32_t i = 0; i < kNumSections; ++i) {
    const unsigned char* entry =
        data + kBlobHeaderBytes + std::size_t{i} * kSectionEntryBytes;
    SectionEntry& section = blob.sections[i];
    section.id = LoadU32(entry);
    section.crc = LoadU32(entry + 4);
    section.offset = LoadU64(entry + 8);
    section.size = LoadU64(entry + 16);
    const std::uint64_t reserved = LoadU64(entry + 24);
    const char* name = SectionName(static_cast<SectionId>(i + 1));
    if (section.id != i + 1) {
      return BlobError("section table",
                       StrFormat("entry %u has id %u, expected %u (%s)", i,
                                 section.id, i + 1, name));
    }
    if (reserved != 0) {
      return BlobError("section table",
                       StrFormat("%s entry has nonzero reserved field",
                                 name));
    }
    if (section.offset != expected_offset) {
      return BlobError(
          "section table",
          StrFormat("%s payload at offset %llu, expected %llu", name,
                    static_cast<unsigned long long>(section.offset),
                    static_cast<unsigned long long>(expected_offset)));
    }
    if (section.size > size - section.offset) {
      // section.offset <= size holds: expected_offset only grows past size
      // when a previous size already failed this check.
      return BlobError(
          "section table",
          StrFormat("%s payload (%llu bytes at %llu) overruns the %zu-byte "
                    "blob",
                    name, static_cast<unsigned long long>(section.size),
                    static_cast<unsigned long long>(section.offset), size));
    }
    expected_offset = AlignUp(section.offset + section.size);
  }
  if (expected_offset != size) {
    return BlobError("trailing bytes",
                     StrFormat("blob is %zu bytes but sections end at %llu",
                               size,
                               static_cast<unsigned long long>(
                                   expected_offset)));
  }

  // Fixed-width sections have header-determined sizes. length and
  // num_nodes are already range-capped, so these products cannot overflow.
  const auto expect_size = [&](SectionId id,
                               std::uint64_t want) -> Status {
    const std::uint64_t got = blob.SectionSize(id);
    if (got != want) {
      return BlobError(
          "section table",
          StrFormat("%s payload is %llu bytes, expected %llu",
                    SectionName(id), static_cast<unsigned long long>(got),
                    static_cast<unsigned long long>(want)));
    }
    return Status::Ok();
  };
  RFID_RETURN_IF_ERROR(expect_size(
      SectionId::kLayers,
      (static_cast<std::uint64_t>(header.length) + 1) * 4));
  RFID_RETURN_IF_ERROR(
      expect_size(SectionId::kEdgeRows, (header.num_nodes + 1) * 4));
  RFID_RETURN_IF_ERROR(
      expect_size(SectionId::kEdgeProb, header.num_edges * 8));
  if (blob.SectionSize(SectionId::kSourceProb) % 8 != 0) {
    return BlobError("section table",
                     "SRCPROB payload is not a whole number of doubles");
  }

  for (std::uint32_t i = 0; i < kNumSections; ++i) {
    const SectionId id = static_cast<SectionId>(i + 1);
    if (checks == SectionChecks::kGeometry &&
        (id == SectionId::kSourceProb || id == SectionId::kEdgeProb)) {
      continue;
    }
    const SectionEntry& section = blob.sections[i];
    const std::uint32_t computed =
        Crc32(data + section.offset, static_cast<std::size_t>(section.size));
    if (computed != section.crc) {
      return CrcError(StrFormat("%s section", SectionName(id)).c_str(),
                      section.crc, computed);
    }
  }
  return blob;
}

Result<BlobContents> ParseBlobContents(const unsigned char* data,
                                       std::size_t size,
                                       SectionChecks checks) {
  RFID_STATS(obs::PhaseTimer timer(obs::Phase::kStoreDecode));
  BlobContents contents;
  RFID_ASSIGN_OR_RETURN(contents.parsed,
                        ParseAndVerifyBlob(data, size, checks));
  const ParsedBlob& blob = contents.parsed;
  const BlobHeader& header = blob.header;

  contents.layer_begin = blob.SectionData(SectionId::kLayers);
  contents.edge_rows = blob.SectionData(SectionId::kEdgeRows);
  contents.source_prob = blob.SectionData(SectionId::kSourceProb);
  contents.edge_prob = blob.SectionData(SectionId::kEdgeProb);

  // Layer offsets: start at 0, strictly increase (a valid ct-graph has no
  // empty layer), end at num_nodes.
  if (contents.LayerBegin(0) != 0) {
    return BlobError("LAYERS section", "first offset is not 0");
  }
  for (std::int32_t t = 0; t < header.length; ++t) {
    if (contents.LayerBegin(t + 1) <= contents.LayerBegin(t)) {
      return BlobError("LAYERS section",
                       StrFormat("layer %d is empty or offsets decrease",
                                 t));
    }
  }
  if (contents.LayerBegin(header.length) != header.num_nodes) {
    return BlobError(
        "LAYERS section",
        StrFormat("offsets end at %u but the header claims %llu nodes",
                  contents.LayerBegin(header.length),
                  static_cast<unsigned long long>(header.num_nodes)));
  }
  const std::uint64_t layer0 = contents.LayerBegin(1);
  if (blob.SectionSize(SectionId::kSourceProb) != layer0 * 8) {
    return BlobError(
        "SRCPROB section",
        StrFormat("%llu bytes for %llu source nodes",
                  static_cast<unsigned long long>(
                      blob.SectionSize(SectionId::kSourceProb)),
                  static_cast<unsigned long long>(layer0)));
  }

  if (contents.EdgeRow(0) != 0) {
    return BlobError("EDGEROWS section", "first row offset is not 0");
  }

  // The decoded arrays: EDGEPROB holds num_edges doubles, so both sizes
  // are bounded by the blob. Deltas and TL lists are validated but not
  // kept (see BlobContents).
  contents.locations.resize(static_cast<std::size_t>(header.num_nodes));
  contents.edge_targets.resize(static_cast<std::size_t>(header.num_edges));
  bool decoded = false;
#if RFIDCLEAN_SIMD_ENABLED
  decoded =
      simd::VectorKernelsActive() &&
      internal_blob::DecodeKeysAvx2(
          blob.SectionData(SectionId::kKeys),
          static_cast<std::size_t>(blob.SectionSize(SectionId::kKeys)),
          header.num_nodes, contents.locations.data(),
          &contents.num_departures) &&
      internal_blob::DecodeEdgeTargetsAvx2(
          blob.SectionData(SectionId::kEdgeTargets),
          static_cast<std::size_t>(
              blob.SectionSize(SectionId::kEdgeTargets)),
          contents.layer_begin, header.length, contents.edge_rows,
          header.num_edges, contents.edge_targets.data());
#endif
  if (!decoded) {
    // CSR edge rows: start at 0 (checked above), monotone, end at
    // num_edges.
    for (std::uint64_t i = 0; i < header.num_nodes; ++i) {
      if (contents.EdgeRow(i + 1) < contents.EdgeRow(i)) {
        return BlobError("EDGEROWS section",
                         StrFormat("row offsets decrease at node %llu",
                                   static_cast<unsigned long long>(i)));
      }
    }
    if (contents.EdgeRow(header.num_nodes) != header.num_edges) {
      return BlobError(
          "EDGEROWS section",
          StrFormat("rows end at %u but the header claims %llu edges",
                    contents.EdgeRow(header.num_nodes),
                    static_cast<unsigned long long>(header.num_edges)));
    }
    contents.num_departures = 0;
    RFID_RETURN_IF_ERROR(WalkKeys(
        blob, [&contents](std::uint64_t i, LocationId location, Timestamp,
                          std::span<const Departure> tl) {
          contents.locations[i] = location;
          contents.num_departures += tl.size();
        }));
    RFID_RETURN_IF_ERROR(
        DecodeEdgeTargets(contents, contents.edge_targets.data()));
  }

  RFID_STATS(obs::Add(obs::Counter::kStoreBlobsDecoded));
  RFID_STATS(obs::Add(obs::Counter::kStoreBytesDecoded, size));
  return contents;
}

}  // namespace rfidclean::store
