#ifndef RFIDCLEAN_STORE_BLOB_LAYOUT_H_
#define RFIDCLEAN_STORE_BLOB_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/simd.h"
#include "common/varint.h"
#include "core/ct_graph.h"
#include "core/location_node.h"
#include "store/format.h"

/// \file
/// Shared parse-and-verify layer for binary ct-graph blobs. Both decode
/// paths — materializing (graph_codec.cc) and zero-copy (ctgraph_view.cc) —
/// funnel through ParseBlobContents, so every byte of a blob is validated
/// identically no matter how it is consumed. All functions here treat the
/// input as hostile (they are the fuzz surface behind
/// fuzz/store_blob_fuzz.cc): any malformed byte stream yields a diagnostic
/// Result, never UB, an RFID_CHECK, or an out-of-bounds read.

namespace rfidclean::store {

inline constexpr std::uint32_t kBlobTableBytes =
    kNumSections * kSectionEntryBytes;
/// Bytes before the first section payload: header + section table.
inline constexpr std::uint32_t kBlobPreludeBytes =
    kBlobHeaderBytes + kBlobTableBytes;

/// Sanity ceilings, far above anything the cleaner produces; headers
/// claiming more are rejected before any allocation is sized from them.
inline constexpr std::int64_t kMaxBlobLength = std::int64_t{1} << 24;
inline constexpr std::uint64_t kMaxBlobNodes = 0x7FFFFFFFu;  // NodeId range
inline constexpr std::uint64_t kMaxBlobEdges = std::uint64_t{1} << 40;

/// Header, section table and raw extent of one verified blob. `base` points
/// at caller-owned bytes; a ParsedBlob never outlives them.
struct ParsedBlob {
  BlobHeader header;
  SectionEntry sections[kNumSections];  // indexed by SectionId - 1
  const unsigned char* base = nullptr;
  std::size_t size = 0;

  const SectionEntry& Section(SectionId id) const {
    return sections[static_cast<std::uint32_t>(id) - 1];
  }
  const unsigned char* SectionData(SectionId id) const {
    return base + Section(id).offset;
  }
  std::uint64_t SectionSize(SectionId id) const { return Section(id).size; }
};

/// Which section payload CRCs a parse verifies. kGeometry covers every
/// section whose bytes feed index arithmetic or decoding — LAYERS, KEYS,
/// EDGEROWS, EDGETGT — i.e. everything memory safety can depend on; the two
/// probability payloads (SRCPROB, EDGEPROB) are only ever read as opaque
/// doubles, so the zero-copy load fast path defers their checksums to the
/// deep verifiers (CtStoreReader::VerifyAll, MapVerify::kFull), which also
/// re-derive the graph digest over them. kAll checks all six.
enum class SectionChecks {
  kGeometry,
  kAll,
};

/// Validates magic, version, header checksum, header ranges and the full
/// section-table geometry (ids in order, aligned back-to-back offsets, the
/// final section ending flush with the blob), then verifies the selected
/// payload CRCs. Does not decode section contents.
Result<ParsedBlob> ParseAndVerifyBlob(
    const unsigned char* data, std::size_t size,
    SectionChecks checks = SectionChecks::kAll);

/// The allocator of the decoded arrays: resize() default-initializes new
/// elements instead of zeroing them, since a decoder writes every element
/// before anything reads it.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T>
using DecodedArray = std::vector<T, DefaultInitAllocator<T>>;

/// Fully structurally-validated contents of one blob. The fixed-width
/// sections stay as aliases into the input bytes (read via the
/// endian-stable Load* codecs, which compile to plain loads on
/// little-endian hosts); of the varint-compressed sections, the node
/// locations and the edge targets are decoded into owned arrays. The
/// per-node deltas and TL lists are decoded and validated but not kept: no
/// query reads them, and WalkKeys decodes them again for the digest and
/// for materialization. Probability *semantics* (sums to one,
/// reachability) are not checked here — CtGraph::FromArrays and
/// CtGraphView::CheckConsistency own those.
struct BlobContents {
  ParsedBlob parsed;

  // Aliased little-endian sections.
  const unsigned char* layer_begin = nullptr;  // (length + 1) x u32
  const unsigned char* edge_rows = nullptr;    // (num_nodes + 1) x u32
  const unsigned char* source_prob = nullptr;  // layer-0 count x double
  const unsigned char* edge_prob = nullptr;    // num_edges x double

  DecodedArray<LocationId> locations;  // one per node, id order
  DecodedArray<NodeId> edge_targets;  // CSR order, next-layer membership held
  std::uint64_t num_departures = 0;  // TL entries over all nodes

  std::uint32_t LayerBegin(std::int32_t t) const {
    return LoadU32(layer_begin + std::size_t{4} * static_cast<std::size_t>(t));
  }
  std::uint32_t EdgeRow(std::uint64_t node) const {
    return LoadU32(edge_rows + std::size_t{4} * node);
  }
};

namespace internal_blob {

/// WalkKeys' InvalidArgument statuses, "ct-graph blob: KEYS section:
/// node <node>: <detail>" and "ct-graph blob: KEYS section: <detail>" (out
/// of line: the error path is cold).
Status KeyError(std::uint64_t node, const std::string& detail);
Status KeySectionError(const std::string& detail);

#if RFIDCLEAN_SIMD_ENABLED
// The fast decoders ParseBlobContents runs while
// simd::VectorKernelsActive() (blob_layout_avx2.cc, built with -mavx2;
// absent from SIMD-off binaries). Each only ever accepts: it returns true
// only for a section its scalar counterpart accepts, after writing exactly
// what that decoder writes, and false on any failed check and on anything
// it does not handle, with its outputs then unspecified.

/// WalkKeys' checks over the KEYS section; writes every node's location
/// and the total TL entry count.
bool DecodeKeysAvx2(const unsigned char* keys, std::size_t size,
                    std::uint64_t num_nodes, LocationId* locations,
                    std::uint64_t* num_departures);
/// ParseBlobContents' EDGEROWS checks and DecodeEdgeTargets' checks over
/// the EDGETGT section, given validated LAYERS; writes every edge target.
bool DecodeEdgeTargetsAvx2(const unsigned char* section, std::size_t size,
                           const unsigned char* layer_begin,
                           std::int32_t length,
                           const unsigned char* edge_rows,
                           std::uint64_t num_edges, NodeId* targets);
#endif

}  // namespace internal_blob

/// The one decoder of the KEYS section. Per node, in id order, the section
/// holds
///   zigzag(location - prev_location)   (prev_location persists, init 0)
///   zigzag(delta)
///   varint(|TL|)
///   per TL entry: zigzag(time), zigzag(location - prev_tl_location)
///                 (prev_tl_location resets to 0 per node)
/// WalkKeys validates every field (ranges, sorted TL lists, exact section
/// consumption) and calls visit(node, location, delta, tl) once per node,
/// where `tl` is a std::span<const Departure> valid during the call. It
/// stops at the first defect and returns it. ParseBlobContents, the
/// materializing decoder and CtGraphView::Digest all decode through it.
template <typename Visit>
Status WalkKeys(const ParsedBlob& blob, Visit&& visit) {
  using internal_blob::KeyError;
  const unsigned char* cursor = blob.SectionData(SectionId::kKeys);
  const unsigned char* end = cursor + blob.SectionSize(SectionId::kKeys);
  const std::uint64_t num_nodes = blob.header.num_nodes;
  constexpr std::int64_t kMaxI32 = std::numeric_limits<std::int32_t>::max();

  // Every TL entry costs at least two bytes, so this bounds the total
  // departure count below 2^32 (the 32-bit offsets of CtGraph).
  if (blob.SectionSize(SectionId::kKeys) / 2 >
      std::numeric_limits<std::uint32_t>::max() - 1) {
    return internal_blob::KeySectionError("section too large");
  }
  std::vector<Departure> tl;
  std::int64_t prev_location = 0;
  for (std::uint64_t i = 0; i < num_nodes; ++i) {
    std::int64_t location_delta = 0;
    std::int64_t delta = 0;
    std::uint64_t tl_count = 0;
    if (!GetZigzag(&cursor, end, &location_delta) ||
        !GetZigzag(&cursor, end, &delta) ||
        !GetVarint(&cursor, end, &tl_count)) {
      return KeyError(i, "truncated or malformed varint");
    }
    const std::int64_t location = prev_location + location_delta;
    if (location < 0 || location > kMaxI32) {
      return KeyError(i, "location " + std::to_string(location) +
                             " out of range");
    }
    prev_location = location;
    if (delta < kDeltaBottom || delta > kMaxI32) {
      return KeyError(i, "delta " + std::to_string(delta) + " out of range");
    }
    // Every TL entry costs at least two bytes; a count the remaining bytes
    // cannot hold is corruption, caught before sizing any container.
    if (tl_count > static_cast<std::uint64_t>(end - cursor) / 2 + 1) {
      return KeyError(i, "TL count " + std::to_string(tl_count) +
                             " exceeds section capacity");
    }
    if (tl.size() < tl_count) tl.resize(static_cast<std::size_t>(tl_count));
    std::int64_t prev_tl_location = 0;
    for (std::uint64_t d = 0; d < tl_count; ++d) {
      std::int64_t time = 0;
      std::int64_t tl_location_delta = 0;
      if (!GetZigzag(&cursor, end, &time) ||
          !GetZigzag(&cursor, end, &tl_location_delta)) {
        return KeyError(i, "truncated TL entry");
      }
      if (time < 0 || time > kMaxI32) {
        return KeyError(i, "TL time " + std::to_string(time) +
                               " out of range");
      }
      const std::int64_t tl_location = prev_tl_location + tl_location_delta;
      // TL lists are sorted by location with no duplicates (location_node.h
      // invariant), so each decoded location must strictly exceed the last;
      // the first must simply be a valid id.
      const std::int64_t floor = d == 0 ? 0 : prev_tl_location + 1;
      if (tl_location < floor || tl_location > kMaxI32) {
        return KeyError(i, "TL location " + std::to_string(tl_location) +
                               " breaks sorted order");
      }
      prev_tl_location = tl_location;
      tl[static_cast<std::size_t>(d)] =
          Departure{static_cast<Timestamp>(time),
                    static_cast<LocationId>(tl_location)};
    }
    visit(i, static_cast<LocationId>(location), static_cast<Timestamp>(delta),
          std::span<const Departure>(tl.data(),
                                     static_cast<std::size_t>(tl_count)));
  }
  if (cursor != end) {
    return internal_blob::KeySectionError(
        std::to_string(end - cursor) + " trailing bytes after the last key");
  }
  return Status::Ok();
}

/// Runs ParseAndVerifyBlob and then decodes + validates every section:
/// layer offsets (start at 0, strictly increase, end at num_nodes), node
/// keys (WalkKeys: field ranges, sorted TL lists, exact section
/// consumption), CSR
/// edge rows (start at 0, monotone, end at num_edges, empty exactly on the
/// last layer) and edge targets (each lands in its source's next layer).
/// On success the blob is safe to expose through bounds-trusting accessors.
///
/// While simd::VectorKernelsActive(), the KEYS and EDGETGT sections first
/// go through the fast decoders above. If either declines, the scalar
/// decoders run from the start, so the result — arrays, verdict and
/// message — is always the scalar decoders'.
Result<BlobContents> ParseBlobContents(
    const unsigned char* data, std::size_t size,
    SectionChecks checks = SectionChecks::kAll);

}  // namespace rfidclean::store

#endif  // RFIDCLEAN_STORE_BLOB_LAYOUT_H_
