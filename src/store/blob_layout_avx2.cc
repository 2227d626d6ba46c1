// Fast decoders of the KEYS and EDGETGT sections, built with -mavx2 (see
// src/store/CMakeLists.txt) and excluded entirely from
// -DRFIDCLEAN_SIMD=OFF builds — CI asserts with `nm` that no *Avx2 symbol
// survives there. ParseBlobContents calls them only while
// simd::VectorKernelsActive(). They only ever accept: each check here is
// one that WalkKeys, DecodeEdgeTargets or ParseBlobContents' EDGEROWS
// scan makes, restated over values the varint kernel decoded in bulk, and
// anything that fails a check or that they do not handle makes them
// return false. ParseBlobContents then runs
// the scalar decoders from the start, so every verdict and every message
// is theirs (docs/ALGORITHM.md §12).
//
// Nothing here calls an inline function or template shared with other
// translation units: a copy compiled with -mavx2 could otherwise be the
// one the linker keeps.

#include <cstring>
#include <limits>

#include "common/varint.h"
#include "store/blob_layout.h"

#if RFIDCLEAN_SIMD_ENABLED

#include <immintrin.h>

namespace rfidclean::store::internal_blob {

namespace {

/// Values decoded per kernel call: 8 KiB of scratch, well inside L1.
constexpr std::size_t kChunkValues = 2048;
/// A node's key and a TL list of up to three entries: the node step reads
/// this many values at once.
constexpr std::size_t kNodeValues = 9;

constexpr std::int64_t kMaxI32 = std::numeric_limits<std::int32_t>::max();

inline std::uint32_t Le32(const unsigned char* p) {
  std::uint32_t value = 0;
  std::memcpy(&value, p, sizeof value);  // x86-64: little-endian
  return value;
}

inline std::int64_t Unzigzag(std::uint32_t value) {
  return static_cast<std::int64_t>(value >> 1) ^
         -static_cast<std::int64_t>(value & 1u);
}

/// The TL check for lists of at most three entries, over the eight values
/// after a node's key: entry d is a zigzag time in lane 2d and a zigzag
/// location delta in lane 2d+1. With every value below 2^32,
///   a time is in [0, INT32_MAX] iff its zigzag is even;
///   the first location is >= 0 iff its zigzag is even;
///   a later location strictly increases iff its zigzag delta is even and
///   nonzero, i.e. iff the zigzag minus 2 is even and does not wrap;
///   and the last location, the largest, is at most INT32_MAX whenever no
///   location lane (after that minus 2) reaches 2^30: three deltas of at
///   most 2^29 each.
/// So once 2 is subtracted from lanes 3 and 5, a list of c entries passes
/// iff no lane has a bit of kShortTlMustClear.must_clear[c] set. A list
/// that fails goes to the exact check, which decides the rare
/// large-location case.
struct ShortTlMasks {
  alignas(32) std::uint32_t must_clear[4][8];
};

constexpr ShortTlMasks MakeShortTlMasks() {
  ShortTlMasks masks{};
  for (int count = 0; count <= 3; ++count) {
    for (int d = 0; d < count; ++d) {
      masks.must_clear[count][2 * d] = 1u;
      masks.must_clear[count][2 * d + 1] = 0xC0000001u;
    }
  }
  return masks;
}

constexpr ShortTlMasks kShortTlMustClear = MakeShortTlMasks();

/// WalkKeys' TL checks, exactly, over `count` entries at `values`. Out of
/// line, like Refill: both are off the per-node path, which then keeps
/// its state in registers.
[[gnu::noinline]] bool TlListValid(const std::uint32_t* values,
                                   std::uint64_t count) {
  std::int64_t prev = 0;
  for (std::uint64_t d = 0; d < count; ++d) {
    if ((values[2 * d] & 1u) != 0) return false;  // time < 0
    const std::int64_t location = prev + Unzigzag(values[2 * d + 1]);
    const std::int64_t floor = d == 0 ? 0 : prev + 1;
    if (location < floor || location > kMaxI32) return false;
    prev = location;
  }
  return true;
}

/// The decoded values buffer[0, avail) of a refilled chunk, and where
/// decoding goes on.
struct Chunk {
  std::size_t avail;
  const unsigned char* cursor;
};

/// Moves the unread values buffer[pos, avail) to the front and decodes up
/// to a full chunk of values from `cursor` after them.
[[gnu::noinline]] Chunk Refill(std::uint32_t* buffer, std::size_t pos,
                               std::size_t avail, const unsigned char* cursor,
                               const unsigned char* end) {
  std::memmove(buffer, buffer + pos, (avail - pos) * sizeof buffer[0]);
  avail -= pos;
  const VarintRun run = rfidclean::internal::DecodeVarintsAvx2(
      cursor, static_cast<std::size_t>(end - cursor), buffer + avail,
      kChunkValues - avail);
  return Chunk{avail + run.count, cursor + run.bytes};
}

/// Whether the CSR row offsets have the shape ParseBlobContents and
/// DecodeEdgeTargets demand: they increase strictly through the nodes
/// before the target layer (monotone, and every non-target node has an
/// edge) and stay flat over it (no target node has one).
bool RowsHaveCsrShape(const unsigned char* rows, std::size_t target_begin,
                      std::size_t num_nodes) {
  const auto lanes = [rows](std::size_t i) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + 4 * i));
  };
  __m256i bad = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= target_begin; i += 8) {
    // next <= row as unsigned: min(next, row) == next.
    const __m256i next = lanes(i + 1);
    bad = _mm256_or_si256(
        bad, _mm256_cmpeq_epi32(_mm256_min_epu32(next, lanes(i)), next));
  }
  for (; i < target_begin; ++i) {
    if (Le32(rows + 4 * i + 4) <= Le32(rows + 4 * i)) return false;
  }
  for (; i + 8 <= num_nodes; i += 8) {
    bad = _mm256_or_si256(bad, _mm256_xor_si256(lanes(i + 1), lanes(i)));
  }
  for (; i < num_nodes; ++i) {
    if (Le32(rows + 4 * i + 4) != Le32(rows + 4 * i)) return false;
  }
  return _mm256_testz_si256(bad, bad);
}

/// Turns the zigzag deltas out[begin, end) into running targets that
/// continue from *prev, and leaves the last one there. Returns the largest
/// target - next_begin (as unsigned differences). Eight at a time: a
/// prefix sum within each 128-bit half, the low half's total added to the
/// high half, and the running target carried in from the previous eight.
std::uint32_t RunningTargets(std::uint32_t* out, std::uint32_t begin,
                             std::uint32_t end, std::uint32_t next_begin,
                             std::uint32_t* prev) {
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i base = _mm256_set1_epi32(static_cast<int>(next_begin));
  const __m256i last_lane = _mm256_set1_epi32(7);
  __m256i carry = _mm256_set1_epi32(static_cast<int>(*prev));
  __m256i worst = _mm256_setzero_si256();
  std::uint32_t e = begin;
  for (; end - e >= 8; e += 8) {
    __m256i* at = reinterpret_cast<__m256i*>(out + e);
    const __m256i zigzag = _mm256_loadu_si256(at);
    __m256i sum = _mm256_xor_si256(
        _mm256_srli_epi32(zigzag, 1),
        _mm256_sub_epi32(_mm256_setzero_si256(),
                         _mm256_and_si256(zigzag, one)));
    sum = _mm256_add_epi32(sum, _mm256_slli_si256(sum, 4));
    sum = _mm256_add_epi32(sum, _mm256_slli_si256(sum, 8));
    const __m256i half_total = _mm256_shuffle_epi32(sum, 0xFF);
    sum = _mm256_add_epi32(
        sum, _mm256_permute2x128_si256(half_total, half_total, 0x08));
    sum = _mm256_add_epi32(sum, carry);
    _mm256_storeu_si256(at, sum);
    worst = _mm256_max_epu32(worst, _mm256_sub_epi32(sum, base));
    carry = _mm256_permutevar8x32_epi32(sum, last_lane);
  }
  worst = _mm256_max_epu32(worst, _mm256_shuffle_epi32(worst, 0x4E));
  worst = _mm256_max_epu32(worst, _mm256_shuffle_epi32(worst, 0xB1));
  worst = _mm256_max_epu32(worst,
                           _mm256_permute2x128_si256(worst, worst, 0x01));
  std::uint32_t target =
      static_cast<std::uint32_t>(_mm256_cvtsi256_si32(carry));
  std::uint32_t largest =
      static_cast<std::uint32_t>(_mm256_cvtsi256_si32(worst));
  for (; e < end; ++e) {
    target += (out[e] >> 1) ^ (0u - (out[e] & 1u));
    out[e] = target;
    const std::uint32_t offset = target - next_begin;
    largest = offset > largest ? offset : largest;
  }
  *prev = target;
  return largest;
}

}  // namespace

bool DecodeKeysAvx2(const unsigned char* keys, std::size_t size,
                    std::uint64_t num_nodes, LocationId* locations,
                    std::uint64_t* num_departures) {
  if (size / 2 > std::uint64_t{0xFFFFFFFEu}) return false;
  alignas(32) std::uint32_t buffer[kChunkValues + 8] = {};
  std::size_t pos = 0;
  std::size_t avail = 0;
  const unsigned char* cursor = keys;
  const unsigned char* const end = keys + size;

  const __m256i later_location_bias = _mm256_setr_epi32(0, 0, 0, 2, 0, 2, 0, 0);
  std::int64_t prev_location = 0;
  std::uint64_t departures = 0;
  for (std::uint64_t i = 0; i < num_nodes; ++i) {
    if (avail - pos < kNodeValues) {
      if (cursor != end) {
        const Chunk chunk = Refill(buffer, pos, avail, cursor, end);
        avail = chunk.avail;
        cursor = chunk.cursor;
        pos = 0;
      }
      if (avail - pos < 3) return false;
    }
    const std::uint32_t* key = buffer + pos;
    const std::int64_t location = prev_location + Unzigzag(key[0]);
    if (static_cast<std::uint64_t>(location) > kMaxI32) return false;
    if (Unzigzag(key[1]) < kDeltaBottom) return false;
    const std::uint64_t count = key[2];
    std::size_t have = avail - pos - 3;
    if (count <= 3 && 2 * count <= have) {
      // The eight lanes may run past `avail` into the buffer's padding;
      // the mask ignores every lane past the list.
      const __m256i tl = _mm256_sub_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(key + 3)),
          later_location_bias);
      if (!_mm256_testz_si256(
              tl, _mm256_load_si256(reinterpret_cast<const __m256i*>(
                      kShortTlMustClear.must_clear[count]))) &&
          !TlListValid(key + 3, count)) {
        return false;
      }
    } else {
      if (2 * count > have) {
        if (count > (kChunkValues - 3) / 2 || cursor == end) return false;
        const Chunk chunk = Refill(buffer, pos, avail, cursor, end);
        avail = chunk.avail;
        cursor = chunk.cursor;
        pos = 0;
        key = buffer;
        have = avail - 3;
        if (2 * count > have) return false;
      }
      if (!TlListValid(key + 3, count)) return false;
    }
    locations[i] = static_cast<LocationId>(location);
    prev_location = location;
    departures += count;
    pos += 3 + 2 * static_cast<std::size_t>(count);
  }
  *num_departures = departures;
  return pos == avail && cursor == end;
}

bool DecodeEdgeTargetsAvx2(const unsigned char* section, std::size_t size,
                           const unsigned char* layer_begin,
                           std::int32_t length,
                           const unsigned char* edge_rows,
                           std::uint64_t num_edges, NodeId* targets) {
  const auto layer = [&](std::int32_t t) {
    return Le32(layer_begin + 4 * static_cast<std::size_t>(t));
  };
  const auto row = [&](std::uint32_t node) {
    return Le32(edge_rows + 4 * static_cast<std::size_t>(node));
  };
  const std::uint32_t num_nodes = layer(length);
  if (row(num_nodes) != num_edges ||
      !RowsHaveCsrShape(edge_rows, layer(length - 1), num_nodes)) {
    return false;
  }

  // Zigzag deltas decode into `targets` a chunk at a time and turn into
  // ids there, with one running target across the section. Each layer's
  // targets must land in the next layer: as unsigned differences, every
  // to - next_begin must stay below the next layer's width. While every
  // id stays below 2^31 that way, the 32-bit wrapping sum equals the
  // scalar decoder's 64-bit one.
  std::uint32_t* out = reinterpret_cast<std::uint32_t*>(targets);
  const unsigned char* cursor = section;
  const unsigned char* const end = section + size;
  std::uint32_t prev = 0;
  std::int32_t t = 0;
  std::uint32_t e = 0;
  while (e < num_edges) {
    const VarintRun run = rfidclean::internal::DecodeVarintsAvx2(
        cursor, static_cast<std::size_t>(end - cursor), out + e,
        num_edges - e < kChunkValues ? num_edges - e : kChunkValues);
    if (run.count == 0) return false;
    cursor += run.bytes;
    const std::uint32_t chunk_end = e + static_cast<std::uint32_t>(run.count);
    while (e < chunk_end) {
      while (e >= row(layer(t + 1))) ++t;
      const std::uint32_t next_begin = layer(t + 1);
      const std::uint32_t next_width = layer(t + 2) - next_begin;
      const std::uint32_t stop =
          chunk_end < row(next_begin) ? chunk_end : row(next_begin);
      if (RunningTargets(out, e, stop, next_begin, &prev) >= next_width) {
        return false;
      }
      e = stop;
    }
  }
  return cursor == end;
}

}  // namespace rfidclean::store::internal_blob

#endif  // RFIDCLEAN_SIMD_ENABLED
