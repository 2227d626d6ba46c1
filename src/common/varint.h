#ifndef RFIDCLEAN_COMMON_VARINT_H_
#define RFIDCLEAN_COMMON_VARINT_H_

#include <cstddef>
#include <cstdint>

#include "common/simd.h"

/// \file
/// LEB128 varints and zigzag-mapped signed varints, the compression
/// primitives of the binary ct-graph sections (docs/FORMATS.md): node keys
/// are delta-encoded and edge targets are stored as zigzag deltas, so the
/// common "next id is close to the previous one" case costs one byte.
/// Decoders are bounds- and overflow-checked — they are fuzz targets
/// (fuzz/store_blob_fuzz.cc) and must reject any malformed byte stream
/// instead of reading past `end` or invoking UB.
///
/// DecodeVarints is the bulk decoder behind the store's load path. It is
/// runtime-dispatched like the kernels of common/simd.h: an AVX2 kernel
/// when the build has it and the CPU offers it, otherwise (and under
/// simd::ForceScalarForTesting) a GetVarint loop. Both report the same
/// values, byte counts and stop points for every input; tests compare them
/// exhaustively over short inputs and on random streams.

namespace rfidclean {

/// Writes `value` as an LEB128 varint at `out`, which must have room for
/// its 1 to 10 bytes; returns the byte past it.
inline unsigned char* WriteVarint(unsigned char* out, std::uint64_t value) {
  while (value >= 0x80u) {
    *out++ = static_cast<unsigned char>((value & 0x7Fu) | 0x80u);
    value >>= 7;
  }
  *out++ = static_cast<unsigned char>(value);
  return out;
}

/// Zigzag-maps a signed value (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...) so
/// small-magnitude deltas of either sign encode in one byte.
inline std::uint64_t ZigzagEncode(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

inline std::int64_t ZigzagDecode(std::uint64_t value) {
  return static_cast<std::int64_t>(value >> 1) ^
         -static_cast<std::int64_t>(value & 1u);
}

inline unsigned char* WriteZigzag(unsigned char* out, std::int64_t value) {
  return WriteVarint(out, ZigzagEncode(value));
}

/// Reads one varint from [*cursor, end), advancing *cursor past it. Returns
/// false — without advancing — on truncation or on an encoding longer than
/// 10 bytes (a 64-bit value never needs more; longer means corruption).
inline bool GetVarint(const unsigned char** cursor, const unsigned char* end,
                      std::uint64_t* value) {
  const unsigned char* p = *cursor;
  // Fast path: the sections this file serves are delta-coded, so the
  // overwhelming majority of varints are a single byte.
  if (p != end && *p < 0x80u) {
    *value = *p;
    *cursor = p + 1;
    return true;
  }
  std::uint64_t out = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (p == end) return false;
    const unsigned char byte = *p++;
    out |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) {
      // Reject non-canonical tails that would shift bits off the top.
      if (shift == 63 && (byte & 0x7Eu) != 0) return false;
      *cursor = p;
      *value = out;
      return true;
    }
  }
  return false;
}

inline bool GetZigzag(const unsigned char** cursor, const unsigned char* end,
                      std::int64_t* value) {
  std::uint64_t raw = 0;
  if (!GetVarint(cursor, end, &raw)) return false;
  *value = ZigzagDecode(raw);
  return true;
}

/// What one DecodeVarints call did: it wrote `count` values, decoded from
/// the first `bytes` bytes of its input.
struct VarintRun {
  std::size_t count = 0;
  std::size_t bytes = 0;
};

/// Decodes consecutive varints from [data, data + size) into out[0, count),
/// exactly as repeated GetVarint calls would, and stops at whichever comes
/// first: `max_values` values written, the input consumed, or a varint it
/// does not judge — one that GetVarint rejects (truncated or over 10
/// bytes), one longer than 5 bytes, or one whose value is 2^32 or more.
/// Such a varint is left unconsumed, so a caller tells the three stops
/// apart by `count == max_values`, `bytes == size` and neither. Never
/// reads outside the input or writes outside out[0, max_values).
VarintRun DecodeVarints(const unsigned char* data, std::size_t size,
                        std::uint32_t* out, std::size_t max_values);

namespace internal {

/// The reference: a GetVarint loop. Same contract as DecodeVarints.
VarintRun DecodeVarintsScalar(const unsigned char* data, std::size_t size,
                              std::uint32_t* out, std::size_t max_values);

#if RFIDCLEAN_SIMD_ENABLED
/// Implemented in varint_avx2.cc (built with -mavx2); absent from SIMD-off
/// binaries, which CI verifies with nm. Same contract as DecodeVarints.
VarintRun DecodeVarintsAvx2(const unsigned char* data, std::size_t size,
                            std::uint32_t* out, std::size_t max_values);
#endif

}  // namespace internal

}  // namespace rfidclean

#endif  // RFIDCLEAN_COMMON_VARINT_H_
