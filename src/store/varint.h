#ifndef RFIDCLEAN_STORE_VARINT_H_
#define RFIDCLEAN_STORE_VARINT_H_

#include <bit>
#include <cstddef>
#include <cstdint>

/// \file
/// LEB128 varints and zigzag-mapped signed varints, the compression
/// primitives of the binary ct-graph sections (docs/FORMATS.md): node keys
/// are delta-encoded and edge targets are stored as zigzag deltas, so the
/// common "next id is close to the previous one" case costs one byte.
/// Decoders are bounds- and overflow-checked — they are fuzz targets
/// (fuzz/store_blob_fuzz.cc) and must reject any malformed byte stream
/// instead of reading past `end` or invoking UB.

namespace rfidclean::store {

/// Bytes the LEB128 encoding of `value` takes (1..10).
inline std::size_t VarintSize(std::uint64_t value) {
  if (value < 0x80u) return 1;  // the delta-coded common case
  return (static_cast<std::size_t>(std::bit_width(value)) + 6) / 7;
}

/// Writes `value` as an LEB128 varint at `out`, which must have room for
/// VarintSize(value) bytes; returns the byte past it.
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

}  // namespace rfidclean::store

#endif  // RFIDCLEAN_STORE_VARINT_H_
