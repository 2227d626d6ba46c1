// The bulk varint kernel, built with -mavx2 (see src/common/CMakeLists.txt)
// and excluded entirely from -DRFIDCLEAN_SIMD=OFF builds — CI asserts with
// `nm` that no *Avx2 symbol survives there. It returns exactly what the
// GetVarint loop of varint.cc returns for every input
// (tests/simd_kernel_test.cc): the same values, the same byte count and
// the same stop point.
//
// The sections it serves are delta-coded, so almost every varint is one
// or two bytes long. The fast lane decodes a 16-byte block of such
// varints at once: a continuation bit on two adjacent bytes would start a
// varint of three bytes or more, so a block without that pattern holds
// only 1- and 2-byte varints. Every byte without a continuation bit ends
// one. Widened to 16-bit lanes, an end byte's value is the byte itself, or
// the byte shifted up 7 bits with the low 7 bits of the previous byte
// folded in when that byte carries a continuation bit. A 256-entry pshufb
// table left-packs the end lanes of each 8-lane half, and the packed
// values widen to 32 bits. A varint of three bytes or more, the last bytes
// of the input and the last values before `max_values` go through a
// scalar step that decodes one varint in place.

#include "common/varint.h"

#if RFIDCLEAN_SIMD_ENABLED

#include <immintrin.h>

namespace rfidclean::internal {

namespace {

/// kPackTable.control[m] is the pshufb control that moves the 16-bit lanes
/// whose bits are set in m to the front of a register, in lane order.
struct PackTable {
  alignas(16) unsigned char control[256][16];
};

constexpr PackTable MakePackTable() {
  PackTable table{};
  for (int mask = 0; mask < 256; ++mask) {
    int packed = 0;
    for (int lane = 0; lane < 8; ++lane) {
      if ((mask >> lane & 1) == 0) continue;
      table.control[mask][2 * packed] = static_cast<unsigned char>(2 * lane);
      table.control[mask][2 * packed + 1] =
          static_cast<unsigned char>(2 * lane + 1);
      ++packed;
    }
    for (int byte = 2 * packed; byte < 16; ++byte) {
      table.control[mask][byte] = 0x80;  // zero-fill
    }
  }
  return table;
}

constexpr PackTable kPackTable = MakePackTable();

/// Decodes the varint at `p` if it ends within 5 bytes, before `end`, and
/// its value fits 32 bits; returns its length, or 0 to stop.
inline std::size_t DecodeOne(const unsigned char* p, const unsigned char* end,
                             std::uint32_t* value) {
  std::uint32_t out = 0;
  for (int k = 0; k < 5; ++k) {
    if (p + k == end) return 0;
    const std::uint32_t byte = p[k];
    // A fifth byte must end the varint and add at most 4 more bits.
    if (k == 4 && byte >= 0x10u) return 0;
    out |= (byte & 0x7Fu) << (7 * k);
    if (byte < 0x80u) {
      *value = out;
      return static_cast<std::size_t>(k) + 1;
    }
  }
  return 0;
}

/// Writes the lanes of `lanes` selected by `mask` to out[0, popcount) as
/// 32-bit values. Stores 8 values, so out must have room for 8.
inline std::size_t PackHalf(__m128i lanes, unsigned mask, std::uint32_t* out) {
  const __m128i control = _mm_load_si128(
      reinterpret_cast<const __m128i*>(kPackTable.control[mask]));
  const __m128i packed = _mm_shuffle_epi8(lanes, control);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_cvtepu16_epi32(packed));
  return static_cast<std::size_t>(__builtin_popcount(mask));
}

}  // namespace

VarintRun DecodeVarintsAvx2(const unsigned char* data, std::size_t size,
                            std::uint32_t* out, std::size_t max_values) {
  const unsigned char* p = data;
  const unsigned char* const end = data + size;
  const __m256i low7 = _mm256_set1_epi16(0x7F);
  std::size_t count = 0;
  while (count < max_values) {
    if (end - p >= 16 && max_values - count >= 16) {
      const __m128i block =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
      const unsigned cont = static_cast<unsigned>(_mm_movemask_epi8(block));
      // Bit b set: bytes b-1 and b both continue, so a varint of three
      // bytes or more starts at b-1 (byte b-2, if any, ends a varint).
      const unsigned long_start = cont & (cont << 1);
      unsigned ends = ~cont & 0xFFFFu;
      if (long_start != 0) {
        ends &= (1u << (__builtin_ctz(long_start) - 1)) - 1;
      }
      if (ends != 0) {
        const __m256i bytes = _mm256_cvtepu8_epi16(block);
        const __m256i prev = _mm256_cvtepu8_epi16(_mm_slli_si128(block, 1));
        const __m256i folded = _mm256_or_si256(
            _mm256_slli_epi16(bytes, 7), _mm256_and_si256(prev, low7));
        const __m256i values = _mm256_blendv_epi8(
            bytes, folded, _mm256_cmpgt_epi16(prev, low7));
        count += PackHalf(_mm256_castsi256_si128(values), ends & 0xFFu,
                          out + count);
        count += PackHalf(_mm256_extracti128_si256(values, 1), ends >> 8,
                          out + count);
        if (long_start == 0) {
          // The last varint ends at byte 15, or at byte 14 when byte 15
          // starts the next. Reading that from byte 15 alone keeps the
          // block's vector work off the chain from one block to the next.
          p += 16 - (p[15] >> 7);
          continue;
        }
        p += 32 - __builtin_clz(ends);
      }
    } else if (p == end) {
      break;
    }
    const std::size_t length = DecodeOne(p, end, out + count);
    if (length == 0) break;
    ++count;
    p += length;
  }
  return VarintRun{count, static_cast<std::size_t>(p - data)};
}

}  // namespace rfidclean::internal

#endif  // RFIDCLEAN_SIMD_ENABLED
