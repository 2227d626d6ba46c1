#include "common/crc32.h"

#include <array>

namespace rfidclean {

namespace {

// Slicing-by-8 [Kounavis & Berry]: kTables[0] is the classic byte-at-a-time
// table; kTables[k][i] advances the CRC of byte i through k further zero
// bytes, so eight table lookups consume eight input bytes per iteration
// with no dependent-shift chain between them. The produced CRC is
// bit-identical to the byte-at-a-time loop for every input.
constexpr std::array<std::array<std::uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kCrc32Polynomial : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kTables =
    MakeTables();

// Little-endian 32-bit load composed from bytes (endian-stable; compiles
// to a plain load on LE hosts).
inline std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

namespace internal {

#if RFIDCLEAN_SIMD_ENABLED
const bool g_cpu_clmul_ok = __builtin_cpu_supports("pclmul");
#endif

std::uint32_t Crc32Scalar(const void* data, std::size_t size,
                          std::uint32_t seed) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  while (size >= 8) {
    const std::uint32_t lo = crc ^ LoadLe32(bytes);
    const std::uint32_t hi = LoadLe32(bytes + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    bytes += 8;
    size -= 8;
  }
  for (std::size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ bytes[i]) & 0xFFu];
  }
  return ~crc;
}

}  // namespace internal

bool Crc32KernelActive() {
#if RFIDCLEAN_SIMD_ENABLED
  return internal::g_cpu_clmul_ok && !simd::internal::g_force_scalar;
#else
  return false;
#endif
}

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed) {
#if RFIDCLEAN_SIMD_ENABLED
  if (size >= 64 && Crc32KernelActive()) {
    // The kernel folds whole 16-byte blocks; the seed chains the tail.
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    const std::size_t folded = size & ~std::size_t{15};
    return internal::Crc32Scalar(
        bytes + folded, size - folded,
        internal::Crc32FoldPclmul(bytes, folded, seed));
  }
#endif
  return internal::Crc32Scalar(data, size, seed);
}

}  // namespace rfidclean
