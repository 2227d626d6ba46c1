#ifndef RFIDCLEAN_COMMON_CRC32_H_
#define RFIDCLEAN_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

#include "common/simd.h"

/// \file
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the integrity
/// checksum of the binary ct-store sections (docs/FORMATS.md). Unlike the
/// FNV digests (common/fnv.h), which identify *content* across runs, CRC-32
/// here guards *bytes at rest*: every on-disk section carries one so a
/// flipped bit is a loud decode error instead of a silently wrong
/// probability.
///
/// Crc32 is runtime-dispatched like the kernels of common/simd.h: inputs
/// of 64 bytes or more take a PCLMULQDQ folding kernel when the build has
/// it and the CPU offers it; everything else (and every input under
/// simd::ForceScalarForTesting) takes the slicing-by-8 reference. Both
/// produce the same CRC for every input; tests compare them exhaustively
/// over short lengths and offsets.

namespace rfidclean {

/// The reflected CRC-32 generator polynomial (x^32 implicit).
inline constexpr std::uint32_t kCrc32Polynomial = 0xEDB88320u;

/// CRC-32 of `size` bytes at `data`. `seed` chains partial computations:
/// Crc32(b, n) == Crc32(b + k, n - k, Crc32(b, k)) for any split k.
std::uint32_t Crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

/// Whether Crc32 currently routes long inputs to the folding kernel:
/// compiled in, supported by the running CPU, and not forced scalar.
bool Crc32KernelActive();

namespace internal {

/// The slicing-by-8 reference, always compiled; same contract as Crc32.
std::uint32_t Crc32Scalar(const void* data, std::size_t size,
                          std::uint32_t seed);

#if RFIDCLEAN_SIMD_ENABLED
/// Whether the running CPU offers PCLMULQDQ (detected once at load).
extern const bool g_cpu_clmul_ok;

/// Implemented in crc32_pclmul.cc, the only translation unit built with
/// -mpclmul; absent from SIMD-off binaries, which CI verifies with nm.
/// Same contract as Crc32 for `size` a multiple of 16 and at least 64
/// (the kernel starts from four 16-byte lanes).
std::uint32_t Crc32FoldPclmul(const unsigned char* data, std::size_t size,
                              std::uint32_t seed);
#endif

}  // namespace internal

}  // namespace rfidclean

#endif  // RFIDCLEAN_COMMON_CRC32_H_
