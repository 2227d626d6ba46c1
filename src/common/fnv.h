#ifndef RFIDCLEAN_COMMON_FNV_H_
#define RFIDCLEAN_COMMON_FNV_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

/// \file
/// 64-bit FNV-1a hashing, the project's standard content digest (bench
/// result digests, trace provenance). Stable across platforms and runs —
/// no seeding, no pointer hashing; callers feed explicit bytes or values.
/// The value mixers hash each value as its 8 little-endian bytes on every
/// host.

namespace rfidclean {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

namespace internal {

/// kFnvPrimePowers[k] = kFnvPrime^k mod 2^64, for k in [0, 8].
inline constexpr std::array<std::uint64_t, 9> kFnvPrimePowers = [] {
  std::array<std::uint64_t, 9> powers{};
  powers[0] = 1;
  for (std::size_t k = 1; k < powers.size(); ++k) {
    powers[k] = powers[k - 1] * kFnvPrime;
  }
  return powers;
}();

}  // namespace internal

/// Incremental FNV-1a digest.
class Fnv64 {
 public:
  void Mix(const void* data, std::size_t size) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= kFnvPrime;
    }
  }

  /// Mixes `value` as 8 little-endian bytes. An FNV-1a step on a zero
  /// byte is a bare multiply by the prime, so the zero bytes below the
  /// lowest and above the highest nonzero byte fold into one multiply by
  /// a prime power each: a small integer costs one or two xor-multiply
  /// steps instead of eight. The result is exactly the byte-at-a-time
  /// digest.
  constexpr void MixU64(std::uint64_t value) {
    using internal::kFnvPrimePowers;
    // Most mixed values are small integers; these two paths skip the
    // bit counting below.
    if (value < 0x100) {
      hash_ = (hash_ ^ value) * kFnvPrimePowers[8];
      return;
    }
    if (value < 0x10000) {
      const std::uint64_t hash = (hash_ ^ (value & 0xFFu)) * kFnvPrime;
      hash_ = (hash ^ (value >> 8)) * kFnvPrimePowers[7];
      return;
    }
    const int low_zeros = std::countr_zero(value) / 8;
    const int high_zeros = std::countl_zero(value) / 8;
    std::uint64_t hash = hash_;
    if (low_zeros != 0) hash *= kFnvPrimePowers[low_zeros];
    value >>= 8 * low_zeros;
    for (int i = low_zeros; i < 7 - high_zeros; ++i) {
      hash ^= value & 0xFFu;
      hash *= kFnvPrime;
      value >>= 8;
    }
    // The highest nonzero byte's own multiply joins the run above it.
    hash ^= value;
    hash_ = hash * kFnvPrimePowers[1 + high_zeros];
  }

  constexpr void MixI64(std::int64_t value) {
    MixU64(static_cast<std::uint64_t>(value));
  }

  /// Mixes the IEEE-754 bit pattern, so digests are exact (no epsilon).
  constexpr void MixDouble(double value) {
    MixU64(std::bit_cast<std::uint64_t>(value));
  }

  constexpr std::uint64_t Digest() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffsetBasis;
};

}  // namespace rfidclean

#endif  // RFIDCLEAN_COMMON_FNV_H_
