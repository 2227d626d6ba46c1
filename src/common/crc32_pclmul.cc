// The one translation unit built with -mpclmul (see
// src/common/CMakeLists.txt): CRC-32 by carry-less-multiply folding, after
// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction" (Intel, 2009). Four 128-bit lanes fold forward
// 512 bits per step, collapse into one lane, and a Barrett reduction takes
// the last 64 bits to the 32-bit remainder. Every constant is derived from
// kCrc32Polynomial at compile time. The result equals the slicing-by-8
// reference for every input (tests/simd_kernel_test.cc). Excluded entirely
// from -DRFIDCLEAN_SIMD=OFF builds — CI asserts with `nm` that no *Pclmul
// symbol survives there.

#include "common/crc32.h"

#if RFIDCLEAN_SIMD_ENABLED

#include <immintrin.h>

namespace rfidclean::internal {

namespace {

// Polynomials here are in the CRC's bit-reflected form: bit k of a w-bit
// value is the coefficient of x^(w-1-k), so multiplying by x is a right
// shift, and the x^32 that falls off bit 0 reduces through the polynomial.

/// x^n mod P(x), reflected in 32 bits.
constexpr std::uint32_t XPowModP(int n) {
  std::uint32_t r = 0x80000000u;  // x^0
  for (int i = 0; i < n; ++i) {
    r = (r >> 1) ^ ((r & 1u) != 0 ? kCrc32Polynomial : 0u);
  }
  return r;
}

/// Folding constant x^n mod P, reflected in 33 bits. A carry-less product
/// of a reflected 64-bit lane and a reflected 33-bit constant is a
/// reflected 96-bit value, which lines up with a 128-bit lane 32 bits
/// further on; so a 64-bit half that must advance by d bits takes the
/// constant for d - 32.
constexpr std::uint64_t FoldConstant(int n) {
  return static_cast<std::uint64_t>(XPowModP(n)) << 1;
}

/// floor(x^64 / P(x)), the Barrett quotient, reflected in 33 bits.
constexpr std::uint64_t BarrettQuotient() {
  // P(x) in plain bit order (bit k = coefficient of x^k), x^32 included.
  std::uint64_t poly = std::uint64_t{1} << 32;
  for (int k = 0; k < 32; ++k) {
    poly |= static_cast<std::uint64_t>((kCrc32Polynomial >> k) & 1u)
            << (31 - k);
  }
  // Long division of x^64, one dividend coefficient per step from x^64
  // down; a quotient bit is set whenever the remainder reaches degree 32.
  std::uint64_t remainder = 0;
  std::uint64_t quotient = 0;
  for (int degree = 64; degree >= 0; --degree) {
    remainder = (remainder << 1) | (degree == 64 ? 1u : 0u);
    quotient <<= 1;
    if ((remainder >> 32) != 0) {
      remainder ^= poly;
      quotient |= 1u;
    }
  }
  std::uint64_t reflected = 0;
  for (int k = 0; k <= 32; ++k) {
    reflected |= ((quotient >> k) & 1u) << (32 - k);
  }
  return reflected;
}

// A 128-bit lane holds the higher-degree 64-bit half in its low qword. To
// advance the lane by D bits, the low half moves D + 64 bits and the high
// half D bits, i.e. constants x^(D+32) and x^(D-32).
constexpr std::uint64_t kFold512Low = FoldConstant(512 + 32);
constexpr std::uint64_t kFold512High = FoldConstant(512 - 32);
constexpr std::uint64_t kFold128Low = FoldConstant(128 + 32);
constexpr std::uint64_t kFold128High = FoldConstant(128 - 32);
constexpr std::uint64_t kFold64 = FoldConstant(64);
/// P(x) reflected in 33 bits (the x^32 term is bit 0).
constexpr std::uint64_t kPolynomial33 =
    (static_cast<std::uint64_t>(kCrc32Polynomial) << 1) | 1u;
constexpr std::uint64_t kBarrettMu = BarrettQuotient();

inline __m128i Pair(std::uint64_t low, std::uint64_t high) {
  return _mm_set_epi64x(static_cast<long long>(high),
                        static_cast<long long>(low));
}

inline __m128i Load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Advances `lane` by the distance `constants` encode and adds `next`.
inline __m128i Fold(__m128i lane, __m128i constants, __m128i next) {
  const __m128i low = _mm_clmulepi64_si128(lane, constants, 0x00);
  const __m128i high = _mm_clmulepi64_si128(lane, constants, 0x11);
  return _mm_xor_si128(_mm_xor_si128(low, high), next);
}

}  // namespace

std::uint32_t Crc32FoldPclmul(const unsigned char* data, std::size_t size,
                              std::uint32_t seed) {
  const __m128i fold512 = Pair(kFold512Low, kFold512High);
  const __m128i fold128 = Pair(kFold128Low, kFold128High);

  // The CRC register enters as the first 32 message bits' xor.
  __m128i lane0 = _mm_xor_si128(Load(data),
                                _mm_cvtsi32_si128(static_cast<int>(~seed)));
  __m128i lane1 = Load(data + 16);
  __m128i lane2 = Load(data + 32);
  __m128i lane3 = Load(data + 48);
  data += 64;
  size -= 64;
  for (; size >= 64; data += 64, size -= 64) {
    lane0 = Fold(lane0, fold512, Load(data));
    lane1 = Fold(lane1, fold512, Load(data + 16));
    lane2 = Fold(lane2, fold512, Load(data + 32));
    lane3 = Fold(lane3, fold512, Load(data + 48));
  }
  __m128i acc = Fold(lane0, fold128, lane1);
  acc = Fold(acc, fold128, lane2);
  acc = Fold(acc, fold128, lane3);
  for (; size >= 16; data += 16, size -= 16) {
    acc = Fold(acc, fold128, Load(data));
  }

  // The CRC is the message times x^32 mod P. 128 -> 96 bits: with the
  // lane as H·x^64 + L, form L·x^32 + H·(x^96 mod P).
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  acc = _mm_xor_si128(_mm_srli_si128(acc, 8),
                      _mm_clmulepi64_si128(acc, fold128, 0x10));
  // 96 -> 64 bits: the top 32 bits fold through x^64 mod P.
  acc = _mm_xor_si128(
      _mm_srli_si128(acc, 4),
      _mm_clmulepi64_si128(_mm_and_si128(acc, low32),
                           _mm_cvtsi64_si128(static_cast<long long>(kFold64)),
                           0x00));
  // Barrett: q = floor(top32 · mu / x^32); the remainder is acc ⊕ q · P.
  const __m128i barrett = Pair(kPolynomial33, kBarrettMu);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  acc = _mm_xor_si128(acc, q);
  return ~static_cast<std::uint32_t>(
      _mm_cvtsi128_si32(_mm_srli_si128(acc, 4)));
}

}  // namespace rfidclean::internal

#endif  // RFIDCLEAN_SIMD_ENABLED
