// The one translation unit built with -mavx2 (and -ffp-contract=off; see
// src/common/CMakeLists.txt). Every function here implements the numerical
// contract stated in simd.h bit-for-bit against its scalar reference: the
// blocked sums keep one 4-wide accumulator whose lanes match the scalar
// lane assignment i & 3 (the main loop ends on a multiple of 4, so tail
// element i lands in lane i & 3 exactly like the scalar loop), and the
// elementwise kernel is one IEEE divide per element with no contraction.
// Excluded entirely from -DRFIDCLEAN_SIMD=OFF builds — CI asserts with
// `nm` that no *Avx2 symbol survives there.

#include "common/simd.h"

#if RFIDCLEAN_SIMD_ENABLED

#include <immintrin.h>

namespace rfidclean::simd::internal {

static_assert(sizeof(std::size_t) == 8,
              "hash gathers assume 64-bit std::size_t");

double BlockedSumAvx2(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  for (std::size_t j = 0; i + j < n; ++j) lanes[j] += x[i + j];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

void DivideInPlaceAvx2(double* x, std::size_t n, double divisor) {
  const __m256d d = _mm256_set1_pd(divisor);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_div_pd(_mm256_loadu_pd(x + i), d));
  }
  for (; i < n; ++i) x[i] /= divisor;
}

ProbeGroupMasks ScanProbeGroupAvx2(const std::int32_t* slots,
                                   const std::size_t* hashes,
                                   std::size_t target_hash) {
  static_assert(kProbeGroupWidth == 8, "one 8-lane epi32 load per group");
  const __m256i ids =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(slots));
  const __m256i minus_one = _mm256_set1_epi32(-1);
  const __m256i empty_v = _mm256_cmpeq_epi32(ids, minus_one);
  const std::uint32_t empty = static_cast<std::uint32_t>(
      _mm256_movemask_ps(_mm256_castsi256_ps(empty_v)));

  // Gather hashes_[id] for the occupied lanes (two masked 4-wide 64-bit
  // gathers; masked-out lanes never touch memory, so the -1 ids are safe).
  const __m128i lo = _mm256_castsi256_si128(ids);
  const __m128i hi = _mm256_extracti128_si256(ids, 1);
  const __m128i m1_128 = _mm_set1_epi32(-1);
  const __m256i valid_lo =
      _mm256_cvtepi32_epi64(_mm_cmpgt_epi32(lo, m1_128));
  const __m256i valid_hi =
      _mm256_cvtepi32_epi64(_mm_cmpgt_epi32(hi, m1_128));
  const long long* base = reinterpret_cast<const long long*>(hashes);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i g_lo = _mm256_mask_i64gather_epi64(
      zero, base, _mm256_cvtepi32_epi64(lo), valid_lo, 8);
  const __m256i g_hi = _mm256_mask_i64gather_epi64(
      zero, base, _mm256_cvtepi32_epi64(hi), valid_hi, 8);
  const __m256i target =
      _mm256_set1_epi64x(static_cast<long long>(target_hash));
  const std::uint32_t match_lo = static_cast<std::uint32_t>(
      _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(g_lo,
                                                                target))));
  const std::uint32_t match_hi = static_cast<std::uint32_t>(
      _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(g_hi,
                                                                target))));
  ProbeGroupMasks masks;
  masks.empty = empty;
  // Empty lanes gathered the masked-in default 0, which would spuriously
  // "match" a zero target hash — they are not matches by definition.
  masks.match = (match_lo | (match_hi << 4)) & ~empty;
  return masks;
}

}  // namespace rfidclean::simd::internal

#endif  // RFIDCLEAN_SIMD_ENABLED
