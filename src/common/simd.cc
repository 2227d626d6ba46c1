#include "common/simd.h"

namespace rfidclean::simd {

namespace internal {

#if RFIDCLEAN_SIMD_ENABLED
const bool g_cpu_vector_ok = __builtin_cpu_supports("avx2");
bool g_force_scalar = false;
#endif

double BlockedSumScalar(const double* x, std::size_t n) {
  return BlockedSum4(x, n);
}

void DivideInPlaceScalar(double* x, std::size_t n, double divisor) {
  for (std::size_t i = 0; i < n; ++i) x[i] /= divisor;
}

ProbeGroupMasks ScanProbeGroupScalar(const std::int32_t* slots,
                                     const std::size_t* hashes,
                                     std::size_t target_hash) {
  ProbeGroupMasks masks;
  for (std::size_t j = 0; j < kProbeGroupWidth; ++j) {
    const std::int32_t id = slots[j];
    if (id < 0) {
      masks.empty |= 1u << j;
    } else if (hashes[static_cast<std::size_t>(id)] == target_hash) {
      masks.match |= 1u << j;
    }
  }
  return masks;
}

}  // namespace internal

void ForceScalarForTesting(bool force) {
#if RFIDCLEAN_SIMD_ENABLED
  internal::g_force_scalar = force;
#else
  (void)force;
#endif
}

double BlockedSum(const double* x, std::size_t n) {
#if RFIDCLEAN_SIMD_ENABLED
  if (VectorKernelsActive()) return internal::BlockedSumAvx2(x, n);
#endif
  return internal::BlockedSumScalar(x, n);
}

void DivideInPlace(double* x, std::size_t n, double divisor) {
#if RFIDCLEAN_SIMD_ENABLED
  if (VectorKernelsActive()) {
    internal::DivideInPlaceAvx2(x, n, divisor);
    return;
  }
#endif
  internal::DivideInPlaceScalar(x, n, divisor);
}

ProbeGroupMasks ScanProbeGroup(const std::int32_t* slots,
                               const std::size_t* hashes,
                               std::size_t target_hash) {
#if RFIDCLEAN_SIMD_ENABLED
  if (VectorKernelsActive()) {
    return internal::ScanProbeGroupAvx2(slots, hashes, target_hash);
  }
#endif
  return internal::ScanProbeGroupScalar(slots, hashes, target_hash);
}

}  // namespace rfidclean::simd
