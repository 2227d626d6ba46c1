#ifndef RFIDCLEAN_COMMON_SIMD_H_
#define RFIDCLEAN_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

/// \file
/// Runtime-dispatched SIMD kernels for the probability hot path.
///
/// Every kernel has one *numerical contract*, stated below, that the scalar
/// and the AVX2 implementations both satisfy bit-for-bit — so the emitted
/// ct-graph is byte-identical whether a build runs the vector unit, the
/// scalar fallback (old CPU, or ForceScalarForTesting), or a binary
/// configured with -DRFIDCLEAN_SIMD=OFF. The differential suite and a CI
/// job enforce this exactly like the trace-off digest gate.
///
/// Reduction contract (docs/ALGORITHM.md §13): sums use a fixed 4-lane
/// blocked reduction. Lane j accumulates the elements with index ≡ j
/// (mod 4) in ascending order, and the lanes combine as
/// (l0 + l1) + (l2 + l3). That is exactly one 4-wide vector accumulator
/// with a lane-aligned tail, so the vector loop reproduces the scalar
/// reference without reassociation. The elementwise kernel (divide) is a
/// single IEEE-754 operation per element and carries no ordering at all.
/// Kernel translation units compile with -ffp-contract=off so no
/// fused-multiply-add can sneak a differently-rounded result in.
///
/// Configure with -DRFIDCLEAN_SIMD=OFF to exclude the vector translation
/// unit entirely (the build defines RFIDCLEAN_SIMD_OFF); the binary then
/// contains zero vector-kernel symbols, which CI checks with `nm`.

#if defined(RFIDCLEAN_SIMD_OFF) || !defined(__x86_64__)
#define RFIDCLEAN_SIMD_ENABLED 0
#else
#define RFIDCLEAN_SIMD_ENABLED 1
#endif

namespace rfidclean::simd {

namespace internal {
#if RFIDCLEAN_SIMD_ENABLED
/// Whether the running CPU offers the vector unit (detected once at load).
extern const bool g_cpu_vector_ok;
/// Test hook: forces every dispatched kernel onto the scalar path.
extern bool g_force_scalar;
#endif
}  // namespace internal

/// Whether this build compiled the vector kernels in (compile-time).
constexpr bool CompiledIn() { return RFIDCLEAN_SIMD_ENABLED != 0; }

/// Whether dispatched kernels currently take the vector path: compiled in,
/// supported by the running CPU, and not forced scalar by a test.
inline bool VectorKernelsActive() {
#if RFIDCLEAN_SIMD_ENABLED
  return internal::g_cpu_vector_ok && !internal::g_force_scalar;
#else
  return false;
#endif
}

/// Routes every dispatched kernel through the scalar reference while
/// `force` is true. Results are bit-identical either way — that is the
/// point: tests flip this to prove it. No-op in SIMD-off builds.
void ForceScalarForTesting(bool force);

/// The canonical blocked reduction (see the file comment). Inline scalar —
/// per-node sums in the backward sweep average ~2 elements, far below any
/// dispatch overhead — and the reference the vector BlockedSum must match.
/// n == 0 returns exactly +0.0.
inline double BlockedSum4(const double* x, std::size_t n) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) lanes[i & 3] += x[i];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

/// Zero-skipping blocked reduction for per-node suffix masses: every term
/// is added to the current lane, but only *nonzero* terms advance the lane
/// cursor. Adding +0.0 to a lane is the identity, so the sum is invariant
/// under inserting exact-zero terms at any position — the property that
/// keeps preflight-pruned and unpruned builds byte-identical (a statically
/// dead edge contributes exactly p·0.0; ALGORITHM.md §11), which a purely
/// positional lane assignment would lose. Terms must be non-negative
/// (probability × mass products always are), so no lane ever holds -0.0.
inline double BlockedSumSkipZero4(const double* x, std::size_t n) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t lane = 0;
  for (std::size_t i = 0; i < n; ++i) {
    lanes[lane & 3] += x[i];
    lane += static_cast<std::size_t>(x[i] != 0.0);
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

/// Dispatched BlockedSum4 for long arrays (layer-wide alpha totals).
double BlockedSum(const double* x, std::size_t n);

/// x[i] /= divisor for i in [0, n). Elementwise IEEE division.
void DivideInPlace(double* x, std::size_t n, double divisor);

/// Slots inspected at once by ScanProbeGroup.
inline constexpr std::size_t kProbeGroupWidth = 8;

/// One batched step of the key arena's linear probe: inspects the
/// kProbeGroupWidth consecutive open-addressing slots at `slots` (id per
/// slot, -1 = empty) and reports, as bitmasks over the group offsets,
/// which slots are empty and which hold an id whose cached hash
/// (`hashes[id]`) equals `target_hash`. The caller walks the combined
/// candidates in ascending offset, preserving the scalar probe's
/// first-empty / first-match semantics and its position-based step count
/// exactly. Purely integer control flow — no effect on any emitted float.
struct ProbeGroupMasks {
  std::uint32_t empty = 0;
  std::uint32_t match = 0;
};
ProbeGroupMasks ScanProbeGroup(const std::int32_t* slots,
                               const std::size_t* hashes,
                               std::size_t target_hash);

namespace internal {

double BlockedSumScalar(const double* x, std::size_t n);
void DivideInPlaceScalar(double* x, std::size_t n, double divisor);
ProbeGroupMasks ScanProbeGroupScalar(const std::int32_t* slots,
                                     const std::size_t* hashes,
                                     std::size_t target_hash);

#if RFIDCLEAN_SIMD_ENABLED
// Implemented in simd_avx2.cc (the only translation unit built with
// -mavx2); absent from SIMD-off binaries, which CI verifies with nm.
double BlockedSumAvx2(const double* x, std::size_t n);
void DivideInPlaceAvx2(double* x, std::size_t n, double divisor);
ProbeGroupMasks ScanProbeGroupAvx2(const std::int32_t* slots,
                                   const std::size_t* hashes,
                                   std::size_t target_hash);
#endif

}  // namespace internal

}  // namespace rfidclean::simd

#endif  // RFIDCLEAN_COMMON_SIMD_H_
