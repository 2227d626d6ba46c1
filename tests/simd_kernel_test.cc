#include "common/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/varint.h"

namespace rfidclean::simd {
namespace {

/// Bitwise double equality: the kernel contract is bit-identity, so NaN
/// payloads, signed zeros, and denormals must all compare exactly.
bool SameBits(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof a);
  std::memcpy(&bb, &b, sizeof b);
  return ba == bb;
}

/// Runs `fn` once on the current dispatch path and once forced scalar, and
/// checks both runs produced bitwise-identical outputs — the core identity
/// the backward sweep's digest stability rests on. On machines without
/// AVX2 (or SIMD-off builds) both runs are scalar and the check is
/// trivially true; CI runs the battery on an AVX2 host.
template <typename Fn>
void ExpectDispatchIdentical(Fn fn) {
  const std::vector<double> vector_path = fn();
  ForceScalarForTesting(true);
  const std::vector<double> scalar_path = fn();
  ForceScalarForTesting(false);
  ASSERT_EQ(vector_path.size(), scalar_path.size());
  for (std::size_t i = 0; i < vector_path.size(); ++i) {
    EXPECT_TRUE(SameBits(vector_path[i], scalar_path[i]))
        << "i=" << i << " vector=" << vector_path[i]
        << " scalar=" << scalar_path[i];
  }
}

/// Test vectors spanning the awkward sizes (empty, single element, one
/// partial lane, exactly 4, tails of every length past a full block) and
/// awkward magnitudes (denormals, huge spreads).
std::vector<double> MakeValues(std::size_t n, std::uint64_t seed) {
  Rng rng(seed, /*stream=*/91);
  std::vector<double> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.UniformInt(0, 5)) {
      case 0: values.push_back(0.0); break;
      case 1: values.push_back(5e-324); break;                 // min denormal
      case 2: values.push_back(1e-200 * 1e-120); break;        // denormal
      case 3: values.push_back(rng.UniformDouble(0.0, 1.0)); break;
      case 4: values.push_back(rng.UniformDouble(0.0, 1e300)); break;
      default: values.push_back(std::numeric_limits<double>::epsilon());
    }
  }
  return values;
}

TEST(BlockedSumTest, MatchesInlineReferenceAtEverySize) {
  for (std::size_t n = 0; n <= 33; ++n) {
    const std::vector<double> x = MakeValues(n, 1000 + n);
    const double reference = BlockedSum4(x.data(), n);
    EXPECT_TRUE(SameBits(BlockedSum(x.data(), n), reference)) << "n=" << n;
    ForceScalarForTesting(true);
    EXPECT_TRUE(SameBits(BlockedSum(x.data(), n), reference)) << "n=" << n;
    ForceScalarForTesting(false);
  }
}

TEST(BlockedSumTest, EmptyInputIsPositiveZero) {
  const double sum = BlockedSum(nullptr, 0);
  EXPECT_EQ(sum, 0.0);
  EXPECT_FALSE(std::signbit(sum));
  EXPECT_EQ(BlockedSum4(nullptr, 0), 0.0);
  EXPECT_EQ(BlockedSumSkipZero4(nullptr, 0), 0.0);
}

TEST(BlockedSumTest, DenormalsSurviveTheLanes) {
  // Denormal sums are where reassociation differences would first show:
  // check the blocked order is honored exactly even at the bottom of the
  // exponent range.
  const std::vector<double> x(9, 5e-324);
  const double expected = BlockedSum4(x.data(), x.size());
  EXPECT_GT(expected, 0.0);
  EXPECT_TRUE(SameBits(BlockedSum(x.data(), x.size()), expected));
}

TEST(BlockedSumSkipZeroTest, InvariantUnderZeroInsertion) {
  // The exact property the backward sweep needs: pruned builds drop edges
  // whose products are +0.0, so the per-node reduction must not change
  // when zeros are struck from (or injected into) the term list.
  const std::vector<double> dense = {0.5, 0.0, 0.25, 0.0, 0.0,
                                     0.125, 0.0625, 0.0, 1e-310};
  std::vector<double> sparse;
  for (double v : dense) {
    if (v != 0.0) sparse.push_back(v);
  }
  EXPECT_TRUE(SameBits(BlockedSumSkipZero4(dense.data(), dense.size()),
                       BlockedSumSkipZero4(sparse.data(), sparse.size())));
  // And with zeros in *different* positions.
  const std::vector<double> shuffled = {0.0, 0.5, 0.25, 0.125, 0.0,
                                        0.0625, 1e-310, 0.0, 0.0};
  EXPECT_TRUE(SameBits(BlockedSumSkipZero4(dense.data(), dense.size()),
                       BlockedSumSkipZero4(shuffled.data(),
                                           shuffled.size())));
  // With no zeros present it degenerates to the positional reduction.
  EXPECT_TRUE(SameBits(BlockedSumSkipZero4(sparse.data(), sparse.size()),
                       BlockedSum4(sparse.data(), sparse.size())));
}

TEST(DivideInPlaceTest, MatchesScalarBitForBit) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                        std::size_t{4}, std::size_t{7}, std::size_t{64},
                        std::size_t{65}}) {
    ExpectDispatchIdentical([n] {
      std::vector<double> x = MakeValues(n, 2000 + n);
      DivideInPlace(x.data(), n, 0.3219);
      return x;
    });
    // Dividing by a denormal (overflow to inf) and by zero must also be
    // the plain IEEE answer on both paths.
    ExpectDispatchIdentical([n] {
      std::vector<double> x = MakeValues(n, 3000 + n);
      DivideInPlace(x.data(), n, 5e-324);
      return x;
    });
  }
}

TEST(ScanProbeGroupTest, ClassifiesEmptyAndMatchingSlots) {
  // Slot layout: ids into `hashes`, -1 = empty. Target hash 0xABCD.
  const std::vector<std::size_t> hashes = {0xABCD, 0x1111, 0xABCD, 0x2222,
                                           0x3333, 0xABCD};
  const std::int32_t slots[kProbeGroupWidth] = {0, -1, 1, 2, -1, 3, 4, 5};
  auto check = [&](const ProbeGroupMasks& masks) {
    EXPECT_EQ(masks.empty, 0b00010010u);
    // Matches: offset 0 (id 0), offset 3 (id 2), offset 7 (id 5); id 1 at
    // offset 2, ids 3/4 at offsets 5/6 have different hashes.
    EXPECT_EQ(masks.match, 0b10001001u);
  };
  check(ScanProbeGroup(slots, hashes.data(), 0xABCD));
  ForceScalarForTesting(true);
  check(ScanProbeGroup(slots, hashes.data(), 0xABCD));
  ForceScalarForTesting(false);
}

TEST(ScanProbeGroupTest, EmptySlotsNeverMatchEvenOnZeroHash) {
  // The vector path gathers a default of 0 for masked (empty) lanes; a
  // zero target hash must not turn those into phantom matches.
  const std::vector<std::size_t> hashes = {0, 42};
  const std::int32_t slots[kProbeGroupWidth] = {-1, -1, -1, -1,
                                                -1, -1, 0, 1};
  auto check = [&](const ProbeGroupMasks& masks) {
    EXPECT_EQ(masks.empty, 0b00111111u);
    EXPECT_EQ(masks.match, 0b01000000u);  // id 0 (hash 0) at offset 6 only
  };
  check(ScanProbeGroup(slots, hashes.data(), 0));
  ForceScalarForTesting(true);
  check(ScanProbeGroup(slots, hashes.data(), 0));
  ForceScalarForTesting(false);
}

TEST(ScanProbeGroupTest, RandomizedAgreementWithScalarReference) {
  Rng rng(123, /*stream=*/93);
  std::vector<std::size_t> hashes(64);
  for (std::size_t& h : hashes) {
    h = static_cast<std::size_t>(rng.UniformInt(0, 7));  // force collisions
  }
  for (int round = 0; round < 200; ++round) {
    std::int32_t slots[kProbeGroupWidth];
    for (std::int32_t& slot : slots) {
      slot = rng.Bernoulli(0.3)
                 ? -1
                 : static_cast<std::int32_t>(rng.UniformInt(0, 63));
    }
    const std::size_t target = static_cast<std::size_t>(rng.UniformInt(0, 7));
    const ProbeGroupMasks dispatched =
        ScanProbeGroup(slots, hashes.data(), target);
    const ProbeGroupMasks reference =
        internal::ScanProbeGroupScalar(slots, hashes.data(), target);
    EXPECT_EQ(dispatched.empty, reference.empty) << "round=" << round;
    EXPECT_EQ(dispatched.match, reference.match) << "round=" << round;
    EXPECT_EQ(dispatched.empty & dispatched.match, 0u);
  }
}

TEST(SimdDispatchTest, ForceScalarToggles) {
  if (!CompiledIn()) {
    EXPECT_FALSE(VectorKernelsActive());
    return;
  }
  const bool active_before = VectorKernelsActive();
  ForceScalarForTesting(true);
  EXPECT_FALSE(VectorKernelsActive());
  ForceScalarForTesting(false);
  EXPECT_EQ(VectorKernelsActive(), active_before);
}

// --- CRC-32 folding kernel ---------------------------------------------------

/// Random bytes with room for every start offset the tests use.
std::vector<unsigned char> MakeBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed, /*stream=*/92);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  }
  return bytes;
}

TEST(Crc32KernelTest, KnownAnswer) {
  // The CRC-32/ISO-HDLC check value.
  const char* check = "123456789";
  EXPECT_EQ(rfidclean::Crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(rfidclean::internal::Crc32Scalar(check, 9, 0), 0xCBF43926u);
}

TEST(Crc32KernelTest, DispatchedMatchesScalarAtEveryLengthAndOffset) {
  const std::vector<unsigned char> bytes = MakeBytes(1024 + 16, 1);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t n = 0; n <= 1024; ++n) {
      const unsigned char* data = bytes.data() + offset;
      for (const std::uint32_t seed : {0u, 0x9E3779B9u}) {
        ASSERT_EQ(rfidclean::Crc32(data, n, seed),
                  rfidclean::internal::Crc32Scalar(data, n, seed))
            << "offset=" << offset << " n=" << n << " seed=" << seed;
      }
    }
  }
}

TEST(Crc32KernelTest, DispatchedMatchesScalarOnRandomLongInputs) {
  const std::vector<unsigned char> bytes = MakeBytes(1 << 17, 2);
  Rng rng(3);
  for (int round = 0; round < 2000; ++round) {
    const std::size_t offset = rng.UniformIndex(64);
    const std::size_t n = rng.UniformIndex(bytes.size() - offset);
    const std::uint32_t seed = rng.NextUint32();
    ASSERT_EQ(rfidclean::Crc32(bytes.data() + offset, n, seed),
              rfidclean::internal::Crc32Scalar(bytes.data() + offset, n, seed))
        << "round=" << round;
  }
}

TEST(Crc32KernelTest, SeedChainsAnySplitOnBothPaths) {
  const std::vector<unsigned char> bytes = MakeBytes(300, 4);
  for (const bool force_scalar : {false, true}) {
    ForceScalarForTesting(force_scalar);
    for (const std::size_t n : {std::size_t{0}, std::size_t{63},
                                std::size_t{64}, std::size_t{65},
                                std::size_t{200}, std::size_t{300}}) {
      const std::uint32_t whole = rfidclean::Crc32(bytes.data(), n);
      for (std::size_t k = 0; k <= n; ++k) {
        ASSERT_EQ(rfidclean::Crc32(bytes.data() + k, n - k,
                                   rfidclean::Crc32(bytes.data(), k)),
                  whole)
            << "force_scalar=" << force_scalar << " n=" << n << " k=" << k;
      }
    }
  }
  ForceScalarForTesting(false);
}

TEST(Crc32KernelTest, ForceScalarTurnsTheKernelOff) {
  const bool active_before = rfidclean::Crc32KernelActive();
  if (!CompiledIn()) {
    EXPECT_FALSE(active_before);
  }
  ForceScalarForTesting(true);
  EXPECT_FALSE(rfidclean::Crc32KernelActive());
  ForceScalarForTesting(false);
  EXPECT_EQ(rfidclean::Crc32KernelActive(), active_before);
}

// --- Bulk varint decoder -----------------------------------------------------

/// Guard values past out[max_values]: the decoder must never write there.
constexpr std::size_t kGuardValues = 16;
constexpr std::uint32_t kGuard = 0xA5A5A5A5u;

/// Decodes [data, data + size) with the dispatched decoder and with the
/// GetVarint reference and checks they agree on the count, the byte count
/// and every value, and that neither wrote past out[max_values).
::testing::AssertionResult SameDecode(const unsigned char* data,
                                      std::size_t size,
                                      std::size_t max_values) {
  std::uint32_t dispatched[300 + kGuardValues];
  std::uint32_t reference[300 + kGuardValues];
  if (max_values > 300) return ::testing::AssertionFailure() << "too many";
  std::fill(dispatched, dispatched + max_values + kGuardValues, kGuard);
  std::fill(reference, reference + max_values + kGuardValues, kGuard);
  const rfidclean::VarintRun got =
      rfidclean::DecodeVarints(data, size, dispatched, max_values);
  const rfidclean::VarintRun want = rfidclean::internal::DecodeVarintsScalar(
      data, size, reference, max_values);
  if (got.count != want.count || got.bytes != want.bytes) {
    return ::testing::AssertionFailure()
           << "size=" << size << " max=" << max_values << ": decoded "
           << got.count << " values from " << got.bytes
           << " bytes, reference " << want.count << " from " << want.bytes;
  }
  for (std::size_t i = 0; i < got.count; ++i) {
    if (dispatched[i] != reference[i]) {
      return ::testing::AssertionFailure()
             << "size=" << size << " value " << i << ": " << dispatched[i]
             << " vs " << reference[i];
    }
  }
  for (std::size_t i = max_values; i < max_values + kGuardValues; ++i) {
    if (dispatched[i] != kGuard || reference[i] != kGuard) {
      return ::testing::AssertionFailure()
             << "size=" << size << " max=" << max_values
             << ": wrote past max_values at " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Appends `value` as a varint padded with `extra` redundant continuation
/// bytes (GetVarint accepts such non-canonical forms).
void AppendVarint(std::vector<unsigned char>* out, std::uint64_t value,
                  int extra) {
  unsigned char bytes[16];
  int n = static_cast<int>(rfidclean::WriteVarint(bytes, value) - bytes);
  for (int k = 0; k < extra; ++k) {
    bytes[n - 1] |= 0x80u;
    bytes[n++] = 0;
  }
  out->insert(out->end(), bytes, bytes + n);
}

TEST(DecodeVarintsTest, MatchesScalarOnEveryInputOfUpToThreeBytes) {
  // Every string of 1 to 3 bytes, so every truncation of a longer one is
  // covered too. Each runs bare, where the scalar step meets it, and ahead
  // of 16 zero bytes, where a 16-byte block holds it.
  unsigned char bytes[3 + 16] = {};
  for (std::size_t length = 1; length <= 3; ++length) {
    const std::uint32_t patterns = 1u << (8 * length);
    for (std::uint32_t pattern = 0; pattern < patterns; ++pattern) {
      for (std::size_t k = 0; k < length; ++k) {
        bytes[k] = static_cast<unsigned char>(pattern >> (8 * k));
      }
      ASSERT_TRUE(SameDecode(bytes, length, 4)) << "pattern " << pattern;
      ASSERT_TRUE(SameDecode(bytes, length + 16, 32))
          << "pattern " << pattern << " + 16 zero bytes";
    }
  }
}

TEST(DecodeVarintsTest, MatchesScalarOnRandomStreamsAtEveryOffsetAndLength) {
  Rng rng(17, /*stream=*/93);
  for (int trial = 0; trial < 48; ++trial) {
    // Trials differ in how often the slow forms appear: mostly 1- and
    // 2-byte varints, then 3- to 5-byte ones, values of 2^32 or more, and
    // encodings longer than 5 or 10 bytes.
    const double slow = trial % 4 == 0 ? 0.0 : 0.02 * (trial % 4);
    std::vector<unsigned char> stream;
    while (stream.size() < 300) {
      const double pick = rng.UniformDouble();
      if (pick < slow) {
        AppendVarint(&stream, rng.UniformUint32(1u << 28) + (1u << 14),
                     0);  // 3-5 bytes
      } else if (pick < 1.5 * slow) {
        AppendVarint(&stream,
                     (std::uint64_t{1} << 32) +
                         rng.UniformUint32(0xFFFFFFFFu),
                     rng.UniformInt(0, 1));  // >= 2^32
      } else if (pick < 1.8 * slow) {
        AppendVarint(&stream, rng.UniformUint32(128), rng.UniformInt(1, 9));
      } else if (pick < 1.9 * slow) {
        stream.insert(stream.end(), 11, 0x80u);  // over 10 bytes
      } else {
        AppendVarint(&stream,
                     rng.Bernoulli(0.7) ? rng.UniformUint32(128)
                                        : rng.UniformUint32(1u << 14),
                     0);
      }
    }
    std::vector<unsigned char> buffer(stream.size() + 16);
    for (std::size_t offset = 0; offset < 16; ++offset) {
      std::copy(stream.begin(), stream.end(), buffer.begin() + offset);
      const unsigned char* data = buffer.data() + offset;
      for (std::size_t length = 0; length <= 256; ++length) {
        ASSERT_TRUE(SameDecode(data, length, 257))
            << "trial " << trial << " offset " << offset;
        ASSERT_TRUE(SameDecode(data, length, rng.UniformIndex(40)))
            << "trial " << trial << " offset " << offset;
      }
    }
  }
}

TEST(DecodeVarintsTest, StopsBeforeVarintsItDoesNotJudge) {
  std::vector<unsigned char> stream;
  for (int i = 0; i < 20; ++i) AppendVarint(&stream, 300, 0);
  AppendVarint(&stream, 0xFFFFFFFFu, 0);  // 5 bytes, still decoded
  const std::size_t judged = stream.size();
  AppendVarint(&stream, std::uint64_t{1} << 32, 0);
  for (int i = 0; i < 20; ++i) AppendVarint(&stream, 1, 0);
  std::uint32_t out[64];
  for (const bool force_scalar : {false, true}) {
    ForceScalarForTesting(force_scalar);
    const rfidclean::VarintRun run =
        rfidclean::DecodeVarints(stream.data(), stream.size(), out, 64);
    EXPECT_EQ(run.count, 21u);
    EXPECT_EQ(run.bytes, judged);
    EXPECT_EQ(out[20], 0xFFFFFFFFu);
  }
  ForceScalarForTesting(false);
}

}  // namespace
}  // namespace rfidclean::simd
