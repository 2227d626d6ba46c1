#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fnv.h"
#include "common/parallel.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/small_vector.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table.h"

namespace rfidclean {
namespace {

// --- Status / Result ------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = InvalidArgumentError("bad input");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad input");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, AllConstructorsSetMatchingCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(InvalidArgumentError("a"), InvalidArgumentError("a"));
  EXPECT_FALSE(InvalidArgumentError("a") == InvalidArgumentError("b"));
  EXPECT_FALSE(InvalidArgumentError("a") == NotFoundError("a"));
}

TEST(StatusTest, StreamOperatorPrintsToString) {
  std::ostringstream os;
  os << NotFoundError("missing");
  EXPECT_EQ(os.str(), "NOT_FOUND: missing");
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = NotFoundError("nothing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result = std::string("payload");
  std::string value = std::move(result).value();
  EXPECT_EQ(value, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgumentError("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  RFID_ASSIGN_OR_RETURN(int half, Half(x));
  RFID_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd.
  EXPECT_FALSE(Quarter(7).ok());
}

// --- Rng -------------------------------------------------------------------

TEST(RngTest, DeterministicUnderSameSeed) {
  Rng a(123, 7);
  Rng b(123, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint32(), b.NextUint32());
  }
}

TEST(RngTest, DistinctStreamsDiffer) {
  Rng a(123, 1);
  Rng b(123, 2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint32() == b.NextUint32()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(5);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    int v = rng.UniformInt(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, UniformDoubleInHalfOpenUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformDoubleRangeRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble(2.5, 3.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(RngTest, BernoulliExtremesAreDeterministic) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRateIsRoughlyCorrect) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(19);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.WeightedIndex(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, UniformIndexStaysInRange) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformIndex(7), 7u);
  }
}

// --- SmallVector ------------------------------------------------------------

TEST(SmallVectorTest, StartsEmpty) {
  SmallVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.HeapBytes(), 0u);
}

TEST(SmallVectorTest, InlineStorageHoldsUpToN) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v.HeapBytes(), 0u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVectorTest, SpillsToHeapBeyondN) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 6; ++i) v.push_back(i * 10);
  EXPECT_EQ(v.size(), 6u);
  EXPECT_GT(v.HeapBytes(), 0u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(v[static_cast<std::size_t>(i)], i * 10);
  }
}

TEST(SmallVectorTest, PopBackAcrossBoundary) {
  SmallVector<int, 2> v{1, 2, 3};
  v.pop_back();
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.back(), 2);
  v.pop_back();
  EXPECT_EQ(v.back(), 1);
}

TEST(SmallVectorTest, CopyPreservesElements) {
  SmallVector<int, 2> v{1, 2, 3, 4};
  SmallVector<int, 2> copy(v);
  EXPECT_EQ(copy, v);
  copy.push_back(5);
  EXPECT_FALSE(copy == v);
}

TEST(SmallVectorTest, MoveLeavesSourceEmpty) {
  SmallVector<int, 2> v{1, 2, 3};
  SmallVector<int, 2> moved(std::move(v));
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_TRUE(v.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(SmallVectorTest, EqualityIsElementWise) {
  SmallVector<int, 4> a{1, 2};
  SmallVector<int, 4> b{1, 2};
  SmallVector<int, 4> c{2, 1};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(SmallVectorTest, ForEachVisitsAllElementsIncludingSpilled) {
  SmallVector<int, 2> v{1, 2, 3, 4, 5};
  int sum = 0;
  v.ForEach([&sum](int x) { sum += x; });
  EXPECT_EQ(sum, 15);
}

TEST(SmallVectorTest, IterationWorksWhileInline) {
  SmallVector<int, 4> v{7, 8, 9};
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 24);
}

TEST(SmallVectorTest, ClearResetsState) {
  SmallVector<int, 2> v{1, 2, 3};
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(9);
  EXPECT_EQ(v[0], 9);
}


class SmallVectorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SmallVectorPropertyTest, BehavesLikeStdVector) {
  // Reference-model property test: a random operation sequence applied to
  // SmallVector and std::vector must stay observationally identical across
  // the inline/heap boundary.
  Rng rng(static_cast<std::uint64_t>(GetParam()), /*stream=*/81);
  SmallVector<int, 3> actual;
  std::vector<int> expected;
  for (int step = 0; step < 200; ++step) {
    switch (rng.UniformInt(0, 3)) {
      case 0: {
        int value = rng.UniformInt(-100, 100);
        actual.push_back(value);
        expected.push_back(value);
        break;
      }
      case 1:
        if (!expected.empty()) {
          actual.pop_back();
          expected.pop_back();
        }
        break;
      case 2:
        if (rng.Bernoulli(0.1)) {
          actual.clear();
          expected.clear();
        }
        break;
      default: {
        // Copy round trip must preserve contents.
        SmallVector<int, 3> copy(actual);
        ASSERT_EQ(copy, actual);
        break;
      }
    }
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i]) << "index " << i;
    }
    int sum_actual = 0;
    actual.ForEach([&sum_actual](int v) { sum_actual += v; });
    int sum_expected = 0;
    for (int v : expected) sum_expected += v;
    ASSERT_EQ(sum_actual, sum_expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmallVectorPropertyTest,
                         ::testing::Range(0, 15));

// --- Strings ----------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = StrSplit("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitSingleToken) {
  auto parts = StrSplit("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(StringsTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(StrJoin(parts, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringsTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StringsTest, HumanBytesScales) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(640 * 1024), "640.0 KiB");
  EXPECT_EQ(HumanBytes(25 * 1024 * 1024), "25.0 MiB");
}

TEST(StringsTest, JsonEscapeTable) {
  const struct {
    std::string raw;
    std::string escaped;
  } cases[] = {
      {"plain", "plain"},
      {"say \"hi\"", "say \\\"hi\\\""},
      {"C:\\dir", "C:\\\\dir"},
      {"a\nb", "a\\nb"},
      {"a\rb", "a\\rb"},
      {"a\tb", "a\\tb"},
      {std::string("a\x01" "b"), "a\\u0001b"},
      // UTF-8 passes through byte for byte.
      {"Caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x93\xa1",
       "Caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x93\xa1"},
      {"", ""},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(JsonEscape(c.raw), c.escaped) << c.raw;
  }
}

// --- Table ------------------------------------------------------------------

TEST(TableTest, PrintsAlignedColumns) {
  Table table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"long-name", "22"});
  std::ostringstream os;
  table.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, CsvOutput) {
  Table table({"a", "b"});
  table.AddRow({"1", "2"});
  std::ostringstream os;
  table.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

// --- Stopwatch ---------------------------------------------------------------

TEST(StopwatchTest, ElapsedIsMonotonic) {
  Stopwatch stopwatch;
  double first = stopwatch.ElapsedMicros();
  double second = stopwatch.ElapsedMicros();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
  stopwatch.Reset();
  EXPECT_GE(stopwatch.ElapsedMillis(), 0.0);
}

// --- ParallelFor -------------------------------------------------------------

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  // An empty range makes no call at all, and fewer indices than lanes
  // (n < lanes) still run each index once on a lane in [0, lanes).
  for (int lanes = 1; lanes <= 8; ++lanes) {
    for (std::size_t n = 0; n <= 64; ++n) {
      std::vector<std::atomic<int>> runs(n);
      std::atomic<int> calls{0};
      std::atomic<int> out_of_range{0};
      ParallelFor(lanes, n, [&](std::size_t index, int lane) {
        calls.fetch_add(1, std::memory_order_relaxed);
        if (lane < 0 || lane >= lanes) out_of_range.fetch_add(1);
        runs[index].fetch_add(1, std::memory_order_relaxed);
      });
      ASSERT_EQ(calls.load(), static_cast<int>(n))
          << "lanes " << lanes << ", n " << n;
      ASSERT_EQ(out_of_range.load(), 0) << "lanes " << lanes << ", n " << n;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(runs[i].load(), 1)
            << "lanes " << lanes << ", n " << n << ", i " << i;
      }
    }
  }
}

TEST(ParallelForTest, LanesAreExclusiveAndLaneZeroIsTheCaller) {
  constexpr int kLanes = 4;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> busy[kLanes] = {};
  std::atomic<int> out_of_range{0};
  std::atomic<int> overlaps{0};
  std::atomic<int> lane_zero_elsewhere{0};
  // One cursor hands indices out in increasing order, so each lane sees
  // its own indices increase.
  std::atomic<long long> last_index[kLanes];
  for (std::atomic<long long>& last : last_index) last.store(-1);
  std::atomic<int> out_of_order{0};
  std::atomic<std::uint64_t> sum{0};
  ParallelFor(kLanes, 4000, [&](std::size_t index, int lane) {
    if (lane < 0 || lane >= kLanes) {
      out_of_range.fetch_add(1);
      return;
    }
    if (busy[lane].exchange(1) != 0) overlaps.fetch_add(1);
    if (lane == 0 && std::this_thread::get_id() != caller) {
      lane_zero_elsewhere.fetch_add(1);
    }
    const long long current = static_cast<long long>(index);
    if (last_index[lane].exchange(current) >= current) {
      out_of_order.fetch_add(1);
    }
    sum.fetch_add(index);
    busy[lane].store(0);
  });
  EXPECT_EQ(out_of_range.load(), 0);
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(lane_zero_elsewhere.load(), 0);
  EXPECT_EQ(out_of_order.load(), 0);
  EXPECT_EQ(sum.load(), 4000u * 3999u / 2);
}

TEST(ParallelForTest, OneLaneOrFewerRunsOnTheCallerInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  for (int lanes : {-3, 0, 1}) {
    std::vector<std::size_t> order;
    bool elsewhere = false;
    ParallelFor(lanes, 10, [&](std::size_t index, int lane) {
      EXPECT_EQ(lane, 0);
      elsewhere |= std::this_thread::get_id() != caller;
      order.push_back(index);
    });
    EXPECT_FALSE(elsewhere) << "lanes " << lanes;
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}))
        << "lanes " << lanes;
  }
}

// --- FNV-1a 64 ---------------------------------------------------------------

/// The digest definition, one byte at a time: the value's 8 bytes in
/// little-endian order, each as an xor then a multiply by the prime.
std::uint64_t ReferenceMixU64(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFFu;
    hash *= kFnvPrime;
  }
  return hash;
}

/// Mixes every value through each of the three value mixers, comparing
/// each running digest with the reference after every value.
void ExpectFoldMatchesReference(const std::vector<std::uint64_t>& values) {
  Fnv64 as_u64;
  Fnv64 as_i64;
  Fnv64 as_double;
  std::uint64_t reference = kFnvOffsetBasis;
  for (const std::uint64_t value : values) {
    as_u64.MixU64(value);
    as_i64.MixI64(static_cast<std::int64_t>(value));
    as_double.MixDouble(std::bit_cast<double>(value));
    reference = ReferenceMixU64(reference, value);
    ASSERT_EQ(as_u64.Digest(), reference) << std::hex << value;
    ASSERT_EQ(as_i64.Digest(), reference) << std::hex << value;
    ASSERT_EQ(as_double.Digest(), reference) << std::hex << value;
  }
}

TEST(Fnv64Test, FoldedMixersMatchByteAtATimeOnBoundaries) {
  std::vector<std::uint64_t> values = {
      0, 0xFF, 0x100, 0xFFFF, 0x10000, std::uint64_t{1} << 32,
      std::uint64_t{1} << 48,
      ~std::uint64_t{0},  // -1
      0x8000000000000001ULL, 0x0100000000000000ULL, 0x00FF00FF00FF00FFULL};
  for (const double d :
       {0.0, -0.0, 0.5, 1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min()}) {
    values.push_back(std::bit_cast<std::uint64_t>(d));
  }
  // Each value from several hash states, including a repeat of itself.
  std::vector<std::uint64_t> stream;
  for (const std::uint64_t a : values) {
    for (const std::uint64_t b : values) {
      stream.push_back(a);
      stream.push_back(b);
    }
  }
  ExpectFoldMatchesReference(stream);
}

TEST(Fnv64Test, FoldedMixersMatchByteAtATimeOnRandomValues) {
  Rng rng(2024);
  std::vector<std::uint64_t> values;
  values.reserve(100000);
  for (int i = 0; i < 100000; ++i) {
    std::uint64_t value = (std::uint64_t{rng.NextUint32()} << 32) |
                          rng.NextUint32();
    // Mixed magnitudes: drop a random number of high bytes, then shift in
    // a random number of zero low bytes, so every run length occurs.
    value >>= 8 * rng.UniformInt(0, 7);
    value <<= 8 * rng.UniformInt(0, 7);
    if (rng.Bernoulli(0.1)) value = ~value;
    values.push_back(value);
  }
  ExpectFoldMatchesReference(values);
}

TEST(Fnv64Test, MixHashesLittleEndianValueBytes) {
  const std::uint64_t value = 0x0123456789ABCDEFULL;
  const unsigned char bytes[8] = {0xEF, 0xCD, 0xAB, 0x89,
                                  0x67, 0x45, 0x23, 0x01};
  Fnv64 by_value;
  by_value.MixU64(value);
  Fnv64 by_bytes;
  by_bytes.Mix(bytes, sizeof(bytes));
  EXPECT_EQ(by_value.Digest(), by_bytes.Digest());
}

}  // namespace
}  // namespace rfidclean
