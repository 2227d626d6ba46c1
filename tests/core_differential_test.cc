#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/graph_audit.h"
#include "baseline/naive_cleaner.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/builder.h"
#include "core/streaming.h"
#include "io/ctgraph_io.h"
#include "oracle_core.h"
#include "query/marginals.h"
#include "query/most_likely.h"
#include "runtime/batch_cleaner.h"
#include "test_util.h"

namespace rfidclean {
namespace {

using ::rfidclean::testing::kL1;
using ::rfidclean::testing::kL3;

/// Differential equivalence of the rewritten CSR core against the frozen
/// pre-rewrite implementation (tests/oracle_core.h): for randomly generated
/// single-tag workloads, both CtGraphBuilder and StreamingCleaner must be
/// *bit-identical* — serialized graph bytes, marginals, most-likely
/// trajectories, and error statuses — to the oracle. The rewrite changed
/// the memory layout (CSR slices, interned keys, memoized expansion), not
/// the algorithm, so any divergence is a bug in the new core.
///
/// 25 seeds × 8 workloads = 200 random workloads; the self-audit hook is
/// armed throughout, so every graph either path produces must also pass the
/// full ct-graph invariant audit.
class CoreDifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { EnableSelfAudit(); }
  void TearDown() override { DisableSelfAudit(); }

  /// Random l-sequence over `num_locations`, as in batch_differential_test.
  static LSequence MakeRandomSequence(std::size_t num_locations, Rng& rng) {
    const Timestamp length = static_cast<Timestamp>(rng.UniformInt(2, 8));
    std::vector<std::vector<Candidate>> candidates;
    for (Timestamp t = 0; t < length; ++t) {
      int k = rng.UniformInt(1, 3);
      std::vector<LocationId> locations(num_locations);
      for (std::size_t i = 0; i < num_locations; ++i) {
        locations[i] = static_cast<LocationId>(i);
      }
      std::vector<Candidate> at_t;
      double total = 0.0;
      for (int i = 0; i < k; ++i) {
        std::size_t j = static_cast<std::size_t>(i) +
                        rng.UniformIndex(locations.size() -
                                         static_cast<std::size_t>(i));
        std::swap(locations[static_cast<std::size_t>(i)], locations[j]);
        double weight = rng.UniformDouble(0.1, 1.0);
        at_t.push_back(
            Candidate{locations[static_cast<std::size_t>(i)], weight});
        total += weight;
      }
      for (Candidate& candidate : at_t) candidate.probability /= total;
      candidates.push_back(std::move(at_t));
    }
    Result<LSequence> sequence = LSequence::Create(std::move(candidates));
    RFID_CHECK(sequence.ok());
    return std::move(sequence).value();
  }

  /// Random constraint set dense enough that a sizable fraction of the
  /// workloads contains dead tags, so the error path is diffed too.
  static ConstraintSet MakeRandomConstraints(std::size_t num_locations,
                                             Rng& rng) {
    ConstraintSet constraints(num_locations);
    for (std::size_t a = 0; a < num_locations; ++a) {
      for (std::size_t b = 0; b < num_locations; ++b) {
        if (a == b) continue;
        if (rng.Bernoulli(0.3)) {
          constraints.AddUnreachable(static_cast<LocationId>(a),
                                     static_cast<LocationId>(b));
        } else if (rng.Bernoulli(0.2)) {
          constraints.AddTravelingTime(
              static_cast<LocationId>(a), static_cast<LocationId>(b),
              static_cast<Timestamp>(rng.UniformInt(2, 4)));
        }
      }
      if (rng.Bernoulli(0.3)) {
        constraints.AddLatency(static_cast<LocationId>(a),
                               static_cast<Timestamp>(rng.UniformInt(2, 3)));
      }
    }
    return constraints;
  }

  static std::string Serialize(const CtGraph& graph) {
    std::ostringstream os;
    WriteCtGraph(graph, os);
    return os.str();
  }

  /// Asserts a successful result is bit-identical to the oracle's graph:
  /// full serialization (17 significant digits, round-trip-exact for
  /// doubles) plus the query results computed on top.
  static void ExpectBitIdentical(const CtGraph& got, const CtGraph& want) {
    EXPECT_EQ(Serialize(got), Serialize(want));
    EXPECT_EQ(NodeMarginals(got), NodeMarginals(want));
    auto [got_traj, got_p] = MostLikelyTrajectory(got);
    auto [want_traj, want_p] = MostLikelyTrajectory(want);
    EXPECT_EQ(got_traj, want_traj);
    EXPECT_EQ(got_p, want_p);  // exact: same float-op order by design
  }
};

TEST_P(CoreDifferentialTest, RewrittenCoreEqualsFrozenOracleBitForBit) {
  Rng rng(static_cast<std::uint64_t>(GetParam()), /*stream=*/4096);
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE(::testing::Message()
                 << "seed=" << GetParam() << " round=" << round);
    const std::size_t num_locations =
        static_cast<std::size_t>(rng.UniformInt(3, 5));
    ConstraintSet constraints = MakeRandomConstraints(num_locations, rng);
    LSequence sequence = MakeRandomSequence(num_locations, rng);

    Result<CtGraph> expected = oracle::BuildCtGraph(constraints, sequence);

    // Batch path: statuses must match exactly, message included — error
    // reporting is part of the core's deterministic contract.
    CtGraphBuilder builder(constraints);
    Result<CtGraph> batch = builder.Build(sequence);
    ASSERT_EQ(batch.ok(), expected.ok());
    if (expected.ok()) {
      ExpectBitIdentical(batch.value(), expected.value());
    } else {
      EXPECT_EQ(batch.status(), expected.status());
    }

    // Streaming path: a doomed workload must be rejected at the first tick
    // that leaves no consistent interpretation, with the oracle's exact
    // status (message included); a viable one must finish with the
    // oracle's exact graph.
    StreamingCleaner cleaner(constraints);
    Status pushed = Status::Ok();
    for (Timestamp t = 0; t < sequence.length() && pushed.ok(); ++t) {
      pushed = cleaner.Push(sequence.CandidatesAt(t));
    }
    EXPECT_EQ(pushed.ok(), expected.ok());
    if (!pushed.ok()) {
      EXPECT_EQ(pushed, expected.status());
    } else if (expected.ok()) {
      Result<CtGraph> streamed = std::move(cleaner).Finish();
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      ExpectBitIdentical(streamed.value(), expected.value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreDifferentialTest,
                         ::testing::Range(0, 25));

/// The widest frontiers any test builds: 96 candidate locations per tick,
/// with latency (delta-bearing keys) and traveling-time constraints
/// (TL-bearing keys, which disable memoization), keep every layer over 64
/// nodes wide. The core must still match the oracle byte for byte.
TEST_F(CoreDifferentialTest, WideFrontiersMatchTheOracle) {
  constexpr LocationId kLocations = 96;
  ConstraintSet constraints(static_cast<std::size_t>(kLocations));
  for (LocationId l = 0; l < kLocations; l += 3) {
    constraints.AddLatency(l, 3);
  }
  for (LocationId l = 0; l + 1 < kLocations; l += 7) {
    constraints.AddTravelingTime(l, l + 1, 3);
  }
  std::vector<std::vector<Candidate>> spec;
  for (int t = 0; t < 6; ++t) {
    std::vector<Candidate> at_t;
    for (LocationId l = 0; l < kLocations; ++l) {
      at_t.push_back(Candidate{l, 1.0 / static_cast<double>(kLocations)});
    }
    spec.push_back(std::move(at_t));
  }
  Result<LSequence> sequence = LSequence::Create(std::move(spec));
  ASSERT_TRUE(sequence.ok());

  Result<CtGraph> expected =
      oracle::BuildCtGraph(constraints, sequence.value());
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  BuildStats stats;
  Result<CtGraph> built =
      CtGraphBuilder(constraints).Build(sequence.value(), &stats);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_GE(stats.peak_nodes / 6, 64u);  // the frontiers really are wide
  EXPECT_EQ(Serialize(built.value()), Serialize(expected.value()));
  EXPECT_EQ(built.value().Digest(), expected.value().Digest());
}

/// Keys whose TL outgrows DepartureList's four inline slots: with no
/// unreachability, every one of locations 0..6 keeps a traveling-time
/// entry towards 7 for 12 ticks after it is left, and the candidates walk
/// 0 → 6 one step per tick, so a path that moves every tick carries up to
/// six departures. The arena stores them in its pool; the graph must still
/// match the oracle byte for byte.
TEST_F(CoreDifferentialTest, TlListsPastTheInlineSlotsMatchTheOracle) {
  constexpr LocationId kLocations = 8;
  ConstraintSet constraints(static_cast<std::size_t>(kLocations));
  for (LocationId l = 0; l + 1 < kLocations; ++l) {
    constraints.AddTravelingTime(l, kLocations - 1, 12);
  }
  constraints.AddLatency(3, 2);
  std::vector<std::vector<Candidate>> spec;
  for (LocationId t = 0; t < 9; ++t) {
    spec.push_back({Candidate{t % 7, 0.5}, Candidate{(t + 1) % 7, 0.5}});
  }
  Result<LSequence> sequence = LSequence::Create(std::move(spec));
  ASSERT_TRUE(sequence.ok());

  Result<CtGraph> expected =
      oracle::BuildCtGraph(constraints, sequence.value());
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  Result<CtGraph> built = CtGraphBuilder(constraints).Build(sequence.value());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::size_t longest_tl = 0;
  for (NodeId id = 0; id < static_cast<NodeId>(built.value().NumNodes());
       ++id) {
    longest_tl = std::max(longest_tl, built.value().DeparturesOf(id).size());
  }
  EXPECT_GT(longest_tl, 4u);
  ExpectBitIdentical(built.value(), expected.value());

  StreamingCleaner cleaner(constraints);
  for (Timestamp t = 0; t < sequence.value().length(); ++t) {
    ASSERT_TRUE(cleaner.Push(sequence.value().CandidatesAt(t)).ok());
  }
  Result<CtGraph> streamed = std::move(cleaner).Finish();
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ExpectBitIdentical(streamed.value(), expected.value());
}

/// One answer per input, from every path. The dead-end feed (the
/// constraints forbid the only move) gets both oracles' status from Build,
/// a hand-driven StreamingCleaner and BatchCleaner, preflight on and off.
TEST(OnePipelineTest, DeadEndGivesOneStatusOnEveryPath) {
  ConstraintSet constraints(3);
  constraints.AddUnreachable(0, 1);
  const LSequence sequence =
      ::rfidclean::testing::MakeLSequence({{{0, 1.0}}, {{1, 1.0}}});
  const Result<CtGraph> expected = oracle::BuildCtGraph(constraints, sequence);
  ASSERT_FALSE(expected.ok());
  EXPECT_EQ(expected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(NaiveCleaner(constraints).Clean(sequence).status(),
            expected.status());

  StreamingCleaner cleaner(constraints);
  ASSERT_TRUE(cleaner.Push(sequence.CandidatesAt(0)).ok());
  EXPECT_EQ(cleaner.Push(sequence.CandidatesAt(1)), expected.status());

  for (const bool preflight : {true, false}) {
    SCOPED_TRACE(preflight ? "preflight on" : "preflight off");
    CleanOptions clean;
    clean.preflight = preflight;
    EXPECT_EQ(CtGraphBuilder(constraints, clean).Build(sequence).status(),
              expected.status());
    BatchOptions batch;
    batch.preflight = preflight;
    const std::vector<TagOutcome> outcomes =
        BatchCleaner(constraints, batch).CleanAll({TagWorkload{0, sequence}});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].graph.status(), expected.status());
  }
}

/// The empty sequence: LSequence::Create's InvalidArgument from Build and
/// BatchCleaner alike, preflight on and off.
TEST(OnePipelineTest, EmptySequenceGivesOneStatusOnEveryPath) {
  ConstraintSet constraints(3);
  const Status expected = InvalidArgumentError("l-sequence must not be empty");
  EXPECT_EQ(LSequence::Create({}).status(), expected);
  for (const bool preflight : {true, false}) {
    SCOPED_TRACE(preflight ? "preflight on" : "preflight off");
    CleanOptions clean;
    clean.preflight = preflight;
    EXPECT_EQ(CtGraphBuilder(constraints, clean).Build(LSequence()).status(),
              expected);
    BatchOptions batch;
    batch.preflight = preflight;
    const std::vector<TagOutcome> outcomes =
        BatchCleaner(constraints, batch).CleanAll({TagWorkload{0, {}}});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].graph.status(), expected);
  }
}

/// A candidate location the constraint set does not cover: one
/// InvalidArgument naming the tick, the location and the location count
/// from Build and BatchCleaner (preflight on and off, 1 and 4 jobs) and a
/// hand-driven StreamingCleaner. The batch boxes it to its own tag.
TEST(OnePipelineTest, OutOfRangeLocationGivesOneStatusOnEveryPath) {
  ConstraintSet constraints(3);
  const LSequence sequence = ::rfidclean::testing::MakeLSequence(
      {{{0, 1.0}}, {{1, 0.5}, {5, 0.5}}, {{2, 1.0}}});
  const LSequence alive = ::rfidclean::testing::MakeLSequence(
      {{{0, 1.0}}, {{1, 1.0}}, {{2, 1.0}}});
  const Status expected = InvalidArgumentError(
      "candidate location 5 at tick 1 is out of range: the constraint set "
      "has 3 locations");

  StreamingCleaner cleaner(constraints);
  ASSERT_TRUE(cleaner.Push(sequence.CandidatesAt(0)).ok());
  EXPECT_EQ(cleaner.Push(sequence.CandidatesAt(1)), expected);
  EXPECT_EQ(cleaner.TicksSeen(), 1);  // the rejected tick moved nothing

  for (const bool preflight : {true, false}) {
    SCOPED_TRACE(preflight ? "preflight on" : "preflight off");
    CleanOptions clean;
    clean.preflight = preflight;
    EXPECT_EQ(CtGraphBuilder(constraints, clean).Build(sequence).status(),
              expected);
    for (const int jobs : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << "jobs " << jobs);
      BatchOptions batch;
      batch.preflight = preflight;
      batch.jobs = jobs;
      const std::vector<TagOutcome> outcomes =
          BatchCleaner(constraints, batch)
              .CleanAll({TagWorkload{0, alive}, TagWorkload{1, sequence},
                         TagWorkload{2, alive}});
      ASSERT_EQ(outcomes.size(), 3u);
      EXPECT_TRUE(outcomes[0].graph.ok());
      EXPECT_EQ(outcomes[1].graph.status(), expected);
      EXPECT_TRUE(outcomes[2].graph.ok());
    }
  }
}

/// The SIMD digest-identity gate over the same battery: building with the
/// vector kernels dispatched and with every kernel forced scalar must
/// produce byte-identical graphs and identical statuses. On hardware
/// without AVX2 (and in SIMD-off builds) both runs are scalar and the test
/// degenerates to determinism; CI runs it on an AVX2 host and additionally
/// diffs a default build against a -DRFIDCLEAN_SIMD=OFF build.
class SimdDifferentialTest : public CoreDifferentialTest {
 protected:
  void TearDown() override {
    simd::ForceScalarForTesting(false);
    DisableSelfAudit();
  }
};

TEST_P(SimdDifferentialTest, ScalarAndVectorBuildsAreByteIdentical) {
  Rng rng(static_cast<std::uint64_t>(GetParam()), /*stream=*/4096);
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE(::testing::Message()
                 << "seed=" << GetParam() << " round=" << round);
    const std::size_t num_locations =
        static_cast<std::size_t>(rng.UniformInt(3, 5));
    ConstraintSet constraints = MakeRandomConstraints(num_locations, rng);
    LSequence sequence = MakeRandomSequence(num_locations, rng);

    CtGraphBuilder builder(constraints);
    simd::ForceScalarForTesting(false);
    Result<CtGraph> vector_build = builder.Build(sequence);
    simd::ForceScalarForTesting(true);
    Result<CtGraph> scalar_build = builder.Build(sequence);
    simd::ForceScalarForTesting(false);

    ASSERT_EQ(vector_build.ok(), scalar_build.ok());
    if (vector_build.ok()) {
      EXPECT_EQ(Serialize(vector_build.value()),
                Serialize(scalar_build.value()));
      EXPECT_EQ(vector_build.value().Digest(),
                scalar_build.value().Digest());
    } else {
      EXPECT_EQ(vector_build.status(), scalar_build.status());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdDifferentialTest,
                         ::testing::Range(0, 10));

/// The paper's running example (Examples 10-12): both cores must agree
/// bit-for-bit AND reproduce the published golden trace — the unique valid
/// trajectory L1 L3 L3 carrying all the conditioned mass.
TEST(CoreDifferentialGoldenTest, PaperExampleMatchesOracleAndPublishedTrace) {
  EnableSelfAudit();
  ConstraintSet constraints = ::rfidclean::testing::PaperExampleConstraints();
  LSequence sequence = ::rfidclean::testing::PaperExampleSequence();

  Result<CtGraph> expected = oracle::BuildCtGraph(constraints, sequence);
  ASSERT_TRUE(expected.ok());

  CtGraphBuilder builder(constraints);
  Result<CtGraph> batch = builder.Build(sequence);
  ASSERT_TRUE(batch.ok());
  {
    std::ostringstream want, got;
    WriteCtGraph(expected.value(), want);
    WriteCtGraph(batch.value(), got);
    EXPECT_EQ(got.str(), want.str());
  }

  auto [trajectory, probability] = MostLikelyTrajectory(batch.value());
  EXPECT_EQ(trajectory, Trajectory({kL1, kL3, kL3}));
  EXPECT_NEAR(probability, 1.0, 1e-12);
  DisableSelfAudit();
}

}  // namespace
}  // namespace rfidclean
