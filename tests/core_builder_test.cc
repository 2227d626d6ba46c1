#include "core/builder.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/ct_graph.h"
#include "test_util.h"

namespace rfidclean {
namespace {

using ::rfidclean::testing::kL1;
using ::rfidclean::testing::kL2;
using ::rfidclean::testing::kL3;
using ::rfidclean::testing::kL4;
using ::rfidclean::testing::kL5;
using ::rfidclean::testing::MakeLSequence;
using ::rfidclean::testing::PaperExampleConstraints;
using ::rfidclean::testing::PaperExampleSequence;

TEST(CtGraphBuilderTest, PaperRunningExampleYieldsUniqueTrajectory) {
  LSequence sequence = PaperExampleSequence();
  ConstraintSet constraints = PaperExampleConstraints();
  CtGraphBuilder builder(constraints);
  BuildStats stats;
  Result<CtGraph> result = builder.Build(sequence, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const CtGraph& graph = result.value();
  EXPECT_TRUE(graph.CheckConsistency().ok());

  // Example 12 / Fig. 7: the surviving graph is the single path
  // n0 -> n3 -> n7 over locations L1, L3, L3, with probability 1.
  EXPECT_EQ(graph.NumNodes(), 3u);
  EXPECT_EQ(graph.NumEdges(), 2u);
  auto trajectories = graph.EnumerateTrajectories();
  ASSERT_EQ(trajectories.size(), 1u);
  EXPECT_EQ(trajectories[0].first, Trajectory({kL1, kL3, kL3}));
  EXPECT_NEAR(trajectories[0].second, 1.0, 1e-12);
}

TEST(CtGraphBuilderTest, PaperRunningExampleForwardPhasePeakCounts) {
  // Example 11 / Fig. 3: at the end of the forward phase the graph holds
  // n0, n1 (sources), n3, n4, n5 (t=1: L3 once, L4 under two distinct TL
  // variants) and n7 (t=2), i.e. 6 nodes and 4 edges. Matching the paper's
  // node identity exactly requires the paper's TL expiry rule, so the
  // reachability pruning is disabled here — and the preflight pass too,
  // since it would drop the statically dead candidates before the forward
  // phase even sees them.
  LSequence sequence = PaperExampleSequence();
  ConstraintSet constraints = PaperExampleConstraints();
  CleanOptions options;
  options.successor.reachability_tl_pruning = false;
  options.preflight = false;
  CtGraphBuilder builder(constraints, options);
  BuildStats stats;
  Result<CtGraph> result = builder.Build(sequence, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.peak_nodes, 6u);
  EXPECT_EQ(stats.peak_edges, 4u);
  EXPECT_EQ(stats.final_nodes, 3u);
  EXPECT_EQ(stats.final_edges, 2u);
}

TEST(CtGraphBuilderTest, ReachabilityPruningMergesIrrelevantTlVariants) {
  // With the reachability-aware TL rule, the departure entry carried by n5
  // is already irrelevant at (1, L4) — L5 cannot be reached before the
  // travelingTime(L1, L5, 3) window closes — so n4 and n5 merge: 5 peak
  // nodes instead of 6, same final graph. Preflight is off so the count
  // isolates the TL merge itself.
  LSequence sequence = PaperExampleSequence();
  ConstraintSet constraints = PaperExampleConstraints();
  CleanOptions options;  // Reachability pruning on by default.
  options.preflight = false;
  CtGraphBuilder builder(constraints, options);
  BuildStats stats;
  Result<CtGraph> result = builder.Build(sequence, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.peak_nodes, 5u);
  EXPECT_EQ(stats.final_nodes, 3u);
  EXPECT_EQ(stats.final_edges, 2u);
  auto trajectories = result.value().EnumerateTrajectories();
  ASSERT_EQ(trajectories.size(), 1u);
  EXPECT_NEAR(trajectories[0].second, 1.0, 1e-12);
}

TEST(CtGraphBuilderTest, PreflightPrunesStaticallyDeadCandidates) {
  // With the preflight pass (on by default) the statically dead candidates
  // of the running example — L2 at t=0 and one of the t=1 variants — never
  // reach the forward phase: the peak equals the final graph, which is
  // byte-identical to the unpruned build.
  LSequence sequence = PaperExampleSequence();
  ConstraintSet constraints = PaperExampleConstraints();
  CtGraphBuilder builder(constraints);
  BuildStats stats;
  Result<CtGraph> result = builder.Build(sequence, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.doomed_at, -1);
  EXPECT_GT(stats.preflight_candidates_pruned, 0u);
  EXPECT_EQ(stats.peak_nodes, 3u);
  EXPECT_EQ(stats.final_nodes, 3u);
  EXPECT_EQ(stats.final_edges, 2u);

  CleanOptions unpruned;
  unpruned.preflight = false;
  Result<CtGraph> reference =
      CtGraphBuilder(constraints, unpruned).Build(sequence);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(result.value().Digest(), reference.value().Digest());
}

TEST(CtGraphBuilderTest, PaperRunningExampleTrajectoryProbabilities) {
  LSequence sequence = PaperExampleSequence();
  ConstraintSet constraints = PaperExampleConstraints();
  CtGraphBuilder builder(constraints);
  Result<CtGraph> result = builder.Build(sequence);
  ASSERT_TRUE(result.ok());
  const CtGraph& graph = result.value();
  EXPECT_NEAR(graph.TrajectoryProbability(Trajectory({kL1, kL3, kL3})), 1.0,
              1e-12);
  // Invalid or unrepresented trajectories have probability 0.
  EXPECT_PROB_NEAR(graph.TrajectoryProbability(Trajectory({kL1, kL3, kL5})), 0.0);
  EXPECT_PROB_NEAR(graph.TrajectoryProbability(Trajectory({kL2, kL4, kL5})), 0.0);
  EXPECT_PROB_NEAR(graph.TrajectoryProbability(Trajectory({kL1, kL3})), 0.0);
}

TEST(CtGraphBuilderTest, NoConstraintsReproducesIndependentDistribution) {
  LSequence sequence = MakeLSequence({{{kL1, 0.6}, {kL2, 0.4}},
                                      {{kL3, 0.25}, {kL4, 0.75}},
                                      {{kL3, 0.5}, {kL5, 0.5}}});
  ConstraintSet constraints(6);  // Empty set: everything is valid.
  CtGraphBuilder builder(constraints);
  Result<CtGraph> result = builder.Build(sequence);
  ASSERT_TRUE(result.ok());
  const CtGraph& graph = result.value();
  EXPECT_TRUE(graph.CheckConsistency().ok());
  auto trajectories = graph.EnumerateTrajectories();
  EXPECT_EQ(trajectories.size(), 8u);
  double total = 0.0;
  for (const auto& [trajectory, probability] : trajectories) {
    EXPECT_NEAR(probability, trajectory.AprioriProbability(sequence), 1e-12);
    total += probability;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(CtGraphBuilderTest, AllTrajectoriesInvalidFails) {
  LSequence sequence = MakeLSequence({{{kL1, 1.0}}, {{kL2, 1.0}}});
  ConstraintSet constraints(6);
  constraints.AddUnreachable(kL1, kL2);
  CtGraphBuilder builder(constraints);
  Result<CtGraph> result = builder.Build(sequence);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CtGraphBuilderTest, EmptySequenceIsInvalidArgument) {
  // A default-constructed LSequence has no ticks. Build rejects it with
  // LSequence::Create's message instead of aborting on the first tick.
  ConstraintSet constraints(6);
  for (const bool preflight : {true, false}) {
    CleanOptions options;
    options.preflight = preflight;
    Result<CtGraph> result =
        CtGraphBuilder(constraints, options).Build(LSequence());
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(result.status().message(), "l-sequence must not be empty");
  }
}

TEST(CtGraphBuilderTest, SingleTimestampSequence) {
  LSequence sequence = MakeLSequence({{{kL1, 0.7}, {kL2, 0.3}}});
  ConstraintSet constraints(6);
  constraints.AddUnreachable(kL1, kL2);  // Irrelevant: no transition exists.
  CtGraphBuilder builder(constraints);
  Result<CtGraph> result = builder.Build(sequence);
  ASSERT_TRUE(result.ok());
  const CtGraph& graph = result.value();
  EXPECT_TRUE(graph.CheckConsistency().ok());
  EXPECT_EQ(graph.NumNodes(), 2u);
  EXPECT_EQ(graph.NumEdges(), 0u);
  EXPECT_NEAR(graph.TrajectoryProbability(Trajectory({kL1})), 0.7, 1e-12);
  EXPECT_NEAR(graph.TrajectoryProbability(Trajectory({kL2})), 0.3, 1e-12);
}

TEST(CtGraphBuilderTest, ConditioningPreservesProbabilityRatios) {
  // The introduction's 4-trajectory example: probabilities 0.5/0.25/0.2/0.05
  // where the last two become invalid; survivors get 2/3 and 1/3.
  // Encoded as: t=0 fixes the trajectory by location choice; t=1 splits.
  LSequence sequence = MakeLSequence({{{kL1, 0.75}, {kL2, 0.25}},
                                      {{kL3, 2.0 / 3}, {kL4, 1.0 / 3}}});
  // t1 = L1L3 (0.5), t2 = L1L4 (0.25), t3 = L2L3 (1/6), t4 = L2L4 (1/12).
  // Invalidate every trajectory starting at L2.
  ConstraintSet constraints(6);
  constraints.AddUnreachable(kL2, kL3);
  constraints.AddUnreachable(kL2, kL4);
  CtGraphBuilder builder(constraints);
  Result<CtGraph> result = builder.Build(sequence);
  ASSERT_TRUE(result.ok());
  const CtGraph& graph = result.value();
  EXPECT_NEAR(graph.TrajectoryProbability(Trajectory({kL1, kL3})), 2.0 / 3,
              1e-12);
  EXPECT_NEAR(graph.TrajectoryProbability(Trajectory({kL1, kL4})), 1.0 / 3,
              1e-12);
  EXPECT_PROB_NEAR(graph.TrajectoryProbability(Trajectory({kL2, kL3})), 0.0);
}

TEST(CtGraphBuilderTest, LatencyCreatesDistinctDeltaNodes) {
  // Latency 3 at L1: starting at L1 the object may not leave before 3 ticks.
  LSequence sequence = MakeLSequence({{{kL1, 1.0}},
                                      {{kL1, 0.5}, {kL2, 0.5}},
                                      {{kL1, 0.5}, {kL2, 0.5}},
                                      {{kL1, 0.5}, {kL2, 0.5}}});
  ConstraintSet constraints(6);
  constraints.AddLatency(kL1, 3);
  CtGraphBuilder builder(constraints);
  Result<CtGraph> result = builder.Build(sequence);
  ASSERT_TRUE(result.ok());
  const CtGraph& graph = result.value();
  EXPECT_TRUE(graph.CheckConsistency().ok());
  auto trajectories = graph.EnumerateTrajectories();
  // Valid: L1 L1 L1 L1 and L1 L1 L1 L2 (leaving only after 3 ticks).
  EXPECT_EQ(trajectories.size(), 2u);
  EXPECT_NEAR(graph.TrajectoryProbability(Trajectory({kL1, kL1, kL1, kL2})),
              0.5, 1e-12);
  EXPECT_NEAR(graph.TrajectoryProbability(Trajectory({kL1, kL1, kL1, kL1})),
              0.5, 1e-12);
  EXPECT_PROB_NEAR(graph.TrajectoryProbability(Trajectory({kL1, kL2, kL2, kL2})),
            0.0);
}

TEST(CtGraphBuilderTest, LatencyTruncatedByWindowEndIsNotViolated) {
  // Entering L2 (latency 3) on the last two ticks is fine: the stay is cut
  // short by the end of monitoring, not by a move (boundary-tolerant rule).
  LSequence sequence = MakeLSequence({{{kL1, 1.0}},
                                      {{kL1, 0.5}, {kL2, 0.5}},
                                      {{kL1, 0.5}, {kL2, 0.5}}});
  ConstraintSet constraints(6);
  constraints.AddLatency(kL2, 3);
  CtGraphBuilder builder(constraints);
  Result<CtGraph> result = builder.Build(sequence);
  ASSERT_TRUE(result.ok());
  const CtGraph& graph = result.value();
  EXPECT_GT(graph.TrajectoryProbability(Trajectory({kL1, kL1, kL2})), 0.0);
  EXPECT_GT(graph.TrajectoryProbability(Trajectory({kL1, kL2, kL2})), 0.0);
  // But leaving L2 after a 1-tick stay mid-window is a violation.
  EXPECT_PROB_NEAR(graph.TrajectoryProbability(Trajectory({kL1, kL2, kL1})), 0.0);
}

TEST(CtGraphBuilderTest, TravelingTimeBlocksFastIndirectMoves) {
  // TT(L1, L3, 3): reaching L3 within 2 ticks of leaving L1 is invalid.
  LSequence sequence = MakeLSequence({{{kL1, 1.0}},
                                      {{kL2, 1.0}},
                                      {{kL2, 0.5}, {kL3, 0.5}},
                                      {{kL3, 1.0}}});
  ConstraintSet constraints(6);
  constraints.AddTravelingTime(kL1, kL3, 3);
  CtGraphBuilder builder(constraints);
  Result<CtGraph> result = builder.Build(sequence);
  ASSERT_TRUE(result.ok());
  const CtGraph& graph = result.value();
  // L1 L2 L3 L3 violates (gap 2 < 3); L1 L2 L2 L3 satisfies (gap 3).
  EXPECT_PROB_NEAR(graph.TrajectoryProbability(Trajectory({kL1, kL2, kL3, kL3})),
            0.0);
  EXPECT_NEAR(graph.TrajectoryProbability(Trajectory({kL1, kL2, kL2, kL3})),
              1.0, 1e-12);
}

TEST(CtGraphBuilderTest, DirectMoveUnderTravelingTimeConstraintIsInvalid) {
  // Def. 3 completion: under TT(L1, L2, 2) a direct step L1 -> L2 is always
  // one tick, hence invalid, even though TL cannot catch it (the current
  // stay is never recorded there). The detour through L3 satisfies the gap.
  LSequence sequence = MakeLSequence({{{kL1, 1.0}},
                                      {{kL1, 0.5}, {kL3, 0.5}},
                                      {{kL2, 0.5}, {kL3, 0.5}}});
  ConstraintSet constraints(6);
  constraints.AddTravelingTime(kL1, kL2, 2);
  CtGraphBuilder builder(constraints);
  Result<CtGraph> result = builder.Build(sequence);
  ASSERT_TRUE(result.ok());
  const CtGraph& graph = result.value();
  // The move L1@1 -> L2@2 has gap 1 < 2 in both shapes below.
  EXPECT_PROB_NEAR(graph.TrajectoryProbability(Trajectory({kL1, kL1, kL2})), 0.0);
  // L1@0 -> L2@2 via L3 has gap 2: valid.
  EXPECT_GT(graph.TrajectoryProbability(Trajectory({kL1, kL3, kL2})), 0.0);
  EXPECT_GT(graph.TrajectoryProbability(Trajectory({kL1, kL3, kL3})), 0.0);
}

TEST(CtGraphBuilderTest, StatsTimingsArePopulated) {
  LSequence sequence = PaperExampleSequence();
  ConstraintSet constraints = PaperExampleConstraints();
  CtGraphBuilder builder(constraints);
  BuildStats stats;
  ASSERT_TRUE(builder.Build(sequence, &stats).ok());
  EXPECT_GE(stats.forward_millis, 0.0);
  EXPECT_GE(stats.backward_millis, 0.0);
  EXPECT_GE(stats.TotalMillis(), stats.forward_millis);
}

TEST(CtGraphBuilderTest, ApproximateBytesGrowsWithGraph) {
  ConstraintSet constraints(6);
  CtGraphBuilder builder(constraints);
  LSequence small = MakeLSequence({{{kL1, 1.0}}, {{kL2, 1.0}}});
  std::vector<std::vector<std::pair<LocationId, double>>> spec;
  for (int t = 0; t < 50; ++t) {
    spec.push_back({{kL1, 0.5}, {kL2, 0.5}});
  }
  LSequence large = MakeLSequence(spec);
  Result<CtGraph> small_graph = builder.Build(small);
  Result<CtGraph> large_graph = builder.Build(large);
  ASSERT_TRUE(small_graph.ok());
  ASSERT_TRUE(large_graph.ok());
  EXPECT_GT(large_graph.value().ApproximateBytes(),
            small_graph.value().ApproximateBytes());
}

}  // namespace
}  // namespace rfidclean
