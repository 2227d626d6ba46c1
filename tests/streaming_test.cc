#include "core/streaming.h"

#include <string>

#include <gtest/gtest.h>

#include "analysis/feasibility.h"
#include "common/rng.h"
#include "core/builder.h"
#include "gen/dataset.h"
#include "obs/cleaning_stats.h"
#include "obs/explain.h"
#include "query/stay_query.h"
#include "runtime/batch_cleaner.h"
#include "test_util.h"

namespace rfidclean {
namespace {

using ::rfidclean::testing::kL1;
using ::rfidclean::testing::kL2;
using ::rfidclean::testing::kL3;
using ::rfidclean::testing::kL4;
using ::rfidclean::testing::MakeLSequence;

Status PushAll(StreamingCleaner& cleaner, const LSequence& sequence) {
  for (Timestamp t = 0; t < sequence.length(); ++t) {
    RFID_RETURN_IF_ERROR(cleaner.Push(sequence.CandidatesAt(t)));
  }
  return Status::Ok();
}

TEST(StreamingCleanerTest, FinishEqualsBatchOnGoldenExample) {
  LSequence sequence = ::rfidclean::testing::PaperExampleSequence();
  ConstraintSet constraints = ::rfidclean::testing::PaperExampleConstraints();
  StreamingCleaner cleaner(constraints);
  ASSERT_TRUE(PushAll(cleaner, sequence).ok());
  Result<CtGraph> streamed = std::move(cleaner).Finish();
  ASSERT_TRUE(streamed.ok());

  CtGraphBuilder builder(constraints);
  Result<CtGraph> batch = builder.Build(sequence);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(streamed.value().NumNodes(), batch.value().NumNodes());
  EXPECT_EQ(streamed.value().NumEdges(), batch.value().NumEdges());
  auto expected = batch.value().EnumerateTrajectories();
  for (const auto& [trajectory, probability] : expected) {
    EXPECT_NEAR(streamed.value().TrajectoryProbability(trajectory),
                probability, 1e-12);
  }
}

TEST(StreamingCleanerTest, CurrentDistributionIsFiltered) {
  // After the first tick the filtered estimate equals the candidates; the
  // second tick redistributes by constraint-compatible continuations.
  LSequence sequence = MakeLSequence(
      {{{kL1, 0.5}, {kL2, 0.5}}, {{kL3, 1.0}}});
  ConstraintSet constraints(6);
  constraints.AddUnreachable(kL2, kL3);
  StreamingCleaner cleaner(constraints);
  ASSERT_TRUE(cleaner.Push(sequence.CandidatesAt(0)).ok());
  auto first = cleaner.CurrentDistribution();
  ASSERT_EQ(first.size(), 2u);
  ASSERT_TRUE(cleaner.Push(sequence.CandidatesAt(1)).ok());
  auto second = cleaner.CurrentDistribution();
  // Only the L1 branch can continue to L3.
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].first, kL3);
  EXPECT_NEAR(second[0].second, 1.0, 1e-12);
  EXPECT_EQ(cleaner.TicksSeen(), 2);
}

TEST(StreamingCleanerTest, DistributionsAlwaysSumToOne) {
  LSequence sequence = MakeLSequence({{{kL1, 0.4}, {kL2, 0.6}},
                                      {{kL1, 0.5}, {kL3, 0.5}},
                                      {{kL2, 0.3}, {kL3, 0.7}}});
  ConstraintSet constraints(6);
  constraints.AddUnreachable(kL2, kL1);
  StreamingCleaner cleaner(constraints);
  for (Timestamp t = 0; t < sequence.length(); ++t) {
    ASSERT_TRUE(cleaner.Push(sequence.CandidatesAt(t)).ok());
    double sum = 0.0;
    for (const auto& [location, probability] :
         cleaner.CurrentDistribution()) {
      EXPECT_GT(probability, 0.0);
      sum += probability;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(StreamingCleanerTest, DeadEndFailsAndStaysFailed) {
  ConstraintSet constraints(6);
  constraints.AddUnreachable(kL1, kL2);
  StreamingCleaner cleaner(constraints);
  ASSERT_TRUE(cleaner.Push({{kL1, 1.0}}).ok());
  Status dead = cleaner.Push({{kL2, 1.0}});
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.code(), StatusCode::kFailedPrecondition);
  // Previous state is intact and inspectable; further pushes are rejected.
  EXPECT_EQ(cleaner.TicksSeen(), 1);
  EXPECT_EQ(cleaner.CurrentDistribution()[0].first, kL1);
  EXPECT_FALSE(cleaner.Push({{kL1, 1.0}}).ok());
}

/// Builds the regression feed for the alpha-underflow path: the second
/// tick is structurally consistent (kL2 can reach kL4), but the only
/// surviving mass is 1e-200 · 1e-200, which underflows to exact zero.
ConstraintSet UnderflowConstraints() {
  ConstraintSet constraints(6);
  constraints.AddUnreachable(kL1, kL3);
  constraints.AddUnreachable(kL1, kL4);
  constraints.AddUnreachable(kL2, kL3);
  return constraints;
}

LSequence UnderflowSequence() {
  return MakeLSequence(
      {{{kL1, 1.0}, {kL2, 1e-200}}, {{kL3, 1.0}, {kL4, 1e-200}}});
}

/// The underflow feed's exact ct-graph: the single trajectory kL2 → kL4.
constexpr std::uint64_t kUnderflowDigest = 0x21bde9be47226a92ULL;

/// Cleans `sequence` through CtGraphBuilder::Build, a hand-driven
/// StreamingCleaner and a one-tag BatchCleaner, and expects each to return
/// the graph with `digest` and `nodes` nodes.
void ExpectOneGraphOnEveryPath(const ConstraintSet& constraints,
                               const LSequence& sequence,
                               std::uint64_t digest, std::size_t nodes) {
  Result<CtGraph> built = CtGraphBuilder(constraints).Build(sequence);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built.value().NumNodes(), nodes);
  EXPECT_EQ(built.value().Digest(), digest);

  StreamingCleaner cleaner(constraints);
  ASSERT_TRUE(PushAll(cleaner, sequence).ok());
  Result<CtGraph> streamed = std::move(cleaner).Finish();
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed.value().Digest(), digest);

  std::vector<TagOutcome> outcomes =
      BatchCleaner(constraints).CleanAll({TagWorkload{0, sequence}});
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].graph.ok())
      << outcomes[0].graph.status().ToString();
  EXPECT_EQ(outcomes[0].graph.value().Digest(), digest);
}

TEST(StreamingCleanerTest, AlphaUnderflowFailsCleanlyInsteadOfAborting) {
  // Denormal-scale candidate probabilities pass validation (each is > 0
  // and the sums are ~1), and on this feed the filtered estimate
  // underflows to zero. That is no reason to abort or fail: the exact
  // ct-graph exists, so Push keeps the layer and Finish returns the graph
  // Build returns.
  ConstraintSet constraints = UnderflowConstraints();
  StreamingCleaner cleaner(constraints);
  ASSERT_TRUE(cleaner.Push({{kL1, 1.0}, {kL2, 1e-200}}).ok());
  Status underflowed = cleaner.Push({{kL3, 1.0}, {kL4, 1e-200}});
  ASSERT_TRUE(underflowed.ok()) << underflowed.ToString();
  EXPECT_EQ(cleaner.TicksSeen(), 2);
  // The frontier mass reads as exact zeros from the underflow on.
  auto distribution = cleaner.CurrentDistribution();
  ASSERT_EQ(distribution.size(), 1u);
  EXPECT_EQ(distribution[0].first, kL4);
  EXPECT_EQ(distribution[0].second, 0.0);
  Result<CtGraph> graph = std::move(cleaner).Finish();
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph.value().NumNodes(), 2u);
  EXPECT_EQ(graph.value().Digest(), kUnderflowDigest);
  Result<CtGraph> built =
      CtGraphBuilder(constraints).Build(UnderflowSequence());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built.value().Digest(), kUnderflowDigest);
}

TEST(StreamingCleanerTest, AlphaUnderflowSurfacesThroughBatchCleaner) {
  // The batch runtime cleans the underflow feed to Build's graph, and the
  // neighboring tag is unaffected.
  ConstraintSet constraints = UnderflowConstraints();
  BatchCleaner batch(constraints);
  std::vector<TagWorkload> workloads;
  workloads.push_back(TagWorkload{7, UnderflowSequence()});
  workloads.push_back(
      TagWorkload{8, MakeLSequence({{{kL1, 1.0}}, {{kL2, 1.0}}})});
  std::vector<TagOutcome> outcomes = batch.CleanAll(workloads);
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_TRUE(outcomes[0].graph.ok())
      << outcomes[0].graph.status().ToString();
  EXPECT_EQ(outcomes[0].graph.value().Digest(), kUnderflowDigest);
  EXPECT_TRUE(outcomes[1].graph.ok());  // Neighbors are unaffected.
  Result<CtGraph> neighbor =
      CtGraphBuilder(constraints).Build(workloads[1].sequence);
  ASSERT_TRUE(neighbor.ok());
  EXPECT_EQ(outcomes[1].graph.value().Digest(), neighbor.value().Digest());
}

TEST(StreamingCleanerTest, LateAlphaUnderflowKeepsTheExactGraph) {
  // "Late death": the filtered mass of the 0 → 2 → ... branch dies at the
  // last tick (2 cannot reach 4), and the 1 → 3 → 4 branch that survives
  // carries 1e-200 · 1e-200 of filtered mass, which flushed to zero one
  // tick earlier. The exact graph is that one surviving branch.
  ConstraintSet constraints(5);
  constraints.AddUnreachable(0, 3);
  constraints.AddUnreachable(1, 2);
  constraints.AddUnreachable(2, 4);
  const LSequence sequence =
      MakeLSequence({{{0, 1.0}, {1, 1e-200}}, {{2, 1.0}, {3, 1e-200}},
                     {{4, 1.0}}});
  ExpectOneGraphOnEveryPath(constraints, sequence, 0x7cd88d673e482806ULL, 3);
}

TEST(StreamingCleanerTest, AlphaUnderflowIsBookedOnce) {
  // The whole unit of filtered mass is booked at the underflow tick: the
  // explain delta is 1 there and 0 at every later tick, and the counter
  // counts the tick once.
  ConstraintSet constraints = UnderflowConstraints();
  obs::StartExplain(obs::ExplainOptions());
  obs::CleaningStats::Reset();
  StreamingCleaner cleaner(constraints);
  ASSERT_TRUE(cleaner.Push({{kL1, 1.0}, {kL2, 1e-200}}).ok());
  ASSERT_TRUE(cleaner.Push({{kL3, 1.0}, {kL4, 1e-200}}).ok());
  ASSERT_TRUE(cleaner.Push({{kL4, 1.0}}).ok());
  EXPECT_EQ(cleaner.CurrentDistribution(),
            (std::vector<std::pair<LocationId, double>>{{kL4, 0.0}}));
  ASSERT_TRUE(std::move(cleaner).Finish().ok());
  const obs::CleaningStats stats = obs::CleaningStats::Capture();
  const obs::ExplainCollection collection = obs::CollectExplain();
  obs::StopExplain();
  if (obs::Enabled()) {
    EXPECT_EQ(stats.Get(obs::Counter::kStreamAlphaUnderflows), 1u);
  }
  if (obs::ExplainCompiledIn()) {
    ASSERT_EQ(collection.tags.size(), 1u);
    const std::vector<obs::ExplainTickSummary>& ticks =
        collection.tags[0].ticks;
    ASSERT_EQ(ticks.size(), 3u);
    EXPECT_EQ(ticks[0].alpha_delta, 0.0);
    EXPECT_EQ(ticks[1].alpha_delta, 1.0);
    EXPECT_EQ(ticks[2].alpha_delta, 0.0);
  }
}

TEST(StreamingTest, CurrentDistributionKeepsFirstEncounterOrder) {
  // Locks the output ordering contract of the location-indexed rewrite:
  // locations appear in first-encounter order over ascending frontier node
  // ids — NOT sorted by id or probability. kL3 is encountered before kL1
  // here because the kL3-interpretations of the frontier were generated
  // first (sources expand in candidate order).
  ConstraintSet constraints(6);
  StreamingCleaner cleaner(constraints);
  ASSERT_TRUE(cleaner.Push({{kL3, 0.5}, {kL1, 0.3}, {kL2, 0.2}}).ok());
  auto first = cleaner.CurrentDistribution();
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].first, kL3);
  EXPECT_EQ(first[1].first, kL1);
  EXPECT_EQ(first[2].first, kL2);
  EXPECT_NEAR(first[0].second, 0.5, 1e-12);
  EXPECT_NEAR(first[1].second, 0.3, 1e-12);
  EXPECT_NEAR(first[2].second, 0.2, 1e-12);
  // Unconstrained second tick: every frontier node reaches both locations,
  // and each location's mass accumulates over all three parents.
  ASSERT_TRUE(cleaner.Push({{kL2, 0.75}, {kL1, 0.25}}).ok());
  auto second = cleaner.CurrentDistribution();
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].first, kL2);
  EXPECT_EQ(second[1].first, kL1);
  EXPECT_NEAR(second[0].second, 0.75, 1e-12);
  EXPECT_NEAR(second[1].second, 0.25, 1e-12);
}

TEST(StreamingCleanerTest, RejectsMalformedTicks) {
  ConstraintSet constraints(6);
  StreamingCleaner cleaner(constraints);
  EXPECT_FALSE(cleaner.Push({}).ok());
  EXPECT_FALSE(cleaner.Push({{kL1, 0.5}}).ok());            // Sum != 1.
  EXPECT_FALSE(cleaner.Push({{kL1, 0.0}, {kL2, 1.0}}).ok());  // Zero prob.
  EXPECT_FALSE(cleaner.Push({{kInvalidLocation, 1.0}}).ok());
  // Valid tick still accepted afterwards (validation failures don't poison).
  EXPECT_TRUE(cleaner.Push({{kL1, 1.0}}).ok());
}

/// A three-tick sequence whose middle tick holds a statically dead
/// candidate: L2 is severed from every other location, so a preflight plan
/// prunes it (the plan's FilterTick path runs on that tick).
struct PrunedTickFixture {
  PrunedTickFixture() : constraints(3) {
    constraints.AddUnreachable(kL1, kL2);
    constraints.AddUnreachable(kL2, kL1);
    constraints.AddUnreachable(0, kL2);
    constraints.AddUnreachable(kL2, 0);
    sequence = MakeLSequence({{{kL1, 1.0}},
                              {{kL2, 0.25}, {kL1, 0.5}, {0, 0.25}},
                              {{kL1, 1.0}}});
    plan = FeasibilityOracle(constraints).Analyze(sequence);
  }

  /// Pushes a tick one candidate wider than the plan's tick 1 and checks
  /// that the cleaner rejects it and then finishes exactly like a build
  /// without the bad tick.
  void ExpectExtraCandidateRejected() {
    ASSERT_TRUE(plan.PrunedAt(1));
    StreamingCleaner cleaner(constraints);
    cleaner.SetPreflightPlan(&plan);
    ASSERT_TRUE(cleaner.Push(sequence.CandidatesAt(0)).ok());
    const Status status =
        cleaner.Push({{kL2, 0.25}, {kL1, 0.25}, {0, 0.25}, {kL1, 0.25}});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("tick 1 has 4 candidates"),
              std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("plan has 3"), std::string::npos);
    EXPECT_EQ(cleaner.TicksSeen(), 1);
    ASSERT_TRUE(cleaner.Push(sequence.CandidatesAt(1)).ok());
    ASSERT_TRUE(cleaner.Push(sequence.CandidatesAt(2)).ok());
    Result<CtGraph> graph = std::move(cleaner).Finish();
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    Result<CtGraph> reference = CtGraphBuilder(constraints).Build(sequence);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(graph.value().Digest(), reference.value().Digest());
  }

  ConstraintSet constraints;
  LSequence sequence;
  PreflightPlan plan;
};

TEST(StreamingCleanerTest, PushPastThePreflightPlanIsInvalidArgument) {
  PrunedTickFixture fixture;
  StreamingCleaner cleaner(fixture.constraints);
  cleaner.SetPreflightPlan(&fixture.plan);
  ASSERT_TRUE(PushAll(cleaner, fixture.sequence).ok());
  const Status status = cleaner.Push({{kL1, 1.0}});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("tick 3 is past the preflight plan, "
                                  "which covers 3 ticks"),
            std::string::npos)
      << status.message();
  EXPECT_EQ(cleaner.TicksSeen(), 3);
  Result<CtGraph> graph = std::move(cleaner).Finish();
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph.value().length(), 3);
}

TEST(StreamingCleanerTest, TickWiderThanThePreflightPlanIsInvalidArgument) {
  PrunedTickFixture fixture;
  fixture.ExpectExtraCandidateRejected();
}

TEST(StreamingCleanerTest,
     TickWiderThanThePreflightPlanIsInvalidArgumentUnderExplain) {
  PrunedTickFixture fixture;
  obs::StartExplain(obs::ExplainOptions());
  fixture.ExpectExtraCandidateRejected();
  obs::StopExplain();
}

class StreamingPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(StreamingPropertyTest, StreamedGraphEqualsBatchGraph) {
  Rng rng(static_cast<std::uint64_t>(GetParam()), /*stream=*/51);
  const std::size_t num_locations = 4;
  const Timestamp length = static_cast<Timestamp>(rng.UniformInt(2, 8));
  std::vector<std::vector<Candidate>> spec;
  for (Timestamp t = 0; t < length; ++t) {
    std::vector<Candidate> at_t;
    double total = 0.0;
    for (LocationId l = 0; l < static_cast<LocationId>(num_locations); ++l) {
      if (rng.Bernoulli(0.5)) {
        at_t.push_back(Candidate{l, rng.UniformDouble(0.1, 1.0)});
      }
    }
    if (at_t.empty()) at_t.push_back(Candidate{0, 1.0});
    for (const Candidate& candidate : at_t) total += candidate.probability;
    for (Candidate& candidate : at_t) candidate.probability /= total;
    spec.push_back(std::move(at_t));
  }
  Result<LSequence> sequence = LSequence::Create(std::move(spec));
  ASSERT_TRUE(sequence.ok());
  ConstraintSet constraints(num_locations);
  for (std::size_t a = 0; a < num_locations; ++a) {
    for (std::size_t b = 0; b < num_locations; ++b) {
      if (a != b && rng.Bernoulli(0.25)) {
        constraints.AddUnreachable(static_cast<LocationId>(a),
                                   static_cast<LocationId>(b));
      }
    }
    if (rng.Bernoulli(0.25)) {
      constraints.AddLatency(static_cast<LocationId>(a), 2);
    }
    for (std::size_t b = 0; b < num_locations; ++b) {
      if (a != b && rng.Bernoulli(0.15)) {
        constraints.AddTravelingTime(static_cast<LocationId>(a),
                                     static_cast<LocationId>(b),
                                     static_cast<Timestamp>(
                                         rng.UniformInt(2, 4)));
      }
    }
  }

  CtGraphBuilder builder(constraints);
  Result<CtGraph> batch = builder.Build(sequence.value());
  StreamingCleaner cleaner(constraints);
  Status streamed_status = PushAll(cleaner, sequence.value());
  if (!batch.ok()) {
    // The stream must fail at some tick (possibly only at Finish when the
    // last layers die retroactively — filtering cannot foresee the future,
    // so acceptance of every tick does not contradict batch failure).
    if (streamed_status.ok()) {
      Result<CtGraph> finished = std::move(cleaner).Finish();
      EXPECT_FALSE(finished.ok());
    }
    return;
  }
  ASSERT_TRUE(streamed_status.ok()) << streamed_status.ToString();
  Result<CtGraph> streamed = std::move(cleaner).Finish();
  ASSERT_TRUE(streamed.ok());
  ASSERT_TRUE(streamed.value().CheckConsistency().ok());
  EXPECT_EQ(streamed.value().NumNodes(), batch.value().NumNodes());
  EXPECT_EQ(streamed.value().NumEdges(), batch.value().NumEdges());
  auto expected = batch.value().EnumerateTrajectories();
  for (const auto& [trajectory, probability] : expected) {
    EXPECT_NEAR(streamed.value().TrajectoryProbability(trajectory),
                probability, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingPropertyTest,
                         ::testing::Range(0, 40));

TEST(StreamingCleanerTest, WorksOnRealPipelineData) {
  DatasetOptions options = DatasetOptions::Syn1();
  options.num_floors = 2;
  options.durations_ticks = {90};
  options.trajectories_per_duration = 1;
  options.seed = 77;
  std::unique_ptr<Dataset> dataset = Dataset::Build(options);
  const Dataset::Item& item = dataset->items()[0];
  ConstraintSet constraints =
      dataset->MakeConstraints(ConstraintFamilies::DuLtTt());

  StreamingCleaner cleaner(constraints);
  ASSERT_TRUE(PushAll(cleaner, item.lsequence).ok());
  Result<CtGraph> streamed = std::move(cleaner).Finish();
  ASSERT_TRUE(streamed.ok());

  CtGraphBuilder builder(constraints);
  Result<CtGraph> batch = builder.Build(item.lsequence);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(streamed.value().NumNodes(), batch.value().NumNodes());
  EXPECT_EQ(streamed.value().NumEdges(), batch.value().NumEdges());
  // Identical stay marginals.
  StayQueryEvaluator a(streamed.value());
  StayQueryEvaluator b(batch.value());
  for (Timestamp t = 0; t < 90; t += 9) {
    for (const auto& [location, probability] : b.Evaluate(t)) {
      EXPECT_NEAR(a.Probability(t, location), probability, 1e-9);
    }
  }
}


class FilteringPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FilteringPropertyTest, CurrentDistributionEqualsPrefixGraphMarginal) {
  // The filtered distribution after k ticks must equal the conditioned
  // marginal at the *last* layer of the ct-graph built on the k-tick
  // prefix: suffix conditioning beyond the frontier does not exist yet, so
  // filtering and smoothing coincide exactly there.
  Rng rng(static_cast<std::uint64_t>(GetParam()), /*stream=*/52);
  const Timestamp length = static_cast<Timestamp>(rng.UniformInt(2, 7));
  std::vector<std::vector<Candidate>> spec;
  for (Timestamp t = 0; t < length; ++t) {
    std::vector<Candidate> at_t;
    double total = 0.0;
    for (LocationId l = 0; l < 4; ++l) {
      if (rng.Bernoulli(0.6)) {
        at_t.push_back(Candidate{l, rng.UniformDouble(0.1, 1.0)});
      }
    }
    if (at_t.empty()) at_t.push_back(Candidate{0, 1.0});
    for (const Candidate& candidate : at_t) total += candidate.probability;
    for (Candidate& candidate : at_t) candidate.probability /= total;
    spec.push_back(std::move(at_t));
  }
  ConstraintSet constraints(4);
  for (LocationId a = 0; a < 4; ++a) {
    for (LocationId b = 0; b < 4; ++b) {
      if (a != b && rng.Bernoulli(0.2)) constraints.AddUnreachable(a, b);
    }
    if (rng.Bernoulli(0.2)) constraints.AddLatency(a, 2);
  }

  StreamingCleaner cleaner(constraints);
  CtGraphBuilder builder(constraints);
  for (Timestamp k = 1; k <= length; ++k) {
    Status pushed = cleaner.Push(spec[static_cast<std::size_t>(k) - 1]);
    std::vector<std::vector<Candidate>> prefix(spec.begin(),
                                               spec.begin() + k);
    Result<LSequence> prefix_sequence = LSequence::Create(std::move(prefix));
    ASSERT_TRUE(prefix_sequence.ok());
    Result<CtGraph> prefix_graph = builder.Build(prefix_sequence.value());
    if (!pushed.ok()) {
      EXPECT_FALSE(prefix_graph.ok());
      return;
    }
    ASSERT_TRUE(prefix_graph.ok());
    StayQueryEvaluator evaluator(prefix_graph.value());
    for (const auto& [location, probability] :
         cleaner.CurrentDistribution()) {
      EXPECT_NEAR(evaluator.Probability(k - 1, location), probability,
                  1e-9)
          << "k=" << k << " location=" << location;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilteringPropertyTest,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace rfidclean
