// Correctness of the observability layer (obs/metrics.h +
// obs/cleaning_stats.h): on deterministic workloads the aggregated counters
// must equal exact, independently derived values — BuildStats totals, the
// ct-graph auditor's tallies, hand-counted node/edge counts — and the
// cross-counter invariants must hold. Every test runs in its own process
// (gtest_discover_tests), so Reset() gives each one a clean window.

#include "obs/cleaning_stats.h"

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/work_graph_audit.h"
#include "core/builder.h"
#include "core/forward.h"
#include "core/successor.h"
#include "io/ctgraph_io.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "runtime/batch_cleaner.h"
#include "test_util.h"

namespace rfidclean {
namespace {

using ::rfidclean::testing::MakeLSequence;
using ::rfidclean::testing::PaperExampleConstraints;
using ::rfidclean::testing::PaperExampleSequence;

std::string Serialize(const CtGraph& graph) {
  std::ostringstream os;
  WriteCtGraph(graph, os);
  return os.str();
}

/// A width-2 workload with no constraints: every node at tick t connects to
/// both nodes at tick t+1, so all counts are computable by hand.
LSequence UniformTwoLocationSequence(Timestamp length) {
  std::vector<std::vector<std::pair<LocationId, double>>> spec;
  for (Timestamp t = 0; t < length; ++t) {
    spec.push_back({{0, 0.5}, {1, 0.5}});
  }
  return MakeLSequence(std::move(spec));
}

TEST(CleaningStatsTest, DisabledBuildCapturesAllZeros) {
  if (obs::Enabled()) GTEST_SKIP() << "stats compiled in";
  ConstraintSet constraints = PaperExampleConstraints();
  CtGraphBuilder builder(constraints);
  ASSERT_TRUE(builder.Build(PaperExampleSequence()).ok());
  const obs::CleaningStats stats = obs::CleaningStats::Capture();
  for (int i = 0; i < obs::kNumCounters; ++i) EXPECT_EQ(stats.counters[i], 0u);
  EXPECT_TRUE(stats.CheckInvariants().empty());
}

TEST(CleaningStatsTest, HandCountableWorkloadYieldsExactCounters) {
  if (!obs::Enabled()) GTEST_SKIP() << "stats compiled out";
  const Timestamp kTicks = 6;
  ConstraintSet constraints(2);
  CtGraphBuilder builder(constraints);
  obs::CleaningStats::Reset();
  BuildStats build_stats;
  Result<CtGraph> graph =
      builder.Build(UniformTwoLocationSequence(kTicks), &build_stats);
  ASSERT_TRUE(graph.ok());
  const obs::CleaningStats stats = obs::CleaningStats::Capture();

  // Width-2 layers, fully connected: 2 nodes per tick, 4 edges per gap.
  EXPECT_EQ(stats.Get(obs::Counter::kForwardLayers),
            static_cast<std::uint64_t>(kTicks));
  EXPECT_EQ(stats.Get(obs::Counter::kForwardNodes),
            static_cast<std::uint64_t>(2 * kTicks));
  EXPECT_EQ(stats.Get(obs::Counter::kForwardEdges),
            static_cast<std::uint64_t>(4 * (kTicks - 1)));
  // Every non-final node goes through expansion or the memo, never both.
  EXPECT_EQ(stats.Get(obs::Counter::kForwardExpansions) +
                stats.Get(obs::Counter::kForwardMemoHits),
            static_cast<std::uint64_t>(2 * (kTicks - 1)));
  // Unconstrained and uniform: conditioning kills nothing.
  EXPECT_EQ(stats.Get(obs::Counter::kBackwardEdgesKilled), 0u);
  EXPECT_EQ(stats.Get(obs::Counter::kBackwardEdgesKept),
            static_cast<std::uint64_t>(4 * (kTicks - 1)));
  EXPECT_EQ(stats.Get(obs::Counter::kBackwardNodesDead), 0u);

  // Layer-width histogram: kTicks samples, each exactly 2, which lands in
  // log2 bucket bit_width(2) == 2.
  const obs::HistogramData& widths = stats.Hist(obs::Dist::kLayerWidth);
  EXPECT_EQ(widths.count, static_cast<std::uint64_t>(kTicks));
  EXPECT_EQ(widths.sum, static_cast<std::uint64_t>(2 * kTicks));
  EXPECT_EQ(widths.max, 2u);
  EXPECT_EQ(widths.buckets[2], static_cast<std::uint64_t>(kTicks));

  EXPECT_TRUE(stats.CheckInvariants().empty());
}

TEST(CleaningStatsTest, CountersMatchBuildStats) {
  if (!obs::Enabled()) GTEST_SKIP() << "stats compiled out";
  ConstraintSet constraints = PaperExampleConstraints();
  CtGraphBuilder builder(constraints);
  obs::CleaningStats::Reset();
  BuildStats build_stats;
  Result<CtGraph> graph =
      builder.Build(PaperExampleSequence(), &build_stats);
  ASSERT_TRUE(graph.ok());
  const obs::CleaningStats stats = obs::CleaningStats::Capture();

  EXPECT_EQ(stats.Get(obs::Counter::kForwardNodes), build_stats.peak_nodes);
  EXPECT_EQ(stats.Get(obs::Counter::kForwardEdges), build_stats.peak_edges);
  EXPECT_EQ(stats.Get(obs::Counter::kForwardKeysInterned),
            build_stats.peak_keys);
  EXPECT_EQ(stats.Get(obs::Counter::kBackwardEdgesBuilt),
            build_stats.peak_edges);
  // Compaction keeps exactly the surviving edges and drops the dead nodes.
  EXPECT_EQ(stats.Get(obs::Counter::kBackwardEdgesKept),
            build_stats.final_edges);
  EXPECT_EQ(stats.Get(obs::Counter::kForwardNodes) -
                stats.Get(obs::Counter::kBackwardNodesDead),
            build_stats.final_nodes);
  EXPECT_TRUE(stats.CheckInvariants().empty());
}

TEST(CleaningStatsTest, CountersMatchWorkGraphAuditor) {
  if (!obs::Enabled()) GTEST_SKIP() << "stats compiled out";
  ConstraintSet constraints = PaperExampleConstraints();
  LSequence sequence = PaperExampleSequence();
  SuccessorGenerator successors(constraints);
  internal_core::ForwardEngine engine(constraints.num_locations());
  obs::CleaningStats::Reset();
  engine.BeginSources(successors, sequence.CandidatesAt(0));
  for (Timestamp t = 0; t + 1 < sequence.length(); ++t) {
    engine.AdvanceLayer(successors, t, sequence.CandidatesAt(t + 1));
  }
  const obs::CleaningStats stats = obs::CleaningStats::Capture();

  // The invariant auditor re-derives the same totals from the CSR layout;
  // the counters and the auditor must agree node for node, edge for edge.
  AuditReport report = AuditWorkGraph(engine.work());
  ASSERT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(stats.Get(obs::Counter::kForwardNodes), report.nodes_checked);
  EXPECT_EQ(stats.Get(obs::Counter::kForwardEdges), report.edges_checked);
  EXPECT_EQ(stats.Get(obs::Counter::kForwardLayers),
            static_cast<std::uint64_t>(report.length));
}

TEST(CleaningStatsTest, IdenticalRunsProduceIdenticalCounters) {
  if (!obs::Enabled()) GTEST_SKIP() << "stats compiled out";
  ConstraintSet constraints = PaperExampleConstraints();
  CtGraphBuilder builder(constraints);
  obs::CleaningStats::Reset();
  ASSERT_TRUE(builder.Build(PaperExampleSequence()).ok());
  const obs::CleaningStats first = obs::CleaningStats::Capture();
  obs::CleaningStats::Reset();
  ASSERT_TRUE(builder.Build(PaperExampleSequence()).ok());
  const obs::CleaningStats second = obs::CleaningStats::Capture();
  for (int i = 0; i < obs::kNumCounters; ++i) {
    EXPECT_EQ(first.counters[i], second.counters[i])
        << obs::CounterName(static_cast<obs::Counter>(i));
  }
}

TEST(CleaningStatsTest, InstrumentationDoesNotPerturbTheGraph) {
  ConstraintSet constraints = PaperExampleConstraints();
  CtGraphBuilder builder(constraints);
  Result<CtGraph> plain = builder.Build(PaperExampleSequence());
  ASSERT_TRUE(plain.ok());
  obs::CleaningStats::Reset();
  Result<CtGraph> observed = builder.Build(PaperExampleSequence());
  ASSERT_TRUE(observed.ok());
  (void)obs::CleaningStats::Capture();
  EXPECT_EQ(Serialize(plain.value()), Serialize(observed.value()));
}

TEST(CleaningStatsTest, ResetZeroesEveryCounter) {
  if (!obs::Enabled()) GTEST_SKIP() << "stats compiled out";
  ConstraintSet constraints = PaperExampleConstraints();
  CtGraphBuilder builder(constraints);
  ASSERT_TRUE(builder.Build(PaperExampleSequence()).ok());
  obs::CleaningStats::Reset();
  const obs::CleaningStats stats = obs::CleaningStats::Capture();
  for (int i = 0; i < obs::kNumCounters; ++i) {
    EXPECT_EQ(stats.counters[i], 0u)
        << obs::CounterName(static_cast<obs::Counter>(i));
  }
  for (int i = 0; i < obs::kNumDists; ++i) {
    EXPECT_EQ(stats.dists[i].count, 0u);
  }
}

TEST(CleaningStatsTest, BatchCountersAggregateAcrossWorkerThreads) {
  if (!obs::Enabled()) GTEST_SKIP() << "stats compiled out";
  // 16 cleanable tags, one dead tag, one empty stream, across 4 workers:
  // the thread-local sinks (folded when each worker exits) must sum to the
  // full taxonomy, and the arena provisioning counters must cover every
  // tag exactly once.
  ConstraintSet constraints(2);
  constraints.AddUnreachable(0, 1);
  constraints.AddUnreachable(1, 0);
  std::vector<TagWorkload> workloads;
  for (int k = 0; k < 16; ++k) {
    std::vector<std::vector<std::pair<LocationId, double>>> spec(
        5, {{k % 2, 1.0}});
    workloads.push_back(TagWorkload{k, MakeLSequence(std::move(spec))});
  }
  workloads.push_back(
      TagWorkload{16, MakeLSequence({{{0, 1.0}}, {{1, 1.0}}})});  // dies
  workloads.push_back(TagWorkload{17, LSequence()});  // rejected up front

  BatchOptions options;
  options.jobs = 4;
  BatchCleaner cleaner(constraints, options);
  obs::CleaningStats::Reset();
  std::vector<TagOutcome> outcomes = cleaner.CleanAll(workloads);
  const obs::CleaningStats stats = obs::CleaningStats::Capture();

  ASSERT_EQ(outcomes.size(), 18u);
  EXPECT_EQ(stats.Get(obs::Counter::kBatchTagsCleaned), 16u);
  EXPECT_EQ(stats.Get(obs::Counter::kBatchTagsFailedPrecondition), 1u);
  EXPECT_EQ(stats.Get(obs::Counter::kBatchTagsInvalidArgument), 1u);
  EXPECT_EQ(stats.Get(obs::Counter::kBatchTagsInternalError), 0u);
  EXPECT_EQ(stats.Get(obs::Counter::kBatchArenaReuses) +
                stats.Get(obs::Counter::kBatchArenaColdStarts),
            18u);
  EXPECT_EQ(stats.Hist(obs::Dist::kTagMicros).count, 18u);
  EXPECT_TRUE(stats.CheckInvariants().empty());
}

TEST(CleaningStatsTest, ThrowingTagStillBalancesTheTaxonomy) {
  if (!obs::Enabled()) GTEST_SKIP() << "stats compiled out";
  ConstraintSet constraints(2);
  BatchOptions options;
  options.jobs = 2;
  options.before_tag = [](std::size_t index) {
    if (index == 1) throw std::runtime_error("injected fault");
  };
  BatchCleaner cleaner(constraints, options);
  std::vector<TagWorkload> workloads;
  for (int k = 0; k < 4; ++k) {
    workloads.push_back(
        TagWorkload{k, UniformTwoLocationSequence(4)});
  }
  obs::CleaningStats::Reset();
  cleaner.CleanAll(workloads);
  const obs::CleaningStats stats = obs::CleaningStats::Capture();
  EXPECT_EQ(stats.Get(obs::Counter::kBatchTagsCleaned), 3u);
  EXPECT_EQ(stats.Get(obs::Counter::kBatchTagsInternalError), 1u);
  // The thrown-before-cleaning shard still received its provision count.
  EXPECT_EQ(stats.Get(obs::Counter::kBatchArenaReuses) +
                stats.Get(obs::Counter::kBatchArenaColdStarts),
            4u);
  EXPECT_TRUE(stats.CheckInvariants().empty());
}

TEST(CleaningStatsTest, DeltaSinceIsolatesAWindow) {
  if (!obs::Enabled()) GTEST_SKIP() << "stats compiled out";
  ConstraintSet constraints = PaperExampleConstraints();
  CtGraphBuilder builder(constraints);
  obs::CleaningStats::Reset();
  ASSERT_TRUE(builder.Build(PaperExampleSequence()).ok());
  const obs::CleaningStats before = obs::CleaningStats::Capture();
  ASSERT_TRUE(builder.Build(PaperExampleSequence()).ok());
  const obs::CleaningStats after = obs::CleaningStats::Capture();
  const obs::CleaningStats delta = after.DeltaSince(before);
  // The second build contributes exactly the same counts as the first.
  for (int i = 0; i < obs::kNumCounters; ++i) {
    EXPECT_EQ(delta.counters[i], before.counters[i])
        << obs::CounterName(static_cast<obs::Counter>(i));
  }
}

TEST(CleaningStatsTest, CaptureResetDeltaRoundTripAcrossThreads) {
  if (!obs::Enabled()) GTEST_SKIP() << "stats compiled out";
  // Delta windows are how long-running embedders meter individual batches
  // out of the cumulative process-wide counters. Two back-to-back identical
  // batch runs on 4 workers: the delta between their captures must be
  // exactly one run's worth of work — counted across the worker threads
  // that folded their sinks in between — and can never underflow.
  ConstraintSet constraints(2);
  std::vector<TagWorkload> workloads;
  for (int k = 0; k < 12; ++k) {
    workloads.push_back(TagWorkload{k, UniformTwoLocationSequence(5)});
  }
  BatchOptions options;
  options.jobs = 4;
  BatchCleaner cleaner(constraints, options);

  obs::CleaningStats::Reset();
  cleaner.CleanAll(workloads);
  const obs::CleaningStats first = obs::CleaningStats::Capture();
  cleaner.CleanAll(workloads);
  const obs::CleaningStats second = obs::CleaningStats::Capture();
  const obs::CleaningStats delta = second.DeltaSince(first);

  // Counters are cumulative, so a later capture dominates an earlier one
  // pointwise and the delta can never exceed the later capture.
  for (int i = 0; i < obs::kNumCounters; ++i) {
    EXPECT_LE(delta.counters[i], second.counters[i])
        << obs::CounterName(static_cast<obs::Counter>(i));
  }

  // The delta must equal a fresh, reset-scoped run of the same workload.
  // Arena provisioning splits between its two counters by schedule (an
  // arena is warm or cold), so those compare as a pair sum; key-probe step
  // counts depend on the recycled table capacities. Everything else is
  // workload-determined.
  obs::CleaningStats::Reset();
  cleaner.CleanAll(workloads);
  const obs::CleaningStats fresh = obs::CleaningStats::Capture();
  for (int i = 0; i < obs::kNumCounters; ++i) {
    const obs::Counter counter = static_cast<obs::Counter>(i);
    if (counter == obs::Counter::kBatchArenaReuses ||
        counter == obs::Counter::kBatchArenaColdStarts ||
        counter == obs::Counter::kKeyProbeSteps) {
      continue;
    }
    EXPECT_EQ(delta.counters[i], fresh.counters[i])
        << obs::CounterName(counter);
  }
  EXPECT_EQ(delta.Get(obs::Counter::kBatchArenaReuses) +
                delta.Get(obs::Counter::kBatchArenaColdStarts),
            fresh.Get(obs::Counter::kBatchArenaReuses) +
                fresh.Get(obs::Counter::kBatchArenaColdStarts));
  // A window of whole cleanings satisfies the same cross-counter
  // invariants as a from-reset capture.
  EXPECT_TRUE(delta.CheckInvariants().empty());
}

TEST(CleaningStatsTest, PerPhaseMassLossCountersReconcileWithExplain) {
  if (!obs::Enabled()) GTEST_SKIP() << "stats compiled out";
  if (!obs::ExplainCompiledIn()) GTEST_SKIP() << "explain compiled out";
  // The stats layer meters conditioning loss as two per-phase ppb counters
  // (backward sweep vs compaction of stranded source mass). The explain
  // report derives the same split independently from the attribution pass;
  // on the same clean the integer counters must match exactly, not within
  // tolerance.
  ConstraintSet constraints = PaperExampleConstraints();
  CtGraphBuilder builder(constraints);
  obs::CleaningStats::Reset();
  obs::StartExplain(obs::ExplainOptions());
  obs::SetExplainTag(0);
  ASSERT_TRUE(builder.Build(PaperExampleSequence()).ok());
  const obs::CleaningStats stats = obs::CleaningStats::Capture();
  const obs::ExplainCollection collection = obs::CollectExplain();
  obs::StopExplain();

  ASSERT_EQ(collection.tags.size(), 1u);
  const obs::ExplainTagSummary& summary = collection.tags[0];
  // One build, one sample per distribution: the histogram sum IS the
  // sampled ppb value, and it must equal the report's integer exactly.
  const obs::HistogramData& backward =
      stats.Hist(obs::Dist::kMassLostBackwardPpb);
  const obs::HistogramData& compaction =
      stats.Hist(obs::Dist::kMassLostCompactionPpb);
  EXPECT_EQ(backward.count, 1u);
  EXPECT_EQ(compaction.count, 1u);
  EXPECT_EQ(backward.sum, summary.mass_lost_backward_ppb);
  EXPECT_EQ(compaction.sum, summary.mass_lost_compaction_ppb);
  // The splits partition one clean's total loss; neither leg can exceed
  // the whole distribution's mass.
  EXPECT_LE(summary.mass_lost_backward_ppb + summary.mass_lost_compaction_ppb,
            1000000000u);
  EXPECT_TRUE(stats.CheckInvariants().empty());
}

TEST(CleaningStatsTest, WriteJsonEmitsEveryNamedField) {
  obs::CleaningStats stats = obs::CleaningStats::Capture();
  std::ostringstream os;
  stats.WriteJson(os);
  const std::string json = os.str();
  for (int i = 0; i < obs::kNumCounters; ++i) {
    EXPECT_NE(json.find(obs::CounterName(static_cast<obs::Counter>(i))),
              std::string::npos);
  }
  for (int i = 0; i < obs::kNumPhases; ++i) {
    EXPECT_NE(json.find(obs::PhaseName(static_cast<obs::Phase>(i))),
              std::string::npos);
  }
  for (int i = 0; i < obs::kNumDists; ++i) {
    EXPECT_NE(json.find(obs::DistName(static_cast<obs::Dist>(i))),
              std::string::npos);
  }
  EXPECT_NE(json.find("\"stats_enabled\""), std::string::npos);
}

}  // namespace
}  // namespace rfidclean
