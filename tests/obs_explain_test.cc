// Correctness of the decision-level explain layer (obs/explain.h +
// obs/explain_export.h + store/explain_codec.h): attribution summaries must
// name the exact kill set on hand-checkable workloads, conserve probability
// mass (attributed + surviving = 1), agree with the preflight-off clean on
// *what* died (only the phase labels may move), leave the cleaned graph
// byte-identical, survive the store codec bit for bit, and export
// deterministically. Every test runs in its own process
// (gtest_discover_tests), so explain sessions never leak across tests.

#include "obs/explain.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/builder.h"
#include "core/streaming.h"
#include "gen/dataset.h"
#include "io/ctgraph_io.h"
#include "obs/explain_export.h"
#include "runtime/batch_cleaner.h"
#include "store/ct_store.h"
#include "store/explain_codec.h"
#include "store/graph_codec.h"
#include "test_util.h"

namespace rfidclean {
namespace {

using ::rfidclean::testing::kL2;
using ::rfidclean::testing::kL4;
using ::rfidclean::testing::kL5;
using ::rfidclean::testing::MakeLSequence;
using ::rfidclean::testing::PaperExampleConstraints;
using ::rfidclean::testing::PaperExampleSequence;

using KillKey = std::pair<std::int32_t, std::int32_t>;  // (time, location)

std::set<KillKey> KillSet(const obs::ExplainTagSummary& summary) {
  std::set<KillKey> keys;
  for (const obs::ExplainKilledCandidate& candidate :
       summary.killed_candidates) {
    keys.insert({candidate.time, candidate.location});
  }
  return keys;
}

std::string Serialize(const CtGraph& graph) {
  std::ostringstream os;
  WriteCtGraph(graph, os);
  return os.str();
}

/// Cleans one sequence under a fresh explain session and returns the
/// (single) recorded summary; the cleaned graph goes to `graph_out` if
/// given.
obs::ExplainTagSummary ExplainOneClean(const ConstraintSet& constraints,
                                       const LSequence& sequence,
                                       bool preflight = true,
                                       CtGraph* graph_out = nullptr) {
  obs::StartExplain(obs::ExplainOptions());
  CleanOptions clean;
  clean.preflight = preflight;
  CtGraphBuilder builder(constraints, clean);
  Result<CtGraph> graph = builder.Build(sequence);
  RFID_CHECK(graph.ok());
  obs::ExplainCollection collection = obs::CollectExplain();
  obs::StopExplain();
  RFID_CHECK(collection.tags.size() == 1);
  if (graph_out != nullptr) *graph_out = std::move(graph).value();
  return std::move(collection.tags[0]);
}

/// The candidates of `sequence` that `graph` holds no node for.
std::set<KillKey> AbsentCandidates(const LSequence& sequence,
                                   const CtGraph& graph) {
  std::set<KillKey> absent;
  for (Timestamp t = 0; t < sequence.length(); ++t) {
    std::set<LocationId> present;
    for (const NodeId id : graph.NodesAt(t)) {
      present.insert(graph.LocationOf(id));
    }
    for (const Candidate& candidate : sequence.CandidatesAt(t)) {
      if (present.count(candidate.location) == 0) {
        absent.insert({t, candidate.location});
      }
    }
  }
  return absent;
}

TEST(ExplainTest, DisabledBuildCollectsNothing) {
  if (obs::ExplainCompiledIn()) GTEST_SKIP() << "explain compiled in";
  obs::StartExplain(obs::ExplainOptions());
  EXPECT_FALSE(obs::ExplainArmed());
  ConstraintSet constraints = PaperExampleConstraints();
  CtGraphBuilder builder(constraints);
  ASSERT_TRUE(builder.Build(PaperExampleSequence()).ok());
  const obs::ExplainCollection collection = obs::CollectExplain();
  EXPECT_TRUE(collection.tags.empty());
  obs::StopExplain();
}

TEST(ExplainTest, PaperExampleNamesTheExactKillSet) {
  if (!obs::ExplainCompiledIn()) GTEST_SKIP() << "explain compiled out";
  // The running example admits exactly one valid trajectory, L1 L3 L3, so
  // conditioning must kill precisely the other three candidates — no more,
  // no fewer — and the attribution must say so by (time, location).
  const obs::ExplainTagSummary summary =
      ExplainOneClean(PaperExampleConstraints(), PaperExampleSequence());

  EXPECT_EQ(summary.status, "ok");
  const std::set<KillKey> expected = {{0, kL2}, {1, kL4}, {2, kL5}};
  EXPECT_EQ(KillSet(summary), expected);
  EXPECT_EQ(summary.killed_candidates_truncated, 0u);

  // Mass conservation: the surviving a-priori mass is exactly the one
  // valid trajectory's product, 0.6 * 1/3 * 2/3.
  EXPECT_PROB_NEAR(summary.surviving_mass, 0.6 * (1.0 / 3) * (2.0 / 3));
  EXPECT_PROB_NEAR(summary.surviving_mass + summary.attributed_mass, 1.0);

  // Rollup consistency: phase kills and constraint kills count the same
  // decisions (kRenormalized entries are informational, never kills).
  std::uint64_t phase_total = 0;
  for (int p = 0; p < obs::kNumExplainPhases; ++p) {
    phase_total += summary.phase_kills[p];
  }
  std::uint64_t constraint_total = 0;
  double constraint_mass = 0.0;
  for (int c = 0; c < obs::kNumExplainConstraints; ++c) {
    constraint_total += summary.constraints[c].kills;
    constraint_mass += summary.constraints[c].mass;
  }
  EXPECT_EQ(phase_total, constraint_total);
  EXPECT_GT(phase_total, 0u);
  EXPECT_PROB_NEAR(constraint_mass, summary.attributed_mass);

  // The uncertainty-reduction series covers every timestamp and its killed
  // counts agree with the candidate-level kill set.
  ASSERT_EQ(summary.ticks.size(), 3u);
  for (const obs::ExplainTickSummary& tick : summary.ticks) {
    EXPECT_EQ(tick.candidates, 2u);
    EXPECT_EQ(tick.killed, 1u);
  }
}

TEST(ExplainTest, MassConservesOnGeneratedWorkloads) {
  if (!obs::ExplainCompiledIn()) GTEST_SKIP() << "explain compiled out";
  // On realistic generated data every cleaned tag's attribution must
  // account for the whole a-priori interpretation space: root-cause kill
  // masses plus surviving source mass sum to 1. And the report agrees with
  // the graph: a candidate is listed as killed exactly when the graph has
  // no node for it.
  DatasetOptions options = DatasetOptions::Syn1();
  options.num_floors = 2;
  options.durations_ticks = {60};
  options.trajectories_per_duration = 3;
  options.seed = 777;
  auto dataset = Dataset::Build(options);
  const ConstraintSet generated =
      dataset->MakeConstraints(ConstraintFamilies::DuLtTt());
  std::vector<std::pair<const ConstraintSet*, LSequence>> cases;
  for (const Dataset::Item& item : dataset->items()) {
    cases.emplace_back(&generated, item.lsequence);
  }
  // Two locations that never reach each other, each at 1/2 on every tick:
  // both stay-put trajectories survive, but an a-priori suffix mass of
  // 2^-(T-1) underflows long before T = 1 100.
  ConstraintSet apart(2);
  apart.AddUnreachable(0, 1);
  apart.AddUnreachable(1, 0);
  std::vector<std::vector<std::pair<LocationId, double>>> halves(
      1100, {{0, 0.5}, {1, 0.5}});
  cases.emplace_back(&apart, MakeLSequence(halves));

  for (const bool preflight : {true, false}) {
    for (const auto& [constraints, sequence] : cases) {
      SCOPED_TRACE(::testing::Message() << "preflight " << preflight
                                        << ", T = " << sequence.length());
      CtGraph graph;
      const obs::ExplainTagSummary summary =
          ExplainOneClean(*constraints, sequence, preflight, &graph);
      EXPECT_EQ(summary.status, "ok");
      EXPECT_NEAR(summary.surviving_mass + summary.attributed_mass, 1.0,
                  1e-6);
      double constraint_mass = 0.0;
      for (int c = 0; c < obs::kNumExplainConstraints; ++c) {
        constraint_mass += summary.constraints[c].mass;
      }
      EXPECT_NEAR(constraint_mass, summary.attributed_mass, 1e-9);
      // Top edges are ranked by attributed mass, descending.
      for (std::size_t i = 1; i < summary.top_edges.size(); ++i) {
        EXPECT_GE(summary.top_edges[i - 1].mass, summary.top_edges[i].mass);
      }
      ASSERT_EQ(summary.killed_candidates_truncated, 0u);
      EXPECT_EQ(KillSet(summary), AbsentCandidates(sequence, graph));
    }
  }
}

TEST(ExplainTest, SessionArmedMidStreamRecordsNothing) {
  if (!obs::ExplainCompiledIn()) GTEST_SKIP() << "explain compiled out";
  // A cleaner decides at its first Push whether it captures explain
  // inputs. Captured from a later tick, the candidate lists would not line
  // up with the layers, and the summary would name location 2 killed at
  // ticks where it was never a candidate.
  ConstraintSet constraints(3);
  constraints.AddUnreachable(0, 2);
  const std::vector<Candidate> inside = {{0, 0.5}, {1, 0.5}};
  const std::vector<Candidate> exit = {{2, 1.0}};
  StreamingCleaner cleaner(constraints);
  ASSERT_TRUE(cleaner.Push(inside).ok());
  ASSERT_TRUE(cleaner.Push(inside).ok());
  obs::StartExplain(obs::ExplainOptions());
  ASSERT_TRUE(cleaner.Push(exit).ok());
  ASSERT_TRUE(cleaner.Push(exit).ok());
  Result<CtGraph> graph = std::move(cleaner).Finish();
  const obs::ExplainCollection collection = obs::CollectExplain();
  obs::StopExplain();
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(collection.tags.empty());
}

TEST(ExplainTest, SummaryCoversTheTicksPushAccepted) {
  if (!obs::ExplainCompiledIn()) GTEST_SKIP() << "explain compiled out";
  // A Push that finds a dead end appends no layer, so the captured inputs
  // must not gain a tick either: Finish explains the one layer it has.
  ConstraintSet constraints(3);
  constraints.AddUnreachable(0, 2);
  obs::StartExplain(obs::ExplainOptions());
  StreamingCleaner cleaner(constraints);
  ASSERT_TRUE(cleaner.Push({{0, 1.0}}).ok());
  EXPECT_FALSE(cleaner.Push({{2, 1.0}}).ok());
  Result<CtGraph> graph = std::move(cleaner).Finish();
  const obs::ExplainCollection collection = obs::CollectExplain();
  obs::StopExplain();
  ASSERT_TRUE(graph.ok());
  ASSERT_EQ(collection.tags.size(), 1u);
  const obs::ExplainTagSummary& summary = collection.tags[0];
  EXPECT_EQ(summary.status, "ok");
  ASSERT_EQ(summary.ticks.size(), 1u);
  EXPECT_EQ(summary.ticks[0].killed, 0u);
  EXPECT_EQ(summary.surviving_mass, 1.0);
}

TEST(ExplainTest, ArmedSessionDoesNotPerturbTheGraph) {
  ConstraintSet constraints = PaperExampleConstraints();
  CtGraphBuilder builder(constraints);
  Result<CtGraph> plain = builder.Build(PaperExampleSequence());
  ASSERT_TRUE(plain.ok());

  obs::StartExplain(obs::ExplainOptions());
  Result<CtGraph> observed = builder.Build(PaperExampleSequence());
  obs::StopExplain();
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(Serialize(plain.value()), Serialize(observed.value()));
}

TEST(ExplainTest, PreflightShiftsPhaseLabelsButNotTheKillSet) {
  if (!obs::ExplainCompiledIn()) GTEST_SKIP() << "explain compiled out";
  // Candidate 3 at t=1 is statically dead (no admissible successor into
  // t=2), so preflight prunes it before the build while the preflight-off
  // clean discovers the same death dynamically. Attribution must agree on
  // *what* died and *how much* it cost; only the phase labels may differ.
  ConstraintSet constraints(4);
  constraints.AddUnreachable(3, 0);
  constraints.AddUnreachable(3, 1);
  const auto make_sequence = [] {
    return MakeLSequence({{{0, 0.5}, {1, 0.5}},
                          {{2, 0.5}, {3, 0.5}},
                          {{0, 0.5}, {1, 0.5}}});
  };

  const obs::ExplainTagSummary with_preflight =
      ExplainOneClean(constraints, make_sequence(), /*preflight=*/true);
  const obs::ExplainTagSummary without_preflight =
      ExplainOneClean(constraints, make_sequence(), /*preflight=*/false);

  EXPECT_EQ(KillSet(with_preflight), KillSet(without_preflight));
  const std::set<KillKey> expected = {{1, 3}};
  EXPECT_EQ(KillSet(with_preflight), expected);
  EXPECT_PROB_NEAR(with_preflight.attributed_mass,
                   without_preflight.attributed_mass);
  EXPECT_PROB_NEAR(with_preflight.surviving_mass,
                   without_preflight.surviving_mass);

  // The preflight clean attributes the death to the static pass; the raw
  // clean to the dynamic phases.
  EXPECT_GT(with_preflight
                .phase_kills[static_cast<int>(obs::ExplainPhase::kPreflight)],
            0u);
  EXPECT_EQ(without_preflight
                .phase_kills[static_cast<int>(obs::ExplainPhase::kPreflight)],
            0u);
}

TEST(ExplainTest, DoomedTagRecordsAFailureSummary) {
  if (!obs::ExplainCompiledIn()) GTEST_SKIP() << "explain compiled out";
  // A workload the constraints rule out entirely still gets a summary, so
  // the report explains failed cleans too.
  ConstraintSet constraints(2);
  constraints.AddUnreachable(0, 1);
  obs::StartExplain(obs::ExplainOptions());
  BatchOptions batch;
  batch.jobs = 2;
  BatchCleaner cleaner(constraints, batch);
  std::vector<TagWorkload> workloads;
  workloads.push_back(
      TagWorkload{5, MakeLSequence({{{0, 1.0}}, {{1, 1.0}}})});  // dies
  workloads.push_back(
      TagWorkload{6, MakeLSequence({{{0, 1.0}}, {{0, 1.0}}})});  // cleans
  std::vector<TagOutcome> outcomes = cleaner.CleanAll(workloads);
  const obs::ExplainCollection collection = obs::CollectExplain();
  obs::StopExplain();

  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].graph.ok());
  ASSERT_EQ(collection.tags.size(), 2u);
  const obs::ExplainTagSummary* doomed = collection.FindTag(5);
  ASSERT_NE(doomed, nullptr);
  EXPECT_NE(doomed->status, "ok");
  EXPECT_FALSE(doomed->status.empty());
  const obs::ExplainTagSummary* cleaned = collection.FindTag(6);
  ASSERT_NE(cleaned, nullptr);
  EXPECT_EQ(cleaned->status, "ok");
}

TEST(ExplainTest, ReportIsByteIdenticalAcrossWorkerCounts) {
  if (!obs::ExplainCompiledIn()) GTEST_SKIP() << "explain compiled out";
  // The JSON report is part of the deterministic contract: the same
  // workloads must export the same bytes whether one worker cleaned them
  // or eight did.
  ConstraintSet constraints = PaperExampleConstraints();
  std::vector<TagWorkload> workloads;
  for (int k = 0; k < 12; ++k) {
    workloads.push_back(TagWorkload{100 + k, PaperExampleSequence()});
  }

  const auto report_with_jobs = [&](int jobs) {
    obs::StartExplain(obs::ExplainOptions());
    BatchOptions batch;
    batch.jobs = jobs;
    BatchCleaner cleaner(constraints, batch);
    cleaner.CleanAll(workloads);
    const obs::ExplainCollection collection = obs::CollectExplain();
    obs::StopExplain();
    std::ostringstream os;
    WriteExplainReport(collection, os);
    return os.str();
  };

  const std::string serial = report_with_jobs(1);
  const std::string parallel = report_with_jobs(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

obs::ExplainTagSummary PopulatedSummary() {
  obs::ExplainTagSummary summary;
  summary.tag = 42;
  summary.status = "ok";
  summary.mass_lost_backward_ppb = 123456789;
  summary.mass_lost_compaction_ppb = 987;
  summary.surviving_mass = 0.25;
  summary.attributed_mass = 0.75;
  summary.phase_kills[0] = 1;
  summary.phase_kills[1] = 2;
  summary.phase_kills[2] = 3;
  summary.constraints[0] = {4, 0.5};
  summary.constraints[2] = {2, 0.25};
  summary.ticks.push_back({0, 3, 1, 0.125, 0.5});
  summary.ticks.push_back({1, 2, 0, 0.0, 1.0});
  summary.killed_candidates.push_back(
      {0, 7, obs::ExplainPhase::kForward,
       obs::ExplainConstraint::kUnreachable, 0.125});
  summary.killed_candidates_truncated = 5;
  summary.top_edges.push_back({1, 3, 7, obs::ExplainPhase::kBackward,
                               obs::ExplainConstraint::kPropagated, 0.0625});
  return summary;
}

void ExpectSummariesEqual(const obs::ExplainTagSummary& got,
                          const obs::ExplainTagSummary& want) {
  EXPECT_EQ(got.tag, want.tag);
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.mass_lost_backward_ppb, want.mass_lost_backward_ppb);
  EXPECT_EQ(got.mass_lost_compaction_ppb, want.mass_lost_compaction_ppb);
  EXPECT_EQ(got.surviving_mass, want.surviving_mass);  // exact: same bits
  EXPECT_EQ(got.attributed_mass, want.attributed_mass);
  for (int p = 0; p < obs::kNumExplainPhases; ++p) {
    EXPECT_EQ(got.phase_kills[p], want.phase_kills[p]) << "phase " << p;
  }
  for (int c = 0; c < obs::kNumExplainConstraints; ++c) {
    EXPECT_EQ(got.constraints[c].kills, want.constraints[c].kills);
    EXPECT_EQ(got.constraints[c].mass, want.constraints[c].mass);
  }
  ASSERT_EQ(got.ticks.size(), want.ticks.size());
  for (std::size_t i = 0; i < want.ticks.size(); ++i) {
    EXPECT_EQ(got.ticks[i].time, want.ticks[i].time);
    EXPECT_EQ(got.ticks[i].candidates, want.ticks[i].candidates);
    EXPECT_EQ(got.ticks[i].killed, want.ticks[i].killed);
    EXPECT_EQ(got.ticks[i].mass_lost, want.ticks[i].mass_lost);
    EXPECT_EQ(got.ticks[i].alpha_delta, want.ticks[i].alpha_delta);
  }
  ASSERT_EQ(got.killed_candidates.size(), want.killed_candidates.size());
  for (std::size_t i = 0; i < want.killed_candidates.size(); ++i) {
    EXPECT_EQ(got.killed_candidates[i].time, want.killed_candidates[i].time);
    EXPECT_EQ(got.killed_candidates[i].location,
              want.killed_candidates[i].location);
    EXPECT_EQ(got.killed_candidates[i].phase, want.killed_candidates[i].phase);
    EXPECT_EQ(got.killed_candidates[i].constraint,
              want.killed_candidates[i].constraint);
    EXPECT_EQ(got.killed_candidates[i].mass, want.killed_candidates[i].mass);
  }
  EXPECT_EQ(got.killed_candidates_truncated, want.killed_candidates_truncated);
  ASSERT_EQ(got.top_edges.size(), want.top_edges.size());
  for (std::size_t i = 0; i < want.top_edges.size(); ++i) {
    EXPECT_EQ(got.top_edges[i].time, want.top_edges[i].time);
    EXPECT_EQ(got.top_edges[i].from_location, want.top_edges[i].from_location);
    EXPECT_EQ(got.top_edges[i].to_location, want.top_edges[i].to_location);
    EXPECT_EQ(got.top_edges[i].phase, want.top_edges[i].phase);
    EXPECT_EQ(got.top_edges[i].constraint, want.top_edges[i].constraint);
    EXPECT_EQ(got.top_edges[i].mass, want.top_edges[i].mass);
  }
}

/// Cleans `sequence` once through CtGraphBuilder::Build and once through a
/// one-tag BatchCleaner, each under a fresh explain session and as tag 0,
/// and returns each session's summaries.
std::pair<std::vector<obs::ExplainTagSummary>,
          std::vector<obs::ExplainTagSummary>>
ExplainBuildAndBatch(const ConstraintSet& constraints,
                     const LSequence& sequence, bool preflight) {
  obs::StartExplain(obs::ExplainOptions());
  obs::SetExplainTag(0);  // Build records under the thread's current tag.
  CleanOptions clean;
  clean.preflight = preflight;
  (void)CtGraphBuilder(constraints, clean).Build(sequence);
  std::vector<obs::ExplainTagSummary> built = obs::CollectExplain().tags;
  obs::StopExplain();

  obs::StartExplain(obs::ExplainOptions());
  BatchOptions batch;
  batch.preflight = preflight;
  (void)BatchCleaner(constraints, batch).CleanAll({TagWorkload{0, sequence}});
  std::vector<obs::ExplainTagSummary> batched = obs::CollectExplain().tags;
  obs::StopExplain();
  return {std::move(built), std::move(batched)};
}

TEST(ExplainTest, BuildAndBatchRecordEqualSummaries) {
  if (!obs::ExplainCompiledIn()) GTEST_SKIP() << "explain compiled out";
  // Build and a batch tag run one cleaning routine, so an armed session
  // records the same summary from both — the streaming filter's
  // renormalization deltas included.
  const auto [built, batched] = ExplainBuildAndBatch(
      PaperExampleConstraints(), PaperExampleSequence(), /*preflight=*/true);
  ASSERT_EQ(built.size(), 1u);
  ASSERT_EQ(batched.size(), 1u);
  ExpectSummariesEqual(built[0], batched[0]);
  bool any_delta = false;
  for (const obs::ExplainTickSummary& tick : built[0].ticks) {
    any_delta = any_delta || tick.alpha_delta != 0.0;
  }
  EXPECT_TRUE(any_delta);
}

TEST(ExplainTest, BuildAndBatchRecordOneSummaryForADeadEnd) {
  if (!obs::ExplainCompiledIn()) GTEST_SKIP() << "explain compiled out";
  // With preflight off the dead end surfaces in a Push: both paths record
  // exactly one summary, with the status the clean returned.
  ConstraintSet constraints(3);
  constraints.AddUnreachable(0, 1);
  const auto [built, batched] = ExplainBuildAndBatch(
      constraints, MakeLSequence({{{0, 1.0}}, {{1, 1.0}}}),
      /*preflight=*/false);
  ASSERT_EQ(built.size(), 1u);
  ASSERT_EQ(batched.size(), 1u);
  EXPECT_EQ(built[0].status,
            "the integrity constraints rule out every interpretation of the "
            "readings");
  ExpectSummariesEqual(built[0], batched[0]);
}

/// `summary` with every phase label folded onto kForward, so two summaries
/// that differ only in which phase found a kill compare equal.
obs::ExplainTagSummary WithoutPhases(obs::ExplainTagSummary summary) {
  std::uint64_t kills = 0;
  for (std::uint64_t& phase_kills : summary.phase_kills) {
    kills += phase_kills;
    phase_kills = 0;
  }
  summary.phase_kills[static_cast<int>(obs::ExplainPhase::kForward)] = kills;
  for (obs::ExplainKilledCandidate& candidate : summary.killed_candidates) {
    candidate.phase = obs::ExplainPhase::kForward;
  }
  for (obs::ExplainKilledEdge& edge : summary.top_edges) {
    edge.phase = obs::ExplainPhase::kForward;
  }
  return summary;
}

TEST(ExplainTest, DeadEndBooksItsMassWithPreflightOnAndOff) {
  if (!obs::ExplainCompiledIn()) GTEST_SKIP() << "explain compiled out";
  // The preflight proves tick 1 dead before the build; without it the Push
  // of tick 1 finds no successor. Either way the whole unit of mass dies
  // at tick 1 as one infeasible kill naming the tick's only candidate —
  // only the phase column may tell the two apart (docs/ALGORITHM.md §14).
  ConstraintSet constraints(3);
  constraints.AddUnreachable(0, 1);
  const LSequence sequence = MakeLSequence({{{0, 1.0}}, {{1, 1.0}}});
  const auto [built_on, batched_on] =
      ExplainBuildAndBatch(constraints, sequence, /*preflight=*/true);
  const auto [built_off, batched_off] =
      ExplainBuildAndBatch(constraints, sequence, /*preflight=*/false);
  ASSERT_EQ(built_on.size(), 1u);
  ASSERT_EQ(batched_on.size(), 1u);
  ASSERT_EQ(built_off.size(), 1u);
  ASSERT_EQ(batched_off.size(), 1u);
  ExpectSummariesEqual(built_on[0], batched_on[0]);
  ExpectSummariesEqual(built_off[0], batched_off[0]);

  const obs::ExplainTagSummary& on = built_on[0];
  const obs::ExplainTagSummary& off = built_off[0];
  EXPECT_EQ(on.phase_kills[static_cast<int>(obs::ExplainPhase::kPreflight)],
            1u);
  EXPECT_EQ(off.phase_kills[static_cast<int>(obs::ExplainPhase::kForward)],
            1u);
  const obs::ExplainConstraintTotal& infeasible =
      off.constraints[static_cast<int>(obs::ExplainConstraint::kInfeasible)];
  EXPECT_EQ(infeasible.kills, 1u);
  EXPECT_EQ(infeasible.mass, 1.0);
  EXPECT_EQ(off.attributed_mass, 1.0);
  ASSERT_EQ(off.killed_candidates.size(), 1u);
  EXPECT_EQ(off.killed_candidates[0].time, 1);
  EXPECT_EQ(off.killed_candidates[0].location, 1);
  EXPECT_EQ(off.killed_candidates[0].phase, obs::ExplainPhase::kForward);
  EXPECT_EQ(off.killed_candidates[0].constraint,
            obs::ExplainConstraint::kInfeasible);
  EXPECT_EQ(off.killed_candidates[0].mass, 1.0);
  ExpectSummariesEqual(WithoutPhases(on), WithoutPhases(off));
}

TEST(ExplainCodecTest, BlobRoundTripsBitForBit) {
  const obs::ExplainTagSummary original = PopulatedSummary();
  const std::string blob = store::EncodeExplainBlob(original);
  Result<obs::ExplainTagSummary> decoded = store::DecodeExplainBlob(
      reinterpret_cast<const unsigned char*>(blob.data()), blob.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSummariesEqual(decoded.value(), original);
}

TEST(ExplainCodecTest, EveryByteFlipAndTruncationIsRejected) {
  // The trailing CRC covers the entire blob, so no single-byte corruption
  // or truncation may decode — the persisted lineage is evidence, and
  // corrupted evidence must never parse into a plausible summary.
  const std::string blob = store::EncodeExplainBlob(PopulatedSummary());
  for (std::size_t at = 0; at < blob.size(); ++at) {
    std::string corrupted = blob;
    corrupted[at] = static_cast<char>(corrupted[at] ^ 0x5A);
    Result<obs::ExplainTagSummary> decoded = store::DecodeExplainBlob(
        reinterpret_cast<const unsigned char*>(corrupted.data()),
        corrupted.size());
    ASSERT_FALSE(decoded.ok()) << "flip at byte " << at << " was accepted";
    EXPECT_FALSE(decoded.status().message().empty());
  }
  for (std::size_t size = 0; size < blob.size(); ++size) {
    Result<obs::ExplainTagSummary> decoded = store::DecodeExplainBlob(
        reinterpret_cast<const unsigned char*>(blob.data()), size);
    ASSERT_FALSE(decoded.ok()) << "prefix of " << size << " bytes accepted";
  }
}

TEST(ExplainStoreTest, SummariesPersistNextToGraphsAndSurviveReopen) {
  const std::string path = ::testing::TempDir() + "explain_store.cts";
  std::remove(path.c_str());

  const ConstraintSet constraints = PaperExampleConstraints();
  CtGraphBuilder builder(constraints);
  Result<CtGraph> graph = builder.Build(PaperExampleSequence());
  ASSERT_TRUE(graph.ok());
  const std::string graph_blob =
      store::EncodeCtGraphBlob(graph.value(), /*tag=*/42);
  const obs::ExplainTagSummary summary = PopulatedSummary();

  {
    Result<store::CtStoreWriter> writer = store::CtStoreWriter::Create(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer.value().Put(42, graph_blob).ok());
    ASSERT_TRUE(
        writer.value().PutExplain(42, store::EncodeExplainBlob(summary)).ok());
    // A summary may also exist for a tag with no graph (a failed clean).
    obs::ExplainTagSummary failed;
    failed.tag = 99;
    failed.status = "doomed";
    ASSERT_TRUE(
        writer.value().PutExplain(99, store::EncodeExplainBlob(failed)).ok());
    EXPECT_EQ(writer.value().NumLive(), 1u);
    EXPECT_EQ(writer.value().NumLiveExplain(), 2u);
    ASSERT_TRUE(writer.value().Finish().ok());
  }

  Result<store::CtStoreReader> reader = store::CtStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value().entries().size(), 1u);
  EXPECT_EQ(reader.value().explain_entries().size(), 2u);
  EXPECT_TRUE(reader.value().VerifyAll().ok());
  EXPECT_TRUE(reader.value().LoadView(42).ok());

  Result<obs::ExplainTagSummary> loaded = reader.value().LoadExplain(42);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSummariesEqual(loaded.value(), summary);
  EXPECT_TRUE(reader.value().LoadExplain(99).ok());
  // A tag with no summary reports NotFound with actionable guidance.
  Result<obs::ExplainTagSummary> missing = reader.value().LoadExplain(7);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("--explain"), std::string::npos);

  // Compaction keeps both entry kinds.
  ASSERT_TRUE(store::CompactCtStore(path).ok());
  Result<store::CtStoreReader> compacted = store::CtStoreReader::Open(path);
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ(compacted.value().explain_entries().size(), 2u);
  Result<obs::ExplainTagSummary> after = compacted.value().LoadExplain(42);
  ASSERT_TRUE(after.ok());
  ExpectSummariesEqual(after.value(), summary);
  std::remove(path.c_str());
}

TEST(ExplainStoreTest, FreshGraphDropsTheStaleSummary) {
  // A summary describes one specific clean; re-Putting the tag's graph
  // must invalidate it so `explain --store` never pairs a new graph with
  // an old lineage.
  const std::string path = ::testing::TempDir() + "explain_stale.cts";
  std::remove(path.c_str());
  const ConstraintSet constraints = PaperExampleConstraints();
  CtGraphBuilder builder(constraints);
  Result<CtGraph> graph = builder.Build(PaperExampleSequence());
  ASSERT_TRUE(graph.ok());
  const std::string graph_blob =
      store::EncodeCtGraphBlob(graph.value(), /*tag=*/42);

  {
    Result<store::CtStoreWriter> writer = store::CtStoreWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Put(42, graph_blob).ok());
    ASSERT_TRUE(writer.value()
                    .PutExplain(42,
                                store::EncodeExplainBlob(PopulatedSummary()))
                    .ok());
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  {
    Result<store::CtStoreWriter> writer =
        store::CtStoreWriter::OpenOrCreate(path);
    ASSERT_TRUE(writer.ok());
    EXPECT_EQ(writer.value().NumLiveExplain(), 1u);
    ASSERT_TRUE(writer.value().Put(42, graph_blob).ok());
    EXPECT_EQ(writer.value().NumLiveExplain(), 0u);
    ASSERT_TRUE(writer.value().Finish().ok());
  }
  Result<store::CtStoreReader> reader = store::CtStoreReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.value().Find(42) != nullptr);
  EXPECT_TRUE(reader.value().FindExplain(42) == nullptr);
  EXPECT_FALSE(reader.value().LoadExplain(42).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rfidclean
