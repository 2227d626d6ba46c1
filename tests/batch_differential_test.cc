#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/graph_audit.h"
#include "common/rng.h"
#include "core/streaming.h"
#include "io/ctgraph_io.h"
#include "obs/explain.h"
#include "obs/explain_export.h"
#include "query/marginals.h"
#include "query/most_likely.h"
#include "runtime/batch_cleaner.h"
#include "test_util.h"

namespace rfidclean {
namespace {

/// Differential equivalence of the parallel engine against the sequential
/// oracle: for randomly generated multi-tag workloads, BatchCleaner output
/// must be *bit-identical* — not merely approximately equal — to looping
/// StreamingCleaner over the same workloads, at every job count. Per tag
/// both paths execute the same code, so any divergence means the batch
/// engine leaked state across tags or let scheduling touch a result.
///
/// 25 seeds × 8 workloads = 200 random workloads, each checked at jobs
/// ∈ {1, 3, 8}; the self-audit hook is armed throughout, so every graph
/// produced by either path must also pass the full invariant audit per tag.
class BatchDifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { EnableSelfAudit(); }
  void TearDown() override { DisableSelfAudit(); }

  /// Random l-sequence over `num_locations`, as in property_test.cc.
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

  /// The sequential oracle: one StreamingCleaner per workload, in order.
  static std::vector<TagOutcome> CleanSequentially(
      const ConstraintSet& constraints,
      const std::vector<TagWorkload>& workloads) {
    std::vector<TagOutcome> outcomes;
    for (const TagWorkload& workload : workloads) {
      BuildStats stats;
      Result<CtGraph> graph = [&]() -> Result<CtGraph> {
        StreamingCleaner cleaner(constraints);
        for (Timestamp t = 0; t < workload.sequence.length(); ++t) {
          Status pushed = cleaner.Push(workload.sequence.CandidatesAt(t));
          if (!pushed.ok()) return pushed;
        }
        return std::move(cleaner).Finish(&stats);
      }();
      outcomes.push_back(TagOutcome{workload.tag, std::move(graph), stats});
    }
    return outcomes;
  }

  static std::string Serialize(const CtGraph& graph) {
    std::ostringstream os;
    WriteCtGraph(graph, os);
    return os.str();
  }
};

TEST_P(BatchDifferentialTest, ParallelEqualsSequentialBitForBit) {
  Rng rng(static_cast<std::uint64_t>(GetParam()), /*stream=*/2024);
  for (int round = 0; round < 8; ++round) {
    const std::size_t num_locations =
        static_cast<std::size_t>(rng.UniformInt(3, 5));
    ConstraintSet constraints = MakeRandomConstraints(num_locations, rng);
    const int num_tags = rng.UniformInt(1, 6);
    std::vector<TagWorkload> workloads;
    for (int k = 0; k < num_tags; ++k) {
      workloads.push_back(TagWorkload{static_cast<TagId>(100 + k),
                                      MakeRandomSequence(num_locations, rng)});
    }

    std::vector<TagOutcome> expected =
        CleanSequentially(constraints, workloads);

    for (int jobs : {1, 3, 8}) {
      for (bool preflight : {false, true}) {
      BatchOptions options;
      options.jobs = jobs;
      options.preflight = preflight;
      BatchCleaner cleaner(constraints, options);
      std::vector<TagOutcome> actual = cleaner.CleanAll(workloads);

      ASSERT_EQ(actual.size(), expected.size()) << "jobs=" << jobs;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        SCOPED_TRACE(::testing::Message()
                     << "seed=" << GetParam() << " round=" << round
                     << " jobs=" << jobs << " preflight=" << preflight
                     << " tag index=" << i);
        EXPECT_EQ(actual[i].tag, expected[i].tag);
        // Statuses must match exactly, message included: error reporting is
        // part of the engine's deterministic contract.
        ASSERT_EQ(actual[i].graph.ok(), expected[i].graph.ok());
        if (!expected[i].graph.ok()) {
          EXPECT_EQ(actual[i].graph.status(), expected[i].graph.status());
          continue;
        }
        const CtGraph& got = actual[i].graph.value();
        const CtGraph& want = expected[i].graph.value();

        // Bit-identical graphs: the full serialization (17 significant
        // digits, round-trip-exact for doubles) must match byte for byte.
        EXPECT_EQ(Serialize(got), Serialize(want));

        // Bit-identical query results on top of them.
        EXPECT_EQ(NodeMarginals(got), NodeMarginals(want));
        auto [got_traj, got_p] = MostLikelyTrajectory(got);
        auto [want_traj, want_p] = MostLikelyTrajectory(want);
        EXPECT_EQ(got_traj, want_traj);
        EXPECT_EQ(got_p, want_p);  // exact: same code path, same bits

        // And the per-tag forward-phase stats are scheduling-independent.
        // The preflight pass may keep statically dead candidates out of the
        // forward phase, so its peaks are bounded by the raw ones.
        if (preflight) {
          EXPECT_LE(actual[i].stats.peak_nodes, expected[i].stats.peak_nodes);
          EXPECT_LE(actual[i].stats.peak_edges, expected[i].stats.peak_edges);
        } else {
          EXPECT_EQ(actual[i].stats.peak_nodes, expected[i].stats.peak_nodes);
          EXPECT_EQ(actual[i].stats.peak_edges, expected[i].stats.peak_edges);
        }
      }
      }
    }
  }
}

TEST_P(BatchDifferentialTest, ExplainReportIsWorkerCountInvariant) {
  if (!obs::ExplainCompiledIn()) GTEST_SKIP() << "explain compiled out";
  // Attribution rides the same differential battery: on random workloads
  // (dead tags included) the exported explain report must be byte-identical
  // at every worker count, or scheduling has leaked into the lineage.
  Rng rng(static_cast<std::uint64_t>(GetParam()), /*stream=*/4242);
  for (int round = 0; round < 2; ++round) {
    const std::size_t num_locations =
        static_cast<std::size_t>(rng.UniformInt(3, 5));
    ConstraintSet constraints = MakeRandomConstraints(num_locations, rng);
    const int num_tags = rng.UniformInt(2, 6);
    std::vector<TagWorkload> workloads;
    for (int k = 0; k < num_tags; ++k) {
      workloads.push_back(TagWorkload{static_cast<TagId>(100 + k),
                                      MakeRandomSequence(num_locations, rng)});
    }

    const auto report_with_jobs = [&](int jobs) {
      obs::StartExplain(obs::ExplainOptions());
      BatchOptions options;
      options.jobs = jobs;
      BatchCleaner cleaner(constraints, options);
      cleaner.CleanAll(workloads);
      const obs::ExplainCollection collection = obs::CollectExplain();
      obs::StopExplain();
      std::ostringstream os;
      WriteExplainReport(collection, os);
      return os.str();
    };

    const std::string serial = report_with_jobs(1);
    const std::string parallel = report_with_jobs(8);
    ASSERT_EQ(serial, parallel)
        << "seed=" << GetParam() << " round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferentialTest,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace rfidclean
