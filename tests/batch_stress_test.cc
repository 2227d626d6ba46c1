#include <atomic>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/streaming.h"
#include "io/ctgraph_io.h"
#include "runtime/arena.h"
#include "runtime/batch_cleaner.h"
#include "test_util.h"

namespace rfidclean {
namespace {

using ::rfidclean::testing::MakeLSequence;

/// Concurrency stress for the batch engine: skewed shard sizes, degenerate
/// batch shapes (0 tags, 1 tag, more jobs than tags), per-tag failures and
/// exceptions that must stay contained, and enough repetition under many
/// lanes that TSan gets a real shot at any data race in the pool's cursor
/// or the slot writes. This file is part of the tsan CI matrix.

/// A workload whose every tick admits both locations: always cleanable
/// under an empty constraint set.
TagWorkload MakeAliveWorkload(TagId tag, Timestamp length) {
  std::vector<std::vector<std::pair<LocationId, double>>> spec;
  for (Timestamp t = 0; t < length; ++t) {
    spec.push_back({{0, 0.5}, {1, 0.5}});
  }
  return TagWorkload{tag, MakeLSequence(std::move(spec))};
}

/// A workload that dies at its second tick under `dead_constraints()`:
/// location 0 and location 1 are mutually unreachable, and the two ticks
/// have disjoint candidates.
TagWorkload MakeDeadWorkload(TagId tag) {
  return TagWorkload{tag, MakeLSequence({{{0, 1.0}}, {{1, 1.0}}})};
}

ConstraintSet DeadConstraints() {
  ConstraintSet constraints(2);
  constraints.AddUnreachable(0, 1);
  constraints.AddUnreachable(1, 0);
  return constraints;
}

std::string Serialize(const CtGraph& graph) {
  std::ostringstream os;
  WriteCtGraph(graph, os);
  return os.str();
}

TEST(WorkerArenaTest, RecordsHighWaterMarks) {
  runtime::WorkerArena arena;
  EXPECT_EQ(arena.node_hint(), 0u);
  BuildStats stats;
  stats.peak_nodes = 40;
  stats.peak_edges = 90;
  arena.Observe(stats, 7);
  stats.peak_nodes = 10;  // smaller build must not shrink the hints
  stats.peak_edges = 10;
  arena.Observe(stats, 3);
  EXPECT_EQ(arena.node_hint(), 40u);
  EXPECT_EQ(arena.edge_hint(), 90u);
  EXPECT_EQ(arena.tick_hint(), 7);
}

TEST(BatchCleanerStressTest, EmptyBatch) {
  ConstraintSet constraints(2);
  BatchOptions options;
  options.jobs = 8;
  BatchCleaner cleaner(constraints, options);
  EXPECT_TRUE(cleaner.CleanAll({}).empty());
}

TEST(BatchCleanerStressTest, SingleTagManyJobs) {
  ConstraintSet constraints(2);
  BatchOptions options;
  options.jobs = 8;
  BatchCleaner cleaner(constraints, options);
  std::vector<TagOutcome> outcomes =
      cleaner.CleanAll({MakeAliveWorkload(42, 5)});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].tag, 42);
  ASSERT_TRUE(outcomes[0].graph.ok());
}

TEST(BatchCleanerStressTest, MoreJobsThanTags) {
  ConstraintSet constraints(2);
  BatchOptions options;
  options.jobs = 16;
  BatchCleaner cleaner(constraints, options);
  std::vector<TagWorkload> workloads;
  for (int k = 0; k < 3; ++k) {
    workloads.push_back(MakeAliveWorkload(k, 4));
  }
  std::vector<TagOutcome> outcomes = cleaner.CleanAll(workloads);
  ASSERT_EQ(outcomes.size(), 3u);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(outcomes[static_cast<std::size_t>(k)].tag, k);
    EXPECT_TRUE(outcomes[static_cast<std::size_t>(k)].graph.ok());
  }
}

TEST(BatchCleanerStressTest, SkewedShardSizesBalanceByStealing) {
  // One 400-tick giant among 15 tiny tags: the lane that takes the giant
  // is busy for the whole batch, so the other lanes must drain every tiny
  // tag from the shared cursor, and the batch must stay deterministic and
  // complete.
  ConstraintSet constraints(2);
  BatchOptions options;
  options.jobs = 8;
  BatchCleaner cleaner(constraints, options);
  std::vector<TagWorkload> workloads;
  workloads.push_back(MakeAliveWorkload(0, 400));
  for (int k = 1; k < 16; ++k) {
    workloads.push_back(MakeAliveWorkload(k, 3));
  }
  std::vector<TagOutcome> outcomes = cleaner.CleanAll(workloads);
  ASSERT_EQ(outcomes.size(), workloads.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].tag, static_cast<TagId>(i));
    ASSERT_TRUE(outcomes[i].graph.ok()) << "tag " << i;
    EXPECT_EQ(outcomes[i].graph.value().length(),
              workloads[i].sequence.length());
  }
}

TEST(BatchCleanerStressTest, FailingTagDoesNotPoisonTheBatch) {
  ConstraintSet constraints = DeadConstraints();
  BatchOptions options;
  options.jobs = 8;
  BatchCleaner cleaner(constraints, options);
  std::vector<TagWorkload> workloads;
  for (int k = 0; k < 12; ++k) {
    if (k % 3 == 1) {
      workloads.push_back(MakeDeadWorkload(k));
    } else {
      // Constant-location streams never violate the DU constraints.
      std::vector<std::vector<std::pair<LocationId, double>>> spec(
          4, {{k % 2, 1.0}});
      workloads.push_back(TagWorkload{k, MakeLSequence(std::move(spec))});
    }
  }
  std::vector<TagOutcome> outcomes = cleaner.CleanAll(workloads);
  ASSERT_EQ(outcomes.size(), 12u);
  for (int k = 0; k < 12; ++k) {
    const TagOutcome& outcome = outcomes[static_cast<std::size_t>(k)];
    if (k % 3 == 1) {
      ASSERT_FALSE(outcome.graph.ok());
      EXPECT_EQ(outcome.graph.status().code(),
                StatusCode::kFailedPrecondition);
    } else {
      EXPECT_TRUE(outcome.graph.ok()) << outcome.graph.status().ToString();
    }
  }
}

TEST(BatchCleanerStressTest, EmptyStreamYieldsInvalidArgumentOutcome) {
  ConstraintSet constraints(2);
  BatchOptions options;
  options.jobs = 4;
  BatchCleaner cleaner(constraints, options);
  std::vector<TagWorkload> workloads;
  workloads.push_back(MakeAliveWorkload(0, 3));
  workloads.push_back(TagWorkload{1, LSequence()});  // zero-length stream
  workloads.push_back(MakeAliveWorkload(2, 3));
  std::vector<TagOutcome> outcomes = cleaner.CleanAll(workloads);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].graph.ok());
  ASSERT_FALSE(outcomes[1].graph.ok());
  EXPECT_EQ(outcomes[1].graph.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(outcomes[2].graph.ok());
}

TEST(BatchCleanerStressTest, ThrowingHookIsContainedToItsTag) {
  ConstraintSet constraints(2);
  BatchOptions options;
  options.jobs = 8;
  options.before_tag = [](std::size_t index) {
    if (index == 2) throw std::runtime_error("injected fault");
  };
  BatchCleaner cleaner(constraints, options);
  std::vector<TagWorkload> workloads;
  for (int k = 0; k < 6; ++k) {
    workloads.push_back(MakeAliveWorkload(k, 4));
  }
  std::vector<TagOutcome> outcomes = cleaner.CleanAll(workloads);
  ASSERT_EQ(outcomes.size(), 6u);
  for (int k = 0; k < 6; ++k) {
    const TagOutcome& outcome = outcomes[static_cast<std::size_t>(k)];
    if (k == 2) {
      ASSERT_FALSE(outcome.graph.ok());
      EXPECT_EQ(outcome.graph.status().code(), StatusCode::kInternal);
      EXPECT_NE(outcome.graph.status().message().find("injected fault"),
                std::string::npos);
    } else {
      EXPECT_TRUE(outcome.graph.ok());
    }
  }
}

TEST(BatchCleanerStressTest, ThrowMidCleanLeavesArenaRecyclable) {
  // A worker that throws halfway through a build abandons a StreamingCleaner
  // mid-layer. With jobs=1 the very same WorkerArena then serves every
  // following tag, so any state the aborted build leaked into the arena
  // would show up as a different graph than a fresh-arena run produces.
  ConstraintSet constraints(2);
  std::vector<TagWorkload> workloads;
  for (int k = 0; k < 4; ++k) {
    workloads.push_back(MakeAliveWorkload(k, 20));
  }

  BatchOptions faulty;
  faulty.jobs = 1;
  faulty.after_tick = [](std::size_t index, Timestamp t) {
    if (index == 1 && t == 10) throw std::runtime_error("mid-clean fault");
  };
  BatchCleaner cleaner(constraints, faulty);
  std::vector<TagOutcome> outcomes = cleaner.CleanAll(workloads);
  ASSERT_EQ(outcomes.size(), 4u);
  ASSERT_FALSE(outcomes[1].graph.ok());
  EXPECT_EQ(outcomes[1].graph.status().code(), StatusCode::kInternal);
  EXPECT_NE(outcomes[1].graph.status().message().find("mid-clean fault"),
            std::string::npos);

  // Every tag after the aborted one must be bit-identical to what a fresh
  // cleaner (all-cold arenas, no faults) produces.
  BatchCleaner fresh(constraints, BatchOptions{});
  std::vector<TagOutcome> reference = fresh.CleanAll(workloads);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 1) continue;
    ASSERT_TRUE(outcomes[i].graph.ok()) << "tag " << i;
    ASSERT_TRUE(reference[i].graph.ok()) << "tag " << i;
    EXPECT_EQ(Serialize(outcomes[i].graph.value()),
              Serialize(reference[i].graph.value()))
        << "tag " << i << " diverged after the injected fault";
  }
}

TEST(BatchCleanerStressTest, RepeatedRunsAreByteStableUnderContention) {
  // 30 tags × 8 workers, repeated: scheduling varies wildly between
  // iterations, the serialized results must not. This is the test TSan
  // leans on hardest — every iteration re-exercises the pool's cursor, its
  // start and join, and the slot writes.
  Rng rng(7, /*stream=*/31);
  std::vector<TagWorkload> workloads;
  for (int k = 0; k < 30; ++k) {
    workloads.push_back(
        MakeAliveWorkload(k, static_cast<Timestamp>(rng.UniformInt(2, 40))));
  }
  ConstraintSet constraints(2);
  BatchOptions options;
  options.jobs = 8;
  BatchCleaner cleaner(constraints, options);

  std::vector<std::string> reference;
  for (const TagOutcome& outcome : cleaner.CleanAll(workloads)) {
    ASSERT_TRUE(outcome.graph.ok());
    reference.push_back(Serialize(outcome.graph.value()));
  }
  for (int repeat = 0; repeat < 10; ++repeat) {
    std::vector<TagOutcome> outcomes = cleaner.CleanAll(workloads);
    ASSERT_EQ(outcomes.size(), reference.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      ASSERT_TRUE(outcomes[i].graph.ok());
      EXPECT_EQ(Serialize(outcomes[i].graph.value()), reference[i])
          << "repeat=" << repeat << " tag=" << i;
    }
  }
}

TEST(BatchCleanerStressTest, HookRunsOncePerShard) {
  std::atomic<int> calls{0};
  ConstraintSet constraints(2);
  BatchOptions options;
  options.jobs = 8;
  options.before_tag = [&calls](std::size_t) {
    calls.fetch_add(1, std::memory_order_relaxed);
  };
  BatchCleaner cleaner(constraints, options);
  std::vector<TagWorkload> workloads;
  for (int k = 0; k < 25; ++k) {
    workloads.push_back(MakeAliveWorkload(k, 3));
  }
  cleaner.CleanAll(workloads);
  EXPECT_EQ(calls.load(), 25);
}

}  // namespace
}  // namespace rfidclean
