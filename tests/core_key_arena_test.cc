#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/builder.h"
#include "core/key_arena.h"
#include "gen/dataset.h"
#include "obs/cleaning_stats.h"
#include "obs/metrics.h"

namespace rfidclean {
namespace {

using internal_core::NodeKeyArena;
using internal_core::NodeKeyView;

/// A key at `location` with δ `delta` and a TL of `tl_size` entries whose
/// departure times start at `first_departure` (sorted by location, as the
/// successor generator keeps them).
NodeKey MakeKey(LocationId location, Timestamp delta, std::size_t tl_size,
                Timestamp first_departure = 0) {
  NodeKey key;
  key.location = location;
  key.delta = delta;
  for (std::size_t i = 0; i < tl_size; ++i) {
    key.departures.push_back(
        Departure{first_departure + static_cast<Timestamp>(i),
                  static_cast<LocationId>(100 + i)});
  }
  return key;
}

/// Field-by-field comparison of a stored key against the key interned.
void ExpectKey(const NodeKeyView& got, const NodeKey& want) {
  EXPECT_EQ(got.location, want.location);
  EXPECT_EQ(got.delta, want.delta);
  ASSERT_EQ(got.departures.size(), want.departures.size());
  for (std::size_t i = 0; i < got.departures.size(); ++i) {
    EXPECT_EQ(got.departures[i], want.departures[i]) << "TL entry " << i;
  }
}

TEST(KeyArenaTest, EqualKeysGetEqualIdsWithinAScope) {
  NodeKeyArena arena;
  const NodeKey bare = MakeKey(3, kDeltaBottom, 0);
  const NodeKey with_tl = MakeKey(3, kDeltaBottom, 2);
  const NodeKey with_delta = MakeKey(3, 1, 2);
  const std::int32_t bare_id = arena.Intern(bare, 1);
  const std::int32_t tl_id = arena.Intern(with_tl, 1);
  const std::int32_t delta_id = arena.Intern(with_delta, 1);
  EXPECT_EQ(bare_id, 0);
  EXPECT_EQ(tl_id, 1);
  EXPECT_EQ(delta_id, 2);
  EXPECT_EQ(arena.Intern(MakeKey(3, kDeltaBottom, 0), 1), bare_id);
  EXPECT_EQ(arena.Intern(MakeKey(3, kDeltaBottom, 2), 1), tl_id);
  EXPECT_EQ(arena.Intern(MakeKey(3, 1, 2), 1), delta_id);
  // A TL differing in one departure time is another key.
  EXPECT_EQ(arena.Intern(MakeKey(3, kDeltaBottom, 2, 1), 1), 3);
  EXPECT_EQ(arena.size(), 4u);
}

TEST(KeyArenaTest, NewScopeRenumbersTlKeysButNotEmptyTlKeys) {
  NodeKeyArena arena;
  const NodeKey bare = MakeKey(5, 0, 0);
  const NodeKey with_tl = MakeKey(5, kDeltaBottom, 3);
  const std::int32_t bare_id = arena.Intern(bare, 1);
  const std::int32_t tl_id = arena.Intern(with_tl, 1);
  const std::int32_t tl_again = arena.Intern(with_tl, 2);
  EXPECT_NE(tl_again, tl_id);
  EXPECT_EQ(arena.Intern(bare, 2), bare_id);
  EXPECT_EQ(arena.Intern(with_tl, 2), tl_again);
  EXPECT_EQ(arena.size(), 3u);
  // Both copies of the TL key stay readable under their own ids.
  ExpectKey(arena.key(tl_id), with_tl);
  ExpectKey(arena.key(tl_again), with_tl);
}

TEST(KeyArenaTest, KeyReturnsLocationDeltaAndTlPastTheInlineSlots) {
  // 5 and 9 entries spill past DepartureList's four inline slots.
  NodeKeyArena arena;
  std::vector<NodeKey> keys;
  std::vector<std::int32_t> ids;
  for (const std::size_t tl_size : {0u, 1u, 4u, 5u, 9u}) {
    keys.push_back(MakeKey(static_cast<LocationId>(tl_size), 2, tl_size));
    ids.push_back(arena.Intern(keys.back(), 1));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "TL length "
                                      << keys[i].departures.size());
    ExpectKey(arena.key(ids[i]), keys[i]);
    EXPECT_EQ(arena.location(ids[i]), keys[i].location);
  }
}

TEST(KeyArenaTest, SlicesStayIntactWhileInterleavedInterningGrowsThePool) {
  NodeKeyArena arena;
  std::vector<NodeKey> keys;
  std::vector<std::int32_t> ids;
  for (std::uint32_t scope = 1; scope <= 40; ++scope) {
    for (std::size_t k = 0; k < 50; ++k) {
      const std::size_t tl_size = 1 + (k + scope) % 9;
      keys.push_back(MakeKey(static_cast<LocationId>(k), kDeltaBottom,
                             tl_size, static_cast<Timestamp>(scope)));
      ids.push_back(arena.Intern(keys.back(), scope));
      // A fresh key of this scope comes back under the id just issued.
      EXPECT_EQ(arena.Intern(keys.back(), scope), ids.back());
    }
  }
  ASSERT_EQ(arena.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "key " << i);
    EXPECT_EQ(ids[i], static_cast<std::int32_t>(i));
    ExpectKey(arena.key(ids[i]), keys[i]);
  }
}

TEST(KeyArenaTest, KeysStayReadableAfterTheRelease) {
  NodeKeyArena arena;
  const NodeKey bare = MakeKey(2, kDeltaBottom, 0);
  const NodeKey long_tl = MakeKey(4, 1, 7);
  const std::int32_t bare_id = arena.Intern(bare, 1);
  const std::int32_t tl_id = arena.Intern(long_tl, 1);
  const NodeKeyArena::InternStats before = arena.intern_stats();
  arena.ReleaseInternState();
  EXPECT_EQ(arena.size(), 2u);
  ExpectKey(arena.key(bare_id), bare);
  ExpectKey(arena.key(tl_id), long_tl);
  EXPECT_EQ(arena.location(tl_id), 4);
  const NodeKeyArena::InternStats after = arena.intern_stats();
  EXPECT_EQ(after.intern_calls, before.intern_calls);
  EXPECT_EQ(after.probe_steps, before.probe_steps);
  EXPECT_EQ(after.probe_max, before.probe_max);
  EXPECT_EQ(after.persistent_entries, before.persistent_entries);
  EXPECT_EQ(after.persistent_capacity, before.persistent_capacity);
  EXPECT_DEATH(arena.Intern(bare, 1), "released_");
}

/// SYN1 at T = 100 under DU+LT+TT: every node carries a TL (the memo never
/// fires), so nearly every forward node interns its own key. The counts
/// and intern statistics are pinned at their values before the arena
/// stored keys as flat records: the layout changed, the tables, hashes,
/// probe order and ids did not.
TEST(KeyArenaPinnedTest, TlHeavyBuildKeepsItsCountsAndInternStats) {
  DatasetOptions options = DatasetOptions::Syn1();
  options.durations_ticks = {100};
  options.trajectories_per_duration = 1;
  options.seed = 1;
  const std::unique_ptr<Dataset> dataset = Dataset::Build(options);
  const ConstraintSet constraints =
      dataset->MakeConstraints(ConstraintFamilies::DuLtTt());
  obs::CleaningStats::Reset();
  BuildStats stats;
  const Result<CtGraph> graph = CtGraphBuilder(constraints)
                                    .Build(dataset->items()[0].lsequence,
                                           &stats);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(stats.peak_nodes, 69733u);
  EXPECT_EQ(stats.peak_edges, 136079u);
  EXPECT_EQ(stats.peak_keys, 69358u);

  if (!obs::Enabled()) GTEST_SKIP() << "stats compiled out";
  const obs::CleaningStats captured = obs::CleaningStats::Capture();
  EXPECT_EQ(captured.Get(obs::Counter::kForwardKeysInterned), 69358u);
  EXPECT_EQ(captured.Get(obs::Counter::kKeyInternCalls), 136084u);
  EXPECT_EQ(captured.Get(obs::Counter::kKeyProbeSteps), 199580u);
  const obs::HistogramData& probe_max =
      captured.Hist(obs::Dist::kKeyProbeMax);
  EXPECT_EQ(probe_max.count, 1u);
  EXPECT_EQ(probe_max.max, 37u);
  const obs::HistogramData& occupancy =
      captured.Hist(obs::Dist::kKeyOccupancyPct);
  EXPECT_EQ(occupancy.count, 1u);
  EXPECT_EQ(occupancy.max, 34u);
}

}  // namespace
}  // namespace rfidclean
