#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/location_node.h"
#include "core/successor.h"
#include "test_util.h"

namespace rfidclean {
namespace {

using ::rfidclean::testing::kL1;
using ::rfidclean::testing::kL2;
using ::rfidclean::testing::kL3;
using ::rfidclean::testing::kL4;
using ::rfidclean::testing::kL5;
using ::rfidclean::testing::MakeLSequence;

// --- NodeKey -------------------------------------------------------------------

TEST(NodeKeyTest, EqualityComparesAllComponents) {
  NodeKey a{kL1, 0, {}};
  NodeKey b{kL1, 0, {}};
  EXPECT_EQ(a, b);
  b.delta = kDeltaBottom;
  EXPECT_FALSE(a == b);
  b = a;
  b.departures.push_back(Departure{0, kL2});
  EXPECT_FALSE(a == b);
  b = a;
  b.location = kL2;
  EXPECT_FALSE(a == b);
}

TEST(NodeKeyTest, HashAgreesOnEqualKeys) {
  NodeKeyHash hash;
  NodeKey a{kL1, 2, {}};
  a.departures.push_back(Departure{3, kL2});
  NodeKey b{kL1, 2, {}};
  b.departures.push_back(Departure{3, kL2});
  EXPECT_EQ(hash(a), hash(b));
}

TEST(NodeKeyTest, HashDistinguishesDeltaBottomFromZero) {
  NodeKeyHash hash;
  NodeKey a{kL1, kDeltaBottom, {}};
  NodeKey b{kL1, 0, {}};
  EXPECT_NE(hash(a), hash(b));
}

TEST(NodeKeyTest, ToStringIsReadable) {
  NodeKey key{kL3, 0, {}};
  key.departures.push_back(Departure{0, kL1});
  EXPECT_EQ(key.ToString(), "(L3, δ=0, TL={(0,L1)})");
  NodeKey bottom{kL3, kDeltaBottom, {}};
  EXPECT_EQ(bottom.ToString(), "(L3, δ=⊥, TL={})");
}

// --- SuccessorGenerator -----------------------------------------------------------

std::vector<NodeKey> Successors(const SuccessorGenerator& generator,
                                const LSequence& sequence, Timestamp t,
                                const NodeKey& key) {
  std::vector<NodeKey> out;
  NodeKey scratch;
  generator.ForEachSuccessor(
      t, key, sequence.CandidatesAt(t + 1), &scratch,
      [&out](const NodeKey& successor) { out.push_back(successor); });
  return out;
}

std::vector<NodeKey> SourceKeys(const SuccessorGenerator& generator,
                                const LSequence& sequence) {
  std::vector<NodeKey> out;
  NodeKey scratch;
  generator.ForEachSourceKey(
      sequence.CandidatesAt(0), &scratch,
      [&out](const NodeKey& source) { out.push_back(source); });
  return out;
}

TEST(SuccessorGeneratorTest, SourceKeysTrackLatencyOnlyWhereConstrained) {
  LSequence sequence = MakeLSequence({{{kL1, 0.5}, {kL2, 0.5}}, {{kL1, 1.0}}});
  ConstraintSet constraints(6);
  constraints.AddLatency(kL1, 3);
  SuccessorGenerator generator(constraints);
  std::vector<NodeKey> sources = SourceKeys(generator, sequence);
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_EQ(sources[0].location, kL1);
  EXPECT_EQ(sources[0].delta, 0);
  EXPECT_EQ(sources[1].location, kL2);
  EXPECT_EQ(sources[1].delta, kDeltaBottom);
  EXPECT_TRUE(sources[0].departures.empty());
}

TEST(SuccessorGeneratorTest, DirectUnreachabilityBlocksMove) {
  LSequence sequence = MakeLSequence({{{kL1, 1.0}}, {{kL2, 0.5}, {kL3, 0.5}}});
  ConstraintSet constraints(6);
  constraints.AddUnreachable(kL1, kL2);
  SuccessorGenerator generator(constraints);
  auto successors = Successors(generator, sequence, 0, NodeKey{kL1, kDeltaBottom, {}});
  ASSERT_EQ(successors.size(), 1u);
  EXPECT_EQ(successors[0].location, kL3);
}

TEST(SuccessorGeneratorTest, StayingIsAllowedDespiteUnreachable) {
  LSequence sequence = MakeLSequence({{{kL1, 1.0}}, {{kL1, 1.0}}});
  ConstraintSet constraints(6);
  constraints.AddUnreachable(kL1, kL2);
  SuccessorGenerator generator(constraints);
  auto successors = Successors(generator, sequence, 0, NodeKey{kL1, kDeltaBottom, {}});
  ASSERT_EQ(successors.size(), 1u);
  EXPECT_EQ(successors[0].location, kL1);
}

TEST(SuccessorGeneratorTest, LatencyBlocksEarlyDeparture) {
  LSequence sequence = MakeLSequence({{{kL1, 1.0}}, {{kL1, 0.5}, {kL2, 0.5}}});
  ConstraintSet constraints(6);
  constraints.AddLatency(kL1, 2);
  SuccessorGenerator generator(constraints);
  // δ = 0: stay too short to leave.
  auto successors = Successors(generator, sequence, 0, NodeKey{kL1, 0, {}});
  ASSERT_EQ(successors.size(), 1u);
  EXPECT_EQ(successors[0].location, kL1);
  // δ = ⊥: latency satisfied, both moves allowed.
  successors = Successors(generator, sequence, 0, NodeKey{kL1, kDeltaBottom, {}});
  EXPECT_EQ(successors.size(), 2u);
}

TEST(SuccessorGeneratorTest, DeltaSaturatesWhenLatencySatisfied) {
  LSequence sequence = MakeLSequence(
      {{{kL1, 1.0}}, {{kL1, 1.0}}, {{kL1, 1.0}}, {{kL1, 1.0}}});
  ConstraintSet constraints(6);
  constraints.AddLatency(kL1, 3);
  SuccessorGenerator generator(constraints);
  // Stay of 2 ticks: δ 0 -> 1 (2 + ... still short of 3).
  auto successors = Successors(generator, sequence, 0, NodeKey{kL1, 0, {}});
  ASSERT_EQ(successors.size(), 1u);
  EXPECT_EQ(successors[0].delta, 1);
  // Third tick: the 3-tick stay satisfies the bound, δ collapses to ⊥.
  successors = Successors(generator, sequence, 1, NodeKey{kL1, 1, {}});
  ASSERT_EQ(successors.size(), 1u);
  EXPECT_EQ(successors[0].delta, kDeltaBottom);
  // ⊥ stays ⊥.
  successors = Successors(generator, sequence, 2, NodeKey{kL1, kDeltaBottom, {}});
  ASSERT_EQ(successors.size(), 1u);
  EXPECT_EQ(successors[0].delta, kDeltaBottom);
}

TEST(SuccessorGeneratorTest, ArrivalStartsDeltaAtZeroOnlyUnderLatency) {
  LSequence sequence = MakeLSequence({{{kL1, 1.0}}, {{kL2, 0.5}, {kL3, 0.5}}});
  ConstraintSet constraints(6);
  constraints.AddLatency(kL2, 4);
  SuccessorGenerator generator(constraints);
  auto successors = Successors(generator, sequence, 0, NodeKey{kL1, kDeltaBottom, {}});
  ASSERT_EQ(successors.size(), 2u);
  for (const NodeKey& key : successors) {
    if (key.location == kL2) {
      EXPECT_EQ(key.delta, 0);
    } else {
      EXPECT_EQ(key.delta, kDeltaBottom);
    }
  }
}

TEST(SuccessorGeneratorTest, DepartureRecordedOnlyForTtConstrainedSources) {
  LSequence sequence = MakeLSequence({{{kL1, 1.0}}, {{kL2, 1.0}}});
  ConstraintSet constraints(6);
  constraints.AddTravelingTime(kL1, kL3, 5);
  SuccessorGenerator generator(constraints);
  auto successors = Successors(generator, sequence, 0, NodeKey{kL1, kDeltaBottom, {}});
  ASSERT_EQ(successors.size(), 1u);
  ASSERT_EQ(successors[0].departures.size(), 1u);
  EXPECT_EQ(successors[0].departures[0].location, kL1);
  EXPECT_EQ(successors[0].departures[0].time, 0);

  // Leaving a location with no outgoing TT constraints records nothing.
  ConstraintSet no_tt(6);
  SuccessorGenerator generator2(no_tt);
  successors = Successors(generator2, sequence, 0, NodeKey{kL1, kDeltaBottom, {}});
  ASSERT_EQ(successors.size(), 1u);
  EXPECT_TRUE(successors[0].departures.empty());
}

TEST(SuccessorGeneratorTest, TravelingTimeBlocksEarlyArrival) {
  LSequence sequence =
      MakeLSequence({{{kL2, 1.0}}, {{kL2, 0.3}, {kL3, 0.7}}});
  ConstraintSet constraints(6);
  constraints.AddTravelingTime(kL1, kL3, 4);
  SuccessorGenerator generator(constraints);
  NodeKey from{kL2, kDeltaBottom, {}};
  from.departures.push_back(Departure{0, kL1});  // Left L1 at t=0.
  // Arriving at L3 at t=1: gap 1 < 4 -> blocked; staying at L2 fine.
  auto successors = Successors(generator, sequence, 0, from);
  ASSERT_EQ(successors.size(), 1u);
  EXPECT_EQ(successors[0].location, kL2);
}

TEST(SuccessorGeneratorTest, ExpiredDeparturesAreDroppedPaperRule) {
  // With reachability pruning disabled, the entry lives for exactly
  // maxTravelingTime(l') ticks, as in the paper.
  std::vector<std::vector<std::pair<LocationId, double>>> spec(
      8, {{kL2, 1.0}});
  LSequence sequence = MakeLSequence(spec);
  ConstraintSet constraints(6);
  constraints.AddTravelingTime(kL1, kL3, 4);
  SuccessorOptions options;
  options.reachability_tl_pruning = false;
  SuccessorGenerator generator(constraints, options);
  NodeKey from{kL2, kDeltaBottom, {}};
  from.departures.push_back(Departure{0, kL1});
  // At arrival time 3: 3 - 0 < 4, entry kept.
  auto successors = Successors(generator, sequence, 2, from);
  ASSERT_EQ(successors.size(), 1u);
  EXPECT_EQ(successors[0].departures.size(), 1u);
  // At arrival time 4: 4 - 0 >= maxTT(L1) = 4, entry expired.
  successors = Successors(generator, sequence, 3, from);
  ASSERT_EQ(successors.size(), 1u);
  EXPECT_TRUE(successors[0].departures.empty());
}

TEST(SuccessorGeneratorTest, ReachabilityPruningDropsEntriesEarlier) {
  // TT(L1, L3, 4) and the object is at L2, one hop from L3: a violation
  // needs arrival at L3 before tick 4, so from tick 3 onwards (earliest
  // possible arrival 3 + 1 = 4) the entry is irrelevant and dropped.
  std::vector<std::vector<std::pair<LocationId, double>>> spec(
      8, {{kL2, 1.0}});
  LSequence sequence = MakeLSequence(spec);
  ConstraintSet constraints(6);
  constraints.AddTravelingTime(kL1, kL3, 4);
  SuccessorGenerator generator(constraints);  // Pruning on.
  NodeKey from{kL2, kDeltaBottom, {}};
  from.departures.push_back(Departure{0, kL1});
  auto successors = Successors(generator, sequence, 1, from);  // Arrival 2 < 3: kept.
  ASSERT_EQ(successors.size(), 1u);
  EXPECT_EQ(successors[0].departures.size(), 1u);
  successors = Successors(generator, sequence, 2, from);  // Arrival 3: dropped.
  ASSERT_EQ(successors.size(), 1u);
  EXPECT_TRUE(successors[0].departures.empty());
}

TEST(SuccessorGeneratorTest, PruningRespectsUnreachabilityInHopDistances) {
  // As above but L3 is unreachable from L2 in one hop: the only route is
  // L2 -> L4 -> L3 (two hops), so the relevance window shrinks further.
  std::vector<std::vector<std::pair<LocationId, double>>> spec(
      8, {{kL2, 1.0}});
  LSequence sequence = MakeLSequence(spec);
  ConstraintSet constraints(6);
  constraints.AddTravelingTime(kL1, kL3, 4);
  for (LocationId l : {LocationId{0}, kL1, kL2, kL5}) {
    constraints.AddUnreachable(l, kL3);
  }
  constraints.AddUnreachable(kL2, kL4);
  // Only L4 connects to L3, and L2 cannot reach L4 directly; the shortest
  // route is L2 -> {L0, L1, L5} -> L4 -> L3 = 3 hops.
  SuccessorGenerator generator(constraints);
  NodeKey from{kL2, kDeltaBottom, {}};
  from.departures.push_back(Departure{0, kL1});
  // Window at L2 = 4 - 3 = 1: kept only while arrival - 0 < 1.
  auto successors = Successors(generator, sequence, 0, from);  // Arrival 1: dropped.
  ASSERT_EQ(successors.size(), 1u);
  EXPECT_TRUE(successors[0].departures.empty());
}

TEST(SuccessorGeneratorTest, ReenteringALocationClearsItsDeparture) {
  LSequence sequence = MakeLSequence({{{kL2, 1.0}}, {{kL1, 1.0}}});
  ConstraintSet constraints(6);
  constraints.AddTravelingTime(kL1, kL3, 9);
  SuccessorGenerator generator(constraints);
  NodeKey from{kL2, kDeltaBottom, {}};
  from.departures.push_back(Departure{0, kL1});
  auto successors = Successors(generator, sequence, 0, from);
  ASSERT_EQ(successors.size(), 1u);
  EXPECT_EQ(successors[0].location, kL1);
  EXPECT_TRUE(successors[0].departures.empty());
}

TEST(SuccessorGeneratorTest, DeparturesStaySortedByLocation) {
  LSequence sequence = MakeLSequence({{{kL2, 1.0}}, {{kL3, 1.0}}});
  ConstraintSet constraints(6);
  constraints.AddTravelingTime(kL1, kL4, 9);
  constraints.AddTravelingTime(kL2, kL4, 9);
  SuccessorGenerator generator(constraints);
  NodeKey from{kL2, kDeltaBottom, {}};
  from.departures.push_back(Departure{0, kL1});
  auto successors = Successors(generator, sequence, 0, from);
  ASSERT_EQ(successors.size(), 1u);
  const DepartureList& departures = successors[0].departures;
  ASSERT_EQ(departures.size(), 2u);
  EXPECT_EQ(departures[0].location, kL1);
  EXPECT_EQ(departures[1].location, kL2);
  EXPECT_EQ(departures[1].time, 0);
}

TEST(SuccessorGeneratorTest, SuccessorsRestrictedToCandidates) {
  LSequence sequence = MakeLSequence({{{kL1, 1.0}}, {{kL4, 1.0}}});
  ConstraintSet constraints(6);
  SuccessorGenerator generator(constraints);
  auto successors = Successors(generator, sequence, 0, NodeKey{kL1, kDeltaBottom, {}});
  ASSERT_EQ(successors.size(), 1u);
  EXPECT_EQ(successors[0].location, kL4);
}

TEST(SuccessorGeneratorTest, ClassifyRejectionLockstepAndGroupClasses) {
  // The explain attribution pass (core/explain_attribution.cc) aggregates
  // forward rejections per (parent location, δ-class) group instead of
  // calling ClassifyRejection per parent. That is sound only while three
  // facts about the Definition-3 check order hold:
  //   (a) ClassifyRejection == kAdmissible  iff  ForEachSuccessor emits;
  //   (b) for a move, unreachability depends on the location pair alone
  //       and precedes every other check, and δ ≠ ⊥ then forces kLatency
  //       regardless of TL;
  //   (c) a rejected δ = ⊥ parent is always rejected as kTravelTime.
  // Exercise every key reachable in a few ticks under a constraint set
  // mixing all three families and check the theorem for every candidate.
  ConstraintSet constraints(6);
  constraints.AddUnreachable(kL2, kL5);
  constraints.AddUnreachable(kL5, kL2);
  constraints.AddLatency(kL3, 3);
  constraints.AddTravelingTime(kL1, kL4, 3);
  constraints.AddTravelingTime(kL3, 5, 2);
  SuccessorGenerator generator(constraints);

  std::vector<std::vector<std::pair<LocationId, double>>> ticks;
  for (int t = 0; t < 4; ++t) {
    std::vector<std::pair<LocationId, double>> tick;
    for (LocationId l = 0; l < 6; ++l) tick.push_back({l, 1.0 / 6});
    ticks.push_back(tick);
  }
  LSequence sequence = MakeLSequence(ticks);

  std::vector<NodeKey> frontier = SourceKeys(generator, sequence);
  std::size_t pairs_checked = 0;
  for (Timestamp t = 0; t + 1 < 4; ++t) {
    std::set<std::string> next_seen;
    std::vector<NodeKey> next_frontier;
    for (const NodeKey& key : frontier) {
      const std::vector<NodeKey> emitted =
          Successors(generator, sequence, t, key);
      std::set<LocationId> emitted_locations;
      for (const NodeKey& successor : emitted) {
        emitted_locations.insert(successor.location);
        if (next_seen.insert(successor.ToString()).second) {
          next_frontier.push_back(successor);
        }
      }
      for (const Candidate& candidate : sequence.CandidatesAt(t + 1)) {
        const LocationId to = candidate.location;
        const SuccessorReject verdict =
            generator.ClassifyRejection(t, key, to);
        ++pairs_checked;
        // (a) lockstep with emission.
        EXPECT_EQ(verdict == SuccessorReject::kAdmissible,
                  emitted_locations.count(to) != 0)
            << key.ToString() << " -> " << to << " at t=" << t;
        if (to == key.location) {
          EXPECT_EQ(verdict, SuccessorReject::kAdmissible) << key.ToString();
        } else if (constraints.IsUnreachable(key.location, to)) {
          // (b) location-determined, ahead of latency and TL.
          EXPECT_EQ(verdict, SuccessorReject::kUnreachable)
              << key.ToString() << " -> " << to;
        } else if (key.delta != kDeltaBottom) {
          EXPECT_EQ(verdict, SuccessorReject::kLatency)
              << key.ToString() << " -> " << to;
        } else if (verdict != SuccessorReject::kAdmissible) {
          // (c) the only remaining rejection class.
          EXPECT_EQ(verdict, SuccessorReject::kTravelTime)
              << key.ToString() << " -> " << to;
        }
      }
    }
    frontier = std::move(next_frontier);
  }
  // The enumeration must have visited keys in every δ/TL class.
  EXPECT_GT(pairs_checked, 100u);
}

}  // namespace
}  // namespace rfidclean
