// Invariant auditor for the columnar work graph
// (analysis/work_graph_audit.h): a ForwardEngine-built graph — complete or
// mid-build — must audit clean, and each targeted corruption of the layout
// must be called out under its check. Also pins the layout itself: the
// bytes per node and per edge, and the 32-bit bound.

#include "analysis/work_graph_audit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>

#include "core/forward.h"
#include "core/successor.h"
#include "test_util.h"

namespace rfidclean {
namespace {

using internal_core::ForwardEngine;
using internal_core::WorkGraph;

/// Runs the paper-example forward phase through `ticks` ticks and hands
/// back the engine for inspection.
ForwardEngine BuildPaperForward(const ConstraintSet& constraints,
                                const LSequence& sequence, Timestamp ticks) {
  SuccessorGenerator successors(constraints);
  ForwardEngine engine(constraints.num_locations());
  engine.BeginSources(successors, sequence.CandidatesAt(0));
  for (Timestamp t = 0; t + 1 < ticks; ++t) {
    EXPECT_TRUE(
        engine.AdvanceLayer(successors, t, sequence.CandidatesAt(t + 1)).ok());
  }
  return engine;
}

class WorkGraphAuditTest : public ::testing::Test {
 protected:
  ConstraintSet constraints_ = ::rfidclean::testing::PaperExampleConstraints();
  LSequence sequence_ = ::rfidclean::testing::PaperExampleSequence();
};

TEST_F(WorkGraphAuditTest, CompleteForwardPhaseAuditsClean) {
  ForwardEngine engine =
      BuildPaperForward(constraints_, sequence_, sequence_.length());
  AuditReport report = AuditWorkGraph(engine.work());
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.nodes_checked, engine.work().num_nodes());
  EXPECT_EQ(report.edges_checked, engine.work().num_edges());
  EXPECT_EQ(report.length, sequence_.length());
}

TEST_F(WorkGraphAuditTest, EveryMidBuildPrefixAuditsClean) {
  // The streaming cleaner exposes exactly these intermediate states.
  for (Timestamp ticks = 1; ticks <= sequence_.length(); ++ticks) {
    ForwardEngine engine = BuildPaperForward(constraints_, sequence_, ticks);
    AuditReport report = AuditWorkGraph(engine.work());
    EXPECT_TRUE(report.ok())
        << "after " << ticks << " ticks: " << report.ToString();
  }
}

TEST_F(WorkGraphAuditTest, EmptyGraphAuditsClean) {
  WorkGraph graph;
  EXPECT_TRUE(AuditWorkGraph(graph).ok());
}

TEST_F(WorkGraphAuditTest, DetectsBrokenLayerOffsets) {
  ForwardEngine engine =
      BuildPaperForward(constraints_, sequence_, sequence_.length());
  WorkGraph graph = engine.TakeWork();
  graph.layer_begin.back() -= 1;
  AuditReport report = AuditWorkGraph(graph);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(AuditCheck::kCsrLayerOffsets), 1u);
}

TEST_F(WorkGraphAuditTest, DetectsDecreasingEdgeOffsets) {
  ForwardEngine engine =
      BuildPaperForward(constraints_, sequence_, sequence_.length());
  WorkGraph graph = engine.TakeWork();
  ASSERT_GT(graph.edge_begin[2], 0u);
  graph.edge_begin[1] = graph.edge_begin[2] + 1;  // Overlaps node 1's slice.
  AuditReport report = AuditWorkGraph(graph);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(AuditCheck::kCsrEdgeSlices), 1u);
}

TEST_F(WorkGraphAuditTest, DetectsEdgesOnTheUnexpandedFrontier) {
  ForwardEngine engine =
      BuildPaperForward(constraints_, sequence_, sequence_.length());
  WorkGraph graph = engine.TakeWork();
  // The last node would own the last edge: its offset falls below the
  // edge count although its layer was never expanded.
  const std::size_t last = graph.num_nodes() - 1;
  ASSERT_GT(graph.edge_begin[last], 0u);
  graph.edge_begin[last] -= 1;
  AuditReport report = AuditWorkGraph(graph);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(AuditCheck::kCsrEdgeSlices), 1u);
}

TEST_F(WorkGraphAuditTest, DetectsKeyIdOutsideArena) {
  ForwardEngine engine =
      BuildPaperForward(constraints_, sequence_, sequence_.length());
  WorkGraph graph = engine.TakeWork();
  graph.key_id[1] = static_cast<std::int32_t>(graph.keys.size()) + 7;
  AuditReport report = AuditWorkGraph(graph);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(AuditCheck::kCsrKeyInterning), 1u);
}

TEST_F(WorkGraphAuditTest, ChecksKeyIdsAndLabelsEvenWithBrokenLayerOffsets) {
  ForwardEngine engine =
      BuildPaperForward(constraints_, sequence_, sequence_.length());
  WorkGraph graph = engine.TakeWork();
  graph.layer_begin.back() -= 1;
  graph.key_id[1] = -3;
  graph.apriori[2] = 2.0;
  AuditReport report = AuditWorkGraph(graph);
  EXPECT_GE(report.CountOf(AuditCheck::kCsrLayerOffsets), 1u);
  ASSERT_EQ(report.CountOf(AuditCheck::kCsrKeyInterning), 1u)
      << report.ToString();
  ASSERT_EQ(report.CountOf(AuditCheck::kCsrProbabilities), 1u)
      << report.ToString();
  for (const AuditViolation& violation : report.violations) {
    if (violation.check == AuditCheck::kCsrKeyInterning) {
      EXPECT_EQ(violation.node, 1);
      EXPECT_EQ(violation.time, -1);  // No layer to read it from.
    }
    if (violation.check == AuditCheck::kCsrProbabilities) {
      EXPECT_EQ(violation.node, 2);
    }
  }
}

TEST_F(WorkGraphAuditTest, ReportsAKeyIdViolationAtItsLayer) {
  ForwardEngine engine =
      BuildPaperForward(constraints_, sequence_, sequence_.length());
  WorkGraph graph = engine.TakeWork();
  const std::int32_t last_layer_begin =
      graph.layer_begin[graph.layer_begin.size() - 2];
  graph.key_id[static_cast<std::size_t>(last_layer_begin)] = -1;
  AuditReport report = AuditWorkGraph(graph);
  ASSERT_EQ(report.violations.size(), 1u) << report.ToString();
  EXPECT_EQ(report.violations[0].check, AuditCheck::kCsrKeyInterning);
  EXPECT_EQ(report.violations[0].node, last_layer_begin);
  EXPECT_EQ(report.violations[0].time, graph.num_layers() - 1);
}

TEST_F(WorkGraphAuditTest, DetectsDuplicateKeyWithinALayer) {
  ForwardEngine engine =
      BuildPaperForward(constraints_, sequence_, sequence_.length());
  WorkGraph graph = engine.TakeWork();
  // Find a layer past the sources with at least two nodes and alias the
  // second node's key to the first's.
  bool corrupted = false;
  for (Timestamp t = 1; t < graph.num_layers() && !corrupted; ++t) {
    const std::int32_t begin =
        graph.layer_begin[static_cast<std::size_t>(t)];
    const std::int32_t end =
        graph.layer_begin[static_cast<std::size_t>(t) + 1];
    if (end - begin >= 2) {
      graph.key_id[static_cast<std::size_t>(begin) + 1] =
          graph.key_id[static_cast<std::size_t>(begin)];
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted);
  AuditReport report = AuditWorkGraph(graph);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(AuditCheck::kCsrKeyInterning), 1u);
}

TEST_F(WorkGraphAuditTest, DetectsEdgeTargetOutsideNextLayer) {
  ForwardEngine engine =
      BuildPaperForward(constraints_, sequence_, sequence_.length());
  WorkGraph graph = engine.TakeWork();
  ASSERT_FALSE(graph.edge_to.empty());
  graph.edge_to[0] = 0;  // A source: never a valid target.
  AuditReport report = AuditWorkGraph(graph);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(AuditCheck::kEdgeTargetRange), 1u);
}

TEST_F(WorkGraphAuditTest, DetectsBadProbabilities) {
  ForwardEngine engine =
      BuildPaperForward(constraints_, sequence_, sequence_.length());
  WorkGraph graph = engine.TakeWork();
  ASSERT_GT(graph.num_layers(), 1);
  graph.apriori.back() = 0.0;  // A non-source label.
  graph.apriori[0] = 1.5;      // A source probability.
  AuditReport report = AuditWorkGraph(graph);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(AuditCheck::kCsrProbabilities), 2u);
}

TEST_F(WorkGraphAuditTest, DetectsColumnsOfDifferentLengths) {
  ForwardEngine engine =
      BuildPaperForward(constraints_, sequence_, sequence_.length());
  WorkGraph graph = engine.TakeWork();
  graph.apriori.pop_back();
  AuditReport report = AuditWorkGraph(graph);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(AuditCheck::kCsrLayerOffsets), 1u);
}

// The layout: a node costs a key id, an edge offset and a label (16 B), an
// edge its target (4 B).
TEST(WorkGraphLayoutTest, ElementSizes) {
  WorkGraph graph;
  EXPECT_EQ(sizeof(decltype(graph.key_id)::value_type), 4u);
  EXPECT_EQ(sizeof(decltype(graph.edge_begin)::value_type), 4u);
  EXPECT_EQ(sizeof(decltype(graph.apriori)::value_type), 8u);
  EXPECT_EQ(sizeof(decltype(graph.edge_to)::value_type), 4u);
}

TEST_F(WorkGraphAuditTest, ApproximateBytesIsTheSumOfTheColumnCapacities) {
  ForwardEngine engine =
      BuildPaperForward(constraints_, sequence_, sequence_.length());
  const WorkGraph& graph = engine.work();
  EXPECT_EQ(graph.ApproximateBytes(),
            4 * graph.key_id.capacity() + 4 * graph.edge_begin.capacity() +
                8 * graph.apriori.capacity() + 4 * graph.edge_to.capacity() +
                4 * graph.layer_begin.capacity());
  // The engine adds the key arena and its key-indexed scratch on top.
  EXPECT_GT(engine.ApproximateBytes(),
            graph.ApproximateBytes() + graph.keys.ApproximateBytes());
}

// A Push that fails on the 32-bit bound rolls back a half-expanded layer.
// The state it rolls back is cut from a real expansion: the last layer
// unrecorded, its first frontier nodes' slices and the nodes they created
// kept, the rest of the frontier not yet reached. After the roll back every
// column equals the graph before the expansion, which is all that
// StreamingCleaner::CurrentDistribution and a later Finish read.
TEST_F(WorkGraphAuditTest, RollBackExpansionRestoresTheGraphBeforeTheLayer) {
  const Timestamp length = sequence_.length();
  ASSERT_GE(length, 2);
  const ForwardEngine before =
      BuildPaperForward(constraints_, sequence_, length - 1);
  const WorkGraph& want = before.work();
  ForwardEngine engine = BuildPaperForward(constraints_, sequence_, length);
  WorkGraph graph = engine.TakeWork();

  graph.layer_begin.pop_back();
  const std::size_t frontier_begin =
      static_cast<std::size_t>(graph.layer_begin[graph.layer_begin.size() - 2]);
  const std::size_t frontier_end =
      static_cast<std::size_t>(graph.layer_begin.back());
  ASSERT_GE(frontier_end - frontier_begin, 2u);
  // The first half of the frontier is expanded; the next node's offset is
  // written, its edges are not.
  const std::size_t expanded = (frontier_end - frontier_begin) / 2;
  const std::uint32_t edges_so_far =
      graph.edge_begin[frontier_begin + expanded];
  ASSERT_GT(edges_so_far, want.num_edges());
  NodeId last_target = static_cast<NodeId>(frontier_end) - 1;
  for (std::size_t e = want.num_edges(); e < edges_so_far; ++e) {
    last_target = std::max(last_target, graph.edge_to[e]);
  }
  graph.edge_to.resize(edges_so_far);
  graph.key_id.resize(static_cast<std::size_t>(last_target) + 1);
  graph.apriori.resize(static_cast<std::size_t>(last_target) + 1);
  graph.edge_begin.resize(frontier_end + 1);
  std::fill(graph.edge_begin.begin() +
                static_cast<std::ptrdiff_t>(frontier_begin + expanded + 1),
            graph.edge_begin.end(),
            static_cast<std::uint32_t>(want.num_edges()));
  ASSERT_GT(graph.num_nodes(), frontier_end);
  EXPECT_FALSE(AuditWorkGraph(graph).ok());

  graph.RollBackExpansion();
  AuditReport report = AuditWorkGraph(graph);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(graph.key_id, want.key_id);
  EXPECT_EQ(graph.edge_begin, want.edge_begin);
  EXPECT_EQ(graph.apriori, want.apriori);
  EXPECT_EQ(graph.edge_to, want.edge_to);
  EXPECT_EQ(graph.layer_begin, want.layer_begin);
}

TEST(WorkGraphBoundTest, HoldsAtMostInt32MaxNodesOrEdges) {
  EXPECT_TRUE(internal_core::FitsWorkGraph(0));
  EXPECT_TRUE(internal_core::FitsWorkGraph((std::size_t{1} << 31) - 1));
  EXPECT_FALSE(internal_core::FitsWorkGraph(std::size_t{1} << 31));
  const Status error = internal_core::WorkGraphBoundError(
      std::size_t{1} << 31, "edges", 17);
  EXPECT_EQ(error.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(error.message().find("tick 17"), std::string::npos)
      << error.message();
  EXPECT_NE(error.message().find("2147483648 edges"), std::string::npos)
      << error.message();
}

}  // namespace
}  // namespace rfidclean
