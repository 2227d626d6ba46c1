// Invariant auditor for the CSR work graph (analysis/work_graph_audit.h):
// a ForwardEngine-built graph — complete or mid-build — must audit clean,
// and each targeted corruption of the compacted layout must be called out
// under its check.

#include "analysis/work_graph_audit.h"

#include <gtest/gtest.h>

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
    engine.AdvanceLayer(successors, t, sequence.CandidatesAt(t + 1));
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
  EXPECT_EQ(report.nodes_checked, engine.work().nodes.size());
  EXPECT_EQ(report.edges_checked, engine.work().edges.size());
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

TEST_F(WorkGraphAuditTest, DetectsNonContiguousEdgeSlice) {
  ForwardEngine engine =
      BuildPaperForward(constraints_, sequence_, sequence_.length());
  WorkGraph graph = engine.TakeWork();
  ASSERT_GT(graph.nodes[0].edge_count, 0);
  graph.nodes[0].edge_count -= 1;  // The next slice no longer continues it.
  AuditReport report = AuditWorkGraph(graph);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(AuditCheck::kCsrEdgeSlices), 1u);
}

TEST_F(WorkGraphAuditTest, DetectsEdgesOnTheUnexpandedFrontier) {
  ForwardEngine engine =
      BuildPaperForward(constraints_, sequence_, sequence_.length());
  WorkGraph graph = engine.TakeWork();
  graph.nodes.back().edge_count = 1;
  AuditReport report = AuditWorkGraph(graph);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(AuditCheck::kCsrEdgeSlices), 1u);
}

TEST_F(WorkGraphAuditTest, DetectsKeyIdOutsideArena) {
  ForwardEngine engine =
      BuildPaperForward(constraints_, sequence_, sequence_.length());
  WorkGraph graph = engine.TakeWork();
  graph.nodes[1].key_id =
      static_cast<std::int32_t>(graph.keys.size()) + 7;
  AuditReport report = AuditWorkGraph(graph);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(AuditCheck::kCsrKeyInterning), 1u);
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
      graph.nodes[static_cast<std::size_t>(begin) + 1].key_id =
          graph.nodes[static_cast<std::size_t>(begin)].key_id;
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
  ASSERT_FALSE(graph.edges.empty());
  graph.edges[0].to = 0;  // A source: never a valid target.
  AuditReport report = AuditWorkGraph(graph);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(AuditCheck::kEdgeTargetRange), 1u);
}

TEST_F(WorkGraphAuditTest, DetectsBadProbabilities) {
  ForwardEngine engine =
      BuildPaperForward(constraints_, sequence_, sequence_.length());
  WorkGraph graph = engine.TakeWork();
  ASSERT_FALSE(graph.edges.empty());
  graph.edges[0].probability = 0.0;
  graph.nodes[0].source_probability = 1.5;
  AuditReport report = AuditWorkGraph(graph);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(AuditCheck::kCsrProbabilities), 2u);
}

TEST_F(WorkGraphAuditTest, DetectsWrongNodeTime) {
  ForwardEngine engine =
      BuildPaperForward(constraints_, sequence_, sequence_.length());
  WorkGraph graph = engine.TakeWork();
  graph.nodes[0].time = 3;
  AuditReport report = AuditWorkGraph(graph);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(AuditCheck::kLayering), 1u);
}

}  // namespace
}  // namespace rfidclean
