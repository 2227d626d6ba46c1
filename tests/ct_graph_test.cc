#include "core/ct_graph.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/builder.h"
#include "gen/dataset.h"
#include "test_util.h"

namespace rfidclean {
namespace {

using ::rfidclean::testing::kL1;
using ::rfidclean::testing::kL2;
using ::rfidclean::testing::kL3;
using ::rfidclean::testing::MakeLSequence;

CtGraph::Node MakeNode(Timestamp time, LocationId location,
                       double source_probability = 0.0) {
  CtGraph::Node node;
  node.time = time;
  node.key.location = location;
  node.source_probability = source_probability;
  return node;
}

// --- Assemble -------------------------------------------------------------------

TEST(CtGraphAssembleTest, AcceptsMinimalValidGraph) {
  std::vector<CtGraph::Node> nodes;
  nodes.push_back(MakeNode(0, kL1, 1.0));
  nodes[0].out_edges.push_back(CtGraph::Edge{1, 1.0});
  nodes.push_back(MakeNode(1, kL2));
  Result<CtGraph> graph = CtGraph::Assemble(std::move(nodes), 2);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph.value().NumNodes(), 2u);
  EXPECT_EQ(graph.value().NumEdges(), 1u);
  EXPECT_NEAR(graph.value().TrajectoryProbability(Trajectory({kL1, kL2})),
              1.0, 1e-12);
}

TEST(CtGraphAssembleTest, RejectsNonPositiveLength) {
  std::vector<CtGraph::Node> nodes;
  nodes.push_back(MakeNode(0, kL1, 1.0));
  EXPECT_FALSE(CtGraph::Assemble(std::move(nodes), 0).ok());
}

TEST(CtGraphAssembleTest, RejectsOutOfRangeTimestamps) {
  std::vector<CtGraph::Node> nodes;
  nodes.push_back(MakeNode(3, kL1, 1.0));
  EXPECT_FALSE(CtGraph::Assemble(std::move(nodes), 2).ok());
}

TEST(CtGraphAssembleTest, RejectsDanglingEdges) {
  std::vector<CtGraph::Node> nodes;
  nodes.push_back(MakeNode(0, kL1, 1.0));
  nodes[0].out_edges.push_back(CtGraph::Edge{7, 1.0});
  EXPECT_FALSE(CtGraph::Assemble(std::move(nodes), 2).ok());
}

TEST(CtGraphAssembleTest, RejectsSourceProbabilitiesNotSummingToOne) {
  std::vector<CtGraph::Node> nodes;
  nodes.push_back(MakeNode(0, kL1, 0.6));
  EXPECT_FALSE(CtGraph::Assemble(std::move(nodes), 1).ok());
}

TEST(CtGraphAssembleTest, RejectsUnnormalizedOutEdges) {
  std::vector<CtGraph::Node> nodes;
  nodes.push_back(MakeNode(0, kL1, 1.0));
  nodes[0].out_edges.push_back(CtGraph::Edge{1, 0.5});
  nodes.push_back(MakeNode(1, kL2));
  EXPECT_FALSE(CtGraph::Assemble(std::move(nodes), 2).ok());
}

TEST(CtGraphAssembleTest, RejectsNonTargetLeaf) {
  std::vector<CtGraph::Node> nodes;
  nodes.push_back(MakeNode(0, kL1, 1.0));  // No out-edge, but length 2.
  nodes.push_back(MakeNode(1, kL2));       // Unreachable too.
  EXPECT_FALSE(CtGraph::Assemble(std::move(nodes), 2).ok());
}

TEST(CtGraphAssembleTest, RejectsEdgeSkippingLayers) {
  std::vector<CtGraph::Node> nodes;
  nodes.push_back(MakeNode(0, kL1, 1.0));
  nodes[0].out_edges.push_back(CtGraph::Edge{1, 1.0});
  nodes.push_back(MakeNode(2, kL2));  // Skips t=1.
  EXPECT_FALSE(CtGraph::Assemble(std::move(nodes), 3).ok());
}

// --- Accessors and traversal -------------------------------------------------------

TEST(CtGraphTest, EmptyDefaultGraph) {
  CtGraph graph;
  EXPECT_EQ(graph.length(), 0);
  EXPECT_EQ(graph.NumNodes(), 0u);
  EXPECT_EQ(graph.NumEdges(), 0u);
}

TEST(CtGraphTest, TrajectoryProbabilityRejectsWrongLength) {
  ConstraintSet constraints(6);
  CtGraphBuilder builder(constraints);
  Result<CtGraph> graph =
      builder.Build(MakeLSequence({{{kL1, 1.0}}, {{kL2, 1.0}}}));
  ASSERT_TRUE(graph.ok());
  EXPECT_PROB_NEAR(graph.value().TrajectoryProbability(Trajectory({kL1})), 0.0);
  EXPECT_EQ(
      graph.value().TrajectoryProbability(Trajectory({kL1, kL2, kL2})),
      0.0);
}

TEST(CtGraphTest, NodesAtPartitionsAllNodes) {
  ConstraintSet constraints(6);
  CtGraphBuilder builder(constraints);
  Result<CtGraph> graph = builder.Build(MakeLSequence(
      {{{kL1, 0.5}, {kL2, 0.5}}, {{kL1, 0.5}, {kL3, 0.5}}}));
  ASSERT_TRUE(graph.ok());
  std::size_t total = 0;
  for (Timestamp t = 0; t < graph.value().length(); ++t) {
    for (NodeId id : graph.value().NodesAt(t)) {
      EXPECT_EQ(graph.value().TimeOf(id), t);
      ++total;
    }
  }
  EXPECT_EQ(total, graph.value().NumNodes());
}

TEST(CtGraphTest, SourceAndTargetLayersCoincideForLengthOne) {
  ConstraintSet constraints(6);
  CtGraphBuilder builder(constraints);
  Result<CtGraph> graph =
      builder.Build(MakeLSequence({{{kL1, 0.3}, {kL2, 0.7}}}));
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(std::ranges::equal(graph.value().SourceNodes(),
                                  graph.value().TargetNodes()));
}

// --- Flat layout -------------------------------------------------------------------

std::size_t TotalDepartures(const CtGraph& graph) {
  std::size_t departures = 0;
  for (std::size_t i = 0; i < graph.NumNodes(); ++i) {
    departures += graph.DeparturesOf(static_cast<NodeId>(i)).size();
  }
  return departures;
}

/// Bytes of the flat layout when every array is sized exactly: one record
/// per node plus the sentinel, the TL entries, the edges, one source
/// probability per node and the per-layer id index.
std::size_t ExactArrayBytes(const CtGraph& graph) {
  const std::size_t nodes = graph.NumNodes();
  const std::size_t layers = static_cast<std::size_t>(graph.length());
  return sizeof(CtGraph) + (nodes + 1) * sizeof(CtGraph::NodeRecord) +
         TotalDepartures(graph) * sizeof(Departure) +
         graph.NumEdges() * sizeof(CtGraph::Edge) + nodes * sizeof(double) +
         (layers + 1) * sizeof(std::uint32_t) + nodes * sizeof(NodeId);
}

TEST(CtGraphFlatLayoutTest, RecordSizes) {
  EXPECT_EQ(sizeof(CtGraph::NodeRecord), 20u);
  EXPECT_EQ(sizeof(CtGraph::Edge), 16u);
  EXPECT_EQ(sizeof(Departure), 8u);
}

TEST(CtGraphFlatLayoutTest, ApproximateBytesIsTheSumOfArrayCapacities) {
  // TT(L1 -> L3) makes L1 departures part of the keys, so the graph has
  // TL entries as well as nodes and edges.
  ConstraintSet constraints(6);
  constraints.AddTravelingTime(kL1, kL3, 3);
  Result<CtGraph> built = CtGraphBuilder(constraints)
                              .Build(MakeLSequence({{{kL1, 0.5}, {kL2, 0.5}},
                                                    {{kL2, 0.5}, {kL1, 0.5}},
                                                    {{kL2, 0.5}, {kL3, 0.5}},
                                                    {{kL3, 1.0}}}));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const CtGraph& graph = built.value();
  EXPECT_GT(TotalDepartures(graph), 0u);
  EXPECT_EQ(graph.ApproximateBytes(), ExactArrayBytes(graph));

  std::vector<CtGraph::Node> nodes;
  nodes.push_back(MakeNode(0, kL1, 1.0));
  nodes[0].key.departures.push_back(Departure{0, kL2});
  nodes[0].out_edges.push_back(CtGraph::Edge{1, 1.0});
  nodes.push_back(MakeNode(1, kL2));
  Result<CtGraph> assembled = CtGraph::Assemble(std::move(nodes), 2);
  ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
  EXPECT_EQ(assembled.value().ApproximateBytes(),
            ExactArrayBytes(assembled.value()));
}

TEST(CtGraphFlatLayoutTest, ApproximateBytesStaysUnderTheLayoutBoundOnSyn1) {
  DatasetOptions options = DatasetOptions::Syn1();
  options.durations_ticks = {100};
  options.trajectories_per_duration = 1;
  std::unique_ptr<Dataset> dataset = Dataset::Build(options);
  const ConstraintSet constraints =
      dataset->MakeConstraints(ConstraintFamilies::DuLtTt());
  Result<CtGraph> built =
      CtGraphBuilder(constraints).Build(dataset->items()[0].lsequence);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const CtGraph& graph = built.value();
  const std::size_t departures = TotalDepartures(graph);
  EXPECT_GT(departures, 0u);
  // 32 B per node, 16 B per edge, 8 B per TL entry, plus O(length).
  const std::size_t bound =
      32 * graph.NumNodes() + 16 * graph.NumEdges() + 8 * departures +
      8 * (static_cast<std::size_t>(graph.length()) + 1) + sizeof(CtGraph);
  EXPECT_LE(graph.ApproximateBytes(), bound);
  EXPECT_EQ(graph.ApproximateBytes(), ExactArrayBytes(graph));
}

}  // namespace
}  // namespace rfidclean
