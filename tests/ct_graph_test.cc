#include "core/ct_graph.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/builder.h"
#include "core/streaming.h"
#include "gen/dataset.h"
#include "io/ctgraph_io.h"
#include "store/graph_codec.h"
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

/// TT(L1 -> L3) puts L1 departures into the keys, so the graph has TL
/// entries as well as several nodes per layer.
ConstraintSet TlConstraints() {
  ConstraintSet constraints(6);
  constraints.AddTravelingTime(kL1, kL3, 3);
  return constraints;
}

LSequence TlSequence() {
  return MakeLSequence({{{kL1, 0.5}, {kL2, 0.5}},
                        {{kL2, 0.5}, {kL1, 0.5}},
                        {{kL2, 0.5}, {kL3, 0.5}},
                        {{kL3, 1.0}}});
}

std::size_t TotalDepartures(const CtGraph& graph) {
  std::size_t departures = 0;
  for (std::size_t i = 0; i < graph.NumNodes(); ++i) {
    departures += graph.DeparturesOf(static_cast<NodeId>(i)).size();
  }
  return departures;
}

/// Bytes of the column layout when every column is sized exactly: the
/// layer offsets, 16 B per node (location, delta and the TL and edge
/// offsets, each of which ends with one more), the TL entries, 12 B per
/// edge (target, probability) and layer 0's source probabilities.
std::size_t ExactArrayBytes(const CtGraph& graph) {
  const std::size_t nodes = graph.NumNodes();
  const std::size_t layers = static_cast<std::size_t>(graph.length());
  return sizeof(CtGraph) + (layers + 1) * sizeof(std::uint32_t) +
         nodes * (sizeof(LocationId) + sizeof(Timestamp)) +
         2 * (nodes + 1) * sizeof(std::uint32_t) +
         TotalDepartures(graph) * sizeof(Departure) +
         graph.NumEdges() * (sizeof(NodeId) + sizeof(double)) +
         graph.SourceNodes().size() * sizeof(double);
}

TEST(CtGraphFlatLayoutTest, RecordSizes) {
  EXPECT_EQ(sizeof(LocationId) + sizeof(Timestamp) +
                2 * sizeof(std::uint32_t),
            16u);  // per node
  EXPECT_EQ(sizeof(NodeId) + sizeof(double), 12u);  // per edge
  EXPECT_EQ(sizeof(Departure), 8u);
}

TEST(CtGraphFlatLayoutTest, ApproximateBytesIsTheSumOfArrayCapacities) {
  const ConstraintSet constraints = TlConstraints();
  Result<CtGraph> built = CtGraphBuilder(constraints).Build(TlSequence());
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
  // 16 B per node, 12 B per edge, 8 B per TL entry, plus the layer
  // offsets, two end offsets and layer 0's source probabilities.
  const std::size_t bound =
      16 * graph.NumNodes() + 12 * graph.NumEdges() + 8 * departures +
      4 * (static_cast<std::size_t>(graph.length()) + 1) + 2 * 4 +
      8 * graph.SourceNodes().size() + sizeof(CtGraph);
  EXPECT_LE(graph.ApproximateBytes(), bound);
  EXPECT_EQ(graph.ApproximateBytes(), ExactArrayBytes(graph));
  EXPECT_EQ(graph.NumDepartures(), departures);
}

// --- Stored digest -----------------------------------------------------------------

/// The graph digest as docs/FORMATS.md defines it, one byte at a time over
/// the accessors: a reference that shares no code with the fold in
/// CtGraph::Arrays.
std::uint64_t ReferenceDigest(const CtGraph& graph) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFFu;
      hash *= 0x100000001b3ULL;
    }
  };
  const auto mix_signed = [&mix](std::int64_t value) {
    mix(static_cast<std::uint64_t>(value));
  };
  const auto mix_double = [&mix](double value) {
    mix(std::bit_cast<std::uint64_t>(value));
  };
  mix_signed(graph.length());
  mix(graph.NumNodes());
  for (std::size_t i = 0; i < graph.NumNodes(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    mix_signed(graph.TimeOf(id));
    mix_signed(graph.LocationOf(id));
    mix_signed(graph.DeltaOf(id));
    mix(graph.DeparturesOf(id).size());
    for (const Departure& departure : graph.DeparturesOf(id)) {
      mix_signed(departure.time);
      mix_signed(departure.location);
    }
    mix_double(graph.SourceProbability(id));
    mix(graph.OutEdges(id).size());
    for (const CtGraph::Edge& edge : graph.OutEdges(id)) {
      mix_signed(edge.to);
      mix_double(edge.probability);
    }
  }
  return hash;
}

/// `graph`'s stored digest must be the reference digest, and so must the
/// digest of every copy and move of it.
void ExpectStoredDigest(const CtGraph& graph) {
  const std::uint64_t expected = ReferenceDigest(graph);
  EXPECT_EQ(graph.Digest(), expected);
  CtGraph copy(graph);
  EXPECT_EQ(copy.Digest(), expected);
  const CtGraph moved(std::move(copy));
  EXPECT_EQ(moved.Digest(), expected);
  CtGraph assigned;
  assigned = graph;
  EXPECT_EQ(assigned.Digest(), expected);
  CtGraph move_assigned;
  move_assigned = std::move(assigned);
  EXPECT_EQ(move_assigned.Digest(), expected);
}

TEST(CtGraphDigestTest, DefaultGraphHoldsTheEmptyGraphsDigest) {
  const CtGraph graph;
  EXPECT_EQ(graph.Digest(), kEmptyGraphDigest);
  ExpectStoredDigest(graph);
}

TEST(CtGraphDigestTest, BuildStoresTheDigest) {
  const ConstraintSet constraints = TlConstraints();
  Result<CtGraph> built = CtGraphBuilder(constraints).Build(TlSequence());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_GT(built.value().NumDepartures(), 0u);
  ExpectStoredDigest(built.value());

  DatasetOptions options = DatasetOptions::Syn1();
  options.durations_ticks = {60};
  options.trajectories_per_duration = 1;
  std::unique_ptr<Dataset> dataset = Dataset::Build(options);
  const ConstraintSet syn1 =
      dataset->MakeConstraints(ConstraintFamilies::DuLtTt());
  Result<CtGraph> syn1_graph =
      CtGraphBuilder(syn1).Build(dataset->items()[0].lsequence);
  ASSERT_TRUE(syn1_graph.ok()) << syn1_graph.status().ToString();
  ExpectStoredDigest(syn1_graph.value());
}

TEST(CtGraphDigestTest, StreamingCleanerStoresTheDigest) {
  const ConstraintSet constraints = TlConstraints();
  const LSequence sequence = TlSequence();
  StreamingCleaner cleaner(constraints);
  for (Timestamp t = 0; t < sequence.length(); ++t) {
    ASSERT_TRUE(cleaner.Push(sequence.CandidatesAt(t)).ok());
  }
  Result<CtGraph> graph = std::move(cleaner).Finish();
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ExpectStoredDigest(graph.value());
}

/// Two sources with TL entries, one of four departures and one past
/// DepartureList's inline slots, each with two out-edges.
std::vector<CtGraph::Node> TlNodes() {
  std::vector<CtGraph::Node> nodes;
  nodes.push_back(MakeNode(0, kL1, 0.25));
  nodes.back().key.delta = 3;
  for (LocationId l = 0; l < 4; ++l) {
    nodes.back().key.departures.push_back(Departure{l, l + 2});
  }
  nodes.back().out_edges = {{2, 0.5}, {3, 0.5}};
  nodes.push_back(MakeNode(0, kL2, 0.75));
  for (LocationId l = 0; l < 6; ++l) {
    nodes.back().key.departures.push_back(Departure{l + 1, 3 * l});
  }
  nodes.back().out_edges = {{2, 0.125}, {3, 0.875}};
  nodes.push_back(MakeNode(1, kL3));
  nodes.push_back(MakeNode(1, kL1));
  return nodes;
}

TEST(CtGraphDigestTest, AssembleStoresTheDigest) {
  Result<CtGraph> graph = CtGraph::Assemble(TlNodes(), 2);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph.value().NumDepartures(), 10u);
  ExpectStoredDigest(graph.value());
}

TEST(CtGraphDigestTest, AssembleUncheckedStoresTheDigestOfAnyContent) {
  std::vector<CtGraph::Node> nodes = TlNodes();
  nodes[0].source_probability = std::numeric_limits<double>::quiet_NaN();
  nodes[0].out_edges[1].probability = -std::numeric_limits<double>::infinity();
  nodes[1].out_edges[0].probability = std::nan("7");
  nodes[1].out_edges.push_back({99, 0.5});  // dangles past the last id
  nodes[3].out_edges.push_back({-5, 2.0});  // dangles below id 0
  const CtGraph graph = CtGraph::AssembleUnchecked(nodes, 2);
  EXPECT_TRUE(std::isnan(graph.SourceProbability(0)));
  ExpectStoredDigest(graph);

  // An empty layer and no nodes at all.
  ExpectStoredDigest(CtGraph::AssembleUnchecked({}, 3));
}

TEST(CtGraphDigestTest, DecodeAndTextReadStoreTheDigest) {
  const ConstraintSet constraints = TlConstraints();
  Result<CtGraph> built = CtGraphBuilder(constraints).Build(TlSequence());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  for (const CtGraph& graph :
       {built.value(), CtGraph::Assemble(TlNodes(), 2).value()}) {
    Result<CtGraph> decoded =
        store::DecodeCtGraphBlob(store::EncodeCtGraphBlob(graph, 3));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().Digest(), graph.Digest());
    ExpectStoredDigest(decoded.value());

    std::stringstream text;
    WriteCtGraph(graph, text);
    Result<CtGraph> read = ReadCtGraph(text);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read.value().Digest(), graph.Digest());
    ExpectStoredDigest(read.value());
  }
}

TEST(CtGraphDigestTest, FillOfAnotherNodeCountThanDeclaredFails) {
  {
    CtGraph::Arrays arrays(/*length=*/1, /*nodes=*/2, /*sources=*/2,
                           /*departures=*/0, /*edges=*/0);
    arrays.AddNode(0, kL1, kDeltaBottom, 1.0);
    Result<CtGraph> graph = CtGraph::FromArrays(std::move(arrays));
    ASSERT_FALSE(graph.ok());
    EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(graph.status().message(),
              "the fill added 1 nodes to a graph declared with 2");
  }
  {
    CtGraph::Arrays arrays(/*length=*/1, /*nodes=*/1, /*sources=*/1,
                           /*departures=*/0, /*edges=*/0);
    arrays.AddNode(0, kL1, kDeltaBottom, 0.5);
    arrays.AddNode(0, kL2, kDeltaBottom, 0.5);
    Result<CtGraph> graph = CtGraph::FromArrays(std::move(arrays));
    ASSERT_FALSE(graph.ok());
    EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(graph.status().message(),
              "the fill added 2 nodes to a graph declared with 1");
  }
  CtGraph::Arrays arrays(/*length=*/1, /*nodes=*/2, /*sources=*/2,
                         /*departures=*/0, /*edges=*/0);
  arrays.AddNode(0, kL1, kDeltaBottom, 0.5);
  arrays.AddNode(0, kL2, kDeltaBottom, 0.5);
  Result<CtGraph> graph = CtGraph::FromArrays(std::move(arrays));
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ExpectStoredDigest(graph.value());
}

/// The digest in a graph's own blob header.
std::uint64_t BlobDigestOf(const CtGraph& graph) {
  const std::string blob = store::EncodeCtGraphBlob(graph, /*tag=*/1);
  Result<store::BlobInfo> info = store::InspectCtGraphBlob(
      reinterpret_cast<const unsigned char*>(blob.data()), blob.size());
  RFID_CHECK(info.ok());
  return info.value().header.graph_digest;
}

// One digest per graph: whichever way a graph is built, Digest() is the
// digest its blob carries, and so the digest the store hands back.
TEST(CtGraphDigestTest, DigestIsTheBlobHeadersOnEveryConstructionPath) {
  const ConstraintSet constraints = TlConstraints();
  Result<CtGraph> built = CtGraphBuilder(constraints).Build(TlSequence());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::vector<CtGraph::Node> reversed = TlNodes();
  // The same graph with the layers' id blocks swapped: {2, 3} then {0, 1}.
  std::rotate(reversed.begin(), reversed.begin() + 2, reversed.end());
  for (CtGraph::Node& node : reversed) {
    for (CtGraph::Edge& edge : node.out_edges) edge.to -= 2;
  }
  std::istringstream out_of_order_text(
      "ctgraph 3 5\n"
      "node 0 2 1 -1 0\n"
      "node 1 0 1 -1 0.40000000000000002\n"
      "node 2 1 2 0 0 4,1\n"
      "node 3 0 3 -1 0.59999999999999998\n"
      "node 4 1 4 -1 0 3,2 4,5\n"
      "edge 1 2 0.25\n"
      "edge 1 4 0.75\n"
      "edge 2 0 1\n"
      "edge 3 4 1\n"
      "edge 4 0 1\n");
  Result<CtGraph> decoded =
      store::DecodeCtGraphBlob(store::EncodeCtGraphBlob(built.value(), 3));
  Result<CtGraph> in_order = CtGraph::Assemble(TlNodes(), 2);
  Result<CtGraph> out_of_order = CtGraph::Assemble(reversed, 2);
  Result<CtGraph> read = ReadCtGraph(out_of_order_text);
  const std::pair<const char*, const Result<CtGraph>*> paths[] = {
      {"compaction", &built},         {"decoder", &decoded},
      {"in-order Assemble", &in_order},
      {"out-of-order Assemble", &out_of_order},
      {"ReadCtGraph", &read}};
  for (const auto& [name, graph] : paths) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(graph->ok()) << graph->status().ToString();
    EXPECT_EQ(graph->value().Digest(), BlobDigestOf(graph->value()));
    ExpectStoredDigest(graph->value());
  }
  EXPECT_EQ(out_of_order.value().Digest(), in_order.value().Digest());
  EXPECT_EQ(read.value().Digest(), 0xf86ecd207dc2b69fULL);
}

}  // namespace
}  // namespace rfidclean
