#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/graph_audit.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "constraints/constraint_set.h"
#include "core/builder.h"
#include "io/ctgraph_io.h"
#include "model/lsequence.h"
#include "query/marginals.h"
#include "query/most_likely.h"
#include "store/ct_store.h"
#include "store/ctgraph_view.h"
#include "store/graph_codec.h"
#include "test_util.h"

namespace rfidclean {
namespace {

using store::CtGraphView;
using store::CtStoreReader;
using store::CtStoreWriter;
using store::DecodeCtGraphBlob;
using store::EncodeCtGraphBlob;
using store::MapVerify;

/// Randomized round-trip property: for random cleaned graphs, every
/// serialization path — text, binary blob, zero-copy mmap view, container
/// — must reproduce the graph bit for bit: identical FNV digests,
/// identical text bytes, identical blob bytes (the v1 encoding is
/// canonical), and bit-identical query answers (marginals, most-likely
/// trajectory) between the owning graph and the mapped view. The analysis
/// self-audit hook is armed for the whole test, so every decode re-audits
/// the reconstructed graph.
///
/// 20 seeds x 10 instances = 200 random graphs per run.
class StoreRoundTripPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { EnableSelfAudit(); }
  void TearDown() override { DisableSelfAudit(); }

  struct Instance {
    LSequence sequence;
    ConstraintSet constraints{1};
  };

  static Instance MakeRandomInstance(Rng& rng) {
    Instance instance;
    const std::size_t num_locations =
        static_cast<std::size_t>(rng.UniformInt(3, 6));
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
        std::size_t j = i + rng.UniformIndex(locations.size() - i);
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
    instance.sequence = std::move(sequence).value();

    ConstraintSet constraints(num_locations);
    for (std::size_t a = 0; a < num_locations; ++a) {
      for (std::size_t b = 0; b < num_locations; ++b) {
        if (a == b) continue;
        if (rng.Bernoulli(0.2)) {
          constraints.AddUnreachable(static_cast<LocationId>(a),
                                     static_cast<LocationId>(b));
        } else if (rng.Bernoulli(0.15)) {
          constraints.AddTravelingTime(
              static_cast<LocationId>(a), static_cast<LocationId>(b),
              static_cast<Timestamp>(rng.UniformInt(2, 4)));
        }
      }
      if (rng.Bernoulli(0.25)) {
        constraints.AddLatency(static_cast<LocationId>(a),
                               static_cast<Timestamp>(rng.UniformInt(2, 3)));
      }
    }
    instance.constraints = std::move(constraints);
    return instance;
  }

  static std::string ToText(const CtGraph& graph) {
    std::ostringstream os;
    WriteCtGraph(graph, os);
    return os.str();
  }
};

TEST_P(StoreRoundTripPropertyTest, AllSerializationPathsAreBitFaithful) {
  Rng rng(static_cast<std::uint64_t>(GetParam()), /*stream=*/41);
  const std::string store_path =
      ::testing::TempDir() + "store_property_" +
      std::to_string(GetParam()) + ".cts";
  std::remove(store_path.c_str());

  std::vector<std::pair<std::int64_t, std::uint64_t>> stored_digests;
  int built = 0;
  for (int round = 0; round < 10; ++round) {
    Instance instance = MakeRandomInstance(rng);
    CtGraphBuilder builder(instance.constraints);
    Result<CtGraph> built_graph = builder.Build(instance.sequence);
    if (!built_graph.ok()) {
      // Over-constrained instance (no valid trajectory): nothing to store.
      ASSERT_EQ(built_graph.status().code(), StatusCode::kFailedPrecondition)
          << built_graph.status().ToString();
      continue;
    }
    ++built;
    const CtGraph& graph = built_graph.value();
    const std::uint64_t digest = graph.Digest();
    const std::string text = ToText(graph);

    // Text round trip: parse back, digest-identical, re-serializes to the
    // same bytes.
    std::istringstream is(text);
    Result<CtGraph> reread = ReadCtGraph(is);
    ASSERT_TRUE(reread.ok()) << reread.status().ToString();
    EXPECT_EQ(reread.value().Digest(), digest);
    EXPECT_EQ(ToText(reread.value()), text);

    // Binary round trip through the materializing decoder (the armed
    // self-audit hook re-audits the decoded graph inside).
    const store::GraphProvenance provenance{instance.sequence.Digest(),
                                            instance.constraints.Digest()};
    const std::string blob = EncodeCtGraphBlob(graph, round, provenance);
    Result<CtGraph> decoded = DecodeCtGraphBlob(blob);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().Digest(), digest);
    EXPECT_EQ(ToText(decoded.value()), text);

    // The v1 encoding is canonical: re-encoding the decoded graph must
    // reproduce the exact blob bytes.
    EXPECT_EQ(EncodeCtGraphBlob(decoded.value(), round, provenance), blob);

    // Zero-copy view under full verification: provenance fields, digest,
    // and bit-identical query answers against the owning graph.
    Result<CtGraphView> view = CtGraphView::Map(
        reinterpret_cast<const unsigned char*>(blob.data()), blob.size(),
        MapVerify::kFull);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(view.value().tag(), round);
    EXPECT_EQ(view.value().input_digest(), provenance.input_digest);
    EXPECT_EQ(view.value().constraint_digest(), provenance.constraint_digest);
    EXPECT_EQ(view.value().Digest(), digest);
    EXPECT_EQ(NodeMarginalsOf(view.value()), NodeMarginals(graph));
    const auto [view_path, view_prob] =
        MostLikelyTrajectoryOf(view.value());
    const auto [graph_path, graph_prob] = MostLikelyTrajectory(graph);
    EXPECT_EQ(view_path, graph_path);
    EXPECT_EQ(view_prob, graph_prob);

    // binary -> mmap view -> owning copy -> text: still byte-identical.
    Result<CtGraph> materialized = view.value().Materialize();
    ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
    EXPECT_EQ(ToText(materialized.value()), text);

    // Accumulate into the container; verified below through the reader.
    Result<CtStoreWriter> writer = CtStoreWriter::OpenOrCreate(store_path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer.value().Put(round, blob).ok());
    ASSERT_TRUE(writer.value().Finish().ok());
    stored_digests.emplace_back(round, digest);
  }
  ASSERT_GT(built, 0) << "every random instance was over-constrained";

  // Container round trip: every stored tag loads as a fully verified view
  // with the recorded digest, and the whole store passes the deep check.
  Result<CtStoreReader> reader = CtStoreReader::Open(store_path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader.value().entries().size(), stored_digests.size());
  for (const auto& [tag, digest] : stored_digests) {
    Result<CtGraphView> view =
        reader.value().LoadView(tag, MapVerify::kFull);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(view.value().Digest(), digest);
  }
  EXPECT_TRUE(reader.value().VerifyAll().ok());
  std::remove(store_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreRoundTripPropertyTest,
                         ::testing::Range(0, 20));

/// A TL list longer than DepartureList's four inline slots continues on
/// the heap, where range-for iteration aborts; the shared digest helper and
/// the encoder must index it. Hand-assembled because the cleaner only
/// spills on large multi-floor deployments.
TEST(StoreSpilledTlTest, SixEntryTlListRoundTripsWithEqualDigests) {
  std::vector<CtGraph::Node> nodes(3);
  nodes[0].time = 0;
  nodes[0].key.location = 1;
  for (LocationId l = 2; l < 8; ++l) {
    nodes[0].key.departures.push_back(Departure{l + 10, l});
  }
  nodes[0].source_probability = 1.0;
  nodes[0].out_edges = {{1, 0.25}, {2, 0.75}};
  nodes[1].time = 1;
  nodes[1].key.location = 3;
  nodes[1].key.departures = nodes[0].key.departures;
  nodes[1].key.departures.push_back(Departure{30, 9});
  nodes[2].time = 1;
  nodes[2].key.location = 4;
  Result<CtGraph> graph = CtGraph::Assemble(std::move(nodes), 2);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ASSERT_EQ(graph.value().DeparturesOf(0).size(), 6u);
  const std::uint64_t digest = graph.value().Digest();

  const std::string blob = EncodeCtGraphBlob(graph.value(), /*tag=*/5);
  Result<CtGraph> decoded = DecodeCtGraphBlob(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().Digest(), digest);
  EXPECT_TRUE(std::ranges::equal(decoded.value().DeparturesOf(1),
                                  graph.value().DeparturesOf(1)));
  EXPECT_EQ(EncodeCtGraphBlob(decoded.value(), /*tag=*/5), blob);

  Result<CtGraphView> view = CtGraphView::Map(
      reinterpret_cast<const unsigned char*>(blob.data()), blob.size(),
      MapVerify::kFull);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view.value().Digest(), digest);
  Result<CtGraph> materialized = view.value().Materialize();
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  EXPECT_EQ(materialized.value().DeparturesOf(0).size(), 6u);
}

std::string TextOf(const CtGraph& graph) {
  std::ostringstream os;
  WriteCtGraph(graph, os);
  return os.str();
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Blob bytes as one FNV-1a value, for pinning a blob without its bytes.
std::uint64_t BlobFnv(const std::string& blob) {
  Fnv64 fnv;
  fnv.Mix(blob.data(), blob.size());
  return fnv.Digest();
}

/// The input records of `graph`, in id order, read back through the
/// accessors.
std::vector<CtGraph::Node> RecordsOf(const CtGraph& graph) {
  std::vector<CtGraph::Node> nodes(graph.NumNodes());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    nodes[i].time = graph.TimeOf(id);
    nodes[i].key.location = graph.LocationOf(id);
    nodes[i].key.delta = graph.DeltaOf(id);
    for (const Departure& departure : graph.DeparturesOf(id)) {
      nodes[i].key.departures.push_back(departure);
    }
    nodes[i].source_probability = graph.SourceProbability(id);
    for (const CtGraph::Edge& edge : graph.OutEdges(id)) {
      nodes[i].out_edges.push_back(edge);
    }
  }
  return nodes;
}

/// Every accessor of `actual` must answer as `expected`'s does, bit for
/// bit.
void ExpectSameAccessors(const CtGraph& expected, const CtGraph& actual) {
  ASSERT_EQ(actual.length(), expected.length());
  ASSERT_EQ(actual.NumNodes(), expected.NumNodes());
  ASSERT_EQ(actual.NumEdges(), expected.NumEdges());
  for (Timestamp t = 0; t < expected.length(); ++t) {
    EXPECT_TRUE(std::ranges::equal(actual.NodesAt(t), expected.NodesAt(t)))
        << "t=" << t;
  }
  for (std::size_t i = 0; i < expected.NumNodes(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    EXPECT_EQ(actual.TimeOf(id), expected.TimeOf(id)) << "node " << id;
    EXPECT_EQ(actual.LocationOf(id), expected.LocationOf(id));
    EXPECT_EQ(actual.DeltaOf(id), expected.DeltaOf(id));
    EXPECT_TRUE(std::ranges::equal(actual.DeparturesOf(id),
                                   expected.DeparturesOf(id)))
        << "node " << id;
    EXPECT_TRUE(SameBits(actual.SourceProbability(id),
                         expected.SourceProbability(id)));
    const auto a = actual.OutEdges(id);
    const auto b = expected.OutEdges(id);
    ASSERT_EQ(a.size(), b.size()) << "node " << id;
    for (std::size_t e = 0; e < a.size(); ++e) {
      EXPECT_EQ(a[e].to, b[e].to);
      EXPECT_TRUE(SameBits(a[e].probability, b[e].probability));
    }
  }
}

/// Locations 1..7 are each the source of a long traveling-time constraint,
/// so a walker that moves 1 -> 2 -> ... -> 7 collects one TL entry per
/// tick: six at t = 6, past DepartureList's four inline slots. Location 0
/// is the alternative at every tick, and 8 (the constrained destination)
/// is reachable at t = 7 only from a history that never left 0.
TEST(CtGraphFlatLayoutTest, FiveConstructionPathsAgree) {
  ConstraintSet constraints(9);
  for (LocationId l = 1; l <= 7; ++l) constraints.AddTravelingTime(l, 8, 20);
  std::vector<std::vector<Candidate>> ticks;
  for (LocationId l = 1; l <= 7; ++l) {
    ticks.push_back({Candidate{l, 0.7}, Candidate{0, 0.3}});
  }
  ticks.push_back({Candidate{8, 0.5}, Candidate{0, 0.5}});
  Result<LSequence> sequence = LSequence::Create(std::move(ticks));
  ASSERT_TRUE(sequence.ok());
  Result<CtGraph> built = CtGraphBuilder(constraints).Build(sequence.value());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const CtGraph& graph = built.value();
  std::size_t six_entry_nodes = 0;
  for (std::size_t i = 0; i < graph.NumNodes(); ++i) {
    six_entry_nodes += graph.DeparturesOf(static_cast<NodeId>(i)).size() == 6;
  }
  EXPECT_GT(six_entry_nodes, 0u);

  // Digest and blob of this graph as the node-struct layout wrote them.
  EXPECT_EQ(graph.Digest(), 0xf3af41a1f6fce6d3ULL);
  const std::string blob = EncodeCtGraphBlob(graph, /*tag=*/7);
  EXPECT_EQ(blob.size(), 8648u);
  EXPECT_EQ(BlobFnv(blob), 0x919709168bdd88e0ULL);
  const std::string text = TextOf(graph);

  // The same nodes with the layers' id blocks in reverse order: not layer
  // ordered, so the encoder canonicalizes them back to `graph`'s ids.
  std::vector<NodeId> shuffled_id(graph.NumNodes(), kInvalidNode);
  NodeId next = 0;
  for (Timestamp t = graph.length() - 1; t >= 0; --t) {
    for (NodeId id : graph.NodesAt(t)) {
      shuffled_id[static_cast<std::size_t>(id)] = next++;
    }
  }
  const std::vector<CtGraph::Node> records = RecordsOf(graph);
  std::vector<CtGraph::Node> shuffled_records(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    CtGraph::Node node = records[i];
    for (CtGraph::Edge& edge : node.out_edges) {
      edge.to = shuffled_id[static_cast<std::size_t>(edge.to)];
    }
    shuffled_records[static_cast<std::size_t>(shuffled_id[i])] =
        std::move(node);
  }
  Result<CtGraph> shuffled =
      CtGraph::Assemble(std::move(shuffled_records), graph.length());
  ASSERT_TRUE(shuffled.ok()) << shuffled.status().ToString();
  EXPECT_NE(shuffled.value().Digest(), graph.Digest());
  const std::string canonical_blob =
      EncodeCtGraphBlob(shuffled.value(), /*tag=*/7);
  EXPECT_EQ(canonical_blob, blob);

  std::istringstream text_in(text);
  Result<CtGraph> paths[] = {
      CtGraph::Assemble(records, graph.length()),
      DecodeCtGraphBlob(blob),
      ReadCtGraph(text_in),
      DecodeCtGraphBlob(canonical_blob),
  };
  const char* names[] = {"Assemble", "DecodeCtGraphBlob", "ReadCtGraph",
                         "Canonicalize"};
  for (std::size_t k = 0; k < std::size(paths); ++k) {
    SCOPED_TRACE(names[k]);
    ASSERT_TRUE(paths[k].ok()) << paths[k].status().ToString();
    const CtGraph& other = paths[k].value();
    ExpectSameAccessors(graph, other);
    EXPECT_EQ(other.Digest(), graph.Digest());
    EXPECT_EQ(TextOf(other), text);
    EXPECT_EQ(EncodeCtGraphBlob(other, /*tag=*/7), blob);
    EXPECT_EQ(other.ApproximateBytes(), graph.ApproximateBytes());
  }
}

/// A text graph whose ids are not in layer order keeps its ids, its layer
/// lists (ascending id within each layer) and its digest; its blob is the
/// canonicalized graph's, pinned as the node-struct layout wrote it.
TEST(CtGraphFlatLayoutTest, TextGraphOutOfLayerOrderKeepsIdsAndDigest) {
  const std::string text =
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
      "edge 4 0 1\n";
  std::istringstream in(text);
  Result<CtGraph> graph = ReadCtGraph(in);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_TRUE(std::ranges::equal(graph.value().NodesAt(0),
                                 std::vector<NodeId>{1, 3}));
  EXPECT_TRUE(std::ranges::equal(graph.value().NodesAt(1),
                                 std::vector<NodeId>{2, 4}));
  EXPECT_TRUE(std::ranges::equal(graph.value().NodesAt(2),
                                 std::vector<NodeId>{0}));
  EXPECT_EQ(graph.value().TimeOf(0), 2);
  EXPECT_EQ(graph.value().DeltaOf(2), 0);
  EXPECT_EQ(graph.value().DeparturesOf(4).size(), 2u);
  EXPECT_EQ(TextOf(graph.value()), text);
  EXPECT_EQ(graph.value().Digest(), 0x0282b329a38a7883ULL);
  const std::string blob = EncodeCtGraphBlob(graph.value(), /*tag=*/7);
  EXPECT_EQ(blob.size(), 416u);
  EXPECT_EQ(BlobFnv(blob), 0x3cc5bccee5b668c4ULL);
}

}  // namespace
}  // namespace rfidclean
