#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/graph_audit.h"
#include "common/crc32.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "common/simd.h"
#include "constraints/constraint_set.h"
#include "core/builder.h"
#include "gen/dataset.h"
#include "io/ctgraph_io.h"
#include "model/lsequence.h"
#include "query/marginals.h"
#include "query/most_likely.h"
#include "query/stay_query.h"
#include "store/blob_layout.h"
#include "store/ct_store.h"
#include "store/ctgraph_view.h"
#include "store/graph_codec.h"
#include "test_util.h"

namespace rfidclean {
namespace {

using store::BlobContents;
using store::CtGraphView;
using store::CtStoreReader;
using store::CtStoreWriter;
using store::DecodeCtGraphBlob;
using store::EncodeCtGraphBlob;
using store::MapVerify;
using store::ParsedBlob;
using store::SectionChecks;
using store::SectionId;

/// ParseBlobContents on `blob` with the vector kernels active (when the
/// build and the CPU have them) or forced scalar.
Result<BlobContents> ParseOnPath(const std::string& blob,
                                 SectionChecks checks, bool force_scalar) {
  simd::ForceScalarForTesting(force_scalar);
  Result<BlobContents> contents = store::ParseBlobContents(
      reinterpret_cast<const unsigned char*>(blob.data()), blob.size(),
      checks);
  simd::ForceScalarForTesting(false);
  return contents;
}

/// The decoder differential: the vector and the forced-scalar parse of
/// `blob` agree on the verdict, word for word, and on every decoded array.
void ExpectSameParseOnBothPaths(const std::string& blob) {
  for (const SectionChecks checks :
       {SectionChecks::kGeometry, SectionChecks::kAll}) {
    const Result<BlobContents> vector = ParseOnPath(blob, checks, false);
    const Result<BlobContents> scalar = ParseOnPath(blob, checks, true);
    ASSERT_EQ(vector.ok(), scalar.ok())
        << (vector.ok() ? scalar : vector).status().ToString();
    if (!vector.ok()) {
      EXPECT_EQ(vector.status().ToString(), scalar.status().ToString());
      continue;
    }
    EXPECT_TRUE(std::ranges::equal(vector.value().locations,
                                   scalar.value().locations));
    EXPECT_TRUE(std::ranges::equal(vector.value().edge_targets,
                                   scalar.value().edge_targets));
    EXPECT_EQ(vector.value().num_departures, scalar.value().num_departures);
  }
}

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
    ExpectSameParseOnBothPaths(blob);

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
CtGraph LongTlGraph() {
  ConstraintSet constraints(9);
  for (LocationId l = 1; l <= 7; ++l) constraints.AddTravelingTime(l, 8, 20);
  std::vector<std::vector<Candidate>> ticks;
  for (LocationId l = 1; l <= 7; ++l) {
    ticks.push_back({Candidate{l, 0.7}, Candidate{0, 0.3}});
  }
  ticks.push_back({Candidate{8, 0.5}, Candidate{0, 0.5}});
  Result<LSequence> sequence = LSequence::Create(std::move(ticks));
  RFID_CHECK(sequence.ok());
  Result<CtGraph> built = CtGraphBuilder(constraints).Build(sequence.value());
  RFID_CHECK(built.ok());
  return std::move(built).value();
}

TEST(CtGraphFlatLayoutTest, FiveConstructionPathsAgree) {
  const CtGraph graph = LongTlGraph();
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

// --- Vector vs scalar decode ------------------------------------------------

/// Recomputes every section CRC and then the header CRC, so an edited
/// payload reaches the section decoders instead of failing a checksum.
void Reseal(std::string* blob) {
  unsigned char* data = reinterpret_cast<unsigned char*>(blob->data());
  for (std::uint32_t i = 0; i < store::kNumSections; ++i) {
    unsigned char* entry =
        data + store::kBlobHeaderBytes + i * store::kSectionEntryBytes;
    store::StoreU32(entry + 4,
                    Crc32(data + store::LoadU64(entry + 8),
                          static_cast<std::size_t>(
                              store::LoadU64(entry + 16))));
  }
  store::StoreU32(data + store::kBlobHeaderBytes - 4,
                  Crc32(data + store::kBlobHeaderBytes, store::kBlobTableBytes,
                        Crc32(data, store::kBlobHeaderBytes - 4)));
}

ParsedBlob ParsedOf(const std::string& blob) {
  Result<ParsedBlob> parsed = store::ParseAndVerifyBlob(
      reinterpret_cast<const unsigned char*>(blob.data()), blob.size());
  RFID_CHECK(parsed.ok());
  return parsed.value();
}

/// The blob tests/store_corruption_test.cc corrupts: the paper's running
/// example.
std::string PaperExampleBlob() {
  const ConstraintSet constraints =
      ::rfidclean::testing::PaperExampleConstraints();
  Result<CtGraph> graph = CtGraphBuilder(constraints).Build(
      ::rfidclean::testing::PaperExampleSequence());
  RFID_CHECK(graph.ok());
  return EncodeCtGraphBlob(
      graph.value(), /*tag=*/7,
      store::GraphProvenance{0x1111222233334444ull, 0x5555666677778888ull});
}

/// Runs the decoder differential over every corruption
/// store_corruption_test makes of `pristine` — each prelude byte flipped,
/// each truncation (every `stride`-th for long blobs), trailing bytes, one
/// flip per section payload — and over edits of the geometry sections
/// (LAYERS, KEYS, EDGEROWS, EDGETGT) that are resealed, so the decoders see
/// them: every `stride`-th byte xor-ed or overwritten six ways, and every
/// `stride`-th CSR row boundary moved by one edge either way.
void ExpectSameVerdictsUnderCorruption(const std::string& pristine,
                                       std::size_t stride) {
  const ParsedBlob parsed = ParsedOf(pristine);
  for (std::size_t at = 0; at < store::kBlobPreludeBytes; ++at) {
    std::string corrupted = pristine;
    corrupted[at] = static_cast<char>(corrupted[at] ^ 0x5A);
    ASSERT_NO_FATAL_FAILURE(ExpectSameParseOnBothPaths(corrupted))
        << "prelude flip at " << at;
  }
  for (std::size_t size = 0; size < pristine.size(); size += stride) {
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameParseOnBothPaths(pristine.substr(0, size)))
        << "prefix of " << size;
  }
  ASSERT_NO_FATAL_FAILURE(
      ExpectSameParseOnBothPaths(pristine + std::string(8, '\0')));
  const auto edit = [](char byte, int how) {
    const unsigned char b = static_cast<unsigned char>(byte);
    switch (how) {
      case 0: return static_cast<char>(b ^ 0x01);
      case 1: return static_cast<char>(b ^ 0x80);
      case 2: return static_cast<char>(b ^ 0xFF);
      case 3: return static_cast<char>(0x00);
      case 4: return static_cast<char>(0x7F);
      default: return static_cast<char>(0x80);
    }
  };
  for (std::uint32_t s = 1; s <= store::kNumSections; ++s) {
    const SectionId id = static_cast<SectionId>(s);
    const std::size_t offset =
        static_cast<std::size_t>(parsed.Section(id).offset);
    const std::size_t size = static_cast<std::size_t>(parsed.SectionSize(id));
    std::string flipped = pristine;
    flipped[offset + size / 2] =
        static_cast<char>(flipped[offset + size / 2] ^ 0x5A);
    ASSERT_NO_FATAL_FAILURE(ExpectSameParseOnBothPaths(flipped))
        << "section " << s;
    if (id == SectionId::kSourceProb || id == SectionId::kEdgeProb) continue;
    for (std::size_t at = 0; at < size; at += stride) {
      for (int how = 0; how < 6; ++how) {
        std::string edited = pristine;
        edited[offset + at] = edit(edited[offset + at], how);
        if (edited == pristine) continue;
        Reseal(&edited);
        ASSERT_NO_FATAL_FAILURE(ExpectSameParseOnBothPaths(edited))
            << "section " << s << " byte " << at << " edit " << how;
      }
    }
  }
  const std::size_t rows =
      static_cast<std::size_t>(parsed.Section(SectionId::kEdgeRows).offset);
  for (std::uint64_t node = 1; node < parsed.header.num_nodes;
       node += stride) {
    for (const std::uint32_t step : {1u, 0xFFFFFFFFu}) {
      std::string edited = pristine;
      unsigned char* row =
          reinterpret_cast<unsigned char*>(edited.data()) + rows + 4 * node;
      store::StoreU32(row, store::LoadU32(row) + step);
      Reseal(&edited);
      ASSERT_NO_FATAL_FAILURE(ExpectSameParseOnBothPaths(edited))
          << "row boundary " << node << " step " << step;
    }
  }
}

TEST(BlobDecodeDifferentialTest, CorruptionMatrixGivesTheSameStatusText) {
  ExpectSameVerdictsUnderCorruption(PaperExampleBlob(), 1);
}

TEST(BlobDecodeDifferentialTest, ResealedEditsOfALargerBlobAgree) {
  // The paper example's sections are shorter than one 16-byte block of
  // the varint kernel; this graph's TL-heavy keys fill many.
  ExpectSameVerdictsUnderCorruption(EncodeCtGraphBlob(LongTlGraph(), 7), 1);
}

/// A graph whose KEYS section needs varints of every length from 1 to 5
/// bytes and whose EDGETGT section needs 1 to 3: location ids and deltas
/// past 2^13, 2^20, 2^27 and up to INT32_MAX, TL times and locations as
/// large, TL lists of 1 to 6 entries, and a layer of 8 200 nodes (wider
/// than 2^13) whose in-edges jump across it.
CtGraph WideVarintGraph() {
  constexpr int kWidth = 8200;
  constexpr LocationId kMaxLocation = std::numeric_limits<LocationId>::max();
  const NodeId first = 2;                   // layer 1 is ids [2, 2 + kWidth)
  const NodeId target = first + kWidth;     // the one node of layer 2
  std::vector<CtGraph::Node> nodes(static_cast<std::size_t>(target) + 1);
  nodes[0].time = 0;
  nodes[0].key.location = 1;
  nodes[0].source_probability = 0.5;
  nodes[0].out_edges = {{first, 0.5}, {target - 1, 0.5}};
  nodes[1].time = 0;
  nodes[1].key.location = 2;
  nodes[1].source_probability = 0.5;
  // Node 1 reaches the rest of layer 1 in strides of 200: 2-byte deltas,
  // and a 3-byte jump back at each wrap.
  for (int phase = 0; phase < 200; ++phase) {
    for (int k = 1 + phase; k < kWidth - 1; k += 200) {
      nodes[1].out_edges.push_back({first + k, 1.0 / (kWidth - 2)});
    }
  }
  for (int k = 0; k < kWidth; ++k) {
    CtGraph::Node& node = nodes[static_cast<std::size_t>(first + k)];
    node.time = 1;
    node.key.location = k;
    node.out_edges = {{target, 1.0}};
  }
  const auto key = [&](int k) -> NodeKey& {
    return nodes[static_cast<std::size_t>(first + k)].key;
  };
  key(100).location = (1 << 13) + 100;
  key(200).location = (1 << 20) + 200;
  key(300).location = (1 << 27) + 300;
  key(400).location = kMaxLocation - 1;
  key(10).delta = 100;
  key(20).delta = 1 << 13;
  key(30).delta = 1 << 20;
  key(40).delta = 1 << 28;
  key(50).delta = kMaxLocation;
  key(60).departures.push_back(Departure{9000, 5});
  for (const Departure& d :
       {Departure{1 << 20, 5}, Departure{1 << 28, 1 << 29}}) {
    key(61).departures.push_back(d);
  }
  for (const Departure& d : {Departure{1, 7}, Departure{2, 1 << 30},
                             Departure{3, kMaxLocation}}) {
    key(62).departures.push_back(d);
  }
  for (LocationId l = 0; l < 4; ++l) {
    key(63).departures.push_back(Departure{l + 1, 3 * l});
  }
  for (LocationId l = 0; l < 6; ++l) {
    key(64).departures.push_back(Departure{kMaxLocation - l, l * (1 << 24)});
  }
  for (const Departure& d : {Departure{3, 1}, Departure{4, 2}}) {
    key(70).departures.push_back(d);
  }
  for (const Departure& d :
       {Departure{5, 0}, Departure{6, 3}, Departure{7, 9}}) {
    key(71).departures.push_back(d);
  }
  nodes[static_cast<std::size_t>(target)].time = 2;
  nodes[static_cast<std::size_t>(target)].key.location = 3;
  Result<CtGraph> graph = CtGraph::Assemble(nodes, 3);
  RFID_CHECK(graph.ok());
  return std::move(graph).value();
}

/// Which varint lengths (bit k for k bytes) a whole section holds.
unsigned VarintLengthsIn(const ParsedBlob& blob, SectionId id) {
  const unsigned char* cursor = blob.SectionData(id);
  const unsigned char* end = cursor + blob.SectionSize(id);
  unsigned lengths = 0;
  while (cursor != end) {
    const unsigned char* start = cursor;
    std::uint64_t value = 0;
    RFID_CHECK(GetVarint(&cursor, end, &value));
    lengths |= 1u << (cursor - start);
  }
  return lengths;
}

TEST(BlobDecodeDifferentialTest, EveryVarintLengthDecodesAlikeOnBothPaths) {
  const CtGraph graph = WideVarintGraph();
  const std::string blob = EncodeCtGraphBlob(graph, /*tag=*/11);
  const ParsedBlob parsed = ParsedOf(blob);
  EXPECT_EQ(VarintLengthsIn(parsed, SectionId::kKeys), 0b111110u);
  EXPECT_EQ(VarintLengthsIn(parsed, SectionId::kEdgeTargets), 0b1110u);

  ExpectSameParseOnBothPaths(blob);
  for (const bool force_scalar : {false, true}) {
    simd::ForceScalarForTesting(force_scalar);
    Result<CtGraphView> view = CtGraphView::Map(
        reinterpret_cast<const unsigned char*>(blob.data()), blob.size(),
        MapVerify::kFull);
    simd::ForceScalarForTesting(false);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(view.value().Digest(), graph.Digest());
    for (std::size_t i = 0; i < graph.NumNodes(); ++i) {
      const NodeId id = static_cast<NodeId>(i);
      ASSERT_EQ(view.value().LocationOf(id), graph.LocationOf(id));
      std::vector<NodeId> targets;
      for (const auto edge : view.value().OutEdges(id)) {
        targets.push_back(edge.to);
      }
      ASSERT_TRUE(std::ranges::equal(
          targets, graph.OutEdges(id),
          [](NodeId to, const CtGraph::Edge& edge) { return to == edge.to; }))
          << "node " << id;
    }
  }
  Result<CtGraph> decoded = DecodeCtGraphBlob(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(EncodeCtGraphBlob(decoded.value(), /*tag=*/11), blob);
  ExpectSameVerdictsUnderCorruption(blob, 509);
}

/// The offset and value of every varint of one section of `blob`.
std::vector<std::pair<std::size_t, std::uint64_t>> SectionVarints(
    const ParsedBlob& blob, SectionId id) {
  const unsigned char* begin = blob.SectionData(id);
  const unsigned char* end = begin + blob.SectionSize(id);
  std::vector<std::pair<std::size_t, std::uint64_t>> varints;
  for (const unsigned char* cursor = begin; cursor != end;) {
    const std::size_t at = static_cast<std::size_t>(cursor - begin);
    std::uint64_t value = 0;
    RFID_CHECK(GetVarint(&cursor, end, &value));
    varints.emplace_back(at, value);
  }
  return varints;
}

TEST(BlobDecodeDifferentialTest, RangeBreaksOnlyTheBoundsCatchAgree) {
  // Two 5-byte varints of the wide graph's keys are rewritten in place with
  // values that are even and below 2^32, so only the INT32_MAX bounds can
  // reject them: a node location delta past INT32_MAX, and a third TL
  // location delta whose running sum passes it.
  const CtGraph graph = WideVarintGraph();
  const std::string pristine = EncodeCtGraphBlob(graph, /*tag=*/11);
  const ParsedBlob parsed = ParsedOf(pristine);
  const auto varints = SectionVarints(parsed, SectionId::kKeys);
  // Index of the first varint of each node's key.
  std::vector<std::size_t> key_begin;
  for (std::size_t v = 0; v < varints.size();
       v += 3 + 2 * varints[v + 2].second) {
    key_begin.push_back(v);
  }
  ASSERT_EQ(key_begin.size(), graph.NumNodes());
  const auto rewrite = [&](std::size_t varint, std::uint64_t value) {
    std::string edited = pristine;
    unsigned char* at = reinterpret_cast<unsigned char*>(edited.data()) +
                        parsed.Section(SectionId::kKeys).offset +
                        varints[varint].first;
    RFID_CHECK_EQ(varints[varint + 1].first - varints[varint].first, 5u);
    RFID_CHECK_EQ(WriteVarint(at, value) - at, 5);
    Reseal(&edited);
    return edited;
  };
  const struct {
    std::size_t varint;
    std::uint64_t value;
    const char* message;
  } cases[] = {
      // Node 402 (layer 1, k = 400) follows location 399.
      {key_begin[402], 0xFFFFFFFEu,
       "node 402: location 2147484046 out of range"},
      // Node 64 (k = 62) has TL locations 7, 2^30, INT32_MAX.
      {key_begin[64] + 3 + 5, (std::uint64_t{3} << 30),
       "node 64: TL location 2684354560 breaks sorted order"},
  };
  for (const auto& c : cases) {
    const std::string edited = rewrite(c.varint, c.value);
    ExpectSameParseOnBothPaths(edited);
    const Result<BlobContents> contents =
        ParseOnPath(edited, SectionChecks::kGeometry, false);
    ASSERT_FALSE(contents.ok());
    EXPECT_NE(contents.status().message().find(c.message), std::string::npos)
        << contents.status().ToString();
  }
}

// --- One-read encoder ------------------------------------------------------

/// A graph only AssembleUnchecked takes: its edges dangle to both ends of
/// the NodeId range, so its EDGETGT deltas need 5-byte varints, which no
/// valid graph has the nodes for. Its locations, deltas and TL entries
/// sit at the ends of the 32-bit range too, so KEYS holds the largest
/// values a varint section can: zigzag maps of differences of 2^32 - 1.
CtGraph FiveByteVarintGraph() {
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  std::vector<CtGraph::Node> nodes(3);
  nodes[0].time = 0;
  nodes[0].key.location = kMax;
  nodes[0].key.delta = kMin;
  nodes[0].key.departures.push_back(Departure{kMax, kMin});
  nodes[0].key.departures.push_back(Departure{kMin, kMax});
  nodes[0].source_probability = 1.0;
  nodes[0].out_edges = {{kMax, 0.25}, {kMin, 0.25}, {2, 0.5}};
  nodes[1].time = 0;
  nodes[1].key.location = kMin;
  nodes[1].key.delta = kMax;
  nodes[1].out_edges = {{kMin, 1.0}};
  nodes[2].time = 1;
  return CtGraph::AssembleUnchecked(nodes, 2);
}

TEST(OneReadEncoderTest, FiveByteVarintsMatchTheTwoPassEncoder) {
  const CtGraph graph = FiveByteVarintGraph();
  const std::string blob = EncodeCtGraphBlob(graph, /*tag=*/13);
  // As the two-pass encoder (sizing pass, then write pass) wrote it.
  EXPECT_EQ(blob.size(), 448u);
  EXPECT_EQ(BlobFnv(blob), 0x19ed0bb44430a0f4ULL);
  const ParsedBlob parsed = ParsedOf(blob);
  EXPECT_EQ(parsed.header.graph_digest, graph.Digest());
  EXPECT_EQ(VarintLengthsIn(parsed, SectionId::kKeys), 0b100010u);
  EXPECT_EQ(VarintLengthsIn(parsed, SectionId::kEdgeTargets), 0b100000u);

  // Both varint sections decode back to the graph's values.
  const auto values_of = [&parsed](SectionId id) {
    std::vector<std::uint64_t> values;
    for (const auto& [at, value] : SectionVarints(parsed, id)) {
      values.push_back(value);
    }
    return values;
  };
  std::vector<std::uint64_t> keys;
  std::int64_t prev_location = 0;
  for (std::size_t i = 0; i < graph.NumNodes(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    keys.push_back(ZigzagEncode(graph.LocationOf(id) - prev_location));
    prev_location = graph.LocationOf(id);
    keys.push_back(ZigzagEncode(graph.DeltaOf(id)));
    keys.push_back(graph.DeparturesOf(id).size());
    std::int64_t prev_tl_location = 0;
    for (const Departure& departure : graph.DeparturesOf(id)) {
      keys.push_back(ZigzagEncode(departure.time));
      keys.push_back(ZigzagEncode(departure.location - prev_tl_location));
      prev_tl_location = departure.location;
    }
  }
  EXPECT_EQ(values_of(SectionId::kKeys), keys);
  std::vector<NodeId> targets;
  std::int64_t target = 0;
  for (const std::uint64_t delta : values_of(SectionId::kEdgeTargets)) {
    target += ZigzagDecode(delta);
    targets.push_back(static_cast<NodeId>(target));
  }
  std::vector<NodeId> expected_targets;
  for (std::size_t i = 0; i < graph.NumNodes(); ++i) {
    for (const CtGraph::Edge& edge : graph.OutEdges(static_cast<NodeId>(i))) {
      expected_targets.push_back(edge.to);
    }
  }
  EXPECT_EQ(targets, expected_targets);
  // The dangling edges keep the blob from decoding into a graph.
  const Result<CtGraph> decoded = DecodeCtGraphBlob(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  // The wide graph is valid: its 5-byte KEYS varints round-trip through
  // the decoder.
  const CtGraph wide = WideVarintGraph();
  const std::string wide_blob = EncodeCtGraphBlob(wide, /*tag=*/11);
  EXPECT_EQ(wide_blob.size(), 213696u);
  EXPECT_EQ(BlobFnv(wide_blob), 0xea19985e27d86a36ULL);
  const Result<CtGraph> wide_decoded = DecodeCtGraphBlob(wide_blob);
  ASSERT_TRUE(wide_decoded.ok()) << wide_decoded.status().ToString();
  ExpectSameAccessors(wide, wide_decoded.value());
  EXPECT_EQ(wide_decoded.value().Digest(), wide.Digest());
  EXPECT_EQ(EncodeCtGraphBlob(wide_decoded.value(), /*tag=*/11), wide_blob);
}

TEST(OneReadEncoderTest, LateOutOfLayerOrderIdFallsBackToTheCanonicalBlob) {
  DatasetOptions options = DatasetOptions::Syn1();
  options.durations_ticks = {60};
  options.trajectories_per_duration = 1;
  std::unique_ptr<Dataset> dataset = Dataset::Build(options);
  const ConstraintSet constraints =
      dataset->MakeConstraints(ConstraintFamilies::DuLtTt());
  Result<CtGraph> built =
      CtGraphBuilder(constraints).Build(dataset->items()[0].lsequence);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const CtGraph& graph = built.value();
  const Timestamp last = graph.length() - 1;

  // Layer order, except that the last layer's ids come before those of
  // the layer before it: the first id out of layer order follows every
  // node but the last two layers', once most of the scratch is written.
  std::vector<NodeId> new_id(graph.NumNodes(), kInvalidNode);
  NodeId next = 0;
  for (Timestamp t = 0; t < last - 1; ++t) {
    for (NodeId id : graph.NodesAt(t)) {
      new_id[static_cast<std::size_t>(id)] = next++;
    }
  }
  for (const Timestamp t : {last, last - 1}) {
    for (NodeId id : graph.NodesAt(t)) {
      new_id[static_cast<std::size_t>(id)] = next++;
    }
  }
  const std::size_t first_out_of_order =
      graph.NumNodes() - graph.NodesAt(last - 1).size();
  EXPECT_GT(first_out_of_order, 9 * graph.NumNodes() / 10);
  const std::vector<CtGraph::Node> records = RecordsOf(graph);
  std::vector<CtGraph::Node> reordered(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    CtGraph::Node node = records[i];
    for (CtGraph::Edge& edge : node.out_edges) {
      edge.to = new_id[static_cast<std::size_t>(edge.to)];
    }
    reordered[static_cast<std::size_t>(new_id[i])] = std::move(node);
  }
  Result<CtGraph> assembled = CtGraph::Assemble(reordered, graph.length());
  ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
  std::istringstream text(TextOf(assembled.value()));
  Result<CtGraph> read = ReadCtGraph(text);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.value().TimeOf(static_cast<NodeId>(first_out_of_order)),
            last - 1);
  ASSERT_EQ(read.value().TimeOf(static_cast<NodeId>(first_out_of_order - 1)),
            last);
  EXPECT_NE(read.value().Digest(), graph.Digest());

  const std::string blob = EncodeCtGraphBlob(read.value(), /*tag=*/7);
  EXPECT_EQ(blob, EncodeCtGraphBlob(graph, /*tag=*/7));
  EXPECT_EQ(ParsedOf(blob).header.graph_digest, graph.Digest());
}

TEST(OneReadEncoderTest, SingleTickGraphHasNoEdgeSections) {
  ConstraintSet constraints(6);
  Result<CtGraph> graph = CtGraphBuilder(constraints).Build(
      ::rfidclean::testing::MakeLSequence({{{1, 0.25}, {2, 0.75}}}));
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ASSERT_EQ(graph.value().length(), 1);
  ASSERT_EQ(graph.value().NumEdges(), 0u);
  const std::string blob = EncodeCtGraphBlob(graph.value(), /*tag=*/5);
  // As the two-pass encoder wrote it.
  EXPECT_EQ(blob.size(), 336u);
  EXPECT_EQ(BlobFnv(blob), 0x3849161797522642ULL);
  const ParsedBlob parsed = ParsedOf(blob);
  EXPECT_EQ(parsed.SectionSize(SectionId::kEdgeTargets), 0u);
  EXPECT_EQ(parsed.SectionSize(SectionId::kEdgeProb), 0u);
  Result<CtGraph> decoded = DecodeCtGraphBlob(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameAccessors(graph.value(), decoded.value());
  EXPECT_EQ(decoded.value().Digest(), graph.value().Digest());
  EXPECT_EQ(EncodeCtGraphBlob(decoded.value(), /*tag=*/5), blob);
}

/// kStructural leaves the probability sections unchecked, so a view can
/// carry NaN or zero edge probabilities. Queries on it must answer, not
/// abort: stay masses come out NaN or zero, and the most-likely
/// trajectory is the empty one with probability 0.
TEST(StructuralViewQueryTest, PoisonedEdgeProbabilitiesDoNotAbortQueries) {
  for (const double poison : {std::numeric_limits<double>::quiet_NaN(), 0.0}) {
    SCOPED_TRACE(poison);
    std::string blob = PaperExampleBlob();
    const ParsedBlob parsed = ParsedOf(blob);
    unsigned char* probabilities =
        reinterpret_cast<unsigned char*>(blob.data()) +
        parsed.Section(SectionId::kEdgeProb).offset;
    for (std::uint64_t e = 0; e < parsed.header.num_edges; ++e) {
      store::StoreDouble(probabilities + 8 * e, poison);  // CRC left stale
    }
    const auto* data = reinterpret_cast<const unsigned char*>(blob.data());
    Result<CtGraphView> full =
        CtGraphView::Map(data, blob.size(), MapVerify::kFull);
    ASSERT_FALSE(full.ok());
    EXPECT_NE(full.status().message().find(
                  "ct-graph blob: EDGEPROB section checksum mismatch"),
              std::string::npos)
        << full.status().ToString();
    Result<CtGraphView> view =
        CtGraphView::Map(data, blob.size(), MapVerify::kStructural);
    ASSERT_TRUE(view.ok()) << view.status().ToString();

    StayQueryEvaluatorT<CtGraphView> stay(view.value());
    const auto last = stay.Evaluate(view.value().length() - 1);
    ASSERT_FALSE(last.empty());
    for (const auto& [location, mass] : last) {
      EXPECT_TRUE(std::isnan(poison) ? std::isnan(mass) : mass == 0.0)
          << "location " << location << " mass " << mass;
    }
    const auto [path, probability] = MostLikelyTrajectoryOf(view.value());
    EXPECT_TRUE(path.empty());
    EXPECT_EQ(probability, 0.0);
  }
}

}  // namespace
}  // namespace rfidclean
