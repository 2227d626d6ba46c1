#include <sstream>

#include <gtest/gtest.h>

#include "core/builder.h"
#include "io/building_io.h"
#include "io/ctgraph_io.h"
#include "io/dot_export.h"
#include "io/readings_io.h"
#include "map/standard_buildings.h"
#include "test_util.h"

namespace rfidclean {
namespace {

// --- Readings CSV -----------------------------------------------------------

TEST(ReadingsIoTest, RoundTrip) {
  std::vector<Reading> readings = {{0, {3, 7}}, {1, {}}, {2, {7}}};
  Result<RSequence> original = RSequence::Create(std::move(readings));
  ASSERT_TRUE(original.ok());
  std::stringstream stream;
  WriteReadingsCsv(original.value(), stream);
  Result<RSequence> parsed = ReadReadingsCsv(stream);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().length(), 3);
  EXPECT_EQ(parsed.value().ReadersAt(0), (ReaderSet{3, 7}));
  EXPECT_EQ(parsed.value().ReadersAt(1), ReaderSet{});
  EXPECT_EQ(parsed.value().ReadersAt(2), ReaderSet{7});
}

TEST(ReadingsIoTest, WriteFormatIsStable) {
  Result<RSequence> sequence = RSequence::Create({{0, {2, 1}}, {1, {}}});
  ASSERT_TRUE(sequence.ok());
  std::ostringstream os;
  WriteReadingsCsv(sequence.value(), os);
  EXPECT_EQ(os.str(), "time,readers\n0,1 2\n1,\n");
}

TEST(ReadingsIoTest, ParsesUnorderedRows) {
  std::istringstream is("time,readers\n2,5\n0,\n1,1 2\n");
  Result<RSequence> parsed = ReadReadingsCsv(is);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().ReadersAt(2), ReaderSet{5});
}

TEST(ReadingsIoTest, RejectsMalformedInput) {
  {
    std::istringstream is("not,a,header\n");
    EXPECT_FALSE(ReadReadingsCsv(is).ok());
  }
  {
    std::istringstream is("time,readers\nabc,1\n");
    EXPECT_FALSE(ReadReadingsCsv(is).ok());
  }
  {
    std::istringstream is("time,readers\n0,xyz\n");
    EXPECT_FALSE(ReadReadingsCsv(is).ok());
  }
  {
    std::istringstream is("time,readers\n0 1 2\n");  // Missing comma.
    EXPECT_FALSE(ReadReadingsCsv(is).ok());
  }
  {
    std::istringstream is("time,readers\n0,1\n0,2\n");  // Duplicate time.
    EXPECT_FALSE(ReadReadingsCsv(is).ok());
  }
  {
    std::istringstream is("time,readers\n0,-3\n");  // Negative reader.
    EXPECT_FALSE(ReadReadingsCsv(is).ok());
  }
}

// --- Multi-tag readings CSV -------------------------------------------------

std::vector<TagReadings> MakeTwoTagFixture() {
  Result<RSequence> first = RSequence::Create({{0, {1, 2}}, {1, {}}});
  Result<RSequence> second = RSequence::Create({{0, {}}, {1, {3}}, {2, {1}}});
  RFID_CHECK(first.ok() && second.ok());
  return {TagReadings{7, std::move(first).value()},
          TagReadings{3, std::move(second).value()}};
}

TEST(MultiTagReadingsIoTest, RoundTripSortsTagsAscending) {
  std::stringstream stream;
  WriteMultiTagReadingsCsv(MakeTwoTagFixture(), stream);
  Result<std::vector<TagReadings>> parsed = ReadMultiTagReadingsCsv(stream);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value()[0].tag, 3);
  EXPECT_EQ(parsed.value()[0].readings.length(), 3);
  EXPECT_EQ(parsed.value()[0].readings.ReadersAt(1), ReaderSet{3});
  EXPECT_EQ(parsed.value()[1].tag, 7);
  EXPECT_EQ(parsed.value()[1].readings.length(), 2);
  EXPECT_EQ(parsed.value()[1].readings.ReadersAt(0), (ReaderSet{1, 2}));
}

TEST(MultiTagReadingsIoTest, ParsesInterleavedRows) {
  // Rows from different tags interleaved and per-tag timestamps unordered:
  // grouping is by the tag column, not by row adjacency.
  std::istringstream is(
      "tag,time,readers\n5,1,\n9,0,2\n5,0,1 4\n9,1,\n9,2,7\n");
  Result<std::vector<TagReadings>> parsed = ReadMultiTagReadingsCsv(is);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value()[0].tag, 5);
  EXPECT_EQ(parsed.value()[0].readings.ReadersAt(0), (ReaderSet{1, 4}));
  EXPECT_EQ(parsed.value()[1].tag, 9);
  EXPECT_EQ(parsed.value()[1].readings.ReadersAt(2), ReaderSet{7});
}

TEST(MultiTagReadingsIoTest, WriteFormatIsStable) {
  std::ostringstream os;
  WriteMultiTagReadingsCsv(MakeTwoTagFixture(), os);
  EXPECT_EQ(os.str(),
            "tag,time,readers\n7,0,1 2\n7,1,\n3,0,\n3,1,3\n3,2,1\n");
}

TEST(MultiTagReadingsIoTest, RejectsMalformedInput) {
  {
    std::istringstream is("time,readers\n0,1\n");  // Single-tag header.
    EXPECT_FALSE(ReadMultiTagReadingsCsv(is).ok());
  }
  {
    std::istringstream is("tag,time,readers\n");  // No data rows.
    EXPECT_FALSE(ReadMultiTagReadingsCsv(is).ok());
  }
  {
    // Duplicate (tag, time) pair.
    std::istringstream is("tag,time,readers\n1,0,2\n1,0,3\n");
    EXPECT_FALSE(ReadMultiTagReadingsCsv(is).ok());
  }
  {
    std::istringstream is("tag,time,readers\n,0,1\n");  // Empty tag field.
    EXPECT_FALSE(ReadMultiTagReadingsCsv(is).ok());
  }
  {
    std::istringstream is("tag,time,readers\n-4,0,1\n");  // Negative tag.
    EXPECT_FALSE(ReadMultiTagReadingsCsv(is).ok());
  }
  {
    // Tag 2's timestamps have a gap (0 then 2): not a valid stream.
    std::istringstream is("tag,time,readers\n2,0,1\n2,2,1\n");
    EXPECT_FALSE(ReadMultiTagReadingsCsv(is).ok());
  }
}

// --- Building text format ------------------------------------------------------

TEST(BuildingIoTest, RoundTripPreservesStructure) {
  Building original = MakeSyn1Building();
  std::stringstream stream;
  WriteBuilding(original, stream);
  Result<Building> parsed = ReadBuilding(stream);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Building& copy = parsed.value();
  EXPECT_EQ(copy.num_floors(), original.num_floors());
  EXPECT_EQ(copy.NumLocations(), original.NumLocations());
  EXPECT_EQ(copy.doors().size(), original.doors().size());
  EXPECT_EQ(copy.stairs().size(), original.stairs().size());
  for (std::size_t i = 0; i < original.NumLocations(); ++i) {
    const Location& a = original.location(static_cast<LocationId>(i));
    const Location& b = copy.location(static_cast<LocationId>(i));
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.floor, b.floor);
    EXPECT_EQ(a.footprint, b.footprint);
  }
}

TEST(BuildingIoTest, IgnoresCommentsAndBlankLines) {
  std::istringstream is(
      "# a map\n"
      "building 1 0 0 10 10\n"
      "\n"
      "location A room 0 0 0 4 4\n"
      "location B room 0 5 0 9 4\n"
      "# the only door\n"
      "door A B 4.5 2 1.0\n");
  Result<Building> parsed = ReadBuilding(is);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().NumLocations(), 2u);
  EXPECT_TRUE(parsed.value().AreDirectlyConnected(0, 1));
}

TEST(BuildingIoTest, RejectsMalformedInput) {
  {
    std::istringstream is("location A room 0 0 0 4 4\n");
    EXPECT_FALSE(ReadBuilding(is).ok());  // Before 'building'.
  }
  {
    std::istringstream is("building 1 0 0 10 10\nlocation A attic 0 0 0 4 4\n");
    EXPECT_FALSE(ReadBuilding(is).ok());  // Unknown kind.
  }
  {
    std::istringstream is(
        "building 1 0 0 10 10\nlocation A room 0 0 0 4 4\n"
        "door A Ghost 2 2 1\n");
    EXPECT_FALSE(ReadBuilding(is).ok());  // Unknown endpoint.
  }
  {
    std::istringstream is("building 1 0 0 10 10\nnonsense\n");
    EXPECT_FALSE(ReadBuilding(is).ok());
  }
  {
    std::istringstream is("");
    EXPECT_FALSE(ReadBuilding(is).ok());
  }
  {
    // Validation still runs: overlapping rooms are rejected.
    std::istringstream is(
        "building 1 0 0 10 10\n"
        "location A room 0 0 0 6 6\n"
        "location B room 0 5 5 9 9\n");
    EXPECT_FALSE(ReadBuilding(is).ok());
  }
}

TEST(BuildingIoTest, NegativeFloorIsALineErrorNotAnAbort) {
  std::istringstream is(
      "building 1 0 0 10 10\n"
      "location A room 0 0 0 4 4\n"
      "location B room -1 5 0 9 4\n");
  Result<Building> parsed = ReadBuilding(is);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("line 3:"), std::string::npos)
      << parsed.status().ToString();
  EXPECT_NE(parsed.status().message().find("floor"), std::string::npos)
      << parsed.status().ToString();
}

// --- DOT export ------------------------------------------------------------------

TEST(DotExportTest, EmitsNodesEdgesAndProbabilities) {
  LSequence sequence = ::rfidclean::testing::PaperExampleSequence();
  ConstraintSet constraints = ::rfidclean::testing::PaperExampleConstraints();
  CtGraphBuilder builder(constraints);
  Result<CtGraph> graph = builder.Build(sequence);
  ASSERT_TRUE(graph.ok());
  std::ostringstream os;
  WriteDot(graph.value(), os);
  std::string dot = os.str();
  EXPECT_NE(dot.find("digraph ctgraph"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n"), std::string::npos);
  EXPECT_NE(dot.find("L3"), std::string::npos);
  EXPECT_NE(dot.find("1.000"), std::string::npos);
  EXPECT_EQ(dot.find("truncated"), std::string::npos);
}

TEST(DotExportTest, TruncatesLargeGraphs) {
  std::vector<std::vector<std::pair<LocationId, double>>> spec(
      50, {{1, 0.5}, {2, 0.5}});
  LSequence sequence = ::rfidclean::testing::MakeLSequence(spec);
  ConstraintSet constraints(6);
  CtGraphBuilder builder(constraints);
  Result<CtGraph> graph = builder.Build(sequence);
  ASSERT_TRUE(graph.ok());
  std::ostringstream os;
  WriteDot(graph.value(), os, nullptr, /*max_nodes=*/10);
  EXPECT_NE(os.str().find("truncated"), std::string::npos);
}

TEST(DotExportTest, UsesBuildingNamesWhenGiven) {
  Building building = MakeSyn1Building();
  LSequence sequence = ::rfidclean::testing::MakeLSequence(
      {{{building.FindLocationByName("F0.RoomA"), 1.0}}});
  ConstraintSet constraints(building.NumLocations());
  CtGraphBuilder builder(constraints);
  Result<CtGraph> graph = builder.Build(sequence);
  ASSERT_TRUE(graph.ok());
  std::ostringstream os;
  WriteDot(graph.value(), os, &building);
  EXPECT_NE(os.str().find("F0.RoomA"), std::string::npos);
}


// --- ct-graph serialization ------------------------------------------------------

TEST(CtGraphIoTest, RoundTripPreservesEverything) {
  LSequence sequence = ::rfidclean::testing::PaperExampleSequence();
  ConstraintSet constraints = ::rfidclean::testing::PaperExampleConstraints();
  CtGraphBuilder builder(constraints);
  Result<CtGraph> original = builder.Build(sequence);
  ASSERT_TRUE(original.ok());
  std::stringstream stream;
  WriteCtGraph(original.value(), stream);
  Result<CtGraph> parsed = ReadCtGraph(stream);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().NumNodes(), original.value().NumNodes());
  EXPECT_EQ(parsed.value().NumEdges(), original.value().NumEdges());
  EXPECT_EQ(parsed.value().length(), original.value().length());
  auto expected = original.value().EnumerateTrajectories();
  for (const auto& [trajectory, probability] : expected) {
    EXPECT_PROB_NEAR(parsed.value().TrajectoryProbability(trajectory),
                     probability);
  }
}

TEST(CtGraphIoTest, RoundTripOnBranchingGraph) {
  LSequence sequence = ::rfidclean::testing::MakeLSequence(
      {{{1, 0.6}, {2, 0.4}}, {{1, 0.3}, {3, 0.7}}, {{3, 1.0}}});
  ConstraintSet constraints(6);
  constraints.AddUnreachable(2, 1);
  CtGraphBuilder builder(constraints);
  Result<CtGraph> original = builder.Build(sequence);
  ASSERT_TRUE(original.ok());
  std::stringstream stream;
  WriteCtGraph(original.value(), stream);
  Result<CtGraph> parsed = ReadCtGraph(stream);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value().CheckConsistency().ok());
  auto a = original.value().EnumerateTrajectories();
  auto b = parsed.value().EnumerateTrajectories();
  ASSERT_EQ(a.size(), b.size());
}

TEST(CtGraphIoTest, RejectsCorruptInput) {
  {
    std::istringstream is("node 0 0 1 -1 1.0\n");
    EXPECT_FALSE(ReadCtGraph(is).ok());  // No header.
  }
  {
    std::istringstream is("ctgraph 1 1\nnode 5 0 1 -1 1.0\n");
    EXPECT_FALSE(ReadCtGraph(is).ok());  // Id out of range.
  }
  {
    std::istringstream is("ctgraph 1 1\nnode 0 0 1 -1 0.5\n");
    EXPECT_FALSE(ReadCtGraph(is).ok());  // Source probs must sum to 1.
  }
  {
    std::istringstream is("ctgraph 2 1\nnode 0 0 1 -1 1.0\n");
    EXPECT_FALSE(ReadCtGraph(is).ok());  // Non-target node with no edges.
  }
  {
    std::istringstream is("");
    EXPECT_FALSE(ReadCtGraph(is).ok());
  }
}

}  // namespace
}  // namespace rfidclean
