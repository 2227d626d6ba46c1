// Micro-benchmarks of the library's hot paths (google-benchmark):
// successor generation, node-key hashing and interning, ct-graph
// construction at several sequence lengths, the graph digest over a blob,
// assembling a graph (which folds its digest), blob encoding, stay-query
// evaluation, pattern-query evaluation, trajectory sampling, and the
// dispatched kernels — SIMD, CRC-32 and the bulk varint decoder (scalar vs
// vector, selected by the benchmark arg: 0 = forced scalar, 1 = runtime
// dispatch).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/varint.h"
#include "core/builder.h"
#include "core/key_arena.h"
#include "core/location_node.h"
#include "core/successor.h"
#include "eval/workload.h"
#include "gen/dataset.h"
#include "query/pattern_matcher.h"
#include "query/sampler.h"
#include "query/stay_query.h"
#include "query/trajectory_query.h"
#include "store/blob_layout.h"
#include "store/ctgraph_view.h"
#include "store/graph_codec.h"

namespace rfidclean {
namespace {

/// One shared small dataset for all micro-benchmarks (3-minute items).
const Dataset& SharedDataset() {
  static const Dataset* dataset = [] {
    DatasetOptions options = DatasetOptions::Syn1();
    options.durations_ticks = {180};
    options.trajectories_per_duration = 1;
    return Dataset::Build(options).release();
  }();
  return *dataset;
}

const LSequence& SharedSequence() {
  return SharedDataset().items()[0].lsequence;
}

const ConstraintSet& SharedConstraints() {
  static const ConstraintSet* constraints = new ConstraintSet(
      SharedDataset().MakeConstraints(ConstraintFamilies::DuLtTt()));
  return *constraints;
}

const CtGraph& SharedGraph() {
  static const CtGraph* graph = [] {
    CtGraphBuilder builder(SharedConstraints());
    Result<CtGraph> result = builder.Build(SharedSequence());
    RFID_CHECK(result.ok());
    return new CtGraph(std::move(result).value());
  }();
  return *graph;
}

void BM_SuccessorGeneration(benchmark::State& state) {
  SuccessorGenerator generator(SharedConstraints());
  std::vector<NodeKey> sources;
  NodeKey scratch;
  generator.ForEachSourceKey(
      SharedSequence().CandidatesAt(0), &scratch,
      [&sources](const NodeKey& key) { sources.push_back(key); });
  std::vector<NodeKey> out;
  for (auto _ : state) {
    out.clear();
    for (const NodeKey& key : sources) {
      generator.ForEachSuccessor(
          0, key, SharedSequence().CandidatesAt(1), &scratch,
          [&out](const NodeKey& successor) { out.push_back(successor); });
    }
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sources.size()));
}
BENCHMARK(BM_SuccessorGeneration);

void BM_NodeKeyHash(benchmark::State& state) {
  NodeKey key{3, 2, {}};
  key.departures.push_back(Departure{10, 1});
  key.departures.push_back(Departure{12, 2});
  NodeKeyHash hash;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash(key));
  }
}
BENCHMARK(BM_NodeKeyHash);

/// NodeKeyArena::Intern on its own, apart from successor generation: 100
/// scopes (forward layers) of 256 TL-bearing keys with 1-9 departures
/// each, so a fifth of the keys spill past the TL's inline slots. Each
/// scope interns every key twice, a fresh insert and then a hit, as a
/// layer's duplicate successors do; every iteration starts a fresh arena,
/// so the record array and the TL pool grow as in one build.
void BM_KeyArenaIntern(benchmark::State& state) {
  constexpr std::uint32_t kScopes = 100;
  constexpr std::size_t kKeysPerScope = 256;
  std::vector<NodeKey> keys;
  keys.reserve(kScopes * kKeysPerScope);
  for (std::uint32_t scope = 0; scope < kScopes; ++scope) {
    for (std::size_t k = 0; k < kKeysPerScope; ++k) {
      NodeKey key;
      key.location = static_cast<LocationId>(k % 64);
      key.delta = k % 3 == 0 ? 1 : kDeltaBottom;
      const std::size_t tl_size = 1 + (k / 64 + k) % 9;
      for (std::size_t i = 0; i < tl_size; ++i) {
        key.departures.push_back(
            Departure{static_cast<Timestamp>(scope + i),
                      static_cast<LocationId>(64 + i)});
      }
      keys.push_back(std::move(key));
    }
  }
  for (auto _ : state) {
    internal_core::NodeKeyArena arena;
    for (std::uint32_t scope = 0; scope < kScopes; ++scope) {
      const NodeKey* layer = keys.data() + scope * kKeysPerScope;
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t k = 0; k < kKeysPerScope; ++k) {
          benchmark::DoNotOptimize(arena.Intern(layer[k], scope + 1));
        }
      }
    }
    benchmark::DoNotOptimize(arena.size());
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_KeyArenaIntern)->Unit(benchmark::kMicrosecond);

void BM_BuildCtGraph(benchmark::State& state) {
  const Timestamp length = static_cast<Timestamp>(state.range(0));
  DatasetOptions options = DatasetOptions::Syn1();
  options.durations_ticks = {length};
  options.trajectories_per_duration = 1;
  std::unique_ptr<Dataset> dataset = Dataset::Build(options);
  ConstraintSet constraints =
      dataset->MakeConstraints(ConstraintFamilies::DuLtTt());
  CtGraphBuilder builder(constraints);
  std::size_t nodes = 0;
  for (auto _ : state) {
    Result<CtGraph> graph = builder.Build(dataset->items()[0].lsequence);
    RFID_CHECK(graph.ok());
    nodes = graph.value().NumNodes();
    benchmark::DoNotOptimize(nodes);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.SetItemsProcessed(state.iterations() * length);
}
BENCHMARK(BM_BuildCtGraph)->Arg(60)->Arg(180)->Arg(600)
    ->Unit(benchmark::kMillisecond);

/// The FNV graph digest, a serial chain of one xor-multiply per
/// nonzero-range byte. A CtGraph stores it, folded while its arrays were
/// filled; the zero-copy view of a blob recomputes it, which is what the
/// deep verifiers (MapVerify::kFull, `store verify`) pay.
void BM_GraphDigest(benchmark::State& state) {
  const CtGraph& graph = SharedGraph();
  const std::string blob = store::EncodeCtGraphBlob(graph, 0);
  Result<store::CtGraphView> view = store::CtGraphView::Map(
      reinterpret_cast<const unsigned char*>(blob.data()), blob.size(),
      store::MapVerify::kStructural);
  RFID_CHECK(view.ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.value().Digest());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(graph.NumNodes()));
}
BENCHMARK(BM_GraphDigest)->Unit(benchmark::kMicrosecond);

/// Assemble from node records: filling the flat arrays, which folds the
/// digest node by node, plus the validation every checked graph gets.
void BM_AssembleCtGraph(benchmark::State& state) {
  const CtGraph& graph = SharedGraph();
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
  for (auto _ : state) {
    Result<CtGraph> assembled = CtGraph::Assemble(nodes, graph.length());
    RFID_CHECK(assembled.ok());
    benchmark::DoNotOptimize(assembled.value().Digest());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(graph.NumNodes()));
}
BENCHMARK(BM_AssembleCtGraph)->Unit(benchmark::kMicrosecond);

/// EncodeCtGraphBlob on the T = 180 SYN1 graph: one walk over the nodes
/// into scratch, then one copy into the exactly sized blob.
void BM_EncodeCtGraphBlob(benchmark::State& state) {
  const CtGraph& graph = SharedGraph();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string blob = store::EncodeCtGraphBlob(graph, 0);
    bytes = blob.size();
    benchmark::DoNotOptimize(blob.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_EncodeCtGraphBlob)->Unit(benchmark::kMicrosecond);

void BM_StayQueryEvaluatorConstruction(benchmark::State& state) {
  const CtGraph& graph = SharedGraph();
  for (auto _ : state) {
    StayQueryEvaluator evaluator(graph);
    benchmark::DoNotOptimize(evaluator.Probability(0, 0));
  }
}
BENCHMARK(BM_StayQueryEvaluatorConstruction)->Unit(benchmark::kMillisecond);

void BM_StayQuery(benchmark::State& state) {
  const CtGraph& graph = SharedGraph();
  StayQueryEvaluator evaluator(graph);
  Timestamp t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.Evaluate(t));
    t = (t + 7) % graph.length();
  }
}
BENCHMARK(BM_StayQuery);

void BM_TrajectoryQuery(benchmark::State& state) {
  const CtGraph& graph = SharedGraph();
  Rng rng(1);
  Pattern pattern = RandomTrajectoryQuery(
      SharedDataset().building(), static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateTrajectoryQuery(graph, pattern));
  }
}
BENCHMARK(BM_TrajectoryQuery)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_PatternMatcherStep(benchmark::State& state) {
  Rng rng(2);
  Pattern pattern =
      RandomTrajectoryQuery(SharedDataset().building(), 3, rng);
  PatternMatcher matcher(pattern);
  int s = matcher.StartState();
  LocationId l = 0;
  for (auto _ : state) {
    s = matcher.Step(s, l);
    benchmark::DoNotOptimize(s);
    l = (l + 1) % static_cast<LocationId>(
                      SharedDataset().building().NumLocations());
  }
}
BENCHMARK(BM_PatternMatcherStep);

void BM_SampleTrajectory(benchmark::State& state) {
  const CtGraph& graph = SharedGraph();
  TrajectorySampler sampler(graph);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng).length());
  }
}
BENCHMARK(BM_SampleTrajectory);

void BM_AprioriDistribution(benchmark::State& state) {
  const Dataset& dataset = SharedDataset();
  // Re-derive distributions without cache hits by rotating reader sets.
  std::vector<ReaderSet> sets;
  for (ReaderId r = 0;
       r < static_cast<ReaderId>(dataset.readers().size()); ++r) {
    sets.push_back({r});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dataset.apriori().Distribution(sets[i % sets.size()]));
    ++i;
  }
}
BENCHMARK(BM_AprioriDistribution);

/// Scoped force-scalar toggle so every kernel bench can run both paths
/// from one function body (arg 0 = scalar reference, arg 1 = dispatch).
class ScopedKernelPath {
 public:
  explicit ScopedKernelPath(bool dispatch) {
    simd::ForceScalarForTesting(!dispatch);
  }
  ~ScopedKernelPath() { simd::ForceScalarForTesting(false); }
};

void BM_SimdBlockedSum(benchmark::State& state) {
  ScopedKernelPath path(state.range(0) == 1);
  Rng rng(11);
  std::vector<double> values(1024);
  for (double& v : values) v = rng.UniformDouble(0.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::BlockedSum(values.data(), values.size()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_SimdBlockedSum)->Arg(0)->Arg(1);

void BM_SimdScanProbeGroup(benchmark::State& state) {
  ScopedKernelPath path(state.range(0) == 1);
  Rng rng(13);
  std::vector<std::size_t> hashes(256);
  for (std::size_t& h : hashes) {
    h = static_cast<std::size_t>(rng.UniformInt(0, 1 << 20));
  }
  constexpr std::size_t kGroups = 128;
  std::vector<std::int32_t> slots(kGroups * simd::kProbeGroupWidth);
  for (std::int32_t& slot : slots) {
    slot = rng.Bernoulli(0.3)
               ? -1
               : static_cast<std::int32_t>(rng.UniformInt(0, 255));
  }
  const std::size_t target = hashes[7];
  for (auto _ : state) {
    std::uint32_t acc = 0;
    for (std::size_t g = 0; g < kGroups; ++g) {
      const simd::ProbeGroupMasks masks = simd::ScanProbeGroup(
          &slots[g * simd::kProbeGroupWidth], hashes.data(), target);
      acc ^= masks.empty | masks.match;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(kGroups * simd::kProbeGroupWidth));
}
BENCHMARK(BM_SimdScanProbeGroup)->Arg(0)->Arg(1);

/// CRC-32 over a 1 MiB buffer (about one fleet blob): slicing-by-8 vs the
/// PCLMULQDQ folding kernel.
void BM_Crc32(benchmark::State& state) {
  ScopedKernelPath path(state.range(0) == 1);
  Rng rng(14);
  std::vector<unsigned char> bytes(std::size_t{1} << 20);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32)->Arg(0)->Arg(1);

/// Bulk varint decode of the KEYS section of a SYN1 T = 1 000 blob (about
/// 5 MB), 2 048 values per call as the store's load path decodes it: the
/// GetVarint loop vs the AVX2 kernel.
void BM_DecodeVarints(benchmark::State& state) {
  ScopedKernelPath path(state.range(0) == 1);
  DatasetOptions options = DatasetOptions::Syn1();
  options.durations_ticks = {1000};
  options.trajectories_per_duration = 1;
  std::unique_ptr<Dataset> dataset = Dataset::Build(options);
  const ConstraintSet constraints =
      dataset->MakeConstraints(ConstraintFamilies::DuLtTt());
  Result<CtGraph> graph =
      CtGraphBuilder(constraints).Build(dataset->items()[0].lsequence);
  RFID_CHECK(graph.ok());
  const std::string blob = store::EncodeCtGraphBlob(graph.value(), 0);
  Result<store::ParsedBlob> parsed = store::ParseAndVerifyBlob(
      reinterpret_cast<const unsigned char*>(blob.data()), blob.size());
  RFID_CHECK(parsed.ok());
  const unsigned char* keys =
      parsed.value().SectionData(store::SectionId::kKeys);
  const std::size_t size = static_cast<std::size_t>(
      parsed.value().SectionSize(store::SectionId::kKeys));
  std::vector<std::uint32_t> chunk(2048);
  std::size_t values = 0;
  for (auto _ : state) {
    values = 0;
    for (std::size_t at = 0; at < size;) {
      const VarintRun run =
          DecodeVarints(keys + at, size - at, chunk.data(), chunk.size());
      RFID_CHECK_GT(run.bytes, 0u);
      at += run.bytes;
      values += run.count;
    }
    benchmark::DoNotOptimize(chunk.data());
    benchmark::ClobberMemory();
  }
  state.counters["values"] = static_cast<double>(values);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_DecodeVarints)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rfidclean

BENCHMARK_MAIN();
