// Binary ct-store round-trip economics: for fig8a-style SYN1 graphs at
// T = 100 / 1 000 / 10 000 ticks, measures the text-vs-blob size ratio and
// the cost of getting a queryable graph back — rebuilding from the reading
// feed vs mmap-loading the checked binary blob (CtStoreReader::Open +
// LoadView, i.e. the full validated path: index walk, section CRCs, varint
// decode, consistency check, digest verification). Emits BENCH_store.json
// with both in-bench acceptance gates armed as RFID_CHECKs:
//
//   * the blob must be at most half the text serialization's bytes, and
//   * the mmap load must be at least 10x faster than rebuilding.
//
// The perf points double as a differential suite: the zero-copy view must
// produce the same FNV digest, bit-identical node marginals and the
// bit-identical most-likely trajectory as the owning CtGraph it was encoded
// from, and Materialize() must round-trip to the same text bytes. Each
// point also records `blob_digest`, an FNV-1a digest of the blob bytes, so
// builds that dispatch differently (vector, --force-scalar, SIMD-off) can
// be checked for writing identical blobs.
//
//   store_roundtrip [--ticks 100,1000,10000] [--reps N] [--seed S]
//                   [--out BENCH_store.json] [--work FILE.cts] [--paper]
//                   [--force-scalar]
//
// Tick counts and --reps must be positive integers and --seed a
// non-negative one; any other value exits 1 before anything is built.

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/crc32.h"
#include "common/fnv.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/builder.h"
#include "io/ctgraph_io.h"
#include "query/marginals.h"
#include "query/most_likely.h"
#include "store/ct_store.h"
#include "store/ctgraph_view.h"
#include "store/graph_codec.h"

namespace rfidclean::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchScale scale = BenchScale::FromArgs(argc, argv);
  // Routes Crc32, the varint decoder and every other dispatched kernel to
  // the scalar reference; the blobs must not change.
  if (HasFlag(argc, argv, "--force-scalar")) {
    simd::ForceScalarForTesting(true);
  }
  const char* out_arg = FlagValue(argc, argv, "--out");
  const char* work_arg = FlagValue(argc, argv, "--work");
  constexpr const char* kBench = "store_roundtrip";
  const std::uint64_t seed = static_cast<std::uint64_t>(
      IntFlag(kBench, argc, argv, "--seed", 0, 1, LLONG_MAX));
  // 0: no --reps, so each point sizes its own repetition count.
  const int reps_flag =
      static_cast<int>(IntFlag(kBench, argc, argv, "--reps", 1, 0));
  const std::string out = out_arg != nullptr ? out_arg : "BENCH_store.json";
  const std::string work =
      work_arg != nullptr ? work_arg : "BENCH_store_work.cts";
  const std::vector<Timestamp> durations =
      IntListFlag(kBench, argc, argv, "--ticks", "100,1000,10000");

  PrintHeader("store_roundtrip",
              "Binary ct-store economics: blob-vs-text bytes and mmap "
              "load-vs-rebuild time per trajectory duration (SYN1, "
              "DU+LT+TT); gates: blob <= 0.5x text, load >= 10x faster",
              scale);

  DatasetOptions options = DatasetOptions::Syn1();
  options.durations_ticks = durations;
  options.trajectories_per_duration = 1;
  options.seed = seed;
  std::unique_ptr<Dataset> dataset = Dataset::Build(options);
  ConstraintSet constraints =
      dataset->MakeConstraints(ConstraintFamilies::DuLtTt());
  CtGraphBuilder builder(constraints);

  BenchJson json("store_roundtrip", scale.Label());
  json.params()
      .Add("dataset", "SYN1")
      .Add("families", "DU+LT+TT")
      .Add("seed", static_cast<long long>(seed))
      .Add("crc32_kernel_active", Crc32KernelActive() ? 1 : 0)
      .Add("decode_kernel_active", simd::VectorKernelsActive() ? 1 : 0);

  Table table({"ticks", "reps", "nodes", "edges", "text", "blob", "ratio",
               "B/node", "build ms", "encode ms", "load ms", "speedup",
               "digest"});
  for (const Dataset::Item& item : dataset->items()) {
    const Timestamp ticks = item.duration;
    int reps = reps_flag > 0
                   ? reps_flag
                   : std::max(3, static_cast<int>(30000 / std::max<Timestamp>(
                                                              ticks, 1)));
    if (scale.paper) reps *= 3;

    // Rebuild cost: the price a reader pays today to get a queryable graph
    // from the raw feed.
    std::vector<double> build_millis;
    Result<CtGraph> graph = builder.Build(item.lsequence);
    RFID_CHECK(graph.ok());
    for (int r = 0; r < reps; ++r) {
      Stopwatch watch;
      Result<CtGraph> rebuilt = builder.Build(item.lsequence);
      build_millis.push_back(watch.ElapsedMillis());
      RFID_CHECK(rebuilt.ok());
    }

    store::GraphProvenance provenance;
    provenance.input_digest = item.lsequence.Digest();
    provenance.constraint_digest = constraints.Digest();
    std::vector<double> encode_millis;
    std::string blob;
    for (int r = 0; r < reps; ++r) {
      Stopwatch watch;
      blob = store::EncodeCtGraphBlob(graph.value(), /*tag=*/ticks,
                                      provenance);
      encode_millis.push_back(watch.ElapsedMillis());
    }
    const std::size_t blob_bytes = blob.size();
    Fnv64 blob_fnv;
    blob_fnv.Mix(blob.data(), blob.size());

    // Persist one blob per point into a fresh container, then time the full
    // validated mmap load path: open (header + index walk), LoadView
    // (section CRCs, varint decode, consistency check, digest check).
    {
      Result<store::CtStoreWriter> writer =
          store::CtStoreWriter::Create(work, /*truncate=*/true);
      RFID_CHECK(writer.ok());
      RFID_CHECK(writer.value().Put(ticks, blob).ok());
      RFID_CHECK(writer.value().Finish().ok());
    }
    std::vector<double> load_millis;
    for (int r = 0; r < reps; ++r) {
      Stopwatch watch;
      Result<store::CtStoreReader> reader = store::CtStoreReader::Open(work);
      RFID_CHECK(reader.ok());
      Result<store::CtGraphView> view = reader.value().LoadView(ticks);
      load_millis.push_back(watch.ElapsedMillis());
      RFID_CHECK(view.ok());
    }

    // The text serialization is only produced after the timing loops: at
    // T=10000 it is a ~0.5 GB string, and holding it resident while timing
    // mmap loads distorts them with reclaim pressure.
    std::ostringstream text_os;
    WriteCtGraph(graph.value(), text_os);
    const std::size_t text_bytes = text_os.str().size();

    // Differential pass: the zero-copy view must be indistinguishable from
    // the owning graph for every query the repo ships.
    {
      Result<store::CtStoreReader> reader = store::CtStoreReader::Open(work);
      RFID_CHECK(reader.ok());
      Result<store::CtGraphView> view = reader.value().LoadView(ticks);
      RFID_CHECK(view.ok());
      RFID_CHECK_EQ(view.value().Digest(), graph.value().Digest());
      RFID_CHECK(NodeMarginalsOf(view.value()) ==
                 NodeMarginals(graph.value()));
      const auto [view_path, view_prob] =
          MostLikelyTrajectoryOf(view.value());
      const auto [graph_path, graph_prob] =
          MostLikelyTrajectory(graph.value());
      RFID_CHECK(view_path == graph_path);
      RFID_CHECK_EQ(view_prob, graph_prob);
      Result<CtGraph> copy = view.value().Materialize();
      RFID_CHECK(copy.ok());
      std::ostringstream copy_os;
      WriteCtGraph(copy.value(), copy_os);
      RFID_CHECK(copy_os.str() == text_os.str());
    }

    std::sort(build_millis.begin(), build_millis.end());
    std::sort(encode_millis.begin(), encode_millis.end());
    std::sort(load_millis.begin(), load_millis.end());
    const double build = build_millis[build_millis.size() / 2];
    const double encode = encode_millis[encode_millis.size() / 2];
    const double load = load_millis[load_millis.size() / 2];
    const double ratio =
        static_cast<double>(blob_bytes) / static_cast<double>(text_bytes);
    // The gated speedup uses best-of-N on both sides: the minimum isolates
    // the intrinsic cost from scheduler/page-cache noise, which on a busy
    // single-core runner can inflate one median enough to flip the gate.
    const double build_best = build_millis.front();
    const double load_best = load_millis.front();
    const double speedup = load_best > 0 ? build_best / load_best : 0.0;
    const double bytes_per_node =
        static_cast<double>(blob_bytes) /
        static_cast<double>(graph.value().NumNodes());

    // The issue's acceptance gates, armed in-bench so a regression fails
    // the binary (and CI) rather than shading a dashboard.
    // stderr + unbuffered so the numbers survive an aborting gate check.
    std::fprintf(
        stderr,
        "gate point ticks=%d: blob %zu / text %zu bytes, best build "
        "%.3f ms / best load %.3f ms -> %.1fx\n",
        ticks, blob_bytes, text_bytes, build_best, load_best, speedup);
    RFID_CHECK_LE(2 * blob_bytes, text_bytes);
    RFID_CHECK_GE(speedup, 10.0);

    table.AddRow(
        {StrFormat("%d", ticks), StrFormat("%d", reps),
         StrFormat("%zu", graph.value().NumNodes()),
         StrFormat("%zu", graph.value().NumEdges()), HumanBytes(text_bytes),
         HumanBytes(blob_bytes), StrFormat("%.3f", ratio),
         StrFormat("%.1f", bytes_per_node), StrFormat("%.2f", build),
         StrFormat("%.3f", encode), StrFormat("%.3f", load),
         StrFormat("%.1fx", speedup),
         StrFormat("%016llx", static_cast<unsigned long long>(
                                  graph.value().Digest()))});
    json.AddResult()
        .Add("ticks", static_cast<long long>(ticks))
        .Add("reps", reps)
        .Add("nodes", graph.value().NumNodes())
        .Add("edges", graph.value().NumEdges())
        .Add("text_bytes", text_bytes)
        .Add("blob_bytes", blob_bytes)
        .Add("bytes_ratio", ratio)
        .Add("bytes_per_node", bytes_per_node, 1)
        .Add("build_millis", build)
        .Add("build_millis_best", build_best)
        .Add("encode_millis", encode)
        .Add("load_millis", load)
        .Add("load_millis_best", load_best)
        .Add("load_speedup", speedup, 1)
        .AddHex64("digest", graph.value().Digest())
        .AddHex64("blob_digest", blob_fnv.Digest());
  }
  table.Print(std::cout);
  std::remove(work.c_str());

  if (!json.WriteFile(out)) return 1;
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace rfidclean::bench

int main(int argc, char** argv) {
  return rfidclean::bench::Main(argc, argv);
}
