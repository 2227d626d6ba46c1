// Single-tag ct-graph construction throughput (the per-tag hot path every
// BatchCleaner worker and every query ultimately pays for): builds the
// ct-graph of one fig8a-style SYN1 trajectory at T = 100 / 1 000 / 10 000
// ticks under DU+LT+TT constraints and emits BENCH_core.json with the
// median build time and the median forward and backward phase times over
// the repetitions, ns per timestamp, forward-phase node+edge throughput
// and peak RSS per point, the built graph's size (graph_bytes,
// CtGraph::ApproximateBytes), the bytes the forward phase holds at its end
// (work_bytes, BuildStats::work_bytes), plus an FNV digest of the
// serialized graph so perf runs double as a semantic cross-check (the
// digest is timing-free and must be stable across core refactors).
//
// With --trace FILE a trace session records every rep (so the numbers
// measure the armed-tracer hot path, which CI gates against the untraced
// baseline) and the timeline is exported as Chrome trace-event JSON.
//
// With --explain FILE every rep runs under an armed explain session (so
// the numbers measure the armed-attribution hot path, which CI gates the
// same way) and a one-summary-per-point explain report is exported.
//
//   core_build [--ticks 100,1000,10000] [--reps N] [--seed S]
//              [--out BENCH_core.json] [--trace FILE] [--explain FILE]
//              [--paper] [--force-scalar]
//
// Tick counts and --reps must be positive integers and --seed a
// non-negative one; any other value exits 1 before anything is built.
//
// With --sparse the workload switches to sparse feeds (one exact anchor
// every 8 ticks, ghost-branch distractor walks in between) and every point is
// built twice — preflight on and off — digest-checking the two graphs
// against each other and emitting the pruning win as BENCH_core_sparse.json
// (fields ns_per_timestamp, ns_per_timestamp_no_preflight, nodes_pruned).

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/builder.h"
#include "io/ctgraph_io.h"
#include "obs/cleaning_stats.h"
#include "obs/explain.h"
#include "obs/explain_export.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace rfidclean::bench {
namespace {

std::uint64_t Fnv1a(std::uint64_t hash, const std::string& text) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Median of one point's repetitions (the upper one for an even count):
/// every timing field a point reports is this median over its reps.
double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Sparse-feed variant of an item's l-sequence: an exact ground-truth
/// anchor every 8 ticks, and noisy candidate lists in between — the true
/// location plus "ghost branches": distractor random walks that start at a
/// move-graph neighbor of the truth and drift away from the anchored path.
/// Models a deployment where readers fire only intermittently and the
/// a-priori model proposes plausible-looking alternate routes. Because
/// every ghost step is a legal one-tick move from the previous tick's
/// candidates, the unpruned forward phase materializes the whole branch
/// (TL variants included); only the backward sweep — or the preflight
/// pass, before any node exists — discovers that the drifted tail cannot
/// reconcile the next anchor in the ticks remaining.
LSequence MakeSparseSequence(const Dataset::Item& item,
                             const ConstraintSet& constraints, Rng& rng) {
  constexpr Timestamp kAnchorStride = 8;
  constexpr int kNumGhosts = 3;
  const std::size_t num_locations = constraints.num_locations();

  // One-tick out-neighborhoods of the move graph (what SuccessorGenerator
  // can ever emit as a move).
  std::vector<std::vector<LocationId>> neighbors(num_locations);
  for (LocationId a = 0; a < static_cast<LocationId>(num_locations); ++a) {
    for (LocationId b = 0; b < static_cast<LocationId>(num_locations); ++b) {
      if (a != b && !constraints.IsUnreachable(a, b) &&
          constraints.MinTravelTicks(a, b) <= 1) {
        neighbors[static_cast<std::size_t>(a)].push_back(b);
      }
    }
  }
  const auto step = [&](LocationId from) -> LocationId {
    const std::vector<LocationId>& pool =
        neighbors[static_cast<std::size_t>(from)];
    // A ghost in a dead end stays put (a legal "stay" for the generator).
    if (pool.empty()) return from;
    return pool[rng.UniformIndex(pool.size())];
  };

  std::vector<LocationId> ghosts(kNumGhosts, item.ground_truth.At(0));
  std::vector<std::vector<Candidate>> ticks;
  ticks.reserve(static_cast<std::size_t>(item.duration));
  for (Timestamp t = 0; t < item.duration; ++t) {
    const LocationId truth = item.ground_truth.At(t);
    if (t % kAnchorStride == 0) {
      // Exact read: the branches collapse and new ghosts fork off here.
      for (LocationId& ghost : ghosts) ghost = truth;
      ticks.push_back({Candidate{truth, 1.0}});
      continue;
    }
    std::vector<bool> used(num_locations, false);
    used[static_cast<std::size_t>(truth)] = true;
    std::vector<Candidate> at_t = {Candidate{truth, 0.4}};
    for (LocationId& ghost : ghosts) {
      ghost = step(ghost);
      if (used[static_cast<std::size_t>(ghost)]) continue;
      used[static_cast<std::size_t>(ghost)] = true;
      at_t.push_back(Candidate{ghost, 0.6 / kNumGhosts});
    }
    // Renormalize in case ghost walks collided.
    double total = 0.0;
    for (const Candidate& c : at_t) total += c.probability;
    for (Candidate& c : at_t) c.probability /= total;
    ticks.push_back(std::move(at_t));
  }
  Result<LSequence> sequence = LSequence::Create(std::move(ticks));
  RFID_CHECK(sequence.ok());
  return std::move(sequence).value();
}

/// The --sparse mode: the same builds run preflight-on and preflight-off
/// over sparse feeds, the graphs are digest-checked against each other, and
/// the pruning win (time ratio + nodes pruned) is emitted for the bench
/// regression gate (BENCH_core_sparse.json, gated with --direction higher
/// on nodes_pruned).
int RunSparse(const BenchScale& scale, const std::vector<Timestamp>& durations,
              int reps_flag, std::uint64_t seed, const std::string& out) {
  PrintHeader("core_build --sparse",
              "Preflight pruning win on sparse feeds: anchor tick every 8, "
              "3 ghost branches drifting in between (SYN1, DU+LT+TT)",
              scale);

  DatasetOptions options = DatasetOptions::Syn1();
  options.durations_ticks = durations;
  options.trajectories_per_duration = 1;
  options.seed = seed;
  std::unique_ptr<Dataset> dataset = Dataset::Build(options);
  ConstraintSet constraints =
      dataset->MakeConstraints(ConstraintFamilies::DuLtTt());
  CtGraphBuilder pruned_builder(constraints);
  CleanOptions raw_options;
  raw_options.preflight = false;
  CtGraphBuilder raw_builder(constraints, raw_options);

  BenchJson json("core_build_sparse", scale.Label());
  json.params()
      .Add("dataset", "SYN1")
      .Add("families", "DU+LT+TT")
      .Add("seed", static_cast<long long>(seed))
      .Add("anchor_stride", 8)
      .Add("num_ghosts", 3);

  Table table({"ticks", "reps", "median ms", "no-preflight ms", "speedup",
               "ns/timestamp", "pruned nodes", "peak nodes", "raw peak",
               "digest"});
  for (const Dataset::Item& item : dataset->items()) {
    const Timestamp ticks = item.duration;
    Rng rng(seed, /*stream=*/0x5BA55E + static_cast<std::uint64_t>(ticks));
    const LSequence sequence = MakeSparseSequence(item, constraints, rng);

    int reps = reps_flag > 0
                   ? reps_flag
                   : std::max(3, static_cast<int>(30000 / std::max<Timestamp>(
                                                              ticks, 1)));
    if (scale.paper) reps *= 3;

    BuildStats stats;
    BuildStats raw_stats;
    std::vector<double> millis;
    std::vector<double> raw_millis;
    std::vector<double> preflight_millis;
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (int r = 0; r < reps; ++r) {
      Stopwatch watch;
      Result<CtGraph> graph = pruned_builder.Build(sequence, &stats);
      millis.push_back(watch.ElapsedMillis());
      preflight_millis.push_back(stats.preflight_millis);
      RFID_CHECK(graph.ok());

      watch = Stopwatch();
      Result<CtGraph> raw_graph = raw_builder.Build(sequence, &raw_stats);
      raw_millis.push_back(watch.ElapsedMillis());
      RFID_CHECK(raw_graph.ok());

      if (r == 0) {
        // The pruned and unpruned graphs must be byte-identical — the
        // bench doubles as a differential check on real-shaped data.
        std::ostringstream pruned_os;
        WriteCtGraph(graph.value(), pruned_os);
        std::ostringstream raw_os;
        WriteCtGraph(raw_graph.value(), raw_os);
        RFID_CHECK(pruned_os.str() == raw_os.str());
        digest = Fnv1a(digest, pruned_os.str());
      }
    }
    // A sparse-feed point that prunes nothing measures nothing: fail loud
    // instead of green-lighting a regressed preflight.
    RFID_CHECK_GT(stats.preflight_candidates_pruned, 0u);

    const double median = Median(millis);
    const double raw_median = Median(raw_millis);
    const double ns_per_timestamp = median * 1e6 / static_cast<double>(ticks);
    const double raw_ns_per_timestamp =
        raw_median * 1e6 / static_cast<double>(ticks);

    table.AddRow({StrFormat("%d", ticks), StrFormat("%d", reps),
                  StrFormat("%.2f", median), StrFormat("%.2f", raw_median),
                  StrFormat("%.2fx", median > 0 ? raw_median / median : 0.0),
                  StrFormat("%.0f", ns_per_timestamp),
                  StrFormat("%zu", stats.preflight_candidates_pruned),
                  StrFormat("%zu", stats.peak_nodes),
                  StrFormat("%zu", raw_stats.peak_nodes),
                  StrFormat("%016llx",
                            static_cast<unsigned long long>(digest))});
    json.AddResult()
        .Add("ticks", static_cast<long long>(ticks))
        .Add("reps", reps)
        .Add("millis", median)
        .Add("millis_no_preflight", raw_median)
        .Add("ns_per_timestamp", ns_per_timestamp)
        .Add("ns_per_timestamp_no_preflight", raw_ns_per_timestamp)
        .Add("nodes_pruned", stats.preflight_candidates_pruned)
        .Add("peak_nodes", stats.peak_nodes)
        .Add("peak_nodes_no_preflight", raw_stats.peak_nodes)
        .Add("preflight_millis", Median(preflight_millis))
        .AddHex64("digest", digest);
  }
  table.Print(std::cout);

  if (!json.WriteFile(out)) return 1;
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  const BenchScale scale = BenchScale::FromArgs(argc, argv);
  const char* out_arg = FlagValue(argc, argv, "--out");
  const char* trace_arg = FlagValue(argc, argv, "--trace");
  const char* explain_arg = FlagValue(argc, argv, "--explain");
  const bool sparse = HasFlag(argc, argv, "--sparse");
  // A/B hook for the SIMD win: --force-scalar routes every dispatched
  // kernel through the scalar reference (digests must not move).
  if (HasFlag(argc, argv, "--force-scalar")) {
    simd::ForceScalarForTesting(true);
  }
  constexpr const char* kBench = "core_build";
  const std::uint64_t seed = static_cast<std::uint64_t>(
      IntFlag(kBench, argc, argv, "--seed", 0, 1, LLONG_MAX));
  // 0: no --reps, so each point sizes its own repetition count.
  const int reps_flag =
      static_cast<int>(IntFlag(kBench, argc, argv, "--reps", 1, 0));
  const std::string out =
      out_arg != nullptr
          ? out_arg
          : (sparse ? "BENCH_core_sparse.json" : "BENCH_core.json");
  const std::vector<Timestamp> durations =
      IntListFlag(kBench, argc, argv, "--ticks", "100,1000,10000");

  if (sparse) return RunSparse(scale, durations, reps_flag, seed, out);

  PrintHeader("core_build",
              "Single-tag ct-graph construction: median build time and "
              "forward-phase throughput vs trajectory duration (SYN1, "
              "DU+LT+TT)",
              scale);

  DatasetOptions options = DatasetOptions::Syn1();
  options.durations_ticks = durations;
  options.trajectories_per_duration = 1;
  options.seed = seed;
  std::unique_ptr<Dataset> dataset = Dataset::Build(options);
  ConstraintSet constraints =
      dataset->MakeConstraints(ConstraintFamilies::DuLtTt());
  CtGraphBuilder builder(constraints);

  if (trace_arg != nullptr) {
    if (!obs::TraceCompiledIn()) {
      std::fprintf(stderr,
                   "error: --trace requires a tracing-enabled build (this "
                   "binary was configured with -DRFIDCLEAN_TRACE=OFF)\n");
      return 1;
    }
    obs::StartTracing(obs::TraceOptions());
  }

  // Accumulated across points: re-arming per rep (below) keeps exactly one
  // summary per point alive, which this collection preserves for export.
  obs::ExplainCollection explain_report;
  if (explain_arg != nullptr) {
    if (!obs::ExplainCompiledIn()) {
      std::fprintf(stderr,
                   "error: --explain requires an explain-enabled build "
                   "(this binary was configured with "
                   "-DRFIDCLEAN_EXPLAIN=OFF)\n");
      return 1;
    }
  }

  BenchJson json("core_build", scale.Label());
  json.params()
      .Add("dataset", "SYN1")
      .Add("families", "DU+LT+TT")
      .Add("seed", static_cast<long long>(seed))
      .Add("traced", trace_arg != nullptr ? 1 : 0)
      .Add("explained", explain_arg != nullptr ? 1 : 0)
      .Add("simd_active", simd::VectorKernelsActive() ? 1 : 0);

  Table table({"ticks", "reps", "median ms", "fwd ms", "bwd ms",
               "ns/timestamp", "nodes+edges/s", "peak nodes", "peak edges",
               "final nodes", "peak RSS", "digest"});
  for (const Dataset::Item& item : dataset->items()) {
    const Timestamp ticks = item.duration;
    // Repetitions: aim for a fixed time budget per point so short builds
    // average away scheduling noise; --reps overrides, --paper triples.
    int reps = reps_flag > 0
                   ? reps_flag
                   : std::max(3, static_cast<int>(30000 / std::max<Timestamp>(
                                                              ticks, 1)));
    if (scale.paper) reps *= 3;

    BuildStats stats;
    std::vector<double> millis;
    std::vector<double> forward_millis;
    std::vector<double> backward_millis;
    std::uint64_t digest = 0;
    std::size_t graph_bytes = 0;
    for (int r = 0; r < reps; ++r) {
      // Scope the obs counters to the final rep so the emitted stats_*
      // fields describe exactly one build (and stay rep-count-invariant).
      if (r == reps - 1) obs::CleaningStats::Reset();
      if (explain_arg != nullptr) {
        // Re-arm per rep (outside the stopwatch): every timed build runs
        // fully armed, and each re-arm clears the previous rep's summary so
        // the session ends holding exactly one summary for this point.
        obs::StartExplain(obs::ExplainOptions());
        obs::SetExplainTag(static_cast<long long>(ticks));
      }
      BuildStats run_stats;
      Stopwatch watch;
      Result<CtGraph> graph = builder.Build(item.lsequence, &run_stats);
      const double elapsed = watch.ElapsedMillis();
      RFID_CHECK(graph.ok());
      millis.push_back(elapsed);
      forward_millis.push_back(run_stats.forward_millis);
      backward_millis.push_back(run_stats.backward_millis);
      stats = run_stats;
      if (r == 0) {
        // Hashed as it is written: at T = 10 000 the text is about 600 MB,
        // which held in memory would set the reported peak RSS.
        FnvSink sink;
        std::ostream os(&sink);
        WriteCtGraph(graph.value(), os);
        digest = sink.Digest();
        graph_bytes = graph.value().ApproximateBytes();
      }
    }
    if (explain_arg != nullptr) {
      const obs::ExplainCollection point = obs::CollectExplain();
      explain_report.tags.insert(explain_report.tags.end(),
                                 point.tags.begin(), point.tags.end());
    }
    // Snapshot of the final rep's observability counters (obs/metrics.h);
    // all zero when built with -DRFIDCLEAN_STATS=OFF. These double as a
    // semantic cross-check: the invariants relate them to each other and to
    // the digest-checked graph, so a miscounting instrumentation point
    // fails the bench rather than silently skewing dashboards.
    const obs::CleaningStats stats_snapshot = obs::CleaningStats::Capture();
    for (const std::string& violation : stats_snapshot.CheckInvariants()) {
      std::fprintf(stderr, "stats invariant violated: %s\n",
                   violation.c_str());
      return 1;
    }
    const double median = Median(millis);
    const double forward_median = Median(forward_millis);
    const double backward_median = Median(backward_millis);
    // Fastest rep: the overhead gate compares this between two bench
    // processes, and on shared machines the minimum rejects co-tenant
    // stalls far better than the median of a handful of reps.
    const double best = *std::min_element(millis.begin(), millis.end());
    const double ns_per_timestamp = median * 1e6 / static_cast<double>(ticks);
    const double ns_per_timestamp_min =
        best * 1e6 / static_cast<double>(ticks);
    const double nodes_edges_per_sec =
        median > 0 ? 1000.0 *
                         static_cast<double>(stats.peak_nodes +
                                             stats.peak_edges) /
                         median
                   : 0.0;
    const std::size_t rss = PeakRssBytes();

    table.AddRow({StrFormat("%d", ticks), StrFormat("%d", reps),
                  StrFormat("%.2f", median),
                  StrFormat("%.2f", forward_median),
                  StrFormat("%.2f", backward_median),
                  StrFormat("%.0f", ns_per_timestamp),
                  StrFormat("%.0f", nodes_edges_per_sec),
                  StrFormat("%zu", stats.peak_nodes),
                  StrFormat("%zu", stats.peak_edges),
                  StrFormat("%zu", stats.final_nodes), HumanBytes(rss),
                  StrFormat("%016llx",
                            static_cast<unsigned long long>(digest))});
    json.AddResult()
        .Add("ticks", static_cast<long long>(ticks))
        .Add("reps", reps)
        .Add("millis", median)
        .Add("millis_min", best)
        .Add("forward_millis", forward_median)
        .Add("backward_millis", backward_median)
        .Add("ns_per_timestamp", ns_per_timestamp)
        .Add("ns_per_timestamp_min", ns_per_timestamp_min)
        .Add("nodes_edges_per_sec", nodes_edges_per_sec, 1)
        .Add("peak_nodes", stats.peak_nodes)
        .Add("peak_edges", stats.peak_edges)
        .Add("final_nodes", stats.final_nodes)
        .Add("final_edges", stats.final_edges)
        .Add("peak_rss_bytes", rss)
        .Add("graph_bytes", graph_bytes)
        .Add("work_bytes", stats.work_bytes)
        .Add("stats_forward_nodes",
             static_cast<long long>(
                 stats_snapshot.Get(obs::Counter::kForwardNodes)))
        .Add("stats_forward_edges",
             static_cast<long long>(
                 stats_snapshot.Get(obs::Counter::kForwardEdges)))
        .Add("stats_memo_hits",
             static_cast<long long>(
                 stats_snapshot.Get(obs::Counter::kForwardMemoHits)))
        .Add("stats_key_probe_steps",
             static_cast<long long>(
                 stats_snapshot.Get(obs::Counter::kKeyProbeSteps)))
        .Add("stats_edges_killed",
             static_cast<long long>(
                 stats_snapshot.Get(obs::Counter::kBackwardEdgesKilled)))
        .AddHex64("digest", digest);
  }
  table.Print(std::cout);

  if (trace_arg != nullptr) {
    const obs::TraceCollection collection = obs::CollectTrace();
    std::ofstream os(trace_arg);
    if (!os) {
      std::fprintf(stderr, "error: cannot write trace file %s\n", trace_arg);
      return 1;
    }
    WriteChromeTrace(collection, os);
    os << '\n';
    obs::StopTracing();
    std::printf("wrote %s (%zu trace events)\n", trace_arg,
                collection.NumEvents());
  }

  if (explain_arg != nullptr) {
    obs::StopExplain();
    std::ofstream os(explain_arg);
    if (!os) {
      std::fprintf(stderr, "error: cannot write explain file %s\n",
                   explain_arg);
      return 1;
    }
    WriteExplainReport(explain_report, os);
    os << '\n';
    std::printf("wrote %s (%zu tag summaries)\n", explain_arg,
                explain_report.tags.size());
  }

  if (!json.WriteFile(out)) return 1;
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace rfidclean::bench

int main(int argc, char** argv) {
  return rfidclean::bench::Main(argc, argv);
}
