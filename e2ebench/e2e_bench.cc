// e2e_bench — end-to-end benchmark of the path rfidclean_cli users run:
// readings CSV → a-priori interpretation → Algorithm 1 (forward successor
// generation, backward conditioning) → binary ct-store → stay and
// most-likely queries against the store.
//
//   e2e_bench generate --workload W --seed S --out DIR [--scale full|tiny]
//       Writes DIR/building.map and DIR/readings.csv in the formats
//       `rfidclean_cli generate` writes (single- or multi-tag), keeping the
//       drawn objects of the workload's size class.
//
//   e2e_bench run --workload W --seed S --dir DIR --seconds N --trace 0|1
//                 [--scale full|tiny] [--expect-digest HEX]
//       Measures the workload on the files in DIR for about N seconds and
//       prints one JSON object as the last line of stdout. --trace 0 prints
//       the end-to-end metrics; --trace 1 wraps every public call the
//       benchmark makes in a span (span_recorder.h) and prints the
//       per-layer split instead, writing DIR/trace_<W>.json. Outputs are
//       verified after the timed sections (graph digests across engines and
//       job counts, store views against owning graphs, --expect-digest);
//       any mismatch exits 1.
//
// Workloads (README.md has the reasoning):
//   fleet_ingest  128 tags x 120 ticks, 2 floors; CleanAll at 4 jobs
//   long_tag      1 tag x 2000 ticks, 4 floors; CtGraphBuilder::Build
//   query_mix     the fleet store, written during set-up; Zipf-skewed
//                 closed-loop stay / most-likely queries

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/feasibility.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "constraints/inference.h"
#include "core/builder.h"
#include "core/streaming.h"
#include "gen/reading_generator.h"
#include "gen/trajectory_generator.h"
#include "io/building_io.h"
#include "io/readings_io.h"
#include "map/building_grid.h"
#include "map/standard_buildings.h"
#include "map/walking_distance.h"
#include "model/apriori.h"
#include "query/most_likely.h"
#include "query/stay_query.h"
#include "rfid/calibration.h"
#include "rfid/reader_placement.h"
#include "runtime/batch_cleaner.h"
#include "span_recorder.h"
#include "store/ct_store.h"
#include "store/ctgraph_view.h"
#include "store/graph_codec.h"

namespace rfidclean::e2ebench {
namespace {

// ---------------------------------------------------------------- workloads

/// kStepwise is the per-tag engine BatchCleaner uses, driven one public
/// call at a time (CleanStepwise); a traced single-tag run times it.
enum class Engine { kBatch, kBuilder, kStepwise };

struct WorkloadSpec {
  const char* name;
  int floors;
  int tags;  ///< 0 = one object in the single-tag CSV format
  Timestamp ticks;
  Engine engine;
  int jobs;
  /// Queries an ingest workload issues against its store after each timed
  /// pipeline repetition, so that every end-to-end metric has a value and
  /// the sample spans the run. 0 marks the read-side workload: its
  /// pipeline only writes the store during set-up, and its query client
  /// runs for --seconds.
  std::size_t queries_per_rep;
  int stay_per_ml;  ///< stay queries issued per most-likely query
  double zipf_s;    ///< tag popularity skew; 0 = uniform
};

constexpr int kSetupReps = 25;
constexpr int kMinPipelineReps = 3;
constexpr int kMaxPipelineReps = 40;
constexpr int kStoreWriteReps = 3;  // query_mix set-up pipelines
constexpr std::size_t kMinQueries = 40;
constexpr double kCpuTurnMs = 250.0;  // query time per CPU (see CpuRotation)
// Input size classes (see Generate): the edges per tick (forward plus
// final) the kept objects come closest to, and how many objects are drawn
// at most. Drawing stops early once enough lie within the tolerance.
constexpr double kFleetEdgesPerTick = 650.0 + 580.0;
constexpr std::size_t kFleetPoolFactor = 3;  // draws per fleet tag
constexpr std::size_t kFleetSizingChunk = 32;
constexpr double kLongTagEdgesPerTick = 1200.0 + 1070.0;
constexpr std::size_t kLongTagMaxDraws = 48;
constexpr double kSizeTolerance = 0.02;

std::optional<WorkloadSpec> FindWorkload(const std::string& name,
                                         bool tiny) {
  // The query mix of query_mix (3 stay queries per most-likely one, Zipf
  // s = 1.1 over tags) is an assumption, not a measured trace.
  const WorkloadSpec full[] = {
      {"fleet_ingest", 2, 128, 120, Engine::kBatch, 4, 100, 1, 0.0},
      {"long_tag", 4, 0, 2000, Engine::kBuilder, 1, 10, 1, 0.0},
      {"query_mix", 2, 128, 120, Engine::kBatch, 4, 0, 3, 1.1},
  };
  for (WorkloadSpec spec : full) {
    if (name != spec.name) continue;
    if (tiny) {
      spec.tags = spec.tags > 0 ? 8 : 0;
      spec.ticks = spec.tags > 0 ? 40 : 200;
    }
    return spec;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------- helpers

/// "--key value" / "--key=value" arguments after the subcommand.
std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) continue;
    const char* equals = std::strchr(arg + 2, '=');
    if (equals != nullptr) {
      args[std::string(arg + 2, equals)] = equals + 1;
    } else if (i + 1 < argc) {
      args[arg + 2] = argv[++i];
    } else {
      args[arg + 2] = "1";
    }
  }
  return args;
}

std::optional<std::uint64_t> ParseU64(const std::string& text, int base) {
  std::uint64_t value = 0;
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, base);
  if (ec != std::errc() || ptr != text.data() + text.size() || text.empty()) {
    return std::nullopt;
  }
  return value;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The "high" percentile of a latency sample: p99 when at least ten
/// samples lie beyond it, otherwise the highest percentile that still has
/// ten samples beyond it — but never below the (upper) median, which is
/// what a sample of under ~22 yields.
///
/// A tail that high rests on a few samples, and one burst of contention
/// from other tenants of a shared host (seconds long) can supply all of
/// them. So a large sample is cut, in issue order, into up to kTailWindows
/// equal windows of at least kTailWindowSamples each; the value is the
/// median of the windows' high percentiles, a tail that recurs over the
/// run.
constexpr std::size_t kTailWindows = 4;
constexpr std::size_t kTailWindowSamples = 250;

struct HighPercentile {
  double value = 0.0;
  double percentile = 0.0;  ///< within one window
  std::size_t samples = 0;
  std::size_t windows = 1;
};

HighPercentile High(const std::vector<double>& values) {
  HighPercentile high;
  const std::size_t n = values.size();
  high.samples = n;
  if (n == 0) return high;
  high.windows =
      std::clamp<std::size_t>(n / kTailWindowSamples, 1, kTailWindows);
  std::vector<double> highs;
  for (std::size_t w = 0; w < high.windows; ++w) {
    std::vector<double> window(values.begin() + w * n / high.windows,
                               values.begin() + (w + 1) * n / high.windows);
    std::sort(window.begin(), window.end());
    const std::size_t m = window.size();
    const std::size_t p99 = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(m))) - 1;
    // Index of the reported sample.
    const std::size_t rank =
        std::max(m >= 11 ? std::min(p99, m - 11) : 0, m / 2);
    highs.push_back(window[rank]);
    high.percentile = 100.0 * static_cast<double>(rank + 1) /
                      static_cast<double>(m);
  }
  high.value = Median(highs);
  return high;
}

double PeakRssMib() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr,
                                               10)) /
             1024.0;
    }
  }
  return 0.0;
}

constexpr double kMib = 1024.0 * 1024.0;

/// Rotates the calling thread over the CPUs the process may use. On a
/// shared host one CPU can run single-threaded work markedly slower than
/// another for minutes (a busy sibling hyperthread, say), and a run the
/// scheduler leaves there reads slow throughout. Pinning each repetition
/// of single-threaded timed work to the next CPU makes its median pool
/// every CPU instead.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
    }
  }
  /// Pins the calling thread to the next CPU and returns it (-1: none).
  int Next() {
    if (cpus_.empty()) return -1;
    const int cpu = cpus_[next_++ % cpus_.size()];
    Pin(cpu);
    return cpu;
  }
  /// Pins the calling thread to `cpu` (a value Next returned).
  void Pin(int cpu) {
    if (cpu < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  /// Lets the calling thread, and the workers it starts, run anywhere.
  void Release() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(all_), &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// ---------------------------------------------------------------- system

/// The deterministic deployment + calibration `rfidclean_cli` derives from
/// the building and --seed (generate and clean share it).
struct Deployment {
  BuildingGrid grid;
  std::vector<Reader> readers;
  CoverageMatrix truth;
  CoverageMatrix calibrated;
};

Deployment MakeDeployment(const Building& building, std::uint64_t seed) {
  BuildingGrid grid = BuildingGrid::Build(building, 0.5);
  std::vector<Reader> readers = PlaceStandardReaders(building);
  DetectionModel model;
  CoverageMatrix truth = CoverageMatrix::FromModel(readers, grid, model);
  Rng rng(seed, /*stream=*/0xCA11B);
  CoverageMatrix calibrated = Calibrator::Calibrate(truth, 30, rng);
  return Deployment{std::move(grid), std::move(readers), std::move(truth),
                    std::move(calibrated)};
}

/// Worker-side timestamps of BatchOptions::before_tag.
class TagClock {
 public:
  /// Drops the stamps of the previous CleanAll.
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    stamps_.clear();
    watch_.Reset();
  }
  void Stamp() {
    const double now = watch_.ElapsedMillis();
    std::lock_guard<std::mutex> lock(mu_);
    stamps_.push_back({std::this_thread::get_id(), now});
  }
  /// Per-tag durations: each stamp to the same worker's next stamp, the
  /// last one of a worker to `end_ms`.
  std::vector<double> Durations(double end_ms) {
    std::lock_guard<std::mutex> lock(mu_);
    std::sort(stamps_.begin(), stamps_.end(),
              [](const Entry& a, const Entry& b) {
                return a.worker != b.worker ? a.worker < b.worker
                                            : a.at_ms < b.at_ms;
              });
    std::vector<double> durations;
    for (std::size_t i = 0; i < stamps_.size(); ++i) {
      const bool last = i + 1 == stamps_.size() ||
                        stamps_[i + 1].worker != stamps_[i].worker;
      durations.push_back((last ? end_ms : stamps_[i + 1].at_ms) -
                          stamps_[i].at_ms);
    }
    return durations;
  }
  double NowMs() const { return watch_.ElapsedMillis(); }

 private:
  struct Entry {
    std::thread::id worker;
    double at_ms;
  };
  Stopwatch watch_;
  std::mutex mu_;
  std::vector<Entry> stamps_;
};

/// Everything `clean` builds before it reads a single reading. Pinned in
/// place: the cleaners keep pointers to the constraint set and the clock.
struct System {
  explicit System(Building loaded) : building(std::move(loaded)) {}
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  Building building;
  std::optional<Deployment> deployment;
  std::optional<ConstraintSet> constraints;
  std::optional<BatchCleaner> batch;      // Engine::kBatch
  std::optional<CtGraphBuilder> builder;  // Engine::kBuilder, kStepwise
  /// Fed by `batch` through BatchOptions::before_tag in a traced run.
  std::optional<TagClock> tag_clock;
};

/// `traced`: the batch cleaner stamps each tag's start into tag_clock.
/// Every pipeline repetition of a traced run uses that cleaner, so its
/// traced and untraced repetitions differ only in the spans.
Result<std::unique_ptr<System>> SetUp(const std::string& dir,
                                      std::uint64_t seed,
                                      const WorkloadSpec& spec, bool traced) {
  std::ifstream is(dir + "/building.map");
  if (!is) return NotFoundError("cannot open " + dir + "/building.map");
  Result<Building> building = ReadBuilding(is);
  if (!building.ok()) return building.status();
  auto system = std::make_unique<System>(std::move(building).value());
  system->deployment.emplace(MakeDeployment(system->building, seed));
  const WalkingDistances walking =
      WalkingDistances::Compute(system->building, system->deployment->grid);
  InferenceOptions inference;
  inference.families = ConstraintFamilies::DuLtTt();
  system->constraints.emplace(
      InferConstraints(system->building, walking, inference));
  if (spec.engine == Engine::kBatch) {
    BatchOptions options;
    options.jobs = spec.jobs;
    if (traced) {
      TagClock* clock = &system->tag_clock.emplace();
      options.before_tag = [clock](std::size_t) { clock->Stamp(); };
    }
    system->batch.emplace(*system->constraints, options);
  } else {
    CleanOptions options;
    options.forward_threads = 1;
    system->builder.emplace(*system->constraints, options);
  }
  return system;
}

// ---------------------------------------------------------------- pipeline

/// One tag's cleaning result as the checks need it.
struct TagResult {
  TagId tag = 0;
  bool ok = false;
  std::uint64_t digest = 0;
};

/// Per-layer observations of one traced pipeline repetition.
struct PipelineLayers {
  double parse_ms = 0, interpret_ms = 0, preflight_ms = 0, forward_ms = 0,
         finish_ms = 0, clean_all_ms = 0, encode_ms = 0, put_ms = 0;
  std::size_t rows = 0, candidates = 0, pruned = 0, peak_nodes = 0,
              peak_edges = 0, final_nodes = 0, blob_bytes = 0;
  std::vector<double> tag_ms;  // per-tag wall, from before_tag stamps
};

struct PipelineRun {
  double wall_ms = 0.0;
  std::size_t store_bytes = 0;
  std::vector<TagResult> tags;
  PipelineLayers layers;
};

/// Times a span-wrapped call: returns the call's wall time in ms.
template <typename Fn>
double Timed(SpanRecorder* trace, const char* name, const char* layer,
             int run, Fn&& fn) {
  const Stopwatch watch;
  {
    ScopedSpan span(trace, name, layer, run);
    fn();
  }
  return watch.ElapsedMillis();
}

/// io: DIR/readings.csv in the workload's format (one tag gets id 0).
Result<std::vector<TagReadings>> ParseReadings(const std::string& dir,
                                               const WorkloadSpec& spec) {
  std::ifstream is(dir + "/readings.csv");
  if (!is) return NotFoundError("cannot open " + dir + "/readings.csv");
  if (spec.tags > 0) return ReadMultiTagReadingsCsv(is);
  Result<RSequence> sequence = ReadReadingsCsv(is);
  if (!sequence.ok()) return sequence.status();
  std::vector<TagReadings> readings;
  readings.push_back(TagReadings{0, std::move(sequence).value()});
  return readings;
}

/// model: a-priori interpretation, sequential as in the CLI.
std::vector<TagWorkload> Interpret(const System& system,
                                   const std::vector<TagReadings>& readings) {
  const AprioriModel apriori(system.building, system.deployment->grid,
                             system.deployment->calibrated);
  std::vector<TagWorkload> workloads;
  workloads.reserve(readings.size());
  for (const TagReadings& tag : readings) {
    workloads.push_back(
        TagWorkload{tag.tag, LSequence::FromReadings(tag.readings, apriori)});
  }
  return workloads;
}

/// The per-tag engine BatchCleaner uses, one public call at a time:
/// Analyze → SetPreflightPlan → Push × T → Finish, each timed into
/// `layers` (and a span when `trace` is set). The checks prove it
/// reproduces Build's graph digest.
TagOutcome CleanStepwise(const CtGraphBuilder& builder,
                         const TagWorkload& workload, SpanRecorder* trace,
                         int run, PipelineLayers* layers) {
  TagOutcome outcome{workload.tag, InternalError("not cleaned"), {}};
  PreflightPlan plan;
  layers->preflight_ms =
      Timed(trace, "FeasibilityOracle::Analyze", "analysis", run,
            [&] { plan = builder.oracle()->Analyze(workload.sequence); });
  outcome.stats.preflight_candidates_pruned = plan.candidates_pruned;
  if (plan.doomed()) {
    outcome.graph = FailedPreconditionError("statically doomed");
    return outcome;
  }
  StreamingCleaner cleaner(builder.successors());
  Status pushed = Status::Ok();
  layers->forward_ms =
      Timed(trace, "StreamingCleaner::Push", "core", run, [&] {
        cleaner.SetPreflightPlan(&plan);
        for (Timestamp t = 0; t < workload.sequence.length() && pushed.ok();
             ++t) {
          pushed = cleaner.Push(workload.sequence.CandidatesAt(t));
        }
      });
  if (!pushed.ok()) {
    outcome.graph = pushed;
    return outcome;
  }
  layers->finish_ms =
      Timed(trace, "StreamingCleaner::Finish", "core", run, [&] {
        outcome.graph = std::move(cleaner).Finish(&outcome.stats);
      });
  return outcome;
}

/// The CLI's `clean --store` path, from opening readings.csv to
/// CtStoreWriter::Finish returning, cleaning with `engine`. `trace` null =
/// untraced.
Result<PipelineRun> RunPipeline(const std::string& dir,
                                const std::string& store_path,
                                const WorkloadSpec& spec, Engine engine,
                                System& system, SpanRecorder* trace, int run) {
  PipelineRun out;
  PipelineLayers& layers = out.layers;
  const Stopwatch wall;
  // Closed by hand once Finish returns: the digests computed after it are
  // check work, not pipeline work. An error return abandons the whole run.
  const int root = trace != nullptr ? trace->Begin("pipeline", "bench", run)
                                    : -1;

  Result<std::vector<TagReadings>> readings = InternalError("not parsed");
  layers.parse_ms = Timed(trace, "parse_readings_csv", "io", run,
                          [&] { readings = ParseReadings(dir, spec); });
  RFID_RETURN_IF_ERROR(readings.status());
  std::vector<TagWorkload> workloads;
  layers.interpret_ms = Timed(trace, "interpret", "model", run, [&] {
    workloads = Interpret(system, readings.value());
  });
  for (const TagWorkload& workload : workloads) {
    layers.rows += static_cast<std::size_t>(workload.sequence.length());
    for (Timestamp t = 0; t < workload.sequence.length(); ++t) {
      layers.candidates += workload.sequence.CandidatesAt(t).size();
    }
  }

  // runtime / analysis / core: cleaning.
  std::vector<TagOutcome> outcomes;
  if (engine == Engine::kBatch) {
    if (system.tag_clock.has_value()) system.tag_clock->Reset();
    layers.clean_all_ms =
        Timed(trace, "BatchCleaner::CleanAll", "runtime", run,
              [&] { outcomes = system.batch->CleanAll(workloads); });
    if (system.tag_clock.has_value()) {
      layers.tag_ms = system.tag_clock->Durations(system.tag_clock->NowMs());
    }
    for (const TagOutcome& outcome : outcomes) {
      layers.preflight_ms += outcome.stats.preflight_millis;
      layers.forward_ms += outcome.stats.forward_millis;
      layers.finish_ms += outcome.stats.backward_millis;
      layers.pruned += outcome.stats.preflight_candidates_pruned;
      layers.peak_nodes += outcome.stats.peak_nodes;
      layers.peak_edges += outcome.stats.peak_edges;
      layers.final_nodes += outcome.stats.final_nodes;
    }
  } else {
    const TagWorkload& workload = workloads.front();
    TagOutcome outcome{workload.tag, InternalError("not cleaned"), {}};
    if (engine == Engine::kStepwise) {
      outcome = CleanStepwise(*system.builder, workload, trace, run, &layers);
    } else {
      outcome.graph = system.builder->Build(workload.sequence, &outcome.stats);
      layers.preflight_ms = outcome.stats.preflight_millis;
      layers.forward_ms = outcome.stats.forward_millis;
      layers.finish_ms = outcome.stats.backward_millis;
    }
    layers.pruned = outcome.stats.preflight_candidates_pruned;
    layers.peak_nodes = outcome.stats.peak_nodes;
    layers.peak_edges = outcome.stats.peak_edges;
    layers.final_nodes = outcome.stats.final_nodes;
    outcomes.push_back(std::move(outcome));
  }

  // store: encode + append + finish.
  Status stored = Status::Ok();
  std::optional<store::CtStoreWriter> writer;
  layers.put_ms += Timed(trace, "CtStoreWriter::Create", "store", run, [&] {
    Result<store::CtStoreWriter> created =
        store::CtStoreWriter::Create(store_path, /*truncate=*/true);
    if (created.ok()) {
      writer.emplace(std::move(created).value());
    } else {
      stored = created.status();
    }
  });
  RFID_RETURN_IF_ERROR(stored);
  const std::uint64_t constraint_digest = system.constraints->Digest();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const TagOutcome& outcome = outcomes[i];
    if (outcome.graph.ok()) {
      std::string blob;
      layers.encode_ms +=
          Timed(trace, "EncodeCtGraphBlob", "store", run, [&] {
            store::GraphProvenance provenance;
            provenance.input_digest = workloads[i].sequence.Digest();
            provenance.constraint_digest = constraint_digest;
            blob = store::EncodeCtGraphBlob(outcome.graph.value(),
                                            outcome.tag, provenance);
          });
      layers.blob_bytes += blob.size();
      layers.put_ms += Timed(trace, "CtStoreWriter::Put", "store", run,
                             [&] { stored = writer->Put(outcome.tag, blob); });
      RFID_RETURN_IF_ERROR(stored);
    }
  }
  layers.put_ms += Timed(trace, "CtStoreWriter::Finish", "store", run,
                         [&] { stored = writer->Finish(); });
  RFID_RETURN_IF_ERROR(stored);
  out.wall_ms = wall.ElapsedMillis();
  if (trace != nullptr) trace->End(root);

  for (const TagOutcome& outcome : outcomes) {
    const bool ok = outcome.graph.ok();
    out.tags.push_back(
        TagResult{outcome.tag, ok, ok ? outcome.graph.value().Digest() : 0});
  }

  std::error_code error;
  out.store_bytes = static_cast<std::size_t>(
      std::filesystem::file_size(store_path, error));
  if (error) return InternalError("cannot stat " + store_path);
  return out;
}

// ---------------------------------------------------------------- queries

struct QueryRun {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> open_ms;
  std::vector<double> stay_ms, ml_ms;            // end to end per query
  std::vector<double> load_view_ms, marginals_ms;  // traced layers
  std::vector<double> stay_eval_us, ml_eval_ms;
};

/// Tag popularity: weight 1/(i+1)^s for the i-th live tag (s = 0 is
/// uniform). The generator numbers tags from the one closest to the size
/// class, so on every seed the popular tags are typical ones.
std::vector<double> TagWeights(std::size_t num_tags, double s) {
  std::vector<double> weights(num_tags);
  for (std::size_t i = 0; i < num_tags; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
  }
  return weights;
}

/// A closed-loop client: each query maps the tag's blob (LoadView) and
/// evaluates it, like `rfidclean_cli stay --store`; the next query is
/// issued when the previous one returns. Issues queries for `seconds`, and
/// `min_queries` more at least, moving to the next CPU every kCpuTurnMs.
/// Query kinds follow a fixed cycle of spec.stay_per_ml stay queries and
/// one most-likely query; `rng` draws tags and stay ticks, and carries
/// them from one call to the next.
Status RunQueries(const std::string& store_path,
                  const std::vector<TagResult>& tags, const WorkloadSpec& spec,
                  double seconds, std::size_t min_queries, Rng& rng,
                  CpuRotation& cpus, SpanRecorder* trace, QueryRun* out) {
  std::vector<TagId> live;
  for (const TagResult& tag : tags) {
    if (tag.ok) live.push_back(tag.tag);
  }
  if (live.empty()) return FailedPreconditionError("no tag to query");

  std::optional<store::CtStoreReader> reader;
  Status opened = Status::Ok();
  const double open_ms = Timed(
      trace, "CtStoreReader::Open", "store",
      static_cast<int>(out->attempted), [&] {
        Result<store::CtStoreReader> result =
            store::CtStoreReader::Open(store_path);
        if (result.ok()) {
          reader.emplace(std::move(result).value());
        } else {
          opened = result.status();
        }
      });
  RFID_RETURN_IF_ERROR(opened);
  out->open_ms.push_back(open_ms);
  // Faults the whole mapping in before the timed queries. A first touch of
  // a blob's pages costs more than the query itself and varies with the
  // host; left in, it would land on whichever queries reach a tag first.
  // A failing tag is counted by the timed queries and the checks.
  for (const TagId tag : live) {
    static_cast<void>(reader->LoadView(tag, store::MapVerify::kFull));
  }

  const std::vector<double> weights = TagWeights(live.size(), spec.zipf_s);
  const std::size_t until = out->attempted + min_queries;
  const Stopwatch loop;
  double turn_ends_ms = 0.0;
  while (out->attempted < until || loop.ElapsedMillis() < 1000.0 * seconds) {
    if (loop.ElapsedMillis() >= turn_ends_ms) {
      cpus.Next();
      turn_ends_ms = loop.ElapsedMillis() + kCpuTurnMs;
    }
    const TagId tag = live[rng.WeightedIndex(weights)];
    const double draw = rng.UniformDouble();
    const int i = static_cast<int>(out->attempted++);
    const bool stay = i % (spec.stay_per_ml + 1) != spec.stay_per_ml;

    const Stopwatch watch;
    ScopedSpan root(trace, stay ? "stay_query" : "most_likely_query", "bench",
                    i);
    std::optional<store::CtGraphView> view;
    const double load_ms =
        Timed(trace, "CtStoreReader::LoadView", "store", i, [&] {
          Result<store::CtGraphView> loaded = reader->LoadView(tag);
          if (loaded.ok()) view.emplace(std::move(loaded).value());
        });
    if (!view.has_value()) {
      ++out->failed;
      continue;
    }
    out->load_view_ms.push_back(load_ms);
    if (stay) {
      const Timestamp t = std::min<Timestamp>(
          view->length() - 1,
          static_cast<Timestamp>(draw * static_cast<double>(view->length())));
      std::optional<StayQueryEvaluatorT<store::CtGraphView>> evaluator;
      out->marginals_ms.push_back(
          Timed(trace, "StayQueryEvaluatorT", "query", i,
                [&] { evaluator.emplace(*view); }));
      std::vector<std::pair<LocationId, double>> answer;
      out->stay_eval_us.push_back(
          1000.0 * Timed(trace, "StayQueryEvaluatorT::Evaluate", "query", i,
                         [&] { answer = evaluator->Evaluate(t); }));
      out->stay_ms.push_back(watch.ElapsedMillis());
    } else {
      std::pair<Trajectory, double> best;
      out->ml_eval_ms.push_back(
          Timed(trace, "MostLikelyTrajectoryOf", "query", i,
                [&] { best = MostLikelyTrajectoryOf(*view); }));
      out->ml_ms.push_back(watch.ElapsedMillis());
    }
  }
  cpus.Release();
  return Status::Ok();
}

// ---------------------------------------------------------------- checks

std::uint64_t CombinedDigest(const std::vector<TagResult>& tags) {
  Fnv64 fnv;
  for (const TagResult& tag : tags) {
    fnv.MixI64(tag.tag);
    fnv.MixU64(tag.ok ? 1 : 0);
    fnv.MixU64(tag.digest);
  }
  return fnv.Digest();
}

bool SameAnswer(const std::vector<std::pair<LocationId, double>>& a,
                const std::vector<std::pair<LocationId, double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first ||
        std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Collects check failures; each one is printed as it is found.
class Checks {
 public:
  void Fail(const std::string& what) {
    std::printf("CHECK FAILED: %s\n", what.c_str());
    ++failures_;
  }
  void Expect(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  bool ok() const { return failures_ == 0; }

 private:
  int failures_ = 0;
};

/// Re-cleans the inputs for the checks, with another engine than the
/// pipeline used: Build vs Analyze+Push+Finish on a single tag, CleanAll at
/// 1 job vs 4 jobs on a batch. Returns the owning graphs for the view
/// comparison and the wall time of the re-clean.
struct Reference {
  std::vector<TagOutcome> outcomes;
  double clean_ms = 0.0;
};

/// Cleans with `engine`; a batch runs at `jobs` jobs.
Result<Reference> CleanReference(const std::string& dir,
                                 const WorkloadSpec& spec,
                                 const System& system, Engine engine,
                                 int jobs) {
  Result<std::vector<TagReadings>> readings = ParseReadings(dir, spec);
  RFID_RETURN_IF_ERROR(readings.status());
  Reference ref;
  const std::vector<TagWorkload> workloads =
      Interpret(system, readings.value());
  const Stopwatch watch;
  if (engine == Engine::kBatch) {
    BatchOptions options;
    options.jobs = jobs;
    const BatchCleaner cleaner(*system.constraints, options);
    ref.outcomes = cleaner.CleanAll(workloads);
  } else if (engine == Engine::kBuilder) {
    ref.outcomes.push_back(
        TagOutcome{workloads.front().tag,
                   system.builder->Build(workloads.front().sequence), {}});
  } else {
    PipelineLayers unused;
    ref.outcomes.push_back(CleanStepwise(
        *system.builder, workloads.front(), nullptr, 0, &unused));
  }
  ref.clean_ms = watch.ElapsedMillis();
  return ref;
}

void CompareDigests(const std::vector<TagResult>& measured,
                    const std::vector<TagOutcome>& reference,
                    const char* label, Checks* checks) {
  checks->Expect(measured.size() == reference.size(),
                 std::string(label) + ": tag count differs");
  for (std::size_t i = 0; i < measured.size() && i < reference.size(); ++i) {
    const TagOutcome& ref = reference[i];
    const bool ok = ref.graph.ok();
    const std::uint64_t digest = ok ? ref.graph.value().Digest() : 0;
    checks->Expect(ref.tag == measured[i].tag && ok == measured[i].ok &&
                       digest == measured[i].digest,
                   std::string(label) + ": graph digest differs for tag " +
                       std::to_string(measured[i].tag));
  }
}

/// Every blob's view must carry the measured graph's digest (full
/// verification), and on a seeded sample of tags and ticks the view must
/// answer stay and most-likely queries bit-identically to the owning
/// graph.
void CheckStore(const std::string& store_path,
                const std::vector<TagResult>& measured,
                const std::vector<TagOutcome>& reference, std::uint64_t seed,
                Checks* checks) {
  Result<store::CtStoreReader> reader = store::CtStoreReader::Open(store_path);
  if (!reader.ok()) {
    checks->Fail("store open: " + reader.status().ToString());
    return;
  }
  std::size_t live = 0;
  for (const TagResult& tag : measured) {
    if (!tag.ok) continue;
    ++live;
    Result<store::CtGraphView> view =
        reader.value().LoadView(tag.tag, store::MapVerify::kFull);
    if (!view.ok()) {
      checks->Fail("view of tag " + std::to_string(tag.tag) + ": " +
                   view.status().ToString());
      continue;
    }
    checks->Expect(view.value().Digest() == tag.digest,
                   "store digest differs for tag " + std::to_string(tag.tag));
  }
  checks->Expect(reader.value().entries().size() == live,
                 "store holds a different number of graphs than cleaned");

  Rng rng(seed, /*stream=*/0xC4EC);
  constexpr int kSampleTags = 6;
  constexpr int kSampleTicks = 8;
  for (int k = 0; k < kSampleTags && !reference.empty(); ++k) {
    const TagOutcome& ref = reference[rng.UniformIndex(reference.size())];
    if (!ref.graph.ok()) continue;
    Result<store::CtGraphView> view = reader.value().LoadView(ref.tag);
    if (!view.ok()) {
      checks->Fail("view of tag " + std::to_string(ref.tag));
      continue;
    }
    const CtGraph& graph = ref.graph.value();
    const StayQueryEvaluator owning(graph);
    const StayQueryEvaluatorT<store::CtGraphView> mapped(view.value());
    for (int j = 0; j < kSampleTicks; ++j) {
      const Timestamp t = static_cast<Timestamp>(
          rng.UniformIndex(static_cast<std::size_t>(graph.length())));
      checks->Expect(SameAnswer(owning.Evaluate(t), mapped.Evaluate(t)),
                     "stay answer differs (tag " + std::to_string(ref.tag) +
                         ", t=" + std::to_string(t) + ")");
    }
    const auto a = MostLikelyTrajectoryOf(graph);
    const auto b = MostLikelyTrajectoryOf(view.value());
    checks->Expect(a.first == b.first &&
                       std::memcmp(&a.second, &b.second, sizeof(double)) == 0,
                   "most-likely answer differs (tag " +
                       std::to_string(ref.tag) + ")");
  }
}

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics, const std::string& path) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buffer[160];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                  metrics[i].unit.c_str());
    json += buffer;
  }
  json += "}}";
  std::ofstream os(path);
  if (os) os << json << '\n';
  std::printf("%s\n", json.c_str());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------- commands

int Generate(const std::map<std::string, std::string>& args,
             const WorkloadSpec& spec, std::uint64_t seed) {
  const auto out = args.find("out");
  if (out == args.end()) {
    std::fprintf(stderr, "generate: missing --out DIR\n");
    return 2;
  }
  const std::string dir = out->second;
  const Building building = MakeOfficeBuilding(spec.floors);
  const Deployment deployment = MakeDeployment(building, seed);
  const TrajectoryGenerator trajectories(building);
  TrajectoryGenOptions motion;
  motion.duration_ticks = spec.ticks;
  const ReadingGenerator generator(deployment.grid, deployment.truth);
  {
    std::ofstream os(dir + "/building.map");
    WriteBuilding(building, os);
    if (!os) {
      std::fprintf(stderr, "cannot write %s/building.map\n", dir.c_str());
      return 2;
    }
  }

  // Cleaning cost varies several-fold from object to object, which would
  // swamp run-to-run differences across seeds (and, under the query mix's
  // skew, make the latency of a seed hinge on its few popular objects).
  // The seed therefore draws more objects than the workload holds and
  // keeps those closest to a fixed size class: the edges the forward phase
  // materializes plus the edges the cleaned graph keeps (the first drives
  // cleaning time and memory, the second encoding time and store size).
  // The forward count is taken with preflight off: it is then a property
  // of Algorithm 1's successor relation alone, so a faster engine picks
  // the same objects.
  Result<std::unique_ptr<System>> system =
      SetUp(dir, seed, spec, /*traced=*/false);
  if (!system.ok()) {
    std::fprintf(stderr, "%s\n", system.status().ToString().c_str());
    return 2;
  }
  const AprioriModel apriori(building, system.value()->deployment->grid,
                             system.value()->deployment->calibrated);
  BatchOptions sizing;
  sizing.jobs = spec.jobs;
  sizing.preflight = false;
  const BatchCleaner sizer(*system.value()->constraints, sizing);
  const bool fleet = spec.tags > 0;
  const std::size_t wanted = fleet ? static_cast<std::size_t>(spec.tags) : 1;
  const std::size_t drawn =
      fleet ? kFleetPoolFactor * wanted : kLongTagMaxDraws;
  // Objects sized per CleanAll call; their graphs are dropped before the
  // next call, which bounds memory (a long-tag graph takes ~400 MiB).
  const std::size_t chunk = fleet ? kFleetSizingChunk : 1;
  const double target =
      (fleet ? kFleetEdgesPerTick : kLongTagEdgesPerTick) * spec.ticks;
  struct Candidate {
    double edges;
    RSequence readings;
  };
  std::vector<Candidate> candidates;
  std::size_t within_tolerance = 0;
  for (std::size_t first = 0; first < drawn && within_tolerance < wanted;
       first += chunk) {
    std::vector<RSequence> readings;
    std::vector<TagWorkload> workloads;
    for (std::size_t k = first; k < std::min(drawn, first + chunk); ++k) {
      Rng rng(seed, /*stream=*/(fleet ? 1000 : 1) + k);
      const ContinuousTrajectory continuous =
          trajectories.Generate(motion, rng);
      readings.push_back(generator.Generate(continuous, rng));
      workloads.push_back(TagWorkload{
          static_cast<TagId>(k),
          LSequence::FromReadings(readings.back(), apriori)});
    }
    const std::vector<TagOutcome> outcomes = sizer.CleanAll(workloads);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (!outcomes[i].graph.ok()) continue;
      const BuildStats& stats = outcomes[i].stats;
      const double edges =
          static_cast<double>(stats.peak_edges + stats.final_edges);
      std::printf("object %zu: %.1f forward + %.1f final edges per tick\n",
                  first + i, static_cast<double>(stats.peak_edges) / spec.ticks,
                  static_cast<double>(stats.final_edges) / spec.ticks);
      if (std::fabs(edges - target) <= kSizeTolerance * target) {
        ++within_tolerance;
      }
      candidates.push_back(Candidate{edges, std::move(readings[i])});
    }
  }
  if (candidates.size() < wanted) {
    std::fprintf(stderr, "only %zu of %zu drawn objects cleaned\n",
                 candidates.size(), drawn);
    return 2;
  }
  // The closest `wanted` are kept. Tag ids count up from the closest one:
  // the query mix makes low ids popular (see TagWeights).
  std::stable_sort(candidates.begin(), candidates.end(),
                   [target](const Candidate& a, const Candidate& b) {
                     return std::fabs(a.edges - target) <
                            std::fabs(b.edges - target);
                   });
  const std::size_t cleaned = candidates.size();
  candidates.resize(wanted);
  double kept_edges = 0.0;
  for (const Candidate& candidate : candidates) kept_edges += candidate.edges;
  std::printf("kept %zu of %zu objects: %.1f edges per tick each on "
              "average (size class %.1f)\n",
              wanted, cleaned,
              kept_edges / static_cast<double>(wanted) / spec.ticks,
              target / spec.ticks);

  std::ofstream os(dir + "/readings.csv");
  if (fleet) {
    std::vector<TagReadings> tags;
    for (Candidate& candidate : candidates) {
      tags.push_back(TagReadings{static_cast<TagId>(tags.size()),
                                 std::move(candidate.readings)});
    }
    WriteMultiTagReadingsCsv(tags, os);
  } else {
    WriteReadingsCsv(candidates.front().readings, os);
  }
  if (!os) {
    std::fprintf(stderr, "cannot write %s/readings.csv\n", dir.c_str());
    return 2;
  }
  return 0;
}

int Run(const std::map<std::string, std::string>& args,
        const WorkloadSpec& spec, std::uint64_t seed) {
  auto get = [&](const char* key, const char* fallback) {
    const auto it = args.find(key);
    return it == args.end() ? std::string(fallback) : it->second;
  };
  const std::string dir = get("dir", "");
  const std::optional<std::uint64_t> seconds_arg =
      ParseU64(get("seconds", "10"), 10);
  const std::string trace_arg = get("trace", "0");
  if (dir.empty() || !seconds_arg.has_value() || *seconds_arg == 0 ||
      (trace_arg != "0" && trace_arg != "1")) {
    std::fprintf(stderr,
                 "run: need --dir DIR, --seconds N >= 1, --trace 0|1\n");
    return 2;
  }
  std::optional<std::uint64_t> expect_digest;
  if (args.count("expect-digest") > 0) {
    expect_digest = ParseU64(get("expect-digest", ""), 16);
    if (!expect_digest.has_value()) {
      std::fprintf(stderr, "run: --expect-digest must be hex\n");
      return 2;
    }
  }
  const bool traced = trace_arg == "1";
  const double seconds = static_cast<double>(*seconds_arg);
  const std::string store_path = dir + "/" + spec.name + ".cts";
  SpanRecorder recorder;
  SpanRecorder* trace = traced ? &recorder : nullptr;
  auto fail = [](const Status& status) {
    std::fprintf(stderr, "e2e_bench: %s\n", status.ToString().c_str());
    return 2;
  };

  // -- set-up: what `clean` builds before reading any reading. Each
  // repetition's system replaces the previous one; the last one is used.
  CpuRotation cpus;
  std::vector<double> setup_ms;
  std::unique_ptr<System> system;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cpus.Next();
    const Stopwatch watch;
    Result<std::unique_ptr<System>> built = SetUp(dir, seed, spec, traced);
    if (!built.ok()) return fail(built.status());
    setup_ms.push_back(watch.ElapsedMillis());
    system = std::move(built).value();
  }
  cpus.Release();

  // -- pipeline: CSV → .cts. An ingest workload repeats it for --seconds,
  // each timed repetition followed by spec.queries_per_rep queries against
  // the store it wrote; the read-side workload runs it kStoreWriteReps
  // times to write its store. The traced run alternates untraced and
  // traced repetitions of one engine, so trace.overhead_pct compares like
  // with like: on a single tag that is the stepwise engine the spans split
  // into layers.
  const bool store_in_setup = spec.queries_per_rep == 0;
  const double pipeline_budget_ms = store_in_setup ? 0.0 : 1000.0 * seconds;
  const Engine engine = traced && spec.engine == Engine::kBuilder
                            ? Engine::kStepwise
                            : spec.engine;
  std::vector<double> untraced_ms, traced_ms;
  std::vector<PipelineRun> traced_runs;
  PipelineRun last;
  std::size_t attempted = 0, failed = 0;
  double pipeline_spent_ms = 0.0;
  int pair_cpu = -1;
  QueryRun queries;
  Rng query_rng(seed, /*stream=*/0x51A7);
  // A traced run needs two repetitions of each kind for its medians.
  const int min_reps = traced ? 4
                       : store_in_setup ? kStoreWriteReps
                                        : kMinPipelineReps;
  for (int rep = 0;; ++rep) {
    // Repetition 0 is a warm-up whose time is dropped: it pays the
    // first-touch page faults of the allocator's arenas, which vary far
    // more from process to process than the work itself. A traced run
    // then alternates untraced (odd) and traced (even) repetitions and
    // stops only after a traced one, so the checks below see the
    // span-wrapped engine's output.
    const bool may_stop = !traced || rep % 2 == 1;
    if (may_stop && rep > min_reps &&
        (pipeline_spent_ms >= pipeline_budget_ms || rep > kMaxPipelineReps)) {
      break;
    }
    const bool traced_rep = traced && rep > 0 && rep % 2 == 0;
    // A batch pipeline spreads over every CPU by itself (its workers
    // inherit the calling thread's CPUs, so it must not be pinned).
    // A traced repetition runs on the CPU of the untraced one before it,
    // so trace.overhead_pct does not compare one CPU with another.
    const bool single_threaded = engine != Engine::kBatch;
    if (single_threaded && traced_rep) {
      cpus.Pin(pair_cpu);
    } else if (single_threaded) {
      pair_cpu = cpus.Next();
    }
    Result<PipelineRun> run =
        RunPipeline(dir, store_path, spec, engine, *system,
                    traced_rep ? trace : nullptr, rep);
    if (single_threaded) cpus.Release();
    if (!run.ok()) return fail(run.status());
    for (const TagResult& tag : run.value().tags) {
      ++attempted;
      if (!tag.ok) ++failed;
    }
    pipeline_spent_ms += run.value().wall_ms;
    if (rep > 0) {
      (traced_rep ? traced_ms : untraced_ms).push_back(run.value().wall_ms);
    }
    last = std::move(run).value();
    if (traced_rep) traced_runs.push_back(last);
    if (rep > 0 && !store_in_setup) {
      const Status queried =
          RunQueries(store_path, last.tags, spec, 0.0, spec.queries_per_rep,
                     query_rng, cpus, trace, &queries);
      if (!queried.ok()) return fail(queried);
    }
  }
  const double pipeline_ms = Median(untraced_ms);

  // -- the read-side workload's query client, for --seconds.
  if (store_in_setup) {
    const Status queried =
        RunQueries(store_path, last.tags, spec, seconds, kMinQueries,
                   query_rng, cpus, trace, &queries);
    if (!queried.ok()) return fail(queried);
  }
  attempted += queries.attempted;
  failed += queries.failed;
  const double peak_rss_mib = PeakRssMib();

  // -- checks, outside every timed section.
  Checks checks;
  const Engine check_engine = engine == Engine::kBuilder ? Engine::kStepwise
                              : engine == Engine::kStepwise
                                  ? Engine::kBuilder
                                  : Engine::kBatch;
  Result<Reference> reference =
      CleanReference(dir, spec, *system, check_engine, /*jobs=*/1);
  if (!reference.ok()) return fail(reference.status());
  CompareDigests(last.tags, reference.value().outcomes,
                 engine == Engine::kBatch ? "CleanAll jobs 1 vs jobs 4"
                                          : "Build vs Analyze+Push+Finish",
                 &checks);
  CheckStore(store_path, last.tags, reference.value().outcomes, seed,
             &checks);
  const std::uint64_t digest = CombinedDigest(last.tags);
  if (expect_digest.has_value()) {
    checks.Expect(digest == *expect_digest,
                  "combined graph digest differs from --expect-digest");
  }
  std::printf("digest %016llx\n", static_cast<unsigned long long>(digest));

  std::vector<Metric> metrics;
  const QueryRun& q = queries;
  if (!traced) {
    const HighPercentile stay_high = High(q.stay_ms);
    const HighPercentile ml_high = High(q.ml_ms);
    double setup = Median(setup_ms);
    if (store_in_setup) setup += pipeline_ms;
    metrics = {
        {"setup_s", setup / 1000.0, "s"},
        {"pipeline_s", pipeline_ms / 1000.0, "s"},
        {"peak_rss_mib", peak_rss_mib, "MiB"},
        {"store_mib", static_cast<double>(last.store_bytes) / kMib, "MiB"},
        {"stay_p50_ms", Median(q.stay_ms), "ms"},
        {"stay_p99_ms", stay_high.value, "ms"},
        {"ml_p50_ms", Median(q.ml_ms), "ms"},
        {"ml_p99_ms", ml_high.value, "ms"},
    };
    std::printf("stay_p99_ms is p%.2f of %zu samples in %zu windows; "
                "ml_p99_ms is p%.2f of %zu samples in %zu windows\n"
                "pipeline reps (ms):",
                stay_high.percentile, stay_high.samples, stay_high.windows,
                ml_high.percentile, ml_high.samples, ml_high.windows);
    for (double ms : untraced_ms) std::printf(" %.1f", ms);
    std::printf("\nsetup reps (ms):");
    for (double ms : setup_ms) std::printf(" %.2f", ms);
    std::printf("\n");
  } else {
    // Layer medians over the traced repetitions.
    auto median_of = [&](double PipelineLayers::*field) {
      std::vector<double> values;
      for (const PipelineRun& run : traced_runs) {
        values.push_back(run.layers.*field);
      }
      return Median(values);
    };
    // Counts are the same in every repetition.
    const PipelineLayers& shape = traced_runs.back().layers;
    const auto count = [](std::size_t n) { return static_cast<double>(n); };
    const double forward_ms = median_of(&PipelineLayers::forward_ms);
    const double finish_ms = median_of(&PipelineLayers::finish_ms);
    const double encode_ms = median_of(&PipelineLayers::encode_ms);
    // runtime: a batch workload's pipeline already ran CleanAll at the
    // workload's jobs and the check re-ran it at 1 job; a single-tag
    // workload runs the one-tag batch at 4 jobs and 1 job here.
    double clean_all_ms = 0.0, jobs1_ms = 0.0;
    std::vector<double> tag_ms;
    std::size_t failed_tags = 0;
    if (spec.engine == Engine::kBatch) {
      clean_all_ms = median_of(&PipelineLayers::clean_all_ms);
      jobs1_ms = reference.value().clean_ms;
      tag_ms = shape.tag_ms;
    } else {
      Result<Reference> jobs4 =
          CleanReference(dir, spec, *system, Engine::kBatch, 4);
      Result<Reference> jobs1 =
          CleanReference(dir, spec, *system, Engine::kBatch, 1);
      if (!jobs4.ok()) return fail(jobs4.status());
      if (!jobs1.ok()) return fail(jobs1.status());
      CompareDigests(last.tags, jobs4.value().outcomes, "CleanAll jobs 4",
                     &checks);
      CompareDigests(last.tags, jobs1.value().outcomes, "CleanAll jobs 1",
                     &checks);
      clean_all_ms = jobs4.value().clean_ms;
      jobs1_ms = jobs1.value().clean_ms;
      tag_ms = {clean_all_ms};
    }
    for (const TagResult& tag : last.tags) failed_tags += tag.ok ? 0 : 1;
    const HighPercentile tag_high = High(tag_ms);
    const HighPercentile load_high = High(q.load_view_ms);

    const std::map<std::string, double> self = recorder.SelfMsByLayer();
    const double root_ms = recorder.RootMs();
    const auto bench_self = self.find("bench");
    const double unattributed_ms =
        bench_self == self.end() ? 0.0 : bench_self->second;
    const double ticks = count(shape.rows);
    metrics = {
        {"io.parse_ms", median_of(&PipelineLayers::parse_ms), "ms"},
        {"io.rows", ticks, "count"},
        {"model.interpret_ms", median_of(&PipelineLayers::interpret_ms), "ms"},
        {"model.candidates_per_tick", Ratio(count(shape.candidates), ticks),
         "count"},
        {"analysis.preflight_ms", median_of(&PipelineLayers::preflight_ms),
         "ms"},
        {"analysis.pruned_ratio",
         Ratio(count(shape.pruned), count(shape.candidates)), "ratio"},
        {"core.forward_ms", forward_ms, "ms"},
        {"core.finish_ms", finish_ms, "ms"},
        {"core.peak_nodes", count(shape.peak_nodes), "count"},
        {"core.peak_edges", count(shape.peak_edges), "count"},
        {"core.final_nodes", count(shape.final_nodes), "count"},
        {"core.survival_ratio",
         Ratio(count(shape.final_nodes), count(shape.peak_nodes)), "ratio"},
        {"core.ns_per_tick", Ratio(1e6 * (forward_ms + finish_ms), ticks),
         "ns"},
        {"runtime.clean_all_ms", clean_all_ms, "ms"},
        {"runtime.speedup_vs_jobs1", Ratio(jobs1_ms, clean_all_ms), "x"},
        {"runtime.tag_ms_p50", Median(tag_ms), "ms"},
        {"runtime.tag_ms_p99", tag_high.value, "ms"},
        {"runtime.failed_tags", count(failed_tags), "count"},
        {"store.encode_ms", encode_ms, "ms"},
        {"store.put_ms", median_of(&PipelineLayers::put_ms), "ms"},
        {"store.encode_mib_per_s",
         Ratio(count(shape.blob_bytes) / kMib, encode_ms / 1000.0), "MiB/s"},
        {"store.bytes_per_node",
         Ratio(count(shape.blob_bytes), count(shape.final_nodes)), "B"},
        {"store.open_ms", Median(q.open_ms), "ms"},
        {"store.load_view_ms_p50", Median(q.load_view_ms), "ms"},
        {"store.load_view_ms_p99", load_high.value, "ms"},
        {"query.marginals_ms_p50", Median(q.marginals_ms), "ms"},
        {"query.stay_eval_us_p50", Median(q.stay_eval_us), "us"},
        {"query.ml_ms_p50", Median(q.ml_eval_ms), "ms"},
        {"trace.unattributed_pct", 100.0 * Ratio(unattributed_ms, root_ms),
         "%"},
        {"trace.overhead_pct",
         100.0 * (Ratio(Median(traced_ms), pipeline_ms) - 1.0), "%"},
    };
    for (const auto& [layer, ms] : self) {
      std::printf("self time %-9s %10.3f ms (%5.2f%% of %.3f ms traced)\n",
                  layer.c_str(), ms, 100.0 * Ratio(ms, root_ms), root_ms);
    }
    const std::string trace_path =
        dir + "/trace_" + std::string(spec.name) + ".json";
    if (!recorder.WriteChromeTrace(trace_path)) {
      return fail(InternalError("cannot write " + trace_path));
    }
    std::printf("trace: %s (%zu spans)\n", trace_path.c_str(),
                recorder.spans().size());
  }
  for (const Metric& metric : metrics) {
    std::printf("%-28s %14.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  PrintResult(checks.ok(), attempted, failed, metrics,
              dir + "/metrics_" + std::string(spec.name) +
                  (traced ? "_trace1" : "_trace0") + ".json");
  // The store is checked; keeping it would leave ~130 MiB per input.
  std::error_code ignored;
  std::filesystem::remove(store_path, ignored);
  return checks.ok() ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 2 || (std::strcmp(argv[1], "generate") != 0 &&
                   std::strcmp(argv[1], "run") != 0)) {
    std::fprintf(stderr,
                 "usage: e2e_bench generate|run --workload W --seed S ...\n");
    return 2;
  }
  const std::map<std::string, std::string> args = ParseArgs(argc, argv);
  const auto scale = args.find("scale");
  const bool tiny = scale != args.end() && scale->second == "tiny";
  const auto workload = args.find("workload");
  const std::optional<WorkloadSpec> spec =
      workload == args.end() ? std::nullopt
                             : FindWorkload(workload->second, tiny);
  const auto seed_arg = args.find("seed");
  const std::optional<std::uint64_t> seed =
      seed_arg == args.end() ? std::nullopt : ParseU64(seed_arg->second, 10);
  if (!spec.has_value() || !seed.has_value()) {
    std::fprintf(stderr, "need --workload fleet_ingest|long_tag|query_mix "
                         "and --seed N\n");
    return 2;
  }
  return std::strcmp(argv[1], "generate") == 0 ? Generate(args, *spec, *seed)
                                                : Run(args, *spec, *seed);
}

}  // namespace
}  // namespace rfidclean::e2ebench

int main(int argc, char** argv) {
  return rfidclean::e2ebench::Main(argc, argv);
}
