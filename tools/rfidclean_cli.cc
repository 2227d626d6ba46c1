// rfidclean_cli — command-line front end for the library's file formats.
//
//   rfidclean_cli generate --floors 4 --duration 600 --seed 1 --out DIR
//                          [--tags N]
//       Simulates a monitored object: writes DIR/building.map,
//       DIR/readings.csv and DIR/truth.txt (ground-truth locations).
//       With --tags N it simulates N independent objects instead,
//       writing the multi-tag readings format and truth_<tag>.txt files.
//
//   rfidclean_cli clean --dir DIR [--families DU|DU+LT|DU+LT+TT]
//                       [--seed 1] [--dot graph.dot] [--jobs N]
//                       [--store FILE]
//       Cleans DIR/readings.csv against DIR/building.map and writes
//       DIR/graph.ctg (plus an optional GraphViz rendering). A multi-tag
//       readings file (header "tag,time,readers") is cleaned as a batch
//       on N worker threads (runtime/batch_cleaner.h), one
//       DIR/graph_<tag>.ctg per tag. With --store FILE the cleaned graphs
//       go into one binary ct-store container instead of per-tag text
//       files (with per-blob input/constraint provenance digests).
//
//   rfidclean_cli check-constraints --dir DIR [--families ...] [--seed 1]
//                                   [--json FILE]
//       Static audit of the inferred constraint set: contradictions
//       (errors), suspicious-but-satisfiable findings (warnings) and
//       implied constraints (infos), printed as a report and optionally
//       written as JSON. Exits nonzero only on errors.
//
//   rfidclean_cli stay --dir DIR --time T [--store FILE --tag T]
//       Conditioned location distribution at time T from DIR/graph.ctg,
//       or zero-copy from a mapped ct-store blob with --store/--tag.
//
//   rfidclean_cli store <ls|get|put|compact|verify> --store FILE ...
//       Operations on a binary ct-store container (docs/FORMATS.md):
//         ls                          list live blobs and space usage
//         get --tag T --out F [--raw] extract one graph (text .ctg, or the
//                                     raw blob bytes with --raw)
//         put --tag T --in F          encode a text .ctg into the store
//         compact                     rewrite dropping superseded bytes
//         verify                      full checksum+invariant+digest check
//                                     of every live blob
//
//   rfidclean_cli pattern --dir DIR --pattern "? F0.RoomA[5] ?"
//       Probability that the trajectory matches the pattern.
//
//   rfidclean_cli sample --dir DIR --count N --seed 7
//       Draws N valid trajectories, printed as itineraries.
//
// The reader deployment and calibration are re-derived deterministically
// from the building and the seed (PlaceStandardReaders + DetectionModel +
// Calibrator), matching what `generate` used; a production deployment would
// load its own calibrated coverage instead.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "analysis/constraint_audit.h"
#include "analysis/feasibility.h"
#include "analysis/graph_audit.h"
#include "obs/cleaning_stats.h"
#include "obs/explain.h"
#include "obs/explain_export.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/builder.h"
#include "io/building_io.h"
#include "io/ctgraph_io.h"
#include "io/dot_export.h"
#include "io/readings_io.h"
#include "constraints/inference.h"
#include "gen/reading_generator.h"
#include "gen/trajectory_generator.h"
#include "map/building_grid.h"
#include "map/standard_buildings.h"
#include "map/walking_distance.h"
#include "model/apriori.h"
#include "query/flow.h"
#include "query/pattern.h"
#include "query/sampler.h"
#include "query/stay_query.h"
#include "query/top_k.h"
#include "query/trajectory_query.h"
#include "query/uncertainty.h"
#include "rfid/calibration.h"
#include "rfid/reader_placement.h"
#include "runtime/batch_cleaner.h"
#include "store/ct_store.h"
#include "store/ctgraph_view.h"
#include "store/explain_codec.h"
#include "store/graph_codec.h"

namespace rfidclean::cli {
namespace {

/// Trivial "--key value" / "--key=value" argument map; a "--key" directly
/// followed by another "--option" (or nothing) is a bare boolean flag,
/// e.g. "--audit" or "--stats".
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) continue;
      char* equals = std::strchr(argv[i] + 2, '=');
      if (equals != nullptr) {
        values_.insert_or_assign(std::string(argv[i] + 2, equals),
                                 std::string(equals + 1));
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_.insert_or_assign(argv[i] + 2, argv[i + 1]);
        ++i;
      } else {
        // The explicit std::string sidesteps a GCC 12 -Wrestrict false
        // positive (PR105329) on assignment from a short string literal.
        values_.insert_or_assign(argv[i] + 2, std::string("1"));
      }
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  /// Strictly parsed integer: `fallback` when the key is absent, nullopt
  /// when present but not a plain base-10 integer (where atoi would
  /// silently yield 0 — "--jobs abc" must be an error, not 1 job).
  std::optional<int> GetStrictInt(const std::string& key, int fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    int value = 0;
    auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size()) {
      return std::nullopt;
    }
    return value;
  }
  bool GetBool(const std::string& key, bool fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return it->second != "0" && it->second != "false";
  }
  /// The first flag (in name order) that is not a word of `accepted`, a
  /// space-separated list of flag names without their "--".
  std::optional<std::string> FirstUnknown(std::string_view accepted) const {
    const std::vector<std::string> names = StrSplit(accepted, ' ');
    for (const auto& entry : values_) {
      if (std::find(names.begin(), names.end(), entry.first) == names.end()) {
        return entry.first;
      }
    }
    return std::nullopt;
  }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}
int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// Reads integer flag `key`, at least `min` (0 or 1), into `*value`, which
/// keeps its default when the flag is absent. A malformed or smaller value
/// prints "--KEY must be a non-negative|positive integer" and returns
/// false. Every integer flag goes through here.
bool ReadIntFlag(const Args& args, const std::string& key, int min,
                 int* value) {
  const std::optional<int> parsed = args.GetStrictInt(key, *value);
  if (parsed.has_value() && *parsed >= min) {
    *value = *parsed;
    return true;
  }
  Fail("--" + key + " must be a " + (min > 0 ? "positive" : "non-negative") +
       " integer");
  return false;
}

/// Writes one JSON document plus a newline to `path`. Every JSON file the
/// CLI writes goes through here, so all of them fail one way: "cannot
/// write <what> file <path>".
int WriteJsonFile(const std::string& path, const std::string& what,
                  const std::function<void(std::ostream&)>& write) {
  std::ofstream os(path);
  if (os) {
    write(os);
    os << '\n';
  }
  if (os.good()) return 0;
  return Fail("cannot write " + what + " file " + path);
}

/// One report flag of `clean` (--stats, --trace, --explain): its resolved
/// path, the writability probe, the write, and the error stub.
struct ReportFile {
  /// Resolves `--<what>[=FILE]`. The bare flag writes `bare_path`; an
  /// empty one means stdout (the bare --stats form).
  ReportFile(const Args& args, std::string what_arg, std::string bare_path)
      : what(std::move(what_arg)) {
    if (!args.Has(what)) return;
    const std::string value = args.Get(what, "");
    path = value == "1" ? std::move(bare_path) : value;
  }

  bool requested() const { return path.has_value(); }

  /// Creates the file before any cleaning work: an unwritable path found
  /// after minutes of batch cleaning would discard the run.
  int Probe() {
    if (!requested() || path->empty()) return 0;
    if (!std::ofstream(*path)) {
      return Fail("cannot write " + what + " file " + *path);
    }
    probed = true;
    return 0;
  }

  int Write(const std::function<void(std::ostream&)>& write) {
    if (path->empty()) {
      write(std::cout);
      std::cout << '\n';
      written = true;
      return 0;
    }
    const int code = WriteJsonFile(*path, what, write);
    written = code == 0;
    return code;
  }

  /// Replaces a probed file the run never wrote with an explicit error
  /// object, so a consumer polling it sees `{"status": "error"}` rather
  /// than a zero-byte file it might mistake for an interrupted write.
  void StubIfUnwritten() const {
    if (!probed || written) return;
    std::ofstream os(*path);
    if (os) os << "{\"status\": \"error\"}\n";
  }

  std::string what;
  std::optional<std::string> path;
  bool probed = false;
  bool written = false;
};

/// The three report flags of one `clean` run.
struct CleanReports {
  ReportFile stats;
  ReportFile trace;
  ReportFile explain;
};

/// Writes the process-wide pipeline metrics as the --stats JSON. Invariant
/// violations are diagnostics, not failures: the stats must never turn a
/// successful clean into an error. When a trace session is active, the
/// per-tag provenance records collected so far are embedded as a
/// "provenance" array.
int EmitStats(ReportFile* report) {
  const obs::CleaningStats stats = obs::CleaningStats::Capture();
  for (const std::string& violation : stats.CheckInvariants()) {
    std::fprintf(stderr, "stats invariant violated: %s\n", violation.c_str());
  }
  std::vector<obs::TagProvenance> provenance;
  const bool tracing = obs::TraceActive();
  if (tracing) provenance = obs::CollectTrace().provenance;
  return report->Write([&](std::ostream& os) {
    stats.WriteJson(os, 0, tracing ? &provenance : nullptr);
  });
}

/// Exports the active explain session as the versioned JSON report
/// (obs/explain_export.h).
int ExportExplain(ReportFile* report) {
  const obs::ExplainCollection collection = obs::CollectExplain();
  if (report->Write([&](std::ostream& os) {
        WriteExplainReport(collection, os);
      }) != 0) {
    return 1;
  }
  std::fprintf(stderr, "explain: %zu tags -> %s\n", collection.tags.size(),
               report->path->c_str());
  return 0;
}

/// Exports the active trace session as Chrome trace-event JSON.
int ExportTrace(ReportFile* report) {
  const obs::TraceCollection collection = obs::CollectTrace();
  if (report->Write([&](std::ostream& os) {
        WriteChromeTrace(collection, os);
      }) != 0) {
    return 1;
  }
  std::fprintf(stderr,
               "trace: %zu events on %zu tracks (%llu dropped) -> %s\n",
               collection.NumEvents(), collection.threads.size(),
               static_cast<unsigned long long>(collection.DroppedEvents()),
               report->path->c_str());
  return 0;
}

/// Writes --stats and --explain once a clean got far enough to have them.
/// Earlier failures leave the error stub instead (see Clean).
int WriteCleanReports(CleanReports* reports) {
  if (reports->stats.requested() && EmitStats(&reports->stats) != 0) {
    return 1;
  }
  if (reports->explain.requested() && ExportExplain(&reports->explain) != 0) {
    return 1;
  }
  return 0;
}

Result<Building> LoadBuilding(const std::string& dir) {
  std::ifstream is(dir + "/building.map");
  if (!is) return NotFoundError("cannot open " + dir + "/building.map");
  return ReadBuilding(is);
}

Result<RSequence> LoadReadings(const std::string& dir) {
  std::ifstream is(dir + "/readings.csv");
  if (!is) return NotFoundError("cannot open " + dir + "/readings.csv");
  return ReadReadingsCsv(is);
}

/// Every query names a graph's locations through the building, so a graph
/// (or store view) cleaned over another building must fail here, once
/// after loading, instead of indexing the building out of range.
template <typename Graph>
Status CheckGraphLocations(const Graph& graph, const Building& building,
                           const std::string& dir) {
  const std::size_t count = building.NumLocations();
  for (NodeId id = 0; static_cast<std::size_t>(id) < graph.NumNodes(); ++id) {
    const LocationId location = graph.LocationOf(id);
    if (static_cast<std::size_t>(location) >= count) {
      return InvalidArgumentError(StrFormat(
          "the ct-graph names location id %d, but %s/building.map has only "
          "%zu locations; was the graph cleaned over another building?",
          location, dir.c_str(), count));
    }
  }
  return Status::Ok();
}

/// DIR/graph.ctg, checked against DIR's building.
Result<CtGraph> LoadGraph(const std::string& dir, const Building& building) {
  std::ifstream is(dir + "/graph.ctg");
  if (!is) {
    return NotFoundError("cannot open " + dir +
                         "/graph.ctg (run 'clean' first)");
  }
  Result<CtGraph> graph = ReadCtGraph(is);
  if (graph.ok()) {
    RFID_RETURN_IF_ERROR(CheckGraphLocations(graph.value(), building, dir));
  }
  return graph;
}

/// The deterministic deployment + calibration shared by generate and clean.
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

int Generate(const Args& args) {
  int floors = 4;
  Timestamp duration = 600;
  int seed = 1;
  int num_tags = 0;  // 0 = single-tag format
  if (!ReadIntFlag(args, "floors", 1, &floors) ||
      !ReadIntFlag(args, "duration", 1, &duration) ||
      !ReadIntFlag(args, "seed", 0, &seed) ||
      !ReadIntFlag(args, "tags", 0, &num_tags)) {
    return 1;
  }
  const std::string dir = args.Get("out", ".");

  Building building = MakeOfficeBuilding(floors);
  Deployment deployment = MakeDeployment(building, seed);
  TrajectoryGenerator trajectories(building);
  TrajectoryGenOptions motion;
  motion.duration_ticks = duration;
  ReadingGenerator readings(deployment.grid, deployment.truth);

  {
    std::ofstream os(dir + "/building.map");
    if (!os) return Fail("cannot write building.map");
    WriteBuilding(building, os);
  }

  auto write_truth = [&](const Trajectory& truth, const std::string& name) {
    std::ofstream os(dir + "/" + name);
    if (!os) return false;
    for (Timestamp t = 0; t < truth.length(); ++t) {
      os << t << ' ' << building.location(truth.At(t)).name << '\n';
    }
    return true;
  };

  if (num_tags <= 0) {
    Rng rng(seed, /*stream=*/1);
    ContinuousTrajectory continuous = trajectories.Generate(motion, rng);
    RSequence sequence = readings.Generate(continuous, rng);
    {
      std::ofstream os(dir + "/readings.csv");
      if (!os) return Fail("cannot write readings.csv");
      WriteReadingsCsv(sequence, os);
    }
    if (!write_truth(continuous.ToDiscrete(building), "truth.txt")) {
      return Fail("cannot write truth.txt");
    }
    std::printf(
        "wrote %s/building.map, readings.csv, truth.txt (%d ticks)\n",
        dir.c_str(), duration);
    return 0;
  }

  // Multi-tag: every tag is an independent object in the same building,
  // with its own deterministic rng stream.
  std::vector<TagReadings> tags;
  for (int k = 0; k < num_tags; ++k) {
    Rng rng(seed, /*stream=*/1000 + static_cast<std::uint64_t>(k));
    ContinuousTrajectory continuous = trajectories.Generate(motion, rng);
    if (!write_truth(continuous.ToDiscrete(building),
                     StrFormat("truth_%d.txt", k))) {
      return Fail("cannot write truth file");
    }
    tags.push_back(TagReadings{static_cast<TagId>(k),
                               readings.Generate(continuous, rng)});
  }
  {
    std::ofstream os(dir + "/readings.csv");
    if (!os) return Fail("cannot write readings.csv");
    WriteMultiTagReadingsCsv(tags, os);
  }
  std::printf(
      "wrote %s/building.map, readings.csv (multi-tag), truth_<tag>.txt "
      "(%d tags x %d ticks)\n",
      dir.c_str(), num_tags, duration);
  return 0;
}

/// True when DIR/readings.csv starts with the multi-tag header.
bool HasMultiTagReadings(const std::string& dir) {
  std::ifstream is(dir + "/readings.csv");
  std::string line;
  return is && std::getline(is, line) &&
         StripWhitespace(line) == kMultiTagReadingsHeader;
}

/// DIR/readings.csv interpreted under the deployment's calibrated a-priori
/// model: one workload per tag, or one tagged 0 for a single-tag file.
struct CliReadings {
  bool multi_tag = false;
  std::vector<TagWorkload> workloads;
};

/// The one way `clean` and `explain` read their input. The interpretation
/// indexes the coverage matrix by reader id, so an id the deployment does
/// not have fails first, naming the tag (multi-tag files only), the time,
/// the id and the reader count.
Result<CliReadings> LoadCliReadings(const std::string& dir,
                                    const Building& building,
                                    const Deployment& deployment) {
  CliReadings loaded;
  loaded.multi_tag = HasMultiTagReadings(dir);
  std::vector<TagReadings> tags;
  if (loaded.multi_tag) {
    std::ifstream is(dir + "/readings.csv");
    if (!is) return NotFoundError("cannot open " + dir + "/readings.csv");
    Result<std::vector<TagReadings>> parsed = ReadMultiTagReadingsCsv(is);
    if (!parsed.ok()) return parsed.status();
    tags = std::move(parsed).value();
  } else {
    Result<RSequence> readings = LoadReadings(dir);
    if (!readings.ok()) return readings.status();
    tags.push_back(TagReadings{0, std::move(readings).value()});
  }
  const int num_readers = deployment.calibrated.num_readers();
  for (const TagReadings& tag : tags) {
    for (Timestamp t = 0; t < tag.readings.length(); ++t) {
      for (const ReaderId reader : tag.readings.ReadersAt(t)) {
        if (reader >= 0 && reader < num_readers) continue;
        const std::string where =
            loaded.multi_tag
                ? StrFormat("tag %lld at time %d",
                            static_cast<long long>(tag.tag), t)
                : StrFormat("time %d", t);
        return InvalidArgumentError(StrFormat(
            "%s/readings.csv: %s names reader %d, but the deployment has "
            "%d readers (ids 0-%d)",
            dir.c_str(), where.c_str(), reader, num_readers,
            num_readers - 1));
      }
    }
  }
  // The a-priori interpretation stays sequential: AprioriModel memoizes per
  // reader set behind a non-synchronized cache. The conditioning dominates
  // anyway and is what the batch engine parallelizes.
  AprioriModel apriori(building, deployment.grid, deployment.calibrated);
  loaded.workloads.reserve(tags.size());
  for (const TagReadings& tag : tags) {
    loaded.workloads.push_back(TagWorkload{
        tag.tag, LSequence::FromReadings(tag.readings, apriori)});
  }
  return loaded;
}

Result<ConstraintSet> MakeCliConstraints(const Args& args,
                                         const Building& building,
                                         const Deployment& deployment,
                                         ConstraintFamilies* families_out) {
  ConstraintFamilies families = ConstraintFamilies::DuLtTt();
  std::string requested = args.Get("families", "DU+LT+TT");
  if (requested == "DU") {
    families = ConstraintFamilies::Du();
  } else if (requested == "DU+LT") {
    families = ConstraintFamilies::DuLt();
  } else if (requested != "DU+LT+TT") {
    return InvalidArgumentError("--families must be DU, DU+LT or DU+LT+TT");
  }
  *families_out = families;
  WalkingDistances walking =
      WalkingDistances::Compute(building, deployment.grid);
  InferenceOptions inference;
  inference.families = families;
  return InferConstraints(building, walking, inference);
}

/// Validated `clean` flag values (see Clean).
struct CleanFlags {
  int seed = 1;
  int jobs = 1;
};

/// Persists every per-tag explain summary of the active session into the
/// store the graphs just went to, so `rfidclean explain --store` can answer
/// attribution queries later without re-cleaning. Summaries for failed tags
/// ride along on purpose — they explain *why* the tag has no graph.
Status PersistExplainSummaries(store::CtStoreWriter* writer) {
  const obs::ExplainCollection collection = obs::CollectExplain();
  for (const obs::ExplainTagSummary& summary : collection.tags) {
    RFID_RETURN_IF_ERROR(writer->PutExplain(
        summary.tag, store::EncodeExplainBlob(summary)));
  }
  return Status::Ok();
}

/// The multi-tag batch path of `clean`: every tag cleaned concurrently on
/// --jobs workers; one graph_<tag>.ctg per successfully cleaned tag, or —
/// with `store_path` — every cleaned graph appended to one binary
/// ct-store container instead.
int CleanBatch(const std::string& dir,
               const std::vector<TagWorkload>& workloads,
               const ConstraintSet& constraints, ConstraintFamilies families,
               bool audit, bool preflight, const CleanFlags& flags,
               const std::string& store_path, CleanReports* reports) {
  BatchOptions options;
  options.jobs = flags.jobs;
  options.preflight = preflight;
  BatchCleaner cleaner(constraints, options);
  Stopwatch watch;
  std::vector<TagOutcome> outcomes = cleaner.CleanAll(workloads);
  const double millis = watch.ElapsedMillis();

  std::optional<store::CtStoreWriter> writer;
  if (!store_path.empty()) {
    Result<store::CtStoreWriter> opened =
        store::CtStoreWriter::OpenOrCreate(store_path);
    if (!opened.ok()) return Fail(opened.status());
    writer.emplace(std::move(opened).value());
  }
  const std::uint64_t constraint_digest = constraints.Digest();

  int failures = 0;
  std::size_t nodes = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const TagOutcome& outcome = outcomes[i];
    if (!outcome.graph.ok()) {
      ++failures;
      std::fprintf(stderr, "tag %lld: %s\n",
                   static_cast<long long>(outcome.tag),
                   outcome.graph.status().ToString().c_str());
      continue;
    }
    if (audit) {
      std::printf("tag %lld:\n%s\n", static_cast<long long>(outcome.tag),
                  AuditGraph(outcome.graph.value()).ToString().c_str());
    }
    nodes += outcome.graph.value().NumNodes();
    if (writer.has_value()) {
      RFID_TRACE_SPAN(span, "store", "store_append");
      store::GraphProvenance provenance;
      provenance.input_digest = workloads[i].sequence.Digest();
      provenance.constraint_digest = constraint_digest;
      const std::string blob = store::EncodeCtGraphBlob(
          outcome.graph.value(), outcome.tag, provenance);
      Status put = writer->Put(outcome.tag, blob);
      if (!put.ok()) return Fail(put);
      continue;
    }
    std::ofstream os(
        dir + StrFormat("/graph_%lld.ctg",
                        static_cast<long long>(outcome.tag)));
    if (!os) return Fail("cannot write per-tag graph file");
    WriteCtGraph(outcome.graph.value(), os);
  }
  if (writer.has_value()) {
    if (obs::ExplainArmed()) {
      Status persisted = PersistExplainSummaries(&*writer);
      if (!persisted.ok()) return Fail(persisted);
    }
    Status finished = writer->Finish();
    if (!finished.ok()) return Fail(finished);
  }
  std::printf(
      "cleaned %zu/%zu tags under %s with %d jobs in %.1f ms "
      "(%.1f tags/s, %zu total nodes) -> %s\n",
      outcomes.size() - static_cast<std::size_t>(failures), outcomes.size(),
      ConstraintFamiliesLabel(families).c_str(), cleaner.jobs(), millis,
      millis > 0 ? 1000.0 * static_cast<double>(outcomes.size()) / millis
                 : 0.0,
      nodes,
      store_path.empty() ? (dir + "/graph_<tag>.ctg").c_str()
                         : store_path.c_str());
  // Written even with per-tag failures: the explain report carries the
  // failed tags' outcome summaries, which is what the flag is for.
  if (WriteCleanReports(reports) != 0) return 1;
  return failures == 0 ? 0 : 1;
}

/// The body of `clean`, wrapped by Clean() which owns the report flags and
/// the observability sessions.
int CleanImpl(const Args& args, const std::string& dir,
              const CleanFlags& flags, CleanReports* reports) {
  Result<Building> building = LoadBuilding(dir);
  if (!building.ok()) return Fail(building.status());

  Deployment deployment = MakeDeployment(building.value(), flags.seed);
  ConstraintFamilies families = ConstraintFamilies::DuLtTt();
  Result<ConstraintSet> constraints =
      MakeCliConstraints(args, building.value(), deployment, &families);
  if (!constraints.ok()) return Fail(constraints.status());

  const bool audit = args.GetBool("audit", false);
  // --no-preflight disables the static feasibility pass (identical output,
  // useful for A/B timing and for isolating preflight bugs).
  const bool preflight = !args.GetBool("no-preflight", false);
  if (audit) {
    // Fails the build itself on any invariant violation (self-audit hook
    // inside CtGraphBuilder), and prints the full report below.
    EnableSelfAudit();
  }

  const std::string store_path = args.Get("store", "");
  Result<CliReadings> readings =
      LoadCliReadings(dir, building.value(), deployment);
  if (!readings.ok()) return Fail(readings.status());
  if (readings.value().multi_tag) {
    return CleanBatch(dir, readings.value().workloads, constraints.value(),
                      families, audit, preflight, flags, store_path, reports);
  }
  const LSequence& sequence = readings.value().workloads.front().sequence;

  CleanOptions build_options;
  build_options.preflight = preflight;
  CtGraphBuilder builder(constraints.value(), build_options);
  BuildStats stats;
  Result<CtGraph> graph = builder.Build(sequence, &stats);
  if (obs::TraceActive()) {
    // Single-tag runs record one provenance record under tag 0, mirroring
    // what BatchCleaner::CleanOne stamps per tag.
    obs::TagProvenance provenance;
    provenance.tag = 0;
    provenance.input_digest = sequence.Digest();
    provenance.constraint_digest = constraints.value().Digest();
    provenance.graph_digest = graph.ok() ? graph.value().Digest() : 0;
    provenance.forward_millis = stats.forward_millis;
    provenance.backward_millis = stats.backward_millis;
    provenance.status = graph.ok() ? "ok" : graph.status().ToString();
    obs::RecordTagProvenance(std::move(provenance));
    obs::TraceSampleCounterTracks();
  }
  if (!graph.ok()) return Fail(graph.status());
  if (audit) {
    std::printf("%s\n", AuditGraph(graph.value()).ToString().c_str());
  }
  if (!store_path.empty()) {
    RFID_TRACE_SPAN(span, "store", "store_append");
    Result<store::CtStoreWriter> writer =
        store::CtStoreWriter::OpenOrCreate(store_path);
    if (!writer.ok()) return Fail(writer.status());
    store::GraphProvenance provenance;
    provenance.input_digest = sequence.Digest();
    provenance.constraint_digest = constraints.value().Digest();
    const std::string blob =
        store::EncodeCtGraphBlob(graph.value(), /*tag=*/0, provenance);
    Status put = writer->Put(/*tag=*/0, blob);
    if (!put.ok()) return Fail(put);
    if (obs::ExplainArmed()) {
      Status persisted = PersistExplainSummaries(&writer.value());
      if (!persisted.ok()) return Fail(persisted);
    }
    Status finished = writer->Finish();
    if (!finished.ok()) return Fail(finished);
  } else {
    std::ofstream os(dir + "/graph.ctg");
    if (!os) return Fail("cannot write graph.ctg");
    WriteCtGraph(graph.value(), os);
  }
  std::string dot = args.Get("dot", "");
  if (!dot.empty()) {
    std::ofstream os(dot);
    if (!os) return Fail("cannot write dot file");
    WriteDot(graph.value(), os, &building.value());
  }
  std::printf(
      "cleaned %d ticks under %s in %.1f ms: %zu nodes, %zu edges -> %s\n",
      sequence.length(), ConstraintFamiliesLabel(families).c_str(),
      stats.TotalMillis(), graph.value().NumNodes(),
      graph.value().NumEdges(),
      store_path.empty() ? (dir + "/graph.ctg").c_str()
                         : store_path.c_str());
  return WriteCleanReports(reports);
}

/// `clean` in five steps: (1) validate every flag value and compiled-in
/// check, so a bad value creates no file; (2) probe every report path;
/// (3) start the trace and explain sessions; (4) clean; (5) the epilogue:
/// export the trace on success and on failure, leave the error stub in
/// every probed report that was not written, and stop the sessions.
int Clean(const Args& args) {
  const std::string dir = args.Get("dir", ".");
  CleanReports reports{ReportFile(args, "stats", ""),
                       ReportFile(args, "trace", dir + "/trace.json"),
                       ReportFile(args, "explain", dir + "/explain.json")};

  CleanFlags flags;
  if (!ReadIntFlag(args, "seed", 0, &flags.seed) ||
      !ReadIntFlag(args, "jobs", 1, &flags.jobs)) {
    return 1;
  }
  obs::TraceOptions trace;
  if (reports.trace.requested()) {
    if (!obs::TraceCompiledIn()) {
      return Fail(
          "--trace requires a tracing-enabled build (this binary was "
          "configured with -DRFIDCLEAN_TRACE=OFF)");
    }
    int buffer_events = static_cast<int>(trace.buffer_events);
    if (!ReadIntFlag(args, "trace-buffer-events", 1, &buffer_events)) return 1;
    trace.buffer_events = static_cast<std::size_t>(buffer_events);
  }
  obs::ExplainOptions explain;
  if (reports.explain.requested()) {
    if (!obs::ExplainCompiledIn()) {
      return Fail(
          "--explain requires an explain-enabled build (this binary was "
          "configured with -DRFIDCLEAN_EXPLAIN=OFF)");
    }
    int top_edges = static_cast<int>(explain.top_edges);
    if (!ReadIntFlag(args, "explain-top-edges", 1, &top_edges)) return 1;
    explain.top_edges = static_cast<std::size_t>(top_edges);
  }

  int code = 0;
  for (ReportFile* report :
       {&reports.stats, &reports.trace, &reports.explain}) {
    code = report->Probe();
    if (code != 0) break;
  }
  if (code == 0) {
    // Started before any input is read, so the io parsing spans land on
    // the same timeline as the cleaning itself.
    if (reports.trace.requested()) obs::StartTracing(trace);
    if (reports.explain.requested()) obs::StartExplain(explain);
    code = CleanImpl(args, dir, flags, &reports);
    if (reports.trace.requested()) {
      // Exported on failure too — a timeline of a failed clean is
      // precisely what --trace is for. An export failure degrades a
      // successful exit.
      const int exported = ExportTrace(&reports.trace);
      if (code == 0) code = exported;
    }
  }
  if (code != 0) {
    for (const ReportFile* report :
         {&reports.stats, &reports.trace, &reports.explain}) {
      report->StubIfUnwritten();
    }
  }
  if (reports.trace.requested()) obs::StopTracing();
  if (reports.explain.requested()) obs::StopExplain();
  return code;
}

/// Static lint of the constraint set a `clean` over DIR would use: builds
/// the same deployment and inferred constraints, audits them against their
/// own closure plus the calibrated reader coverage, and prints the report.
/// Inferred sets legitimately contain implied constraints, so infos (and
/// warnings) do not fail the command — only contradictions do.
int CheckConstraints(const Args& args) {
  const std::string dir = args.Get("dir", ".");
  int seed = 1;
  if (!ReadIntFlag(args, "seed", 0, &seed)) return 1;
  Result<Building> building = LoadBuilding(dir);
  if (!building.ok()) return Fail(building.status());

  Deployment deployment = MakeDeployment(building.value(), seed);
  ConstraintFamilies families = ConstraintFamilies::DuLtTt();
  Result<ConstraintSet> constraints =
      MakeCliConstraints(args, building.value(), deployment, &families);
  if (!constraints.ok()) return Fail(constraints.status());

  const std::size_t n = building.value().NumLocations();
  ConstraintAuditOptions options;
  // Every diagnostic is at most per-pair (plus a few per-location classes);
  // scaling the cap with the building keeps real reports untruncated while
  // still bounding a pathological blow-up.
  options.max_findings = 4 * n * n + 64;
  options.covered_locations.assign(n, false);
  options.location_names.reserve(n);
  for (LocationId l = 0; l < static_cast<LocationId>(n); ++l) {
    options.location_names.push_back(building.value().location(l).name);
    options.covered_locations[static_cast<std::size_t>(l)] =
        !deployment.calibrated
             .ReadersCovering(deployment.grid.CellsOfLocation(l))
             .empty();
  }

  TravelClosure closure(constraints.value());
  ConstraintAuditReport report =
      AuditConstraints(constraints.value(), closure, options);
  std::printf("constraints: %s over %zu locations\n%s\n",
              ConstraintFamiliesLabel(families).c_str(), n,
              report.ToString().c_str());

  const std::string json = args.Get("json", "");
  if (!json.empty() &&
      WriteJsonFile(json, "json",
                    [&](std::ostream& os) { report.WriteJson(os); }) != 0) {
    return 1;
  }
  return report.CountOf(ConstraintSeverity::kError) > 0 ? 1 : 0;
}

int Stay(const Args& args) {
  Timestamp time = 0;
  if (!ReadIntFlag(args, "time", 0, &time)) return 1;
  const std::string dir = args.Get("dir", ".");
  Result<Building> building = LoadBuilding(dir);
  if (!building.ok()) return Fail(building.status());

  auto print_distribution = [&](const auto& evaluator, Timestamp t) {
    std::printf("P(location at t=%d):\n", t);
    for (const auto& [location, probability] : evaluator.Evaluate(t)) {
      std::printf("  %-16s %.4f\n",
                  building.value().location(location).name.c_str(),
                  probability);
    }
  };

  const std::string store_path = args.Get("store", "");
  if (!store_path.empty()) {
    // Zero-copy path: evaluate straight off the mapped container blob.
    const std::optional<int> tag = args.GetStrictInt("tag", 0);
    if (!tag.has_value()) return Fail("--tag must be an integer");
    Result<store::CtStoreReader> reader =
        store::CtStoreReader::Open(store_path);
    if (!reader.ok()) return Fail(reader.status());
    Result<store::CtGraphView> view = reader.value().LoadView(*tag);
    if (!view.ok()) return Fail(view.status());
    Status fits = CheckGraphLocations(view.value(), building.value(), dir);
    if (!fits.ok()) return Fail(fits);
    if (time < 0 || time >= view.value().length()) {
      return Fail("--time outside the monitored interval");
    }
    StayQueryEvaluatorT<store::CtGraphView> evaluator(view.value());
    print_distribution(evaluator, time);
    return 0;
  }

  Result<CtGraph> graph = LoadGraph(dir, building.value());
  if (!graph.ok()) return Fail(graph.status());
  if (time < 0 || time >= graph.value().length()) {
    return Fail("--time outside the monitored interval");
  }
  StayQueryEvaluator evaluator(graph.value());
  print_distribution(evaluator, time);
  return 0;
}

/// The `store` subcommand family: operations on a ct-store container.
int StoreCmd(int argc, char** argv) {
  if (argc < 3) return Fail("usage: rfidclean_cli store <ls|get|put|compact|"
                            "verify> --store FILE ...");
  const std::string verb = argv[2];
  Args args(argc, argv, 3);
  const std::string path = args.Get("store", "");
  if (path.empty()) return Fail("missing --store FILE");

  if (verb == "ls") {
    Result<store::CtStoreReader> reader = store::CtStoreReader::Open(path);
    if (!reader.ok()) return Fail(reader.status());
    for (const store::StoreEntry& entry : reader.value().entries()) {
      Result<std::string> bytes = reader.value().ReadBlobBytes(entry.tag);
      if (!bytes.ok()) return Fail(bytes.status());
      Result<store::BlobInfo> blob = store::InspectCtGraphBlob(
          reinterpret_cast<const unsigned char*>(bytes.value().data()),
          bytes.value().size());
      if (!blob.ok()) return Fail(blob.status());
      std::printf(
          "tag %-8lld seq %-6llu %10llu bytes  T=%-6d %8llu nodes %9llu "
          "edges  graph=%016llx input=%016llx constraints=%016llx\n",
          static_cast<long long>(entry.tag),
          static_cast<unsigned long long>(entry.sequence),
          static_cast<unsigned long long>(entry.size),
          blob.value().header.length,
          static_cast<unsigned long long>(blob.value().header.num_nodes),
          static_cast<unsigned long long>(blob.value().header.num_edges),
          static_cast<unsigned long long>(blob.value().header.graph_digest),
          static_cast<unsigned long long>(blob.value().header.input_digest),
          static_cast<unsigned long long>(
              blob.value().header.constraint_digest));
    }
    for (const store::StoreEntry& entry : reader.value().explain_entries()) {
      std::printf("tag %-8lld seq %-6llu %10llu bytes  explain summary\n",
                  static_cast<long long>(entry.tag),
                  static_cast<unsigned long long>(entry.sequence),
                  static_cast<unsigned long long>(entry.size));
    }
    std::printf("store: generation %u, %zu blobs, %zu explain summaries, "
                "%s (%s dead)\n",
                reader.value().generation(),
                reader.value().entries().size(),
                reader.value().explain_entries().size(),
                HumanBytes(reader.value().FileBytes()).c_str(),
                HumanBytes(reader.value().DeadBytes()).c_str());
    return 0;
  }

  if (verb == "get") {
    const std::optional<int> tag = args.GetStrictInt("tag", 0);
    if (!tag.has_value()) return Fail("--tag must be an integer");
    const std::string out = args.Get("out", "");
    if (out.empty()) return Fail("missing --out FILE");
    Result<store::CtStoreReader> reader = store::CtStoreReader::Open(path);
    if (!reader.ok()) return Fail(reader.status());
    if (args.GetBool("raw", false)) {
      Result<std::string> bytes = reader.value().ReadBlobBytes(*tag);
      if (!bytes.ok()) return Fail(bytes.status());
      std::ofstream os(out, std::ios::binary);
      if (!os) return Fail(("cannot write " + out).c_str());
      os.write(bytes.value().data(),
               static_cast<std::streamsize>(bytes.value().size()));
      if (!os.good()) return Fail(("cannot write " + out).c_str());
      std::printf("tag %d -> %s (%zu blob bytes)\n", *tag, out.c_str(),
                  bytes.value().size());
      return 0;
    }
    Result<CtGraph> graph = reader.value().LoadGraph(*tag);
    if (!graph.ok()) return Fail(graph.status());
    std::ofstream os(out);
    if (!os) return Fail(("cannot write " + out).c_str());
    WriteCtGraph(graph.value(), os);
    if (!os.good()) return Fail(("cannot write " + out).c_str());
    std::printf("tag %d -> %s (%zu nodes, %zu edges)\n", *tag, out.c_str(),
                graph.value().NumNodes(), graph.value().NumEdges());
    return 0;
  }

  if (verb == "put") {
    const std::optional<int> tag = args.GetStrictInt("tag", 0);
    if (!tag.has_value()) return Fail("--tag must be an integer");
    const std::string in = args.Get("in", "");
    if (in.empty()) return Fail("missing --in FILE");
    std::ifstream is(in);
    if (!is) return Fail(("cannot open " + in).c_str());
    Result<CtGraph> graph = ReadCtGraph(is);
    if (!graph.ok()) return Fail(graph.status());
    Result<store::CtStoreWriter> writer =
        store::CtStoreWriter::OpenOrCreate(path);
    if (!writer.ok()) return Fail(writer.status());
    const std::string blob =
        store::EncodeCtGraphBlob(graph.value(), *tag);
    Status put = writer.value().Put(*tag, blob);
    if (!put.ok()) return Fail(put);
    Status finished = writer.value().Finish();
    if (!finished.ok()) return Fail(finished);
    std::printf("%s: tag %d <- %s (%zu blob bytes)\n", path.c_str(), *tag,
                in.c_str(), blob.size());
    return 0;
  }

  if (verb == "compact") {
    Result<store::CompactionStats> stats = store::CompactCtStore(path);
    if (!stats.ok()) return Fail(stats.status());
    std::printf("%s: %zu blobs, %s -> %s\n", path.c_str(),
                stats.value().blobs,
                HumanBytes(stats.value().bytes_before).c_str(),
                HumanBytes(stats.value().bytes_after).c_str());
    return 0;
  }

  if (verb == "verify") {
    Result<store::CtStoreReader> reader = store::CtStoreReader::Open(path);
    if (!reader.ok()) return Fail(reader.status());
    Status verified = reader.value().VerifyAll();
    if (!verified.ok()) return Fail(verified);
    std::printf(
        "%s: %zu blobs, %zu explain summaries verified ok (generation %u)\n",
        path.c_str(), reader.value().entries().size(),
        reader.value().explain_entries().size(), reader.value().generation());
    return 0;
  }

  return Fail("unknown store verb (expected ls|get|put|compact|verify)");
}

/// Location id -> printable name; falls back to the numeric id when no
/// building is at hand (store decode mode) and "-" for the -1 sentinel.
std::string ExplainLocationName(const Building* building,
                                std::int32_t location) {
  if (location < 0) return "-";
  if (building != nullptr &&
      location < static_cast<std::int32_t>(building->NumLocations())) {
    return building->location(static_cast<LocationId>(location)).name;
  }
  return StrFormat("%d", location);
}

/// Resolves --location as a numeric id or (when a building is loaded) a
/// location name.
std::optional<std::int32_t> ResolveLocationArg(const std::string& text,
                                               const Building* building) {
  int value = 0;
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc() && ptr == text.data() + text.size() && value >= 0) {
    return static_cast<std::int32_t>(value);
  }
  if (building != nullptr) {
    for (LocationId l = 0;
         l < static_cast<LocationId>(building->NumLocations()); ++l) {
      if (building->location(l).name == text) {
        return static_cast<std::int32_t>(l);
      }
    }
  }
  return std::nullopt;
}

/// Human-readable rendering of one tag's attribution summary.
void PrintExplainSummary(const obs::ExplainTagSummary& summary,
                         const Building* building) {
  std::printf("tag %lld: %s\n", summary.tag, summary.status.c_str());
  std::printf(
      "  mass: %.6g survives, %.6g attributed to kills; conditioning loss "
      "%llu ppb backward + %llu ppb compaction\n",
      summary.surviving_mass, summary.attributed_mass,
      static_cast<unsigned long long>(summary.mass_lost_backward_ppb),
      static_cast<unsigned long long>(summary.mass_lost_compaction_ppb));
  std::printf("  kills by phase:");
  for (int p = 0; p < obs::kNumExplainPhases; ++p) {
    std::printf(" %s=%llu",
                obs::ExplainPhaseName(static_cast<obs::ExplainPhase>(p)),
                static_cast<unsigned long long>(summary.phase_kills[p]));
  }
  std::printf("\n  kills by constraint:\n");
  for (int c = 0; c < obs::kNumExplainConstraints; ++c) {
    const obs::ExplainConstraintTotal& total = summary.constraints[c];
    if (total.kills == 0 && total.mass == 0.0) continue;
    std::printf(
        "    %-12s %8llu kills, mass %.6g\n",
        obs::ExplainConstraintName(static_cast<obs::ExplainConstraint>(c)),
        static_cast<unsigned long long>(total.kills), total.mass);
  }
  if (!summary.top_edges.empty()) {
    std::printf("  top killed edges by mass:\n");
    for (const obs::ExplainKilledEdge& edge : summary.top_edges) {
      std::printf(
          "    t=%-5d %-14s -> %-14s %s/%s mass %.6g\n", edge.time,
          ExplainLocationName(building, edge.from_location).c_str(),
          ExplainLocationName(building, edge.to_location).c_str(),
          obs::ExplainPhaseName(edge.phase),
          obs::ExplainConstraintName(edge.constraint), edge.mass);
    }
  }
  std::printf("  killed candidates: %zu retained",
              summary.killed_candidates.size());
  if (summary.killed_candidates_truncated > 0) {
    std::printf(" (+%llu truncated)",
                static_cast<unsigned long long>(
                    summary.killed_candidates_truncated));
  }
  std::printf("\n");
}

/// Answers "why is location X absent at time t" from one tag's
/// killed-candidate list. Exits nonzero only when the list was truncated
/// and cannot prove the answer either way.
int AnswerExplainQuery(const obs::ExplainTagSummary& summary,
                       const Building* building, std::int32_t time,
                       std::int32_t location) {
  const std::string name = ExplainLocationName(building, location);
  for (const obs::ExplainKilledCandidate& candidate :
       summary.killed_candidates) {
    if (candidate.time == time && candidate.location == location) {
      std::printf(
          "tag %lld: %s is absent at t=%d: killed in the %s phase by the "
          "%s check (a-priori mass %.6g removed)\n",
          summary.tag, name.c_str(), time,
          obs::ExplainPhaseName(candidate.phase),
          obs::ExplainConstraintName(candidate.constraint), candidate.mass);
      return 0;
    }
  }
  if (summary.killed_candidates_truncated > 0) {
    std::fprintf(stderr,
                 "tag %lld: no retained kill record for %s at t=%d, but the "
                 "killed-candidate list was truncated by %llu entries — "
                 "re-run the clean to answer exactly\n",
                 summary.tag, name.c_str(), time,
                 static_cast<unsigned long long>(
                     summary.killed_candidates_truncated));
    return 1;
  }
  std::printf(
      "tag %lld: %s at t=%d was not killed: it either survives in the "
      "cleaned graph or was never an a-priori candidate\n",
      summary.tag, name.c_str(), time);
  return 0;
}

/// The `explain` subcommand: answers attribution queries either from
/// summaries persisted in a ct-store (`--store FILE [--tag N]`, works in
/// every build) or by re-cleaning a directory under an explain session
/// (`--dir DIR`, needs an explain-enabled build).
int Explain(const Args& args) {
  const bool has_query = args.Has("time") || args.Has("location");
  if (has_query && (!args.Has("time") || !args.Has("location"))) {
    return Fail("--time and --location must be given together");
  }
  Timestamp time = 0;
  if (!ReadIntFlag(args, "time", 0, &time)) return 1;

  // A building is optional context in store mode (names instead of ids)
  // and required in re-clean mode.
  std::optional<Building> building;
  if (args.Has("dir") || args.Get("store", "").empty()) {
    Result<Building> loaded = LoadBuilding(args.Get("dir", "."));
    if (!loaded.ok() && args.Get("store", "").empty()) {
      return Fail(loaded.status());
    }
    if (loaded.ok()) building.emplace(std::move(loaded).value());
  }
  const Building* names = building.has_value() ? &*building : nullptr;

  std::optional<std::int32_t> location;
  if (has_query) {
    location = ResolveLocationArg(args.Get("location", ""), names);
    if (!location.has_value()) {
      return Fail("--location is neither a location id nor a known name");
    }
  }

  const std::string store_path = args.Get("store", "");
  if (!store_path.empty()) {
    // Decode mode: read the persisted summary; no cleaning, no session.
    const std::optional<int> tag = args.GetStrictInt("tag", 0);
    if (!tag.has_value()) return Fail("--tag must be an integer");
    Result<store::CtStoreReader> reader =
        store::CtStoreReader::Open(store_path);
    if (!reader.ok()) return Fail(reader.status());
    Result<obs::ExplainTagSummary> summary =
        reader.value().LoadExplain(*tag);
    if (!summary.ok()) return Fail(summary.status());
    if (has_query) {
      return AnswerExplainQuery(summary.value(), names, time, *location);
    }
    PrintExplainSummary(summary.value(), names);
    return 0;
  }

  // Re-clean mode: run the full clean under an explain session and report
  // from the live collection. The cleaned graphs are discarded — this
  // command explains, it does not overwrite DIR's outputs.
  if (!obs::ExplainCompiledIn()) {
    return Fail(
        "explain --dir requires an explain-enabled build (this binary was "
        "configured with -DRFIDCLEAN_EXPLAIN=OFF; --store decode still "
        "works)");
  }
  const std::string dir = args.Get("dir", ".");
  int seed = 1;
  int jobs = 1;
  if (!ReadIntFlag(args, "seed", 0, &seed) ||
      !ReadIntFlag(args, "jobs", 1, &jobs)) {
    return 1;
  }
  Deployment deployment = MakeDeployment(*building, seed);
  ConstraintFamilies families = ConstraintFamilies::DuLtTt();
  Result<ConstraintSet> constraints =
      MakeCliConstraints(args, *building, deployment, &families);
  if (!constraints.ok()) return Fail(constraints.status());
  const bool preflight = !args.GetBool("no-preflight", false);

  obs::ExplainOptions options;
  int top_edges = static_cast<int>(options.top_edges);
  if (!ReadIntFlag(args, "explain-top-edges", 1, &top_edges)) return 1;
  options.top_edges = static_cast<std::size_t>(top_edges);
  Result<CliReadings> readings = LoadCliReadings(dir, *building, deployment);
  if (!readings.ok()) return Fail(readings.status());

  obs::StartExplain(options);
  if (readings.value().multi_tag) {
    BatchOptions batch;
    batch.jobs = jobs;
    batch.preflight = preflight;
    BatchCleaner cleaner(constraints.value(), batch);
    (void)cleaner.CleanAll(readings.value().workloads);
  } else {
    CleanOptions build_options;
    build_options.preflight = preflight;
    CtGraphBuilder builder(constraints.value(), build_options);
    (void)builder.Build(readings.value().workloads.front().sequence);
  }

  const obs::ExplainCollection collection = obs::CollectExplain();
  obs::StopExplain();
  const std::string json = args.Get("json", "");
  if (!json.empty() &&
      WriteJsonFile(json, "json", [&](std::ostream& os) {
        WriteExplainReport(collection, os);
      }) != 0) {
    return 1;
  }
  if (has_query) {
    const std::optional<int> tag = args.GetStrictInt("tag", 0);
    if (!tag.has_value()) return Fail("--tag must be an integer");
    const obs::ExplainTagSummary* summary = collection.FindTag(*tag);
    if (summary == nullptr) {
      return Fail(StrFormat("tag %d was not cleaned (no summary recorded)",
                            *tag)
                      .c_str());
    }
    return AnswerExplainQuery(*summary, names, time, *location);
  }
  for (const obs::ExplainTagSummary& summary : collection.tags) {
    PrintExplainSummary(summary, names);
  }
  return 0;
}

int PatternQuery(const Args& args) {
  const std::string dir = args.Get("dir", ".");
  Result<Building> building = LoadBuilding(dir);
  if (!building.ok()) return Fail(building.status());
  Result<CtGraph> graph = LoadGraph(dir, building.value());
  if (!graph.ok()) return Fail(graph.status());
  std::string text = args.Get("pattern", "");
  if (text.empty()) return Fail("missing --pattern");
  Result<Pattern> pattern = Pattern::Parse(text, building.value());
  if (!pattern.ok()) return Fail(pattern.status());
  std::printf("P(trajectory matches \"%s\") = %.6f\n", text.c_str(),
              EvaluateTrajectoryQuery(graph.value(), pattern.value()));
  return 0;
}

int Sample(const Args& args) {
  int seed = 7;
  int count = 3;
  if (!ReadIntFlag(args, "seed", 0, &seed) ||
      !ReadIntFlag(args, "count", 0, &count)) {
    return 1;
  }
  const std::string dir = args.Get("dir", ".");
  Result<Building> building = LoadBuilding(dir);
  if (!building.ok()) return Fail(building.status());
  Result<CtGraph> graph = LoadGraph(dir, building.value());
  if (!graph.ok()) return Fail(graph.status());
  TrajectorySampler sampler(graph.value());
  Rng rng(static_cast<std::uint64_t>(seed));
  for (int i = 0; i < count; ++i) {
    Trajectory sample = sampler.Sample(rng);
    std::printf("#%d:", i + 1);
    LocationId last = kInvalidLocation;
    for (Timestamp t = 0; t < sample.length(); ++t) {
      if (sample.At(t) != last) {
        last = sample.At(t);
        std::printf(" %s", building.value().location(last).name.c_str());
      }
    }
    std::printf("\n");
  }
  return 0;
}


int Report(const Args& args) {
  const std::string dir = args.Get("dir", ".");
  Result<Building> building = LoadBuilding(dir);
  if (!building.ok()) return Fail(building.status());
  Result<CtGraph> graph = LoadGraph(dir, building.value());
  if (!graph.ok()) return Fail(graph.status());
  const CtGraph& g = graph.value();

  if (args.GetBool("audit", false)) {
    AuditReport audit = AuditGraph(g);
    std::printf("%s\n", audit.ToString().c_str());
    if (!audit.ok()) return 1;
  }

  std::printf("ct-graph: %d ticks, %zu nodes, %zu edges, ~%s\n",
              g.length(), g.NumNodes(), g.NumEdges(),
              HumanBytes(g.ApproximateBytes()).c_str());
  std::printf("residual uncertainty: %.2f bits (%.3g effective "
              "trajectories)\n",
              TrajectoryEntropy(g), EffectiveTrajectories(g));

  auto top = TopKTrajectories(g, 3);
  std::printf("top-%zu reconstructions:\n", top.size());
  for (std::size_t i = 0; i < top.size(); ++i) {
    std::printf("  p=%-10.3g", top[i].second);
    LocationId last = kInvalidLocation;
    int printed = 0;
    for (Timestamp t = 0; t < top[i].first.length() && printed < 10; ++t) {
      if (top[i].first.At(t) != last) {
        last = top[i].first.At(t);
        std::printf(" %s", building.value().location(last).name.c_str());
        ++printed;
      }
    }
    std::printf(printed >= 10 ? " ...\n" : "\n");
  }

  // Busiest expected transitions (door traffic).
  std::size_t n = building.value().NumLocations();
  std::vector<double> flow = ExpectedTransitionCounts(g, n);
  std::printf("busiest transitions (expected counts):\n");
  for (int shown = 0; shown < 5; ++shown) {
    std::size_t best = 0;
    double best_flow = 0.0;
    for (std::size_t i = 0; i < flow.size(); ++i) {
      if (i / n != i % n && flow[i] > best_flow) {
        best_flow = flow[i];
        best = i;
      }
    }
    if (best_flow <= 0.0) break;
    std::printf("  %-14s -> %-14s %.2f\n",
                building.value()
                    .location(static_cast<LocationId>(best / n))
                    .name.c_str(),
                building.value()
                    .location(static_cast<LocationId>(best % n))
                    .name.c_str(),
                best_flow);
    flow[best] = 0.0;
  }
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: rfidclean_cli "
      "<generate|clean|explain|check-constraints|stay|pattern|sample|report|"
      "store> [--key value ...]\n"
      "  generate --floors N --duration T --seed S --out DIR [--tags N]\n"
      "  clean    --dir DIR [--families DU|DU+LT|DU+LT+TT] [--dot F] "
      "[--audit] [--no-preflight] [--jobs N]\n"
      "           [--store FILE] [--stats[=FILE]] [--trace[=FILE]] "
      "[--trace-buffer-events N]\n"
      "           [--explain[=FILE]] [--explain-top-edges N]\n"
      "  explain  --store FILE --tag T [--time T --location L]  (decode a "
      "persisted summary)\n"
      "  explain  --dir DIR [--families ...] [--seed S] [--jobs N] "
      "[--no-preflight] [--tag T]\n"
      "           [--time T --location L] [--json FILE] "
      "[--explain-top-edges N]  (re-clean and attribute)\n"
      "  check-constraints --dir DIR [--families ...] [--json FILE]\n"
      "  stay     --dir DIR --time T [--store FILE --tag T]\n"
      "  pattern  --dir DIR --pattern \"? F0.RoomA[5] ?\"\n"
      "  sample   --dir DIR --count N --seed S\n"
      "  report   --dir DIR [--audit]\n"
      "  store    ls      --store FILE\n"
      "  store    get     --store FILE --tag T --out F [--raw]\n"
      "  store    put     --store FILE --tag T --in F\n"
      "  store    compact --store FILE\n"
      "  store    verify  --store FILE\n");
  return 2;
}

/// Every flag each command reads ("store VERB" for the store verbs). A
/// command given any other flag fails before it runs, so a misspelt or
/// retired flag cannot silently do nothing.
struct CommandFlags {
  const char* command;
  const char* flags;  // space-separated, without "--"
};
constexpr CommandFlags kCommandFlags[] = {
    {"generate", "floors duration seed tags out"},
    {"clean",
     "dir families seed dot audit no-preflight jobs store stats trace "
     "trace-buffer-events explain explain-top-edges"},
    {"explain",
     "dir store tag time location families seed jobs no-preflight json "
     "explain-top-edges"},
    {"check-constraints", "dir families seed json"},
    {"stay", "dir time store tag"},
    {"pattern", "dir pattern"},
    {"sample", "dir count seed"},
    {"report", "dir audit"},
    {"store ls", "store"},
    {"store get", "store tag out raw"},
    {"store put", "store tag in"},
    {"store compact", "store"},
    {"store verify", "store"},
};

/// Fails with "unknown flag --X for 'COMMAND'" when `args` holds a flag
/// `command` does not read; 0 otherwise, and for commands the table does
/// not list (their own dispatch reports them).
int CheckFlags(const std::string& command, const Args& args) {
  for (const CommandFlags& entry : kCommandFlags) {
    if (command != entry.command) continue;
    const std::optional<std::string> unknown = args.FirstUnknown(entry.flags);
    if (!unknown.has_value()) return 0;
    return Fail("unknown flag --" + *unknown + " for '" + command + "'");
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  if (command == "store") {
    if (argc >= 3 &&
        CheckFlags(command + " " + argv[2], Args(argc, argv, 3)) != 0) {
      return 1;
    }
    return StoreCmd(argc, argv);
  }
  Args args(argc, argv, 2);
  if (CheckFlags(command, args) != 0) return 1;
  if (command == "generate") return Generate(args);
  if (command == "clean") return Clean(args);
  if (command == "explain") return Explain(args);
  if (command == "check-constraints") return CheckConstraints(args);
  if (command == "stay") return Stay(args);
  if (command == "pattern") return PatternQuery(args);
  if (command == "sample") return Sample(args);
  if (command == "report") return Report(args);
  return Usage();
}

}  // namespace
}  // namespace rfidclean::cli

int main(int argc, char** argv) { return rfidclean::cli::Main(argc, argv); }
