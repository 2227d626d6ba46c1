#ifndef RFIDCLEAN_BENCH_BENCH_UTIL_H_
#define RFIDCLEAN_BENCH_BENCH_UTIL_H_

#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <ostream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__)
#include <sys/resource.h>
#endif

#include "common/fnv.h"
#include "common/strings.h"
#include "common/table.h"
#include "constraints/inference.h"
#include "eval/experiment.h"
#include "gen/dataset.h"

namespace rfidclean::bench {

/// The value after `name` on the command line, or nullptr when absent.
inline const char* FlagValue(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

inline bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// All of `text`, the value of integer flag `flag` of bench `bench`, as
/// one base-10 integer in [min, max]. Anything else (empty, trailing
/// characters, out of range) prints "<bench>: <flag> must be a positive
/// integer, got '<text>'" (non-negative when `min` is 0) and exits 1.
/// Benches read their flags before doing any work, so nothing has run.
inline long long StrictInt(const char* bench, const char* flag,
                           const std::string& text, long long min,
                           long long max) {
  long long value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) {
    std::fprintf(stderr, "%s: %s must be a %s integer, got '%s'\n", bench,
                 flag, min > 0 ? "positive" : "non-negative", text.c_str());
    std::exit(1);
  }
  return value;
}

/// Integer flag `flag` read by StrictInt, or `fallback` when it is absent.
inline long long IntFlag(const char* bench, int argc, char** argv,
                         const char* flag, long long min, long long fallback,
                         long long max = INT_MAX) {
  const char* text = FlagValue(argc, argv, flag);
  return text != nullptr ? StrictInt(bench, flag, text, min, max) : fallback;
}

/// A comma-separated list of positive integers (--ticks 100,1000), each
/// entry read by StrictInt; `fallback` when the flag is absent.
inline std::vector<int> IntListFlag(const char* bench, int argc, char** argv,
                                    const char* flag, const char* fallback) {
  const char* text = FlagValue(argc, argv, flag);
  std::vector<int> values;
  for (const std::string& token :
       StrSplit(text != nullptr ? text : fallback, ',')) {
    values.push_back(static_cast<int>(StrictInt(bench, flag, token, 1,
                                                INT_MAX)));
  }
  return values;
}

/// Workload scale of a figure bench. Quick mode (the default) keeps the
/// paper's durations (10/60/90/120 min) but averages over 2 trajectories
/// per (dataset, duration) cell instead of 25, so the full suite completes
/// in minutes on one core; `--paper` (or RFIDCLEAN_BENCH_MODE=paper)
/// restores the paper's 25.
struct BenchScale {
  bool paper = false;

  static BenchScale FromArgs(int argc, char** argv) {
    BenchScale scale;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--paper") == 0) scale.paper = true;
    }
    const char* env = std::getenv("RFIDCLEAN_BENCH_MODE");
    if (env != nullptr && std::strcmp(env, "paper") == 0) scale.paper = true;
    return scale;
  }

  int TrajectoriesPerDuration() const { return paper ? 25 : 2; }
  int StayQueriesPerTrajectory() const { return paper ? 100 : 100; }
  int TrajectoryQueriesPerTrajectory() const { return paper ? 50 : 10; }

  const char* Label() const { return paper ? "paper" : "quick"; }
};

inline DatasetOptions MakeSynOptions(int which, const BenchScale& scale) {
  DatasetOptions options =
      which == 1 ? DatasetOptions::Syn1() : DatasetOptions::Syn2();
  options.trajectories_per_duration = scale.TrajectoriesPerDuration();
  return options;
}

inline ExperimentLimits MakeLimits(const BenchScale& scale) {
  ExperimentLimits limits;
  limits.max_items_per_duration = scale.TrajectoriesPerDuration();
  limits.stay_queries_per_trajectory = scale.StayQueriesPerTrajectory();
  limits.trajectory_queries_per_trajectory =
      scale.TrajectoryQueriesPerTrajectory();
  return limits;
}

inline void PrintHeader(const char* figure, const char* description,
                        const BenchScale& scale) {
  std::printf("=== %s ===\n%s\n", figure, description);
  std::printf(
      "mode: %s (%d trajectories per duration cell; pass --paper or set "
      "RFIDCLEAN_BENCH_MODE=paper for the paper's 25)\n\n",
      scale.Label(), scale.TrajectoriesPerDuration());
}

inline std::string Minutes(Timestamp ticks) {
  return StrFormat("%dm", ticks / 60);
}

/// Table cell for the skipped-unsatisfiable count of an experiment row.
/// Annotates the first statically diagnosed doom tick when preflight saw one.
inline std::string SkippedCell(int skipped, Timestamp first_doomed_at) {
  if (skipped == 0) return "0";
  if (first_doomed_at < 0) return StrFormat("%d", skipped);
  return StrFormat("%d (doomed@t=%d)", skipped, first_doomed_at);
}

inline std::vector<ConstraintFamilies> AllFamilies() {
  return {ConstraintFamilies::Du(), ConstraintFamilies::DuLt(),
          ConstraintFamilies::DuLtTt()};
}

/// An output sink that FNV-1a-hashes (common/fnv.h) the bytes written
/// through it and keeps none of them, so a bench digests a text
/// serialization of any size in constant memory:
///
///   FnvSink sink;
///   std::ostream os(&sink);
///   WriteCtGraph(graph, os);
///   const std::uint64_t digest = sink.Digest();
///
/// The digest is the one of the whole text, byte for byte.
class FnvSink : public std::streambuf {
 public:
  FnvSink() { setp(buffer_, buffer_ + sizeof(buffer_)); }
  // The put area points into buffer_, so a copy would write into ours.
  FnvSink(const FnvSink&) = delete;
  FnvSink& operator=(const FnvSink&) = delete;

  /// The digest of every byte written so far.
  std::uint64_t Digest() {
    Drain();
    return fnv_.Digest();
  }

 protected:
  int_type overflow(int_type ch) override {
    Drain();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      sputc(traits_type::to_char_type(ch));
    }
    return traits_type::not_eof(ch);
  }

  int sync() override {
    Drain();
    return 0;
  }

 private:
  /// Mixes the buffered bytes and empties the buffer.
  void Drain() {
    fnv_.Mix(pbase(), static_cast<std::size_t>(pptr() - pbase()));
    setp(buffer_, buffer_ + sizeof(buffer_));
  }

  Fnv64 fnv_;
  char buffer_[4096];
};

/// Process-wide peak resident set in bytes (VmHWM on Linux, ru_maxrss
/// elsewhere). Monotone over the process lifetime: values sampled after a
/// measurement report the peak *so far*, not the increment of one phase.
inline std::size_t PeakRssBytes() {
#if defined(__linux__)
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::size_t>(
                 std::strtoull(line.c_str() + 6, nullptr, 10)) *
             1024;
    }
  }
#endif
#if defined(__unix__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
  }
#endif
  return 0;
}

/// Emitter of the shared bench JSON schema. Every bench that writes a
/// BENCH_*.json produces the same shape, so the CI regression checker
/// (tools/check_bench_regression.py) and downstream tooling parse one
/// format:
///
///   {
///     "schema": 2,
///     "bench": "<name>",
///     "mode": "quick" | "paper",
///     "params": { ...workload knobs... },
///     "results": [ { ...one measured point... }, ... ]
///   }
///
/// Fields keep insertion order and print one per line (the determinism
/// ctest strips timing-dependent lines with a line-oriented regex).
/// "schema" is bumped whenever the shape of the shared fields changes, so
/// the regression gate can refuse to compare files from different eras
/// instead of silently passing (tools/check_bench_regression.py).
class BenchJson {
 public:
  /// Version 2: introduced the "schema" field itself plus the optional
  /// per-result stats_* dimensions (obs/cleaning_stats.h).
  static constexpr int kSchemaVersion = 2;
  class Object {
   public:
    Object& Add(const char* key, double value, int decimals = 3) {
      return AddRaw(key,
                    StrFormat("%.*f", decimals, value));
    }
    Object& Add(const char* key, int value) {
      return AddRaw(key, StrFormat("%d", value));
    }
    Object& Add(const char* key, long long value) {
      return AddRaw(key, StrFormat("%lld", value));
    }
    Object& Add(const char* key, std::size_t value) {
      return AddRaw(key, StrFormat("%zu", value));
    }
    Object& Add(const char* key, const std::string& value) {
      return AddRaw(key, Quote(value));
    }
    Object& Add(const char* key, const char* value) {
      return AddRaw(key, Quote(value));
    }
    Object& AddHex64(const char* key, std::uint64_t value) {
      return AddRaw(key,
                    StrFormat("\"%016llx\"",
                              static_cast<unsigned long long>(value)));
    }

   private:
    friend class BenchJson;

    Object& AddRaw(const char* key, std::string json) {
      fields_.emplace_back(key, std::move(json));
      return *this;
    }

    static std::string Quote(const std::string& text) {
      std::string out = "\"";
      for (char c : text) {
        if (c == '"' || c == '\\') {
          out += '\\';
          out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
      }
      out += '"';
      return out;
    }

    std::vector<std::pair<std::string, std::string>> fields_;
  };

  BenchJson(const char* bench, const char* mode)
      : bench_(bench), mode_(mode) {}

  /// Workload parameters (tags, ticks, seed, ...), printed once.
  Object& params() { return params_; }

  /// Appends one measured point; the reference stays valid (deque).
  Object& AddResult() { return results_.emplace_back(); }

  void WriteTo(std::ostream& os) const {
    os << "{\n";
    os << "  \"schema\": " << kSchemaVersion << ",\n";
    os << "  \"bench\": " << Object::Quote(bench_) << ",\n";
    os << "  \"mode\": " << Object::Quote(mode_) << ",\n";
    os << "  \"params\": {\n";
    WriteFields(os, params_, "    ");
    os << "  },\n  \"results\": [\n";
    for (std::size_t i = 0; i < results_.size(); ++i) {
      os << "    {\n";
      WriteFields(os, results_[i], "      ");
      os << "    }" << (i + 1 < results_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
  }

  /// Writes the report to `path`; complains on stderr and returns false on
  /// failure.
  bool WriteFile(const std::string& path) const {
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    WriteTo(os);
    return true;
  }

 private:
  static void WriteFields(std::ostream& os, const Object& object,
                          const char* indent) {
    for (std::size_t i = 0; i < object.fields_.size(); ++i) {
      os << indent << '"' << object.fields_[i].first
         << "\": " << object.fields_[i].second
         << (i + 1 < object.fields_.size() ? "," : "") << "\n";
    }
  }

  std::string bench_;
  std::string mode_;
  Object params_;
  std::deque<Object> results_;
};

}  // namespace rfidclean::bench

#endif  // RFIDCLEAN_BENCH_BENCH_UTIL_H_
