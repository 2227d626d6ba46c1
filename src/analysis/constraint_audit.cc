#include "analysis/constraint_audit.h"

#include <utility>

#include "common/check.h"
#include "common/strings.h"

namespace rfidclean {
namespace {

class FindingSink {
 public:
  FindingSink(const ConstraintAuditOptions& options,
              ConstraintAuditReport* report)
      : options_(options), report_(report) {}

  std::string Name(LocationId l) const {
    const std::size_t index = static_cast<std::size_t>(l);
    if (index < options_.location_names.size()) {
      return options_.location_names[index];
    }
    return StrFormat("location %d", l);
  }

  void Emit(ConstraintDiagnostic code, LocationId from, LocationId to,
            Timestamp bound, std::string message) {
    if (report_->findings.size() >= options_.max_findings) {
      report_->truncated = true;
      return;
    }
    ConstraintFinding finding;
    finding.code = code;
    finding.severity = SeverityOf(code);
    finding.from = from;
    finding.to = to;
    finding.bound = bound;
    finding.message = std::move(message);
    report_->findings.push_back(std::move(finding));
  }

 private:
  const ConstraintAuditOptions& options_;
  ConstraintAuditReport* report_;
};

}  // namespace

const char* ConstraintSeverityName(ConstraintSeverity severity) {
  switch (severity) {
    case ConstraintSeverity::kError:
      return "error";
    case ConstraintSeverity::kWarning:
      return "warning";
    case ConstraintSeverity::kInfo:
      return "info";
  }
  return "?";
}

const char* ConstraintDiagnosticName(ConstraintDiagnostic code) {
  switch (code) {
    case ConstraintDiagnostic::kTravelingTimeUnsatisfiable:
      return "tt-unsatisfiable";
    case ConstraintDiagnostic::kNoExit:
      return "no-exit";
    case ConstraintDiagnostic::kSinkLocation:
      return "sink-location";
    case ConstraintDiagnostic::kRedundantUnreachable:
      return "redundant-unreachable";
    case ConstraintDiagnostic::kRedundantTravelingTime:
      return "redundant-traveling-time";
    case ConstraintDiagnostic::kUncoveredLocation:
      return "uncovered-location";
    case ConstraintDiagnostic::kUnreachableFromCoverage:
      return "unreachable-from-coverage";
  }
  return "?";
}

ConstraintSeverity SeverityOf(ConstraintDiagnostic code) {
  switch (code) {
    case ConstraintDiagnostic::kTravelingTimeUnsatisfiable:
    case ConstraintDiagnostic::kNoExit:
      return ConstraintSeverity::kError;
    case ConstraintDiagnostic::kSinkLocation:
    case ConstraintDiagnostic::kUncoveredLocation:
    case ConstraintDiagnostic::kUnreachableFromCoverage:
      return ConstraintSeverity::kWarning;
    case ConstraintDiagnostic::kRedundantUnreachable:
    case ConstraintDiagnostic::kRedundantTravelingTime:
      return ConstraintSeverity::kInfo;
  }
  return ConstraintSeverity::kError;
}

std::string ConstraintFinding::ToString() const {
  return StrFormat("[%s] %s: %s", ConstraintSeverityName(severity),
                   ConstraintDiagnosticName(code), message.c_str());
}

std::size_t ConstraintAuditReport::CountOf(ConstraintSeverity severity) const {
  std::size_t count = 0;
  for (const ConstraintFinding& finding : findings) {
    if (finding.severity == severity) ++count;
  }
  return count;
}

std::size_t ConstraintAuditReport::CountOf(ConstraintDiagnostic code) const {
  std::size_t count = 0;
  for (const ConstraintFinding& finding : findings) {
    if (finding.code == code) ++count;
  }
  return count;
}

std::string ConstraintAuditReport::ToString() const {
  std::string out = StrFormat(
      "constraint audit: %zu locations, %zu DU + %zu TT + %zu LT "
      "constraints; %zu errors, %zu warnings, %zu infos\n",
      num_locations, num_unreachable, num_traveling_time, num_latency,
      CountOf(ConstraintSeverity::kError),
      CountOf(ConstraintSeverity::kWarning),
      CountOf(ConstraintSeverity::kInfo));
  for (const ConstraintFinding& finding : findings) {
    out += "  " + finding.ToString() + "\n";
  }
  if (truncated) out += "  ... findings truncated at the collection cap\n";
  return out;
}

void ConstraintAuditReport::WriteJson(std::ostream& os) const {
  os << "{\n"
     << "  \"schema\": 1,\n"
     << StrFormat("  \"num_locations\": %zu,\n", num_locations)
     << StrFormat(
            "  \"constraints\": {\"unreachable\": %zu, "
            "\"traveling_time\": %zu, \"latency\": %zu},\n",
            num_unreachable, num_traveling_time, num_latency)
     << StrFormat(
            "  \"counts\": {\"error\": %zu, \"warning\": %zu, "
            "\"info\": %zu},\n",
            CountOf(ConstraintSeverity::kError),
            CountOf(ConstraintSeverity::kWarning),
            CountOf(ConstraintSeverity::kInfo))
     << "  \"truncated\": " << (truncated ? "true" : "false") << ",\n"
     << "  \"ok\": " << (ok() ? "true" : "false") << ",\n"
     << "  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const ConstraintFinding& finding = findings[i];
    os << (i == 0 ? "\n" : ",\n")
       << StrFormat(
              "    {\"code\": \"%s\", \"severity\": \"%s\", \"from\": %d, "
              "\"to\": %d, \"bound\": %d, \"message\": \"%s\"}",
              ConstraintDiagnosticName(finding.code),
              ConstraintSeverityName(finding.severity), finding.from,
              finding.to, finding.bound,
              JsonEscape(finding.message).c_str());
  }
  os << (findings.empty() ? "]\n" : "\n  ]\n") << "}\n";
}

ConstraintAuditReport AuditConstraints(const ConstraintSet& constraints,
                                       const TravelClosure& closure,
                                       const ConstraintAuditOptions& options) {
  RFID_CHECK_EQ(constraints.num_locations(), closure.num_locations());
  const LocationId n = static_cast<LocationId>(constraints.num_locations());

  ConstraintAuditReport report;
  report.num_locations = constraints.num_locations();
  report.num_unreachable = constraints.NumUnreachable();
  report.num_traveling_time = constraints.NumTravelingTime();
  report.num_latency = constraints.NumLatency();
  FindingSink sink(options, &report);

  // Traveling-time diagnostics: contradictions against the closure, then
  // the two redundancy directions of a DU/TT pair.
  for (LocationId from = 0; from < n; ++from) {
    for (const TravelingTime& tt : constraints.TravelingTimesFrom(from)) {
      if (!closure.Reachable(tt.from, tt.to)) {
        sink.Emit(ConstraintDiagnostic::kTravelingTimeUnsatisfiable, tt.from,
                  tt.to, tt.min_ticks,
                  StrFormat("travelingTime(%s, %s, %d) constrains a journey "
                            "the DU constraints already rule out entirely",
                            sink.Name(tt.from).c_str(),
                            sink.Name(tt.to).c_str(), tt.min_ticks));
        continue;
      }
      if (!constraints.IsUnreachable(tt.from, tt.to)) continue;
      sink.Emit(ConstraintDiagnostic::kRedundantUnreachable, tt.from, tt.to,
                tt.min_ticks,
                StrFormat("unreachable(%s, %s) is implied by "
                          "travelingTime(.., %d): a bound of two or more "
                          "ticks already forbids the direct move",
                          sink.Name(tt.from).c_str(),
                          sink.Name(tt.to).c_str(), tt.min_ticks));
      const Timestamp path = closure.PathTicks(tt.from, tt.to);
      if (path >= tt.min_ticks) {
        sink.Emit(ConstraintDiagnostic::kRedundantTravelingTime, tt.from,
                  tt.to, tt.min_ticks,
                  StrFormat("travelingTime(%s, %s, %d) is implied by the "
                            "closure: every remaining path already needs "
                            ">= %d ticks",
                            sink.Name(tt.from).c_str(),
                            sink.Name(tt.to).c_str(), tt.min_ticks, path));
      }
    }
  }

  // Exit diagnostics: can an object at `from` ever leave?
  for (LocationId from = 0; from < n && n > 1; ++from) {
    std::size_t non_du_targets = 0;
    std::size_t one_tick_exits = 0;
    for (LocationId to = 0; to < n; ++to) {
      if (to == from || constraints.IsUnreachable(from, to)) continue;
      ++non_du_targets;
      if (constraints.MinTravelTicks(from, to) <= 1) ++one_tick_exits;
    }
    if (non_du_targets == 0) {
      sink.Emit(ConstraintDiagnostic::kSinkLocation, from, kInvalidLocation, 0,
                StrFormat("every move out of %s is directly unreachable; "
                          "objects reaching it are trapped",
                          sink.Name(from).c_str()));
    } else if (one_tick_exits == 0) {
      sink.Emit(ConstraintDiagnostic::kNoExit, from, kInvalidLocation, 0,
                StrFormat("%s has %zu non-DU targets but every one carries a "
                          "traveling-time bound > 1, so no first hop exists "
                          "and the location can never be left",
                          sink.Name(from).c_str(), non_du_targets));
    }
  }

  // Coverage diagnostics, only with deployment data.
  if (!options.covered_locations.empty()) {
    RFID_CHECK_EQ(options.covered_locations.size(),
                  constraints.num_locations());
    for (LocationId l = 0; l < n; ++l) {
      if (options.covered_locations[static_cast<std::size_t>(l)]) continue;
      sink.Emit(ConstraintDiagnostic::kUncoveredLocation, l, kInvalidLocation,
                0,
                StrFormat("no reader covers %s; stays there are invisible",
                          sink.Name(l).c_str()));
      bool reachable_from_coverage = false;
      for (LocationId c = 0; c < n && !reachable_from_coverage; ++c) {
        reachable_from_coverage =
            options.covered_locations[static_cast<std::size_t>(c)] &&
            closure.Reachable(c, l);
      }
      if (!reachable_from_coverage) {
        sink.Emit(ConstraintDiagnostic::kUnreachableFromCoverage, l,
                  kInvalidLocation, 0,
                  StrFormat("%s is unreachable from every covered location; "
                            "no observed object can ever be placed there",
                            sink.Name(l).c_str()));
      }
    }
  }

  return report;
}

}  // namespace rfidclean
