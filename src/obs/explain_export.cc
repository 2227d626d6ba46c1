#include "obs/explain_export.h"

#if RFIDCLEAN_EXPLAIN_ENABLED

#include <cstdint>
#include <vector>

#include "common/strings.h"

namespace rfidclean::obs {
namespace {

struct Indent {
  int spaces;
};

std::ostream& operator<<(std::ostream& os, Indent indent) {
  for (int i = 0; i < indent.spaces; ++i) os.put(' ');
  return os;
}

/// Masses are printed with %.17g so the report round-trips doubles exactly:
/// byte-identical reports across worker counts are a tested contract.
std::string Mass(double value) { return StrFormat("%.17g", value); }

void WriteConstraintTotals(std::ostream& os,
                           const ExplainConstraintTotal* totals, Indent pad) {
  os << "{\n";
  for (int i = 0; i < kNumExplainConstraints; ++i) {
    os << Indent{pad.spaces + 2} << '"'
       << ExplainConstraintName(static_cast<ExplainConstraint>(i))
       << "\": {\"kills\": " << totals[i].kills
       << ", \"mass\": " << Mass(totals[i].mass) << '}'
       << (i + 1 < kNumExplainConstraints ? ",\n" : "\n");
  }
  os << pad << '}';
}

void WritePhaseKills(std::ostream& os, const std::uint64_t* kills,
                     Indent pad) {
  os << "{\n";
  for (int i = 0; i < kNumExplainPhases; ++i) {
    os << Indent{pad.spaces + 2} << '"'
       << ExplainPhaseName(static_cast<ExplainPhase>(i)) << "\": " << kills[i]
       << (i + 1 < kNumExplainPhases ? ",\n" : "\n");
  }
  os << pad << '}';
}

void WriteTimeline(std::ostream& os, const std::vector<ExplainTickSummary>& ticks,
                   Indent pad) {
  os << "[\n";
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    const ExplainTickSummary& tick = ticks[i];
    os << Indent{pad.spaces + 2} << "{\"time\": " << tick.time
       << ", \"candidates\": " << tick.candidates
       << ", \"killed\": " << tick.killed
       << ", \"mass_lost\": " << Mass(tick.mass_lost)
       << ", \"alpha_delta\": " << Mass(tick.alpha_delta) << '}'
       << (i + 1 < ticks.size() ? ",\n" : "\n");
  }
  os << pad << ']';
}

void WriteTag(std::ostream& os, const ExplainTagSummary& tag, Indent pad) {
  const Indent inner{pad.spaces + 2};
  std::uint64_t kills = 0;
  for (int i = 0; i < kNumExplainPhases; ++i) kills += tag.phase_kills[i];
  os << pad << "{\n";
  os << inner << "\"tag\": " << tag.tag << ",\n";
  os << inner << "\"status\": \"" << JsonEscape(tag.status) << "\",\n";
  os << inner << "\"kills\": " << kills << ",\n";
  os << inner << "\"surviving_mass\": " << Mass(tag.surviving_mass) << ",\n";
  os << inner << "\"attributed_mass\": " << Mass(tag.attributed_mass)
     << ",\n";
  os << inner
     << "\"mass_lost_backward_ppb\": " << tag.mass_lost_backward_ppb << ",\n";
  os << inner
     << "\"mass_lost_compaction_ppb\": " << tag.mass_lost_compaction_ppb
     << ",\n";
  os << inner << "\"by_constraint\": ";
  WriteConstraintTotals(os, tag.constraints, inner);
  os << ",\n";
  os << inner << "\"by_phase\": ";
  WritePhaseKills(os, tag.phase_kills, inner);
  os << ",\n";
  os << inner << "\"timeline\": ";
  WriteTimeline(os, tag.ticks, inner);
  os << ",\n";
  os << inner << "\"killed_candidates\": [\n";
  for (std::size_t i = 0; i < tag.killed_candidates.size(); ++i) {
    const ExplainKilledCandidate& killed = tag.killed_candidates[i];
    os << Indent{inner.spaces + 2} << "{\"time\": " << killed.time
       << ", \"location\": " << killed.location << ", \"phase\": \""
       << ExplainPhaseName(killed.phase) << "\", \"constraint\": \""
       << ExplainConstraintName(killed.constraint)
       << "\", \"mass\": " << Mass(killed.mass) << '}'
       << (i + 1 < tag.killed_candidates.size() ? ",\n" : "\n");
  }
  os << inner << "],\n";
  os << inner << "\"killed_candidates_truncated\": "
     << tag.killed_candidates_truncated << ",\n";
  os << inner << "\"top_killed_edges\": [\n";
  for (std::size_t i = 0; i < tag.top_edges.size(); ++i) {
    const ExplainKilledEdge& edge = tag.top_edges[i];
    os << Indent{inner.spaces + 2} << "{\"time\": " << edge.time
       << ", \"from\": " << edge.from_location << ", \"to\": "
       << edge.to_location << ", \"phase\": \""
       << ExplainPhaseName(edge.phase) << "\", \"constraint\": \""
       << ExplainConstraintName(edge.constraint)
       << "\", \"mass\": " << Mass(edge.mass) << '}'
       << (i + 1 < tag.top_edges.size() ? ",\n" : "\n");
  }
  os << inner << "]\n";
  os << pad << '}';
}

}  // namespace

void WriteExplainReport(const ExplainCollection& collection, std::ostream& os,
                        int indent) {
  const Indent pad{indent};
  const Indent inner{indent + 2};

  // Session totals, summed across tags. The ppb splits are additive across
  // tags on purpose: they mirror the sum the stats layer accumulates in its
  // Dist::kMassLost*Ppb histograms, which obs_stats_test cross-checks.
  ExplainConstraintTotal constraints[kNumExplainConstraints];
  std::uint64_t phases[kNumExplainPhases] = {};
  std::uint64_t kills = 0;
  std::uint64_t backward_ppb = 0;
  std::uint64_t compaction_ppb = 0;
  double surviving = 0.0;
  double attributed = 0.0;
  std::vector<ExplainTickSummary> timeline;
  for (const ExplainTagSummary& tag : collection.tags) {
    for (int i = 0; i < kNumExplainConstraints; ++i) {
      constraints[i].kills += tag.constraints[i].kills;
      constraints[i].mass += tag.constraints[i].mass;
    }
    for (int i = 0; i < kNumExplainPhases; ++i) {
      phases[i] += tag.phase_kills[i];
      kills += tag.phase_kills[i];
    }
    backward_ppb += tag.mass_lost_backward_ppb;
    compaction_ppb += tag.mass_lost_compaction_ppb;
    surviving += tag.surviving_mass;
    attributed += tag.attributed_mass;
    for (const ExplainTickSummary& tick : tag.ticks) {
      const std::size_t index = static_cast<std::size_t>(tick.time);
      if (timeline.size() <= index) {
        timeline.resize(index + 1);
        timeline[index].time = tick.time;
      }
      timeline[index].candidates += tick.candidates;
      timeline[index].killed += tick.killed;
      timeline[index].mass_lost += tick.mass_lost;
      timeline[index].alpha_delta += tick.alpha_delta;
    }
  }

  os << "{\n";
  os << inner << "\"explain_format_version\": " << kExplainFormatVersion
     << ",\n";
  os << inner << "\"status\": \"ok\",\n";
  os << inner << "\"explain_enabled\": true,\n";
  os << inner << "\"num_tags\": " << collection.tags.size() << ",\n";
  os << inner << "\"totals\": {\n";
  const Indent tot{indent + 4};
  os << tot << "\"kills\": " << kills << ",\n";
  os << tot << "\"surviving_mass\": " << Mass(surviving) << ",\n";
  os << tot << "\"attributed_mass\": " << Mass(attributed) << ",\n";
  os << tot << "\"mass_lost_backward_ppb\": " << backward_ppb << ",\n";
  os << tot << "\"mass_lost_compaction_ppb\": " << compaction_ppb << ",\n";
  os << tot << "\"by_constraint\": ";
  WriteConstraintTotals(os, constraints, tot);
  os << ",\n";
  os << tot << "\"by_phase\": ";
  WritePhaseKills(os, phases, tot);
  os << "\n" << inner << "},\n";
  os << inner << "\"timeline\": ";
  WriteTimeline(os, timeline, inner);
  os << ",\n";
  os << inner << "\"tags\": [\n";
  for (std::size_t i = 0; i < collection.tags.size(); ++i) {
    WriteTag(os, collection.tags[i], Indent{indent + 4});
    os << (i + 1 < collection.tags.size() ? ",\n" : "\n");
  }
  os << inner << "]\n";
  os << pad << '}';
}

}  // namespace rfidclean::obs

#endif  // RFIDCLEAN_EXPLAIN_ENABLED
