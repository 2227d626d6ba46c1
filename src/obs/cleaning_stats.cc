#include "obs/cleaning_stats.h"

#include <cinttypes>
#include <cstdio>

#include "common/check.h"
#include "common/strings.h"
#include "obs/trace_export.h"

namespace rfidclean::obs {
namespace {

struct Indent {
  int spaces;
};

std::ostream& operator<<(std::ostream& os, Indent indent) {
  for (int i = 0; i < indent.spaces; ++i) os.put(' ');
  return os;
}

void WriteHistogram(std::ostream& os, const HistogramData& h, Indent pad) {
  os << "{\n";
  os << pad << "  \"count\": " << h.count << ",\n";
  os << pad << "  \"sum\": " << h.sum << ",\n";
  os << pad << "  \"max\": " << h.max << ",\n";
  os << pad << "  \"mean\": " << StrFormat("%.3f", h.Mean()) << ",\n";
  // Emit buckets up to the last non-empty one; log2 buckets beyond the max
  // observed value are always zero.
  int last = -1;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    if (h.buckets[i] > 0) last = i;
  }
  os << pad << "  \"log2_buckets\": [";
  for (int i = 0; i <= last; ++i) {
    if (i > 0) os << ", ";
    os << h.buckets[i];
  }
  os << "]\n" << pad << "}";
}

}  // namespace

const char* CounterName(Counter counter) {
  switch (counter) {
    case Counter::kIoRowsParsed: return "io_rows_parsed";
    case Counter::kIoRowsRejected: return "io_rows_rejected";
    case Counter::kForwardLayers: return "forward_layers";
    case Counter::kForwardNodes: return "forward_nodes";
    case Counter::kForwardEdges: return "forward_edges";
    case Counter::kForwardExpansions: return "forward_expansions";
    case Counter::kForwardMemoHits: return "forward_memo_hits";
    case Counter::kForwardKeysInterned: return "forward_keys_interned";
    case Counter::kStreamAlphaUnderflows: return "stream_alpha_underflows";
    case Counter::kKeyInternCalls: return "key_intern_calls";
    case Counter::kKeyProbeSteps: return "key_probe_steps";
    case Counter::kBackwardEdgesBuilt: return "backward_edges_built";
    case Counter::kBackwardEdgesKilled: return "backward_edges_killed";
    case Counter::kBackwardEdgesKept: return "backward_edges_kept";
    case Counter::kBackwardNodesDead: return "backward_nodes_dead";
    case Counter::kBackwardRenormPasses: return "backward_renorm_passes";
    case Counter::kBatchTagsCleaned: return "batch_tags_cleaned";
    case Counter::kBatchTagsFailedPrecondition:
      return "batch_tags_failed_precondition";
    case Counter::kBatchTagsInvalidArgument:
      return "batch_tags_invalid_argument";
    case Counter::kBatchTagsInternalError: return "batch_tags_internal_error";
    case Counter::kBatchArenaReuses: return "batch_arena_reuses";
    case Counter::kBatchArenaColdStarts: return "batch_arena_cold_starts";
    case Counter::kPreflightNodesPruned: return "preflight_nodes_pruned";
    case Counter::kPreflightEdgesPruned: return "preflight_edges_pruned";
    case Counter::kPreflightTagsDoomed: return "preflight_tags_doomed";
    case Counter::kStoreBlobsEncoded: return "store_blobs_encoded";
    case Counter::kStoreBytesEncoded: return "store_bytes_encoded";
    case Counter::kStoreBlobsDecoded: return "store_blobs_decoded";
    case Counter::kStoreBytesDecoded: return "store_bytes_decoded";
    case Counter::kStoreCrcFailures: return "store_crc_failures";
    case Counter::kCount: break;
  }
  RFID_CHECK(false);  // unreachable: exhaustive switch
  return "";
}

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kForward: return "forward_millis";
    case Phase::kBackward: return "backward_millis";
    case Phase::kIoParse: return "io_parse_millis";
    case Phase::kTagClean: return "tag_clean_millis";
    case Phase::kPreflight: return "preflight_millis";
    case Phase::kStoreEncode: return "store_encode_millis";
    case Phase::kStoreDecode: return "store_decode_millis";
    case Phase::kCount: break;
  }
  RFID_CHECK(false);  // unreachable: exhaustive switch
  return "";
}

const char* DistName(Dist dist) {
  switch (dist) {
    case Dist::kLayerWidth: return "layer_width";
    case Dist::kTagMicros: return "tag_micros";
    case Dist::kKeyProbeMax: return "key_probe_max";
    case Dist::kKeyOccupancyPct: return "key_occupancy_pct";
    case Dist::kMassLostBackwardPpb: return "mass_lost_backward_ppb";
    case Dist::kMassLostCompactionPpb: return "mass_lost_compaction_ppb";
    case Dist::kCount: break;
  }
  RFID_CHECK(false);  // unreachable: exhaustive switch
  return "";
}

CleaningStats CleaningStats::Capture() {
  CleaningStats stats;
  internal::SnapshotInto(stats.counters, stats.phase_millis, stats.dists);
  return stats;
}

void CleaningStats::Reset() { internal::ResetAll(); }

CleaningStats CleaningStats::DeltaSince(const CleaningStats& earlier) const {
  CleaningStats delta;
  for (int i = 0; i < kNumCounters; ++i) {
    delta.counters[i] = counters[i] - earlier.counters[i];
  }
  for (int i = 0; i < kNumPhases; ++i) {
    delta.phase_millis[i] = phase_millis[i] - earlier.phase_millis[i];
  }
  // Histograms are monotone too (count/sum/max/buckets only grow), but max
  // is not subtractable; a delta keeps the later window's max as an upper
  // bound on the window's true max.
  for (int i = 0; i < kNumDists; ++i) {
    delta.dists[i].count = dists[i].count - earlier.dists[i].count;
    delta.dists[i].sum = dists[i].sum - earlier.dists[i].sum;
    delta.dists[i].max = dists[i].max;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      delta.dists[i].buckets[b] =
          dists[i].buckets[b] - earlier.dists[i].buckets[b];
    }
  }
  return delta;
}

std::vector<std::string> CleaningStats::CheckInvariants() const {
  std::vector<std::string> violations;
  if (!Enabled()) return violations;
  auto require = [&](bool ok, const std::string& message) {
    if (!ok) violations.push_back(message);
  };
  auto eq = [&](Counter lhs_a, Counter lhs_b, Counter rhs) {
    const std::uint64_t sum = Get(lhs_a) + Get(lhs_b);
    require(sum == Get(rhs),
            StrFormat("%s (%llu) + %s (%llu) != %s (%llu)",
                      CounterName(lhs_a),
                      static_cast<unsigned long long>(Get(lhs_a)),
                      CounterName(lhs_b),
                      static_cast<unsigned long long>(Get(lhs_b)),
                      CounterName(rhs),
                      static_cast<unsigned long long>(Get(rhs))));
  };
  // Every edge entering conditioning is either killed or kept.
  eq(Counter::kBackwardEdgesKilled, Counter::kBackwardEdgesKept,
     Counter::kBackwardEdgesBuilt);
  // Conditioning sees exactly the edges the forward phase built.
  require(Get(Counter::kBackwardEdgesBuilt) == Get(Counter::kForwardEdges),
          StrFormat("backward_edges_built (%llu) != forward_edges (%llu)",
                    static_cast<unsigned long long>(
                        Get(Counter::kBackwardEdgesBuilt)),
                    static_cast<unsigned long long>(
                        Get(Counter::kForwardEdges))));
  // Interning happens only through NodeKeyArena::Intern, and an open-
  // addressing lookup always probes at least once.
  require(Get(Counter::kForwardKeysInterned) <= Get(Counter::kKeyInternCalls),
          "forward_keys_interned exceeds key_intern_calls");
  require(Get(Counter::kKeyProbeSteps) >= Get(Counter::kKeyInternCalls),
          "key_probe_steps below key_intern_calls");
  // Layer-width samples correspond one-to-one with recorded layers, and the
  // widths sum to the node total.
  require(Hist(Dist::kLayerWidth).count == Get(Counter::kForwardLayers),
          "layer_width sample count != forward_layers");
  require(Hist(Dist::kLayerWidth).sum == Get(Counter::kForwardNodes),
          "layer_width sample sum != forward_nodes");
  // Every conditioning pass samples both per-phase mass-loss splits.
  require(Hist(Dist::kMassLostBackwardPpb).count ==
              Hist(Dist::kMassLostCompactionPpb).count,
          "mass_lost_backward_ppb sample count != "
          "mass_lost_compaction_ppb sample count");
  // Every tag that entered the batch runtime got its arena provisioned
  // exactly once (reused hints or a cold start) and landed in exactly one
  // outcome bucket.
  const std::uint64_t outcomes =
      Get(Counter::kBatchTagsCleaned) +
      Get(Counter::kBatchTagsFailedPrecondition) +
      Get(Counter::kBatchTagsInvalidArgument) +
      Get(Counter::kBatchTagsInternalError);
  const std::uint64_t prepared = Get(Counter::kBatchArenaReuses) +
                                 Get(Counter::kBatchArenaColdStarts);
  require(prepared == outcomes,
          StrFormat("batch_arena_reuses + batch_arena_cold_starts (%llu) != "
                    "batch tag outcomes (%llu)",
                    static_cast<unsigned long long>(prepared),
                    static_cast<unsigned long long>(outcomes)));
  return violations;
}

void TraceSampleCounterTracks() {
#if RFIDCLEAN_STATS_ENABLED && RFIDCLEAN_TRACE_ENABLED
  if (!TraceActive()) return;
  const CleaningStats stats = CleaningStats::Capture();
  TraceCounter("forward_nodes", stats.Get(Counter::kForwardNodes));
  TraceCounter("forward_edges", stats.Get(Counter::kForwardEdges));
  TraceCounter("backward_edges_killed",
               stats.Get(Counter::kBackwardEdgesKilled));
  TraceCounter("batch_tags_cleaned", stats.Get(Counter::kBatchTagsCleaned));
#endif
}

void CleaningStats::WriteJson(std::ostream& os, int indent,
                              const std::vector<TagProvenance>* provenance)
    const {
  const Indent pad{indent};
  const Indent inner{indent + 2};
  os << "{\n";
  os << inner << "\"stats_enabled\": " << (Enabled() ? "true" : "false")
     << ",\n";
  os << inner << "\"counters\": {\n";
  for (int i = 0; i < kNumCounters; ++i) {
    os << Indent{indent + 4} << '"'
       << CounterName(static_cast<Counter>(i)) << "\": " << counters[i]
       << (i + 1 < kNumCounters ? ",\n" : "\n");
  }
  os << inner << "},\n";
  os << inner << "\"phases\": {\n";
  for (int i = 0; i < kNumPhases; ++i) {
    os << Indent{indent + 4} << '"' << PhaseName(static_cast<Phase>(i))
       << "\": " << StrFormat("%.3f", phase_millis[i])
       << (i + 1 < kNumPhases ? ",\n" : "\n");
  }
  os << inner << "},\n";
  os << inner << "\"histograms\": {\n";
  for (int i = 0; i < kNumDists; ++i) {
    os << Indent{indent + 4} << '"' << DistName(static_cast<Dist>(i))
       << "\": ";
    WriteHistogram(os, dists[i], Indent{indent + 4});
    os << (i + 1 < kNumDists ? ",\n" : "\n");
  }
  os << inner << (provenance != nullptr ? "},\n" : "}\n");
  if (provenance != nullptr) {
    os << inner << "\"provenance\": ";
    WriteProvenanceJson(*provenance, os, indent + 2);
    os << "\n";
  }
  os << pad << "}";
}

}  // namespace rfidclean::obs
