#include "runtime/batch_cleaner.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "obs/cleaning_stats.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/arena.h"

namespace rfidclean {

namespace {

#if RFIDCLEAN_STATS_ENABLED
/// Maps a tag outcome status onto its taxonomy counter. Internal errors
/// never reach here (exceptions are boxed in CleanAll, which counts them
/// itself).
obs::Counter OutcomeCounter(const Result<CtGraph>& graph) {
  if (graph.ok()) return obs::Counter::kBatchTagsCleaned;
  switch (graph.status().code()) {
    case StatusCode::kFailedPrecondition:
      return obs::Counter::kBatchTagsFailedPrecondition;
    case StatusCode::kInternal:
      return obs::Counter::kBatchTagsInternalError;
    default:
      return obs::Counter::kBatchTagsInvalidArgument;
  }
}
#endif

/// Cleans one workload with its lane's recycled capacity hints, through
/// the same routine as CtGraphBuilder::Build. All error messages
/// are deterministic functions of the workload, so outcomes compare
/// bit-identical across job counts and runs.
TagOutcome CleanOne(const CtGraphBuilder& builder,
                    const TagWorkload& workload, const BatchOptions& options,
                    std::size_t index, runtime::WorkerArena* arena,
                    std::uint64_t constraint_digest) {
  obs::PhaseTimer phase_timer(obs::Phase::kTagClean);
  RFID_STATS(const Stopwatch tag_watch);
  // Every explain summary recorded while this workload cleans — by the
  // conditioning pass, or by the routine itself for a clean that dies
  // early — carries this tag. No-op symbol in explain-off builds.
  obs::SetExplainTag(static_cast<long long>(workload.tag));
  BuildStats stats;
  Result<CtGraph> graph = internal_core::CleanSequence(
      builder, workload.sequence, &stats,
      [arena, &workload](StreamingCleaner& cleaner) {
        arena->Prepare(&cleaner, workload.sequence.length());
      },
      [&options, index](Timestamp t) {
        if (options.after_tick) options.after_tick(index, t);
      });
  if (graph.ok()) arena->Observe(stats, workload.sequence.length());
#if RFIDCLEAN_STATS_ENABLED
  obs::Add(OutcomeCounter(graph));
  obs::ObserveValue(
      obs::Dist::kTagMicros,
      static_cast<std::uint64_t>(tag_watch.ElapsedMillis() * 1000.0));
#endif
  if (obs::TraceActive()) {
    // Graph digesting is a full structural walk — only worth it when a
    // trace session is recording the provenance.
    obs::TagProvenance provenance;
    provenance.tag = static_cast<long long>(workload.tag);
    provenance.input_digest = workload.sequence.Digest();
    provenance.constraint_digest = constraint_digest;
    provenance.graph_digest = graph.ok() ? graph.value().Digest() : 0;
    provenance.forward_millis = stats.forward_millis;
    provenance.backward_millis = stats.backward_millis;
    provenance.status = graph.ok() ? "ok" : graph.status().ToString();
    obs::RecordTagProvenance(std::move(provenance));
  }
  return TagOutcome{workload.tag, std::move(graph), stats};
}

}  // namespace

BatchCleaner::BatchCleaner(const ConstraintSet& constraints,
                           BatchOptions options)
    : options_(std::move(options)),
      builder_(constraints,
               CleanOptions{options_.successor, options_.preflight}),
      constraint_digest_(constraints.Digest()) {
  if (options_.jobs < 1) options_.jobs = 1;
}

std::vector<TagOutcome> BatchCleaner::CleanAll(
    const std::vector<TagWorkload>& workloads) const {
  RFID_TRACE_SPAN(batch_span, "batch", "batch_clean_all");
  RFID_TRACE(batch_span.AddArg("tags", workloads.size()));
  std::vector<std::optional<TagOutcome>> slots(workloads.size());
  if (!workloads.empty()) {
    const std::size_t lanes =
        std::min(static_cast<std::size_t>(options_.jobs), workloads.size());
    RFID_TRACE(batch_span.AddArg("workers", lanes));
    // A lane is held by one thread at a time, so lane-indexed arenas need
    // no synchronization.
    std::vector<runtime::WorkerArena> arenas(lanes);
    // Each tag writes only its own slot, so the order in which lanes
    // finish never shows in the result.
    const auto clean_tag = [&](std::size_t index, int lane) {
      RFID_TRACE(obs::SetTraceThreadName(StrFormat("worker-%d", lane)));
      runtime::WorkerArena& arena = arenas[static_cast<std::size_t>(lane)];
      const TagWorkload& workload = workloads[index];
      std::optional<TagOutcome>& slot = slots[index];
      // Counted per tag (not inside CleanOne) so that every tag gets
      // exactly one provision count and one outcome count, whichever
      // path — success, error status, or throw — it takes.
      RFID_STATS(obs::Add(arena.tick_hint() > 0
                              ? obs::Counter::kBatchArenaReuses
                              : obs::Counter::kBatchArenaColdStarts));
      // Outside the tag span: whether this lane's arena had hints is a
      // scheduling artifact, and tag_clean subtrees must stay identical
      // across job counts (tests/obs_trace_test.cc).
      RFID_TRACE(obs::TraceInstant(
          "batch", "arena_prepare", "reused",
          static_cast<std::uint64_t>(arena.tick_hint() > 0)));
      RFID_TRACE_SPAN(tag_span, "batch", "tag_clean");
      RFID_TRACE(
          tag_span.AddArg("tag", static_cast<std::uint64_t>(workload.tag)));
      try {
        if (options_.before_tag) options_.before_tag(index);
        slot.emplace(CleanOne(builder_, workload, options_, index, &arena,
                              constraint_digest_));
      } catch (const std::exception& e) {
        RFID_STATS(obs::Add(obs::Counter::kBatchTagsInternalError));
        slot.emplace(TagOutcome{
            workload.tag,
            InternalError(StrFormat(
                "uncaught exception while cleaning tag %lld: %s",
                static_cast<long long>(workload.tag), e.what())),
            BuildStats{}});
      } catch (...) {
        RFID_STATS(obs::Add(obs::Counter::kBatchTagsInternalError));
        slot.emplace(TagOutcome{
            workload.tag,
            InternalError(
                StrFormat("uncaught exception while cleaning tag %lld",
                          static_cast<long long>(workload.tag))),
            BuildStats{}});
      }
      RFID_TRACE(tag_span.AddArg(
          "ok", static_cast<std::uint64_t>(slot->graph.ok())));
    };
    // The cursor hands out every tag exactly once, in input order.
    // ParallelFor joins its threads before returning, which folds every
    // lane's metric sinks before anything below reads them.
    ParallelFor(static_cast<int>(lanes), workloads.size(), clean_tag);
    // Sampled once, with every worker joined: a capture taken while other
    // lanes still write their sinks would race them.
    RFID_TRACE(obs::TraceSampleCounterTracks());
  }

  std::vector<TagOutcome> outcomes;
  outcomes.reserve(slots.size());
  for (std::optional<TagOutcome>& slot : slots) {
    RFID_CHECK(slot.has_value());
    outcomes.push_back(std::move(*slot));
  }
  return outcomes;
}

}  // namespace rfidclean
