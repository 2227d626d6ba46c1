#ifndef RFIDCLEAN_RUNTIME_BATCH_CLEANER_H_
#define RFIDCLEAN_RUNTIME_BATCH_CLEANER_H_

#include <functional>
#include <vector>

#include "common/result.h"
#include "constraints/constraint_set.h"
#include "core/builder.h"
#include "core/ct_graph.h"
#include "core/streaming.h"
#include "model/lsequence.h"
#include "model/reading.h"

namespace rfidclean {

/// One tag's interpreted reading stream, ready for cleaning. Tags are
/// independent given the map and the constraint set (the per-tag factoring
/// of Cao et al.'s distributed RFID inference), so a batch of workloads is
/// embarrassingly parallel.
struct TagWorkload {
  TagId tag = 0;
  LSequence sequence;
};

/// The per-tag result: either the conditioned trajectory graph or the error
/// that tag's stream produced — exactly what CtGraphBuilder::Build returns
/// for the same sequence (an inconsistent stream yields FailedPrecondition,
/// an empty one InvalidArgument). One tag failing never affects another.
struct TagOutcome {
  TagId tag = 0;
  Result<CtGraph> graph;
  BuildStats stats;
};

struct BatchOptions {
  /// Lanes of the batch's ParallelFor, the calling thread included.
  /// Values < 1 are clamped to 1; jobs == 1 cleans on the calling thread
  /// without spawning. More jobs than tags is fine — CleanAll starts at
  /// most one lane per tag.
  int jobs = 1;
  SuccessorOptions successor;
  /// Static feasibility preflight (see CleanOptions::preflight): doomed
  /// tags fail fast without pushing a single tick, and statically dead
  /// candidates are dropped before the engine sees them. Output graphs and
  /// statuses are byte-identical either way.
  bool preflight = true;
  /// Instrumentation/test hook run on the cleaning thread right before the
  /// workload at position `index` is cleaned. Must be thread-safe; an
  /// exception it throws is converted into an Internal outcome for that
  /// tag only.
  std::function<void(std::size_t index)> before_tag;
  /// Instrumentation/test hook run after each successfully pushed tick of
  /// workload `index`, while that tag's graph is partially built. Same
  /// contract as before_tag: thread-safe, and a throw yields an Internal
  /// outcome for that tag only — with the lane's arena still recyclable
  /// for the next tag (enforced by tests/batch_stress_test.cc).
  std::function<void(std::size_t index, Timestamp t)> after_tick;
};

/// Cleans N independent tag streams concurrently: one ParallelFor
/// (common/parallel.h) of min(jobs, N) lanes, the calling thread being
/// lane 0, whose atomic cursor hands out tags one at a time in input
/// order, so a lane that finishes early takes the next tag and skewed
/// batches keep every lane busy. The forward phase inside each tag stays
/// one sequential sweep. Each lane recycles its allocation
/// high-water marks across the tags it cleans (runtime/arena.h), and every
/// outcome lands in the slot of its workload, so the result order — and
/// every byte of every result — is independent of scheduling. Per tag the
/// engine is the routine CtGraphBuilder::Build runs
/// (internal_core::CleanSequence: preflight, StreamingCleaner, Finish),
/// which makes "parallel ≡ sequential" exact: BatchCleaner output is
/// bit-identical to looping StreamingCleaner over the same workloads
/// (enforced by tests/batch_differential_test.cc) and to Build.
///
/// CleanAll never starts, collects or stops an observability session. The
/// caller arms one with obs::StartTracing / obs::StartExplain before the
/// call; lanes then record into it, each tag's records stamped with its
/// TagId whichever lane cleaned it.
///
/// Thread-safety inputs: the ConstraintSet and the shared CtGraphBuilder
/// are immutable after construction (the generator's constraint tables —
/// hop distances, TL relevance windows — and the preflight oracle are
/// derived once here instead of once per tag) and the self-audit hook
/// (core/self_audit.h) is an atomic read, so lanes share all of them
/// without synchronization.
class BatchCleaner {
 public:
  /// The constraint set must outlive the cleaner.
  explicit BatchCleaner(const ConstraintSet& constraints,
                        BatchOptions options = BatchOptions());

  /// Cleans every workload; outcomes are returned in workload order
  /// regardless of jobs and scheduling. The lanes' threads live for this
  /// call only and are joined before it returns. An empty batch returns an
  /// empty vector without spawning threads.
  std::vector<TagOutcome> CleanAll(
      const std::vector<TagWorkload>& workloads) const;

  int jobs() const { return options_.jobs; }

 private:
  BatchOptions options_;
  /// Shared by every lane: its successor generator and preflight oracle
  /// are const after construction, and each tag runs its one cleaning
  /// routine.
  CtGraphBuilder builder_;
  /// Computed once at construction; stamped into every tag's trace
  /// provenance record (constraint sets are immutable and shared).
  std::uint64_t constraint_digest_ = 0;
};

}  // namespace rfidclean

#endif  // RFIDCLEAN_RUNTIME_BATCH_CLEANER_H_
