#ifndef RFIDCLEAN_CORE_STREAMING_H_
#define RFIDCLEAN_CORE_STREAMING_H_

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "constraints/constraint_set.h"
#include "core/builder.h"
#include "core/forward.h"
#include "core/successor.h"
#include "model/lsequence.h"

namespace rfidclean {

/// Incremental (streaming) cleaning: real monitoring systems receive
/// readings one tick at a time and want live position estimates long before
/// the monitoring window closes. StreamingCleaner maintains the ct-graph
/// forward phase online:
///
///   StreamingCleaner cleaner(constraints);
///   for each tick: cleaner.Push(candidates);      // from AprioriModel
///                  cleaner.CurrentDistribution(); // live estimate
///   auto graph = std::move(cleaner).Finish();     // exact ct-graph
///
/// CurrentDistribution() is the *filtered* marginal: conditioned on the
/// readings and constraint checks up to now (future readings can still
/// retroactively invalidate interpretations, which is what Finish()'s
/// backward phase accounts for — the classical filtering vs smoothing
/// distinction).
///
/// This is the only driver of the forward engine and of the conditioning
/// tail: CtGraphBuilder::Build and the batch runtime both clean through
/// internal_core::CleanSequence below, so Finish() produces exactly the
/// graph Build returns for the same sequence.
class StreamingCleaner {
 public:
  /// The constraint set must outlive the cleaner. Builds a private
  /// successor generator (hop distances and TL windows are derived here;
  /// prefer the shared-generator constructor when cleaning many tags under
  /// one constraint set).
  explicit StreamingCleaner(
      const ConstraintSet& constraints,
      const SuccessorOptions& options = SuccessorOptions());

  /// Shares a prebuilt generator. The generator (and its constraint set)
  /// must outlive the cleaner; its generation methods are const, so one
  /// generator can serve any number of concurrent cleaners — the batch
  /// runtime builds it once per job instead of once per tag.
  explicit StreamingCleaner(const SuccessorGenerator& successors);

  /// Pre-reserves the internal node/edge/layer/key storage. Purely an
  /// allocation hint: results are bit-identical with or without it. Batch
  /// drivers (runtime/batch_cleaner.h) recycle the high-water marks of the
  /// cleanings a worker already ran through this, so steady-state cleaning
  /// skips the geometric regrowth of the node, edge, and intern-table
  /// arenas. Call before the first Push; later calls only ever grow
  /// capacity.
  void ReserveCapacity(std::size_t nodes, std::size_t edges, Timestamp ticks,
                       std::size_t keys = 0);

  /// Attaches a preflight plan (analysis/feasibility.h) computed over the
  /// exact candidate lists this cleaner will be Pushed, in order: each Push
  /// then drops the candidates the plan marked statically dead before they
  /// reach the forward engine. The plan must outlive the cleaner and must
  /// not be doomed (callers fail fast instead of pushing a doomed
  /// sequence). Finish()'s graph is byte-identical with or without a plan;
  /// CurrentDistribution() becomes partially future-aware, since the plan
  /// encodes backward knowledge of the whole sequence. Call before the
  /// first Push; pass nullptr to detach.
  void SetPreflightPlan(const PreflightPlan* plan);

  /// Appends the candidate interpretation of the next tick (location,
  /// probability pairs summing to 1, as produced by AprioriModel /
  /// LSequence). Fails with InvalidArgument, leaving the cleaner as it was,
  /// when the tick is malformed, names a location id the constraint set
  /// does not cover, or, under a preflight plan, lies past the plan's last
  /// tick or holds a different number of candidates than the plan has for
  /// it. Fails with FailedPrecondition — the message Finish and
  /// CtGraphBuilder::Build report for an infeasible sequence — when no
  /// frontier node admits a successor: every interpretation dies at this
  /// tick, nothing is appended, the cleaner stays observably at its
  /// previous state, and further Pushes are rejected. Fails the same way,
  /// but with ResourceExhausted naming the tick and the count, when the
  /// tick would take a node id or an edge offset past INT32_MAX.
  ///
  /// A tick whose successors exist but whose filtered mass underflows to
  /// exact zero (possible only with denormal-scale candidate
  /// probabilities) is not a failure: the exact ct-graph still exists, and
  /// Finish's per-layer rescaling recovers it. The layer is appended and
  /// Push returns Ok; only the live estimate is lost (see
  /// CurrentDistribution).
  Status Push(const std::vector<Candidate>& candidates);

  /// Number of ticks consumed so far.
  Timestamp TicksSeen() const { return engine_.num_layers(); }

  /// Filtered distribution over locations at the latest tick (sums to 1).
  /// Once the filtered mass has underflowed (see Push), every later
  /// frontier reports zero mass at each of its locations. Requires at
  /// least one successful Push.
  std::vector<std::pair<LocationId, double>> CurrentDistribution() const;

  /// Runs the backward conditioning over everything seen and returns the
  /// exact ct-graph (identical to CtGraphBuilder::Build's). Consumes the
  /// cleaner. Requires at least one successful Push. Records an explain
  /// summary when a session is armed now and was armed at the first Push.
  Result<CtGraph> Finish(BuildStats* stats = nullptr) &&;

 private:
  /// Appends one tick that Push accepted to explain_ctx_, when capturing.
  void CaptureExplainTick(const std::vector<Candidate>& candidates,
                          double alpha_delta);

  std::optional<SuccessorGenerator> owned_successors_;
  const SuccessorGenerator* successors_;
  internal_core::ForwardEngine engine_;
  /// Filtered forward mass per frontier node (aligned with the engine's
  /// last layer, renormalized every tick; all zeros once it underflowed).
  std::vector<double> frontier_alpha_;
  std::vector<double> next_alpha_;
  bool alpha_underflowed_ = false;
  /// Optional static-pruning plan; scratch holds the filtered tick.
  const PreflightPlan* preflight_plan_ = nullptr;
  std::vector<Candidate> plan_filtered_;
  /// Explain-session inputs (obs/explain.h), captured for every accepted
  /// tick when a session was armed at the first Push, and threaded into
  /// Finish's conditioning call: the full candidate lists (with pruned
  /// flags) plus the per-tick renormalization deltas of the alpha
  /// recursion. A cleaner whose first Push ran unarmed never captures, so
  /// a session armed mid-stream records no summary for it.
  bool capture_explain_ = false;
  internal_core::ExplainBuildContext explain_ctx_;
  /// CurrentDistribution scratch: per-location mass and first-encounter
  /// marks, reused across calls.
  mutable std::vector<double> dist_mass_;
  mutable std::vector<char> dist_seen_;
  bool failed_ = false;
};

namespace internal_core {

/// The one cleaning routine (Algorithm 1, docs/ALGORITHM.md §7) behind
/// CtGraphBuilder::Build and the batch runtime's per-tag clean:
///  1. an empty sequence fails with InvalidArgument, and so does a
///     candidate location the constraint set does not cover (Push's
///     status for the first such candidate);
///  2. preflight, when `builder` has an oracle: a statically doomed
///     sequence fails fast with Finish's infeasibility status, and a plan
///     that prunes anything is attached to the cleaner;
///  3. a StreamingCleaner over `builder`'s successor generator is handed
///     to `prepare` (capacity hints) and then Pushed every tick, with
///     `after_tick(t)` run after each;
///  4. Finish conditions and compacts.
/// `stats` (optional) receives every phase timing and count. While an
/// explain session is armed, a clean that dies before Finish records its
/// summary for the current explain tag: a dead end (a doomed preflight or
/// a Push that finds no successor) books one infeasible kill of the whole
/// unit of mass at its tick, under the phase that found it, and any other
/// failure records the status alone. Finish records its own.
Result<CtGraph> CleanSequence(
    const CtGraphBuilder& builder, const LSequence& sequence,
    BuildStats* stats,
    const std::function<void(StreamingCleaner&)>& prepare = nullptr,
    const std::function<void(Timestamp)>& after_tick = nullptr);

}  // namespace internal_core
}  // namespace rfidclean

#endif  // RFIDCLEAN_CORE_STREAMING_H_
