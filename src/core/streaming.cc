#include "core/streaming.h"

#include <cmath>

#include "common/check.h"
#include "common/float_eq.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/self_audit.h"
#include "core/work_graph.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfidclean {

using internal_core::WorkEdge;
using internal_core::WorkGraph;
using internal_core::WorkNode;

namespace {

Status ValidateCandidates(const std::vector<Candidate>& candidates) {
  if (candidates.empty()) {
    return InvalidArgumentError("tick has no candidate locations");
  }
  double sum = 0.0;
  for (const Candidate& candidate : candidates) {
    if (candidate.location < 0) {
      return InvalidArgumentError("invalid candidate location id");
    }
    if (candidate.probability <= 0.0) {
      return InvalidArgumentError("non-positive candidate probability");
    }
    sum += candidate.probability;
  }
  if (!ApproxOne(sum, kInputProbabilityEpsilon)) {
    return InvalidArgumentError(
        StrFormat("candidate probabilities sum to %f, not 1", sum));
  }
  return Status::Ok();
}

/// Rejects a candidate whose location id the constraint set does not
/// cover; every later stage would index its tables out of range. Push and
/// CleanSequence both check through here, so each cleaning path reports
/// the same status for the same sequence.
Status CheckCandidateLocations(const std::vector<Candidate>& candidates,
                               Timestamp t, std::size_t num_locations) {
  for (const Candidate& candidate : candidates) {
    if (static_cast<std::size_t>(candidate.location) >= num_locations) {
      return InvalidArgumentError(StrFormat(
          "candidate location %d at tick %d is out of range: the "
          "constraint set has %zu locations",
          candidate.location, t, num_locations));
    }
  }
  return Status::Ok();
}

/// Records the explain summary of a clean that stops before Finish with
/// `status`, so a report lists every clean once. A dead end at `dead_tick`
/// leaves no interpretation alive, so conditioning never runs and this is
/// the only place the decision can be explained: one infeasible kill under
/// `phase` (preflight when the static pass proved the tick dead, forward
/// when a Push found it) carries the whole unit of interpretation mass, and
/// the killed-candidate list names every candidate of the tick at its
/// a-priori probability. The ppb splits stay 0: they measure conditioning
/// loss, which never ran. Any other failure (`dead_tick` -1) records the
/// status alone.
void RecordUnfinishedExplain(const LSequence& sequence, const Status& status,
                             Timestamp dead_tick, obs::ExplainPhase phase) {
  obs::ExplainTagSummary summary;
  summary.tag = obs::ExplainCurrentTag();
  summary.status = status.message();
  if (dead_tick >= 0) {
    summary.phase_kills[static_cast<int>(phase)] = 1;
    const int infeasible =
        static_cast<int>(obs::ExplainConstraint::kInfeasible);
    summary.constraints[infeasible] = {1, 1.0};
    summary.attributed_mass = 1.0;
    for (const Candidate& candidate : sequence.CandidatesAt(dead_tick)) {
      summary.killed_candidates.push_back(
          {static_cast<std::int32_t>(dead_tick), candidate.location, phase,
           obs::ExplainConstraint::kInfeasible, candidate.probability});
    }
  }
  obs::RecordTagExplain(std::move(summary));
}

}  // namespace

StreamingCleaner::StreamingCleaner(const ConstraintSet& constraints,
                                   const SuccessorOptions& options)
    : owned_successors_(std::in_place, constraints, options),
      successors_(&*owned_successors_),
      engine_(constraints.num_locations()) {}

StreamingCleaner::StreamingCleaner(const SuccessorGenerator& successors)
    : successors_(&successors),
      engine_(successors.constraints().num_locations()) {}

void StreamingCleaner::ReserveCapacity(std::size_t nodes, std::size_t edges,
                                       Timestamp ticks, std::size_t keys) {
  engine_.ReserveCapacity(nodes, edges, ticks, keys);
}

void StreamingCleaner::SetPreflightPlan(const PreflightPlan* plan) {
  RFID_CHECK_EQ(engine_.num_layers(), 0);
  preflight_plan_ = plan;
}

Status StreamingCleaner::Push(const std::vector<Candidate>& candidates) {
  RFID_TRACE_SPAN(span, "stream", "stream_push");
  RFID_TRACE(span.AddArg("t", static_cast<std::uint64_t>(TicksSeen())));
  if (failed_) {
    return FailedPreconditionError(
        "a previous tick left no consistent interpretation");
  }
  obs::PhaseTimer phase_timer(obs::Phase::kForward);
  RFID_RETURN_IF_ERROR(ValidateCandidates(candidates));
  RFID_RETURN_IF_ERROR(CheckCandidateLocations(
      candidates, TicksSeen(), successors_->constraints().num_locations()));
  // The plan indexes ticks and candidates by position, so the Push stream
  // must be exactly the candidate lists the plan was computed from. A tick
  // past the plan or of another width is rejected before any state moves.
  if (preflight_plan_ != nullptr) {
    const std::size_t t = static_cast<std::size_t>(TicksSeen());
    const std::size_t planned_ticks = preflight_plan_->admissible.size();
    if (t >= planned_ticks) {
      return InvalidArgumentError(StrFormat(
          "tick %zu is past the preflight plan, which covers %zu ticks", t,
          planned_ticks));
    }
    const std::size_t planned = preflight_plan_->admissible[t].size();
    if (candidates.size() != planned) {
      return InvalidArgumentError(StrFormat(
          "tick %zu has %zu candidates but the preflight plan has %zu", t,
          candidates.size(), planned));
    }
  }

  // Explain capture: the attribution pass needs the *full* tick (with the
  // plan's pruned flags), not the filtered one the engine sees. Dead code
  // when explain is compiled out (ExplainArmed() is a compile-time false).
  if (obs::ExplainArmed()) {
    explain_ctx_.successors = successors_;
    const std::size_t t = static_cast<std::size_t>(TicksSeen());
    std::vector<internal_core::ExplainTickCandidate> tick;
    tick.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const bool pruned =
          preflight_plan_ != nullptr && !preflight_plan_->admissible[t][i];
      tick.push_back(
          {candidates[i].location, candidates[i].probability, pruned});
    }
    explain_ctx_.ticks.push_back(std::move(tick));
  }

  // Static pruning: validation always sees the caller's full tick, then
  // candidates the plan proved dead are dropped before the engine does any
  // work.
  const std::vector<Candidate>* effective = &candidates;
  if (preflight_plan_ != nullptr) {
    const std::size_t t = static_cast<std::size_t>(TicksSeen());
    if (preflight_plan_->PrunedAt(static_cast<Timestamp>(t))) {
      preflight_plan_->FilterTick(static_cast<Timestamp>(t), candidates,
                                  &plan_filtered_);
      effective = &plan_filtered_;
    }
  }

  if (engine_.num_layers() == 0) {
    // First tick: source nodes, one per candidate, with the candidate
    // probability as the (unnormalized) filtered mass.
    engine_.BeginSources(*successors_, *effective);
    const WorkGraph& work = engine_.work();
    frontier_alpha_.clear();
    const std::int32_t end = work.layer_begin[1];
    for (std::int32_t id = 0; id < end; ++id) {
      frontier_alpha_.push_back(
          work.nodes[static_cast<std::size_t>(id)].source_probability);
    }
    if (obs::ExplainArmed()) explain_ctx_.alpha_deltas.push_back(0.0);
    return Status::Ok();
  }

  const Timestamp t = TicksSeen() - 1;
  const WorkGraph& work = engine_.work();
  const std::size_t layers = work.layer_begin.size();
  const std::int32_t frontier_begin = work.layer_begin[layers - 2];
  const std::int32_t frontier_end = work.layer_begin[layers - 1];
  if (!engine_.AdvanceLayer(*successors_, t, *effective)) {
    // No node of the frontier admits a successor compatible with this
    // tick: every interpretation is now invalid. Nothing was appended
    // (successor generation produced no node or edge), so the previous
    // state remains intact for inspection.
    failed_ = true;
    return internal_core::InfeasibleSequenceError();
  }

  // Forward-filter update: each fresh edge carries the a-priori mass of
  // its target, and the frontier's CSR slices enumerate successors in
  // generation order, so this reproduces the classical alpha recursion
  // term by term.
  const std::int32_t layer_begin = frontier_end;
  const std::int32_t layer_end = work.layer_begin.back();
  next_alpha_.assign(static_cast<std::size_t>(layer_end - layer_begin), 0.0);
  for (std::int32_t id = frontier_begin; id < frontier_end; ++id) {
    const WorkNode& node = work.nodes[static_cast<std::size_t>(id)];
    const double mass =
        frontier_alpha_[static_cast<std::size_t>(id - frontier_begin)];
    const WorkEdge* out =
        work.edges.data() + static_cast<std::size_t>(node.edge_begin);
    for (std::int32_t k = 0; k < node.edge_count; ++k) {
      next_alpha_[static_cast<std::size_t>(out[k].to - layer_begin)] +=
          mass * out[k].probability;
    }
  }
  const double total =
      simd::BlockedSum(next_alpha_.data(), next_alpha_.size());
  // Renormalization delta: the filtered mass the constraint checks shaved
  // off this tick before the division restored a unit total.
  double delta = 1.0 - total;
  if (total > 0.0) {
    simd::DivideInPlace(next_alpha_.data(), next_alpha_.size(), total);
  } else if (!alpha_underflowed_) {
    // The layer is structurally consistent, but the filtered mass of
    // every surviving interpretation underflowed to exact zero — reachable
    // only with denormal-scale candidate probabilities, because the
    // renormalization flushes a path whose relative mass drops below the
    // double range before the dominant paths die. The exact graph still
    // exists (Finish rescales per layer), so the tick is kept; the whole
    // unit of filtered mass is booked here, and every later frontier
    // reads as zeros.
    alpha_underflowed_ = true;
    RFID_STATS(obs::Add(obs::Counter::kStreamAlphaUnderflows));
  } else {
    delta = 0.0;  // Nothing left to lose.
  }
  if (obs::ExplainArmed()) {
    explain_ctx_.alpha_deltas.push_back(delta > 0.0 ? delta : 0.0);
  }
  frontier_alpha_.swap(next_alpha_);
  return Status::Ok();
}

std::vector<std::pair<LocationId, double>>
StreamingCleaner::CurrentDistribution() const {
  RFID_CHECK_GT(engine_.num_layers(), 0);
  const WorkGraph& work = engine_.work();
  const std::size_t layers = work.layer_begin.size();
  const std::int32_t frontier_begin = work.layer_begin[layers - 2];
  const std::int32_t frontier_end = work.layer_begin[layers - 1];
  // Location-indexed accumulation: one O(locations) clear plus O(1) per
  // frontier node, replacing the old O(frontier × locations) linear probe
  // of the output vector. The output keeps the historical first-encounter
  // order over ascending node ids, with bit-identical values — each
  // location's masses still accumulate in ascending node-id order (locked
  // by StreamingTest.CurrentDistributionKeepsFirstEncounterOrder).
  const std::size_t num_locations =
      successors_->constraints().num_locations();
  dist_mass_.assign(num_locations, 0.0);
  dist_seen_.assign(num_locations, 0);
  std::vector<LocationId> order;
  for (std::int32_t id = frontier_begin; id < frontier_end; ++id) {
    const LocationId location =
        work.keys.key(work.nodes[static_cast<std::size_t>(id)].key_id)
            .location;
    const std::size_t l = static_cast<std::size_t>(location);
    if (dist_seen_[l] == 0) {
      dist_seen_[l] = 1;
      order.push_back(location);
    }
    dist_mass_[l] +=
        frontier_alpha_[static_cast<std::size_t>(id - frontier_begin)];
  }
  std::vector<std::pair<LocationId, double>> distribution;
  distribution.reserve(order.size());
  for (const LocationId location : order) {
    distribution.emplace_back(location,
                              dist_mass_[static_cast<std::size_t>(location)]);
  }
  return distribution;
}

Result<CtGraph> StreamingCleaner::Finish(BuildStats* stats) && {
  RFID_TRACE_SPAN(span, "stream", "stream_finish");
  RFID_TRACE(span.AddArg("ticks", static_cast<std::uint64_t>(TicksSeen())));
  RFID_CHECK_GT(engine_.num_layers(), 0);
  if (stats != nullptr) {
    stats->peak_nodes = engine_.work().nodes.size();
    stats->peak_edges = engine_.work().edges.size();
    stats->peak_keys = engine_.num_keys();
  }
  Result<CtGraph> graph = internal_core::ConditionAndCompact(
      engine_.TakeWork(), stats,
      obs::ExplainArmed() ? &explain_ctx_ : nullptr);
  if (graph.ok()) {
    RFID_RETURN_IF_ERROR(RunCtGraphAuditHook(graph.value()));
  }
  return graph;
}

namespace internal_core {

Result<CtGraph> CleanSequence(
    const CtGraphBuilder& builder, const LSequence& sequence,
    BuildStats* stats,
    const std::function<void(StreamingCleaner&)>& prepare,
    const std::function<void(Timestamp)>& after_tick) {
  // Finish's conditioning summarizes every clean that reaches it; this
  // records the ones that stop earlier.
  const auto unfinished =
      [&sequence](Status status, Timestamp dead_tick = -1,
                  obs::ExplainPhase phase = obs::ExplainPhase::kForward)
      -> Result<CtGraph> {
    if (obs::ExplainArmed()) {
      RecordUnfinishedExplain(sequence, status, dead_tick, phase);
    }
    return status;
  };
  if (sequence.length() == 0) {
    return unfinished(InvalidArgumentError("l-sequence must not be empty"));
  }
  // Before preflight: the oracle indexes its tables by location too.
  const std::size_t num_locations =
      builder.successors().constraints().num_locations();
  for (Timestamp t = 0; t < sequence.length(); ++t) {
    Status in_range =
        CheckCandidateLocations(sequence.CandidatesAt(t), t, num_locations);
    if (!in_range.ok()) return unfinished(std::move(in_range));
  }
  BuildStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  // Preflight (docs/ALGORITHM.md §11): a doomed sequence fails before a
  // single layer is materialized, and statically dead candidates never
  // reach the engine. Both leave the outcome byte-identical.
  std::optional<PreflightPlan> plan;
  if (const FeasibilityOracle* oracle = builder.oracle()) {
    const Stopwatch preflight_watch;
    plan = oracle->Analyze(sequence);
    stats->preflight_millis = preflight_watch.ElapsedMillis();
    stats->doomed_at = plan->doomed_at;
    stats->preflight_candidates_pruned = plan->candidates_pruned;
    if (plan->doomed()) {
      return unfinished(InfeasibleSequenceError(), plan->dead_end_at,
                        obs::ExplainPhase::kPreflight);
    }
    if (!plan->any_pruned()) plan.reset();
  }

  StreamingCleaner cleaner(builder.successors());
  if (prepare) prepare(cleaner);
  if (plan.has_value()) cleaner.SetPreflightPlan(&*plan);
  const Stopwatch forward_watch;
  for (Timestamp t = 0; t < sequence.length(); ++t) {
    Status pushed = cleaner.Push(sequence.CandidatesAt(t));
    if (!pushed.ok()) {
      // Push fails with FailedPrecondition only at a dead end.
      const bool dead_end = pushed.code() == StatusCode::kFailedPrecondition;
      return unfinished(std::move(pushed), dead_end ? t : -1);
    }
    if (after_tick) after_tick(t);
  }
  stats->forward_millis = forward_watch.ElapsedMillis();
  return std::move(cleaner).Finish(stats);
}

}  // namespace internal_core
}  // namespace rfidclean
