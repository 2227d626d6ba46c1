#ifndef RFIDCLEAN_OBS_EXPLAIN_H_
#define RFIDCLEAN_OBS_EXPLAIN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// \file
/// Decision-level attribution for the cleaning pipeline: *why* did
/// conditioning remove a candidate, an edge or a node, and how much
/// probability mass did each integrity constraint cost.
///
/// The metrics layer (obs/metrics.h) counts kills and the tracer
/// (obs/trace.h) times them; this layer records the decisions themselves.
/// Every kill is tagged with `{tag, timestamp, edge-or-node key, phase,
/// constraint, mass}` where the phase names the pipeline stage that made
/// the decision (preflight prune, forward candidate rejection, backward
/// zeroing, compaction strand) and the constraint names the Definition-3
/// check that failed. Mass is attributed at the *root cause*: the a-priori
/// probability that the killed decision removed from the interpretation
/// space, computed so the per-constraint masses plus the surviving source
/// mass sum to 1 for every cleaned tag (docs/ALGORITHM.md §14).
///
/// The recorder keeps per-tag summaries only, no per-decision event
/// stream: the attribution pass (core/explain_attribution.cc) assembles
/// each tag's summary in one walk over the liveness the backward sweep and
/// compaction decided, and RecordTagExplain appends it under the session
/// mutex — one append per cleaned tag, never per edge. A clean that dies
/// before conditioning records its summary in the cleaning routine
/// (core/streaming.cc). A session is armed and disarmed by a process-wide
/// relaxed atomic.
///
/// A clean is explained when the session is armed at its first tick: a
/// StreamingCleaner decides at its first Push whether it captures the
/// per-tick inputs, and one whose first Push ran unarmed records no
/// summary, even if a session is armed before it finishes.
///
/// Configure with -DRFIDCLEAN_EXPLAIN=OFF to compile every probe to a
/// no-op (the build defines RFIDCLEAN_EXPLAIN_OFF): no recorder symbols
/// are emitted and cleaning output is byte-identical, exactly like
/// RFIDCLEAN_STATS and RFIDCLEAN_TRACE. With the recorder compiled in but
/// disarmed, every probe costs one relaxed load and a branch.
///
/// Statements that exist purely to feed the recorder are wrapped in
/// RFID_EXPLAIN(...) so disabled builds drop them entirely.

#if defined(RFIDCLEAN_EXPLAIN_OFF)
#define RFIDCLEAN_EXPLAIN_ENABLED 0
#define RFID_EXPLAIN(expr) ((void)0)
#else
#define RFIDCLEAN_EXPLAIN_ENABLED 1
#define RFID_EXPLAIN(expr) expr
#endif

namespace rfidclean::obs {

/// Explain-session configuration, passed to StartExplain. Defined in all
/// build modes so callers compile unchanged when explain is compiled out.
struct ExplainOptions {
  /// How many killed edges each per-tag summary retains, ranked by
  /// attributed mass (the "top-K killed edges" of the JSON report).
  std::size_t top_edges = 16;
};

/// Pipeline stage that made a kill decision.
enum class ExplainPhase : std::uint8_t {
  kPreflight,   ///< statically-dead candidate pruned before the build
  kForward,     ///< candidate rejected by the successor relation
  kBackward,    ///< edge/node zeroed: no surviving suffix downstream
  kCompaction,  ///< node stranded: unreachable from a surviving source
  kCount
};
inline constexpr int kNumExplainPhases = static_cast<int>(ExplainPhase::kCount);

/// Which integrity-constraint check (or structural condition) killed the
/// decision. The first three mirror the Definition-3 successor checks.
enum class ExplainConstraint : std::uint8_t {
  kUnreachable,   ///< DU: direct move between disconnected locations
  kTravelTime,    ///< TT: arrival earlier than the minimum travel time
  kLatency,       ///< TL: departure forced by the latency bound
  kInfeasible,    ///< no admissible continuation at all (structural)
  kPropagated,    ///< every continuation died downstream (backward sweep)
  kStranded,      ///< unreachable from a surviving source (compaction)
  kRenormalized,  ///< informational: per-tick filtered-mass delta, not a kill
  kCount
};
inline constexpr int kNumExplainConstraints =
    static_cast<int>(ExplainConstraint::kCount);

/// Per-constraint rollup inside a tag summary.
struct ExplainConstraintTotal {
  std::uint64_t kills = 0;
  double mass = 0.0;  ///< root-cause a-priori mass (0 for non-root causes)
};

/// One timestamp of a tag's uncertainty-reduction series.
struct ExplainTickSummary {
  std::int32_t time = 0;
  std::uint32_t candidates = 0;  ///< a-priori candidates at this tick
  std::uint32_t killed = 0;      ///< candidates absent from the cleaned graph
  double mass_lost = 0.0;        ///< root-cause mass attributed at this tick
  double alpha_delta = 0.0;      ///< filtered-mass renormalization delta
};

/// One killed candidate (t, location): the answer to "why is location X
/// absent at time t". `phase`/`constraint` name the dominant (largest-mass)
/// cause among the decisions that removed it.
struct ExplainKilledCandidate {
  std::int32_t time = 0;
  std::int32_t location = -1;
  ExplainPhase phase = ExplainPhase::kForward;
  ExplainConstraint constraint = ExplainConstraint::kInfeasible;
  double mass = 0.0;
};

/// One killed edge, ranked by attributed mass in the per-tag top-K list.
struct ExplainKilledEdge {
  std::int32_t time = 0;  ///< timestamp of the target node
  std::int32_t from_location = -1;
  std::int32_t to_location = -1;
  ExplainPhase phase = ExplainPhase::kForward;
  ExplainConstraint constraint = ExplainConstraint::kInfeasible;
  double mass = 0.0;
};

/// Everything the explain layer knows about one cleaned tag. Assembled by
/// the attribution pass (core/explain_attribution.cc) with status and
/// per-phase ppb splits, and appended via RecordTagExplain. Defined in all
/// build modes so the store codec (store/explain_codec.h) keeps one ABI.
struct ExplainTagSummary {
  long long tag = 0;
  std::string status;  ///< "ok" or the failure status string
  /// Scaled conditioning loss in parts-per-billion, split by phase; the two
  /// sum to the value the stats layer records across Dist::kMassLost*Ppb.
  std::uint64_t mass_lost_backward_ppb = 0;
  std::uint64_t mass_lost_compaction_ppb = 0;
  /// A-priori mass of the trajectories conditioning keeps (the forward
  /// mass summed over the last layer's surviving nodes), and the total
  /// root-cause mass attributed to kills: the two sum to ~1.
  double surviving_mass = 0.0;
  double attributed_mass = 0.0;
  std::uint64_t phase_kills[kNumExplainPhases] = {};
  ExplainConstraintTotal constraints[kNumExplainConstraints];
  std::vector<ExplainTickSummary> ticks;
  std::vector<ExplainKilledCandidate> killed_candidates;
  /// Count beyond the retention cap (0 means killed_candidates is exact).
  std::uint64_t killed_candidates_truncated = 0;
  std::vector<ExplainKilledEdge> top_edges;  ///< mass-descending, capped at K
};

/// Snapshot of one explain session: the per-tag summaries, sorted by tag.
struct ExplainCollection {
  std::vector<ExplainTagSummary> tags;

  const ExplainTagSummary* FindTag(long long tag) const {
    for (const ExplainTagSummary& summary : tags) {
      if (summary.tag == tag) return &summary;
    }
    return nullptr;
  }
};

/// Whether this build can record explain decisions (compile-time constant).
constexpr bool ExplainCompiledIn() { return RFIDCLEAN_EXPLAIN_ENABLED != 0; }

#if RFIDCLEAN_EXPLAIN_ENABLED

namespace internal {
/// Session-armed flag; same memory-order contract as the tracer's.
extern std::atomic<bool> g_explain_armed;
inline bool ExplainArmedRelaxed() {
  return g_explain_armed.load(std::memory_order_relaxed);
}
}  // namespace internal

/// Begins a fresh explain session: clears previous summaries and arms the
/// recorder. Quiesce instrumented threads first (BatchCleaner joins its
/// pool before returning).
void StartExplain(const ExplainOptions& options);

/// Disarms the recorder and releases the session's summaries.
void StopExplain();

/// Whether an explain session is active.
inline bool ExplainArmed() { return internal::ExplainArmedRelaxed(); }

/// The active session's options (defaults when no session is active).
ExplainOptions ExplainSessionOptions();

/// Appends one tag's finished summary to the session. No-op unless a
/// session is active.
void RecordTagExplain(ExplainTagSummary summary);

/// Sets the tag id the calling thread is currently cleaning. The core
/// layers stamp this id into the summaries they record (they do
/// not know tag ids themselves); the batch runtime sets it before each
/// per-tag clean, single-tag paths leave the default 0.
void SetExplainTag(long long tag);

/// The calling thread's current tag id (0 outside a per-tag clean).
long long ExplainCurrentTag();

/// Snapshots the per-tag summaries without disturbing the session. They
/// are sorted by tag, so the collection is deterministic for any worker
/// count.
ExplainCollection CollectExplain();

#else  // !RFIDCLEAN_EXPLAIN_ENABLED

inline void StartExplain(const ExplainOptions&) {}
inline void StopExplain() {}
inline bool ExplainArmed() { return false; }
inline ExplainOptions ExplainSessionOptions() { return {}; }
inline void RecordTagExplain(ExplainTagSummary) {}
inline void SetExplainTag(long long) {}
inline long long ExplainCurrentTag() { return 0; }
inline ExplainCollection CollectExplain() { return {}; }

#endif  // RFIDCLEAN_EXPLAIN_ENABLED

/// Snake-case stable identifiers used by the JSON report and the CLI.
/// Defined in all build modes (the store codec and CLI print them).
const char* ExplainPhaseName(ExplainPhase phase);
const char* ExplainConstraintName(ExplainConstraint constraint);

}  // namespace rfidclean::obs

#endif  // RFIDCLEAN_OBS_EXPLAIN_H_
