#include "analysis/feasibility.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfidclean {
namespace {

// State bits of the relaxation: an object at a candidate location is either
// fresh (arrived this tick) or settled (was already there last tick).
constexpr unsigned char kSettled = 1;
constexpr unsigned char kFresh = 2;
constexpr unsigned char kBothStates = kSettled | kFresh;

// Location-level move admissibility of the relaxation (freshness/latency is
// the caller's concern): a one-tick move a -> b that no DU pair and no
// two-or-more-tick TT bound forbids.
inline bool MoveAllowed(const ConstraintSet& constraints, LocationId a,
                        LocationId b) {
  return !constraints.IsUnreachable(a, b) &&
         constraints.MinTravelTicks(a, b) <= 1;
}

}  // namespace

TravelClosure::TravelClosure(const ConstraintSet& constraints)
    : num_locations_(constraints.num_locations()),
      constraints_(&constraints),
      path_ticks_(num_locations_ * num_locations_, kUnreachable) {
  const LocationId n = static_cast<LocationId>(num_locations_);
  // Departing an intermediate m costs max(1, LT(m)) ticks: the latency
  // constraint pins the object at m before the move completes. The first
  // hop costs 1 — the closure assumes the stay at the path's start is
  // already long enough, which keeps the bound a true lower bound.
  std::vector<Timestamp> out_cost(num_locations_, 1);
  for (LocationId l = 0; l < n; ++l) {
    out_cost[static_cast<std::size_t>(l)] =
        std::max<Timestamp>(1, constraints.LatencyOf(l));
  }
  using Entry = std::pair<Timestamp, LocationId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  for (LocationId source = 0; source < n; ++source) {
    Timestamp* dist =
        &path_ticks_[static_cast<std::size_t>(source) * num_locations_];
    dist[source] = 0;
    queue.push({0, source});
    while (!queue.empty()) {
      const auto [d, a] = queue.top();
      queue.pop();
      if (d > dist[a]) continue;
      const Timestamp step =
          a == source ? 1 : out_cost[static_cast<std::size_t>(a)];
      for (LocationId b = 0; b < n; ++b) {
        if (b == a || !HasDirectEdge(a, b)) continue;
        const Timestamp through = d + step;
        if (through < dist[b]) {
          dist[b] = through;
          queue.push({through, b});
        }
      }
    }
  }
}

bool TravelClosure::HasDirectEdge(LocationId from, LocationId to) const {
  return from != to && MoveAllowed(*constraints_, from, to);
}

Timestamp TravelClosure::PathTicks(LocationId from, LocationId to) const {
  return path_ticks_[static_cast<std::size_t>(from) * num_locations_ +
                     static_cast<std::size_t>(to)];
}

Timestamp TravelClosure::MinTravelTicks(LocationId from, LocationId to) const {
  return std::max(PathTicks(from, to), constraints_->MinTravelTicks(from, to));
}

bool PreflightPlan::PrunedAt(Timestamp t) const {
  const auto& ticks = admissible[static_cast<std::size_t>(t)];
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    if (!ticks[i]) return true;
  }
  return false;
}

void PreflightPlan::FilterTick(Timestamp t, const std::vector<Candidate>& in,
                               std::vector<Candidate>* out) const {
  const auto& ticks = admissible[static_cast<std::size_t>(t)];
  RFID_CHECK_EQ(in.size(), ticks.size());
  out->clear();
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (ticks[i]) out->push_back(in[i]);
  }
}

FeasibilityOracle::FeasibilityOracle(const ConstraintSet& constraints)
    : constraints_(&constraints), closure_(constraints) {}

PreflightPlan FeasibilityOracle::Analyze(const LSequence& sequence) const {
  obs::PhaseTimer timer(obs::Phase::kPreflight);
  RFID_TRACE_SPAN(span, "analysis", "preflight");
  const ConstraintSet& constraints = *constraints_;
  const std::size_t length = static_cast<std::size_t>(sequence.length());

  PreflightPlan plan;
  plan.admissible.resize(length);
  if (length == 0) return plan;

  // Forward pass: states reachable from the sources (which are fresh — the
  // stay at a latency-constrained source location observably starts at
  // τ = 0, exactly like SuccessorGenerator::ForEachSourceKey's δ = 0).
  std::vector<std::vector<unsigned char>> forward(length);
  for (std::size_t t = 0; t < length; ++t) {
    forward[t].assign(sequence.CandidatesAt(static_cast<Timestamp>(t)).size(),
                      0);
  }
  for (std::size_t i = 0; i < forward[0].size(); ++i) forward[0][i] = kFresh;
  for (std::size_t t = 0; t + 1 < length; ++t) {
    const std::vector<Candidate>& cur =
        sequence.CandidatesAt(static_cast<Timestamp>(t));
    const std::vector<Candidate>& next =
        sequence.CandidatesAt(static_cast<Timestamp>(t + 1));
    for (std::size_t i = 0; i < cur.size(); ++i) {
      const unsigned char state = forward[t][i];
      if (state == 0) continue;
      const LocationId a = cur[i].location;
      // A settled object may leave; a fresh one only when a carries no
      // latency constraint.
      const bool may_move =
          (state & kSettled) != 0 ||
          ((state & kFresh) != 0 && !constraints.HasLatency(a));
      for (std::size_t j = 0; j < next.size(); ++j) {
        const LocationId b = next[j].location;
        if (b == a) {
          forward[t + 1][j] |= kSettled;
        } else if (may_move && MoveAllowed(constraints, a, b)) {
          forward[t + 1][j] |= kFresh;
        }
      }
    }
  }

  // Backward pass: states from which the final tick is reachable. Every
  // state at the last tick is viable — a trajectory may end anywhere.
  std::vector<std::vector<unsigned char>> backward(length);
  for (std::size_t t = 0; t < length; ++t) {
    backward[t].assign(forward[t].size(), 0);
  }
  for (std::size_t i = 0; i < backward[length - 1].size(); ++i) {
    backward[length - 1][i] = kBothStates;
  }
  for (std::size_t t = length - 1; t-- > 0;) {
    const std::vector<Candidate>& cur =
        sequence.CandidatesAt(static_cast<Timestamp>(t));
    const std::vector<Candidate>& next =
        sequence.CandidatesAt(static_cast<Timestamp>(t + 1));
    for (std::size_t i = 0; i < cur.size(); ++i) {
      const LocationId a = cur[i].location;
      bool stay_viable = false;
      bool move_viable = false;
      for (std::size_t j = 0; j < next.size(); ++j) {
        const LocationId b = next[j].location;
        if (b == a) {
          // Staying lands in the settled state at t + 1.
          stay_viable = stay_viable || (backward[t + 1][j] & kSettled) != 0;
        } else if (MoveAllowed(constraints, a, b)) {
          // Moving lands fresh at b.
          move_viable = move_viable || (backward[t + 1][j] & kFresh) != 0;
        }
      }
      unsigned char state = 0;
      if (stay_viable) {
        state = kBothStates;  // Any state may stay.
      } else if (move_viable) {
        state = kSettled;
        if (!constraints.HasLatency(a)) state |= kFresh;
      }
      backward[t][i] = state;
    }
  }

  // A candidate survives when some state is both reachable and viable.
  for (std::size_t t = 0; t < length; ++t) {
    auto& ticks = plan.admissible[t];
    ticks.assign(forward[t].size(), false);
    bool any = false;
    for (std::size_t i = 0; i < ticks.size(); ++i) {
      if ((forward[t][i] & backward[t][i]) != 0) {
        ticks[i] = true;
        any = true;
      } else {
        ++plan.candidates_pruned;
      }
    }
    if (!any && plan.doomed_at < 0) {
      plan.doomed_at = static_cast<Timestamp>(t);
    }
  }
  if (plan.doomed()) {
    // Every state the forward relaxation reaches at the last tick is
    // viable, so a doomed plan's forward relaxation runs dry at some tick.
    for (std::size_t t = 0; t < length; ++t) {
      if (std::all_of(forward[t].begin(), forward[t].end(),
                      [](unsigned char state) { return state == 0; })) {
        plan.dead_end_at = static_cast<Timestamp>(t);
        break;
      }
    }
  }

  // Count the relaxed transitions the pruned build can no longer touch.
  if (plan.candidates_pruned > 0) {
    for (std::size_t t = 0; t + 1 < length; ++t) {
      const std::vector<Candidate>& cur =
          sequence.CandidatesAt(static_cast<Timestamp>(t));
      const std::vector<Candidate>& next =
          sequence.CandidatesAt(static_cast<Timestamp>(t + 1));
      for (std::size_t i = 0; i < cur.size(); ++i) {
        for (std::size_t j = 0; j < next.size(); ++j) {
          const LocationId a = cur[i].location;
          const LocationId b = next[j].location;
          if (b != a && !MoveAllowed(constraints, a, b)) continue;
          if (!plan.admissible[t][i] || !plan.admissible[t + 1][j]) {
            ++plan.edges_pruned;
          }
        }
      }
    }
  }

  RFID_STATS(obs::Add(obs::Counter::kPreflightNodesPruned,
                      plan.candidates_pruned));
  RFID_STATS(obs::Add(obs::Counter::kPreflightEdgesPruned, plan.edges_pruned));
  if (plan.doomed()) {
    RFID_STATS(obs::Add(obs::Counter::kPreflightTagsDoomed));
  }
  RFID_TRACE(span.AddArg("ticks", static_cast<std::uint64_t>(length)));
  RFID_TRACE(span.AddArg("pruned_nodes", plan.candidates_pruned));
  RFID_TRACE(span.AddArg("pruned_edges", plan.edges_pruned));
  RFID_TRACE(span.AddArg("doomed", plan.doomed() ? 1 : 0));
  return plan;
}

}  // namespace rfidclean
