#include "core/successor.h"

#include <algorithm>

#include "common/check.h"

namespace rfidclean {

HopDistances HopDistances::Compute(const ConstraintSet& constraints) {
  const std::size_t n = constraints.num_locations();
  HopDistances result;
  result.num_locations_ = n;
  result.hops_.assign(n * n, kUnreachable);

  // Adjacency lists of the "can move in one tick" graph, built once: the
  // per-source BFS then scans only actual neighbours instead of re-testing
  // all n locations on every pop (the old formulation was O(n³) total).
  std::vector<std::int32_t> adjacency_begin(n + 1, 0);
  std::vector<LocationId> adjacency;
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      if (from == to) continue;
      if (constraints.IsUnreachable(static_cast<LocationId>(from),
                                    static_cast<LocationId>(to))) {
        continue;
      }
      adjacency.push_back(static_cast<LocationId>(to));
    }
    adjacency_begin[from + 1] = static_cast<std::int32_t>(adjacency.size());
  }

  std::vector<LocationId> queue(n);
  for (std::size_t from = 0; from < n; ++from) {
    Timestamp* row = &result.hops_[from * n];
    row[from] = 0;
    std::size_t head = 0;
    std::size_t tail = 0;
    queue[tail++] = static_cast<LocationId>(from);
    while (head < tail) {
      const LocationId at = queue[head++];
      const Timestamp next_hop = row[static_cast<std::size_t>(at)] + 1;
      const std::int32_t end = adjacency_begin[static_cast<std::size_t>(at) + 1];
      for (std::int32_t i = adjacency_begin[static_cast<std::size_t>(at)];
           i < end; ++i) {
        const LocationId next = adjacency[static_cast<std::size_t>(i)];
        if (row[static_cast<std::size_t>(next)] != kUnreachable) continue;
        row[static_cast<std::size_t>(next)] = next_hop;
        queue[tail++] = next;
      }
    }
  }
  return result;
}

SuccessorGenerator::SuccessorGenerator(const ConstraintSet& constraints,
                                       const SuccessorOptions& options)
    : SuccessorGenerator(constraints, HopDistances::Compute(constraints),
                         options) {}

SuccessorGenerator::SuccessorGenerator(const ConstraintSet& constraints,
                                       const HopDistances& hops,
                                       const SuccessorOptions& options)
    : constraints_(&constraints) {
  RFID_CHECK_EQ(hops.num_locations(), constraints.num_locations());
  // Precompute the relevance window of TL entries: an entry for a departure
  // from `from` still matters at location `at` for
  //   window(from, at) = max over travelingTime(from, to, nu) in IC of
  //                      nu - hop(at, to)
  // ticks after the departure (hop() is the earliest-arrival lower bound).
  // Without reachability pruning the window falls back to the paper's
  // maxTravelingTime(from) regardless of `at`.
  const std::size_t n = constraints.num_locations();
  window_.assign(n * n, 0);
  for (std::size_t from = 0; from < n; ++from) {
    const auto& travel_times =
        constraints.TravelingTimesFrom(static_cast<LocationId>(from));
    if (travel_times.empty()) continue;
    for (std::size_t at = 0; at < n; ++at) {
      Timestamp window = 0;
      if (options.reachability_tl_pruning) {
        for (const TravelingTime& tt : travel_times) {
          Timestamp hop = hops.hop(static_cast<LocationId>(at), tt.to);
          if (hop >= HopDistances::kUnreachable) continue;
          window = std::max(window, tt.min_ticks - hop);
        }
      } else {
        window = constraints.MaxTravelingTimeFrom(
            static_cast<LocationId>(from));
      }
      window_[from * n + at] = window;
    }
  }
}

bool SuccessorGenerator::DepartureStillRelevant(Timestamp departure_time,
                                                LocationId from,
                                                LocationId at,
                                                Timestamp arrival) const {
  const std::size_t n = constraints_->num_locations();
  Timestamp window = window_[static_cast<std::size_t>(from) * n +
                             static_cast<std::size_t>(at)];
  return arrival - departure_time < window;
}

SuccessorReject SuccessorGenerator::ClassifyRejection(Timestamp t,
                                                      const NodeKey& from,
                                                      LocationId to) const {
  // Mirrors ForEachSuccessor's check order exactly (a stay is always
  // admissible; then conditions 2, 4, 5, and the Def.-3 completion).
  const LocationId l1 = from.location;
  if (l1 == to) return SuccessorReject::kAdmissible;
  if (constraints_->IsUnreachable(l1, to)) {
    return SuccessorReject::kUnreachable;
  }
  if (from.delta != kDeltaBottom) return SuccessorReject::kLatency;
  const Timestamp arrival = t + 1;
  for (std::size_t i = 0; i < from.departures.size(); ++i) {
    const Departure& d = from.departures[i];
    Timestamp required = constraints_->MinTravelTicks(d.location, to);
    if (required > 0 && arrival - d.time < required) {
      return SuccessorReject::kTravelTime;
    }
  }
  if (constraints_->MinTravelTicks(l1, to) > 1) {
    return SuccessorReject::kTravelTime;
  }
  return SuccessorReject::kAdmissible;
}

void SuccessorGenerator::BuildSuccessorKey(Timestamp t, const NodeKey& from,
                                           LocationId to,
                                           NodeKey* out) const {
  const Timestamp arrival = t + 1;
  out->location = to;
  if (from.location == to) {
    // Condition 3 with saturation: δ advances while the stay is still
    // shorter than the latency bound, then collapses to ⊥.
    if (from.delta == kDeltaBottom) {
      out->delta = kDeltaBottom;
    } else {
      // δ counts ticks elapsed since arrival (arrival = 0), so a stay of
      // k ticks has δ = k - 1; the latency bound is satisfied — and δ
      // collapses to ⊥ — once k = δ + 1 reaches it.
      Timestamp next = from.delta + 1;
      out->delta =
          next + 1 >= constraints_->LatencyOf(to) ? kDeltaBottom : next;
    }
  } else {
    out->delta = constraints_->HasLatency(to) ? 0 : kDeltaBottom;
  }

  // Condition 6: TL maintenance, as one merge pass: walk the parent's
  // (sorted) list, keep entries that can still cause a violation and are
  // not for the location being (re-)entered, and splice the new departure
  // from l1 — when it is TT-constrained and itself still relevant — into
  // its sorted-by-location position. The scratch list keeps its capacity,
  // so no per-key DepartureList is allocated.
  out->departures.clear();
  const Departure departed{t, from.location};
  const bool add_departure =
      from.location != to &&
      constraints_->HasTravelingTimeFrom(from.location) &&
      DepartureStillRelevant(t, from.location, to, arrival);
  bool inserted = !add_departure;
  from.departures.ForEach([&](const Departure& d) {
    if (d.location == to) return;
    if (!DepartureStillRelevant(d.time, d.location, to, arrival)) return;
    if (!inserted && departed.location < d.location) {
      out->departures.push_back(departed);
      inserted = true;
    }
    out->departures.push_back(d);
  });
  if (!inserted) out->departures.push_back(departed);
}

}  // namespace rfidclean
