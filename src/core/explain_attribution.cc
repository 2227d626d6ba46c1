#include "core/explain_attribution.h"

#if RFIDCLEAN_EXPLAIN_ENABLED

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/successor.h"

namespace rfidclean::internal_core {

namespace {

/// Retention cap of the per-tag killed-candidate list; overflow is counted
/// in killed_candidates_truncated instead of growing the summary without
/// bound on adversarial inputs.
constexpr std::size_t kMaxKilledCandidatesPerTag = 4096;

/// What the walk reads of one node: its key's projections (location,
/// δ = ⊥?) and the cleaner's verdict on it.
struct NodeFacts {
  LocationId location = kInvalidLocation;
  bool delta_bottom = false;
  bool dead = false;      // the backward sweep left S(n) at 0
  bool survives = false;  // compaction reached it
};

}  // namespace

/// Quantities, all plain scalar arithmetic (a side computation, so it does
/// not need the sweep's bit-reproducible reduction order):
///   A(n)  a-priori forward mass: A(src) = q(src), A(k) = Σ_n A(n)·p(k).
///   L_t   layer total Σ_{n ∈ layer t} A(n), with L_{-1} := 1.
///
/// Mass is attributed at the root cause. A preflight-pruned candidate
/// (t, l, q) removes q·L_{t-1}; a forward rejection of candidate (t, l, q)
/// by parent n removes A(n)·q — recorded per rejecting parent *group* (all
/// parents at one location in one δ-class reject identically, see the
/// forward-rejection loop) with the group's summed mass, so the per-layer
/// identity L_t = L_{t-1} − Σ(preflight) − Σ(forward) telescopes to
/// attributed + surviving = 1, where surviving is the forward mass of the
/// last layer's survivors. Backward kills (edges into dead nodes) and
/// compaction strands carry informational masses but no root-cause
/// attribution: the mass they remove was already attributed to the later
/// forward/preflight decisions that emptied the suffix.
void RecordExplainAttribution(const WorkGraph& work,
                              const ExplainBuildContext& context,
                              std::span<const double> survival,
                              std::span<const NodeId> remap,
                              std::string status,
                              std::uint64_t mass_lost_backward_ppb,
                              std::uint64_t mass_lost_compaction_ppb) {
  const std::size_t length = static_cast<std::size_t>(work.num_layers());
  const std::size_t num_nodes = work.num_nodes();
  // The one precondition. StreamingCleaner captures a tick's candidates,
  // its α delta and the successor generator together, for every layer.
  RFID_CHECK_EQ(context.ticks.size(), length);
  obs::ExplainTagSummary summary;
  summary.tag = obs::ExplainCurrentTag();
  summary.status = std::move(status);
  summary.mass_lost_backward_ppb = mass_lost_backward_ppb;
  summary.mass_lost_compaction_ppb = mass_lost_compaction_ppb;
  const bool compacted = !remap.empty();
  auto layer = [&work](std::size_t t) {
    return std::pair<std::int32_t, std::int32_t>(work.layer_begin[t],
                                                 work.layer_begin[t + 1]);
  };

  // Node facts, resolved per key id first and per node id second. Fetching
  // key records in node order is a random read per node — a cache miss
  // each; streaming the arena once in key-id order and indirecting through
  // the resulting table keeps every access either sequential or
  // L2-resident.
  std::vector<NodeFacts> facts(num_nodes);
  {
    std::vector<NodeFacts> key_facts(work.keys.size());
    for (std::size_t kid = 0; kid < key_facts.size(); ++kid) {
      const NodeKeyView key = work.keys.key(static_cast<std::int32_t>(kid));
      key_facts[kid].location = key.location;
      key_facts[kid].delta_bottom = key.delta == kDeltaBottom;
    }
    for (std::size_t i = 0; i < num_nodes; ++i) {
      NodeFacts& node = facts[i];
      node = key_facts[static_cast<std::size_t>(work.key_id[i])];
      node.dead = survival[i] <= 0.0;
      node.survives = compacted && remap[i] != kInvalidNode;
    }
  }

  const std::size_t num_locations =
      context.successors->constraints().num_locations();
  // A-priori probability per location of the tick being labeled. Every
  // node's location is one of its tick's admitted candidates, so entries
  // left over from earlier ticks are never read.
  std::vector<double> label(num_locations, 0.0);
  const auto fill_labels = [&](std::size_t t) {
    for (const ExplainTickCandidate& candidate : context.ticks[t]) {
      if (!candidate.pruned) {
        label[static_cast<std::size_t>(candidate.location)] =
            candidate.probability;
      }
    }
  };
  std::vector<double> prior(num_nodes, 0.0);
  fill_labels(0);
  {
    const auto [begin, end] = layer(0);
    for (std::int32_t id = begin; id < end; ++id) {
      const std::size_t i = static_cast<std::size_t>(id);
      prior[i] = label[static_cast<std::size_t>(facts[i].location)];
    }
  }
  double inflow = 1.0;  // L_{t-1}

  const obs::ExplainOptions options = obs::ExplainSessionOptions();
  // Per-location scratch, stamped instead of cleared per tick/parent.
  std::vector<char> loc_alive(num_locations, 0);
  std::vector<double> loc_dead(num_locations, 0.0);
  std::vector<std::int32_t> loc_stamp(num_locations, -1);

  // Dead-edge aggregation per (from location, to location) pair, stamped
  // per tick. Quadratic in locations, but the constraint set already
  // stores two such tables, so this adds no new asymptotic footprint.
  std::vector<double> dead_mass(num_locations * num_locations, 0.0);
  std::vector<std::int32_t> dead_stamp(num_locations * num_locations, -1);
  std::vector<std::size_t> dead_slots;
  std::vector<double> reject_mass;
  std::vector<double> reject_best;
  std::vector<obs::ExplainConstraint> reject_cause;

  // Parent groups, one per location present at t-1, accumulated while the
  // main walk below traverses the parent layer (one iteration ahead of the
  // tick they serve) and consumed at tick t — hence the double buffer. A
  // Definition-3 rejection depends only on (parent location, candidate
  // location) for conditions 2 and the direct-TT completion, and only on
  // δ ≠ ⊥ for condition 4 — so all parents at a location fall into three
  // classes that reject (or emit) identically except for condition 5,
  // which reads the per-node TL. See the forward-rejection loop below.
  struct ParentGroups {
    std::size_t ncand = 0;
    std::vector<std::int32_t> grp_stamp;
    std::vector<double> grp_total;
    std::vector<double> grp_lat;
    std::vector<double> grp_bot;
    std::vector<std::uint32_t> grp_lat_count;
    std::vector<std::uint32_t> grp_bot_count;
    std::vector<std::int32_t> present;
    std::vector<std::int32_t> cand_index;
    std::vector<std::int32_t> cand_stamp;
    std::vector<double> emitted_bot;
    std::vector<std::uint32_t> emitted_bot_count;
  };
  ParentGroups group_buffers[2];
  for (ParentGroups& g : group_buffers) {
    g.grp_stamp.assign(num_locations, -1);
    g.grp_total.assign(num_locations, 0.0);
    g.grp_lat.assign(num_locations, 0.0);
    g.grp_bot.assign(num_locations, 0.0);
    g.grp_lat_count.assign(num_locations, 0);
    g.grp_bot_count.assign(num_locations, 0);
    g.cand_index.assign(num_locations, -1);
    g.cand_stamp.assign(num_locations, -1);
  }
  ParentGroups* cur = &group_buffers[0];
  ParentGroups* nxt = &group_buffers[1];

  // Top-K killed edges, maintained sorted under the ranking comparator
  // (mass descending, structural tie-break) with bounded insertion — the
  // result matches a full stable_sort + truncate of every recorded edge,
  // at O(log K + K) per insert instead of a million-entry sort.
  const auto edge_before =
      [](const obs::ExplainKilledEdge& a, const obs::ExplainKilledEdge& b) {
        if (a.mass != b.mass) return a.mass > b.mass;
        if (a.time != b.time) return a.time < b.time;
        if (a.from_location != b.from_location) {
          return a.from_location < b.from_location;
        }
        if (a.to_location != b.to_location) {
          return a.to_location < b.to_location;
        }
        return static_cast<int>(a.phase) < static_cast<int>(b.phase);
      };
  std::vector<obs::ExplainKilledEdge> top_edges;
  top_edges.reserve(options.top_edges + 1);
  const auto push_top_edge = [&](const obs::ExplainKilledEdge& e) {
    if (top_edges.size() >= options.top_edges) {
      // upper_bound inserts after equivalents, so an element that does not
      // strictly precede the current tail would sort at index >= K — skip.
      if (top_edges.empty() || !edge_before(e, top_edges.back())) return;
    }
    top_edges.insert(
        std::upper_bound(top_edges.begin(), top_edges.end(), e, edge_before),
        e);
    if (top_edges.size() > options.top_edges) top_edges.pop_back();
  };

  summary.ticks.resize(length);
  for (std::size_t t = 0; t < length; ++t) {
    // Parent groups and edge labels for tick t+1 ride on this layer walk —
    // this layer is tick t+1's parent layer — and the groups are consumed
    // one iteration later.
    const bool grouping = t + 1 < length;
    const std::int32_t nstamp = static_cast<std::int32_t>(t) + 1;
    if (grouping) {
      const std::vector<ExplainTickCandidate>& next_candidates =
          context.ticks[t + 1];
      fill_labels(t + 1);
      nxt->ncand = next_candidates.size();
      nxt->present.clear();
      nxt->emitted_bot.assign(num_locations * nxt->ncand, 0.0);
      nxt->emitted_bot_count.assign(num_locations * nxt->ncand, 0);
      for (std::size_t i = 0; i < nxt->ncand; ++i) {
        const std::size_t l =
            static_cast<std::size_t>(next_candidates[i].location);
        nxt->cand_stamp[l] = nstamp;
        nxt->cand_index[l] = static_cast<std::int32_t>(i);
      }
    }

    // One walk over this layer's edge slices does all the forward work:
    // A(n) propagation into layer t+1 and the layer mass, per-location
    // node state for the killed-candidate resolution, compaction strands,
    // backward kills — edges into dead nodes — aggregated per location
    // pair, and the parent-group masses for tick t+1, including the
    // emitted δ = ⊥ mass per candidate from the same edge slices.
    dead_slots.clear();
    double total = 0.0;
    const auto [begin, end] = layer(t);
    for (std::int32_t id = begin; id < end; ++id) {
      const std::size_t i = static_cast<std::size_t>(id);
      const NodeFacts& node_facts = facts[i];
      const std::size_t l = static_cast<std::size_t>(node_facts.location);
      const double mass = prior[i];
      total += mass;
      if (loc_stamp[l] != static_cast<std::int32_t>(t)) {
        loc_stamp[l] = static_cast<std::int32_t>(t);
        loc_alive[l] = 0;
        loc_dead[l] = 0.0;
      }
      if (node_facts.survives) {
        loc_alive[l] = 1;
      } else {
        loc_dead[l] += mass;
        if (compacted && !node_facts.dead) {
          // Stranded: the node survived the backward sweep but no
          // surviving source reaches it. It carries no root-cause mass
          // (that was attributed to the decisions that killed its
          // ancestors).
          ++summary.phase_kills[static_cast<int>(
              obs::ExplainPhase::kCompaction)];
          ++summary.constraints[static_cast<int>(
                                    obs::ExplainConstraint::kStranded)]
                .kills;
        }
      }
      // δ = ⊥ parents additionally track emitted mass per candidate slot;
      // both sums accumulate in the same node order, so a fully emitting
      // group subtracts to exactly zero in the rejection analysis below.
      bool emit_bot = false;
      std::size_t emit_base = 0;
      if (grouping) {
        if (nxt->grp_stamp[l] != nstamp) {
          nxt->grp_stamp[l] = nstamp;
          nxt->grp_total[l] = 0.0;
          nxt->grp_lat[l] = 0.0;
          nxt->grp_bot[l] = 0.0;
          nxt->grp_lat_count[l] = 0;
          nxt->grp_bot_count[l] = 0;
          nxt->present.push_back(static_cast<std::int32_t>(l));
        }
        nxt->grp_total[l] += mass;
        if (!node_facts.delta_bottom) {
          nxt->grp_lat[l] += mass;
          ++nxt->grp_lat_count[l];
        } else {
          nxt->grp_bot[l] += mass;
          ++nxt->grp_bot_count[l];
          emit_bot = true;
          emit_base = l * nxt->ncand;
        }
      }
      for (std::size_t e = work.edge_begin[i]; e < work.edge_begin[i + 1];
           ++e) {
        const std::size_t to = static_cast<std::size_t>(work.edge_to[e]);
        const std::size_t to_l = static_cast<std::size_t>(facts[to].location);
        const double edge_mass = mass * label[to_l];
        prior[to] += edge_mass;
        if (emit_bot && nxt->cand_stamp[to_l] == nstamp) {
          const std::size_t slot =
              emit_base + static_cast<std::size_t>(nxt->cand_index[to_l]);
          nxt->emitted_bot[slot] += mass;
          ++nxt->emitted_bot_count[slot];
        }
        if (!facts[to].dead) continue;
        const std::size_t slot = l * num_locations + to_l;
        if (dead_stamp[slot] != static_cast<std::int32_t>(t)) {
          dead_stamp[slot] = static_cast<std::int32_t>(t);
          dead_mass[slot] = 0.0;
          dead_slots.push_back(slot);
        }
        dead_mass[slot] += edge_mass;
      }
    }

    const std::vector<ExplainTickCandidate>& tick_candidates =
        context.ticks[t];
    obs::ExplainTickSummary& tick = summary.ticks[t];
    tick.time = static_cast<std::int32_t>(t);
    tick.candidates = static_cast<std::uint32_t>(tick_candidates.size());
    tick.alpha_delta = context.alpha_deltas[t];
    // Backward kills, one per (location pair, tick) with the summed
    // forward mass reaching the dead edges — informational, not
    // root-cause (see the header comment), so they feed the top-K ranking
    // but not the attributed totals.
    for (const std::size_t slot : dead_slots) {
      const obs::ExplainKilledEdge dead{
          tick.time + 1, static_cast<LocationId>(slot / num_locations),
          static_cast<LocationId>(slot % num_locations),
          obs::ExplainPhase::kBackward, obs::ExplainConstraint::kPropagated,
          dead_mass[slot]};
      ++summary.phase_kills[static_cast<int>(obs::ExplainPhase::kBackward)];
      ++summary
            .constraints[static_cast<int>(obs::ExplainConstraint::kPropagated)]
            .kills;
      push_top_edge(dead);
    }

    reject_mass.assign(tick_candidates.size(), 0.0);
    reject_best.assign(tick_candidates.size(), 0.0);
    reject_cause.assign(tick_candidates.size(),
                        obs::ExplainConstraint::kInfeasible);

    // Preflight prunes: root mass q·L_{t-1}, emitted here (not in
    // analysis/feasibility.cc) because only this pass knows L_{t-1}.
    for (std::size_t i = 0; i < tick_candidates.size(); ++i) {
      const ExplainTickCandidate& candidate = tick_candidates[i];
      if (!candidate.pruned) continue;
      const double mass = candidate.probability * inflow;
      ++summary.phase_kills[static_cast<int>(obs::ExplainPhase::kPreflight)];
      obs::ExplainConstraintTotal& total_infeasible =
          summary
              .constraints[static_cast<int>(obs::ExplainConstraint::kInfeasible)];
      ++total_infeasible.kills;
      total_infeasible.mass += mass;
      summary.attributed_mass += mass;
      tick.mass_lost += mass;
    }

    // Forward rejections, aggregated by parent group. The Definition-3
    // checks read the parent only through (location, δ = ⊥?, TL): direct
    // unreachability (condition 2) and the direct-TT completion depend on
    // the location pair alone, the latency check (condition 4) fires for
    // exactly the δ ≠ ⊥ parents, and the TL scan (condition 5) — the only
    // per-node check — can only reject a δ = ⊥ parent, always as a
    // traveling-time violation. Every parent in a group therefore rejects
    // (or emits) a candidate identically, and one kill per rejecting
    // (group, candidate) pair carries the group's total mass — the same
    // sum a per-parent ClassifyRejection walk would attribute, without
    // the quadratic pair scan. TL-dependent rejections fall out of a
    // subtraction: a δ = ⊥ parent at a reachable, direct-TT-admissible
    // location emits the candidate unless condition 5 refused it, so the
    // group's δ = ⊥ mass minus its emitted δ = ⊥ mass is exactly the
    // TL-rejected mass. Integer emit counts decide whether any parent
    // rejected, so float rounding can never invent or drop a kill, and
    // both sums add the same priors in the same node order (the parent
    // walk above), so a fully emitting group subtracts to exactly zero.
    if (t >= 1) {
      const ConstraintSet& cs = context.successors->constraints();
      const std::size_t ncand = cur->ncand;
      const auto record_group_reject = [&](LocationId from, std::size_t i,
                                           obs::ExplainConstraint cause,
                                           double group_mass) {
        const ExplainTickCandidate& candidate = tick_candidates[i];
        const double mass = group_mass * candidate.probability;
        ++summary.phase_kills[static_cast<int>(obs::ExplainPhase::kForward)];
        obs::ExplainConstraintTotal& cause_total =
            summary.constraints[static_cast<int>(cause)];
        ++cause_total.kills;
        cause_total.mass += mass;
        summary.attributed_mass += mass;
        tick.mass_lost += mass;
        reject_mass[i] += mass;
        if (mass > reject_best[i]) {
          reject_best[i] = mass;
          reject_cause[i] = cause;
        }
        push_top_edge({tick.time, from, candidate.location,
                       obs::ExplainPhase::kForward, cause, mass});
      };
      for (const std::int32_t from : cur->present) {
        const std::size_t l1 = static_cast<std::size_t>(from);
        const LocationId from_location = static_cast<LocationId>(from);
        for (std::size_t i = 0; i < ncand; ++i) {
          const ExplainTickCandidate& candidate = tick_candidates[i];
          if (candidate.pruned) continue;
          const LocationId l2 = candidate.location;
          if (l2 == from_location) continue;  // stays are always admissible
          if (cs.IsUnreachable(from_location, l2)) {
            record_group_reject(from_location, i,
                                obs::ExplainConstraint::kUnreachable,
                                cur->grp_total[l1]);
            continue;
          }
          if (cur->grp_lat_count[l1] > 0) {
            record_group_reject(from_location, i,
                                obs::ExplainConstraint::kLatency,
                                cur->grp_lat[l1]);
          }
          if (cur->grp_bot_count[l1] == 0) continue;
          if (cs.MinTravelTicks(from_location, l2) > 1) {
            record_group_reject(from_location, i,
                                obs::ExplainConstraint::kTravelTime,
                                cur->grp_bot[l1]);
            continue;
          }
          const std::size_t slot =
              l1 * ncand +
              static_cast<std::size_t>(
                  cur->cand_index[static_cast<std::size_t>(l2)]);
          if (cur->emitted_bot_count[slot] >= cur->grp_bot_count[l1]) {
            continue;
          }
          record_group_reject(
              from_location, i, obs::ExplainConstraint::kTravelTime,
              std::max(0.0, cur->grp_bot[l1] - cur->emitted_bot[slot]));
        }
      }
    }

    // Killed-candidate resolution: a candidate is killed iff no node at
    // (t, location) survives compaction. The dominant cause compares the
    // mass the forward phase never let in against the mass that arrived
    // but died downstream.
    for (std::size_t i = 0; i < tick_candidates.size(); ++i) {
      const ExplainTickCandidate& candidate = tick_candidates[i];
      obs::ExplainKilledCandidate killed;
      killed.time = tick.time;
      killed.location = candidate.location;
      if (candidate.pruned) {
        killed.phase = obs::ExplainPhase::kPreflight;
        killed.constraint = obs::ExplainConstraint::kInfeasible;
        killed.mass = candidate.probability * inflow;
      } else {
        const std::size_t l = static_cast<std::size_t>(candidate.location);
        const bool stamped = loc_stamp[l] == static_cast<std::int32_t>(t);
        if (stamped && loc_alive[l] != 0) continue;  // survives
        const double dead = stamped ? loc_dead[l] : 0.0;
        killed.mass = reject_mass[i] + dead;
        if (dead > reject_mass[i]) {
          killed.phase = obs::ExplainPhase::kBackward;
          killed.constraint = obs::ExplainConstraint::kPropagated;
        } else {
          killed.phase = obs::ExplainPhase::kForward;
          killed.constraint = reject_cause[i];
        }
      }
      ++tick.killed;
      if (summary.killed_candidates.size() < kMaxKilledCandidatesPerTag) {
        summary.killed_candidates.push_back(killed);
      } else {
        ++summary.killed_candidates_truncated;
      }
    }
    inflow = total;
    std::swap(cur, nxt);
  }

  // Every complete forward path is a valid trajectory, so the forward mass
  // of the last layer's survivors is the a-priori mass conditioning keeps.
  {
    const auto [begin, end] = layer(length - 1);
    for (std::int32_t id = begin; id < end; ++id) {
      const std::size_t i = static_cast<std::size_t>(id);
      if (facts[i].survives) summary.surviving_mass += prior[i];
    }
  }
  // push_top_edge kept the pool sorted (mass descending, structural
  // tie-break) and bounded at K throughout, so the ranking is already
  // final — and deterministic for any worker count.
  summary.top_edges = std::move(top_edges);
  obs::RecordTagExplain(std::move(summary));
}

}  // namespace rfidclean::internal_core

#endif  // RFIDCLEAN_EXPLAIN_ENABLED
