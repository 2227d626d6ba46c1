#ifndef RFIDCLEAN_CORE_EXPLAIN_ATTRIBUTION_H_
#define RFIDCLEAN_CORE_EXPLAIN_ATTRIBUTION_H_

#include <cstdint>
#include <span>
#include <string>

#include "core/work_graph.h"
#include "obs/explain.h"

namespace rfidclean::internal_core {

#if RFIDCLEAN_EXPLAIN_ENABLED

/// The explain attribution pass (docs/ALGORITHM.md §14). ConditionAndCompact
/// runs it once per armed clean, after the backward sweep and compaction's
/// reachability pass, and it records one ExplainTagSummary for the current
/// explain tag with `status` and the two ppb legs. It never writes the graph
/// and decides no liveness of its own: a node is dead when the sweep left
/// its survival mass at 0 (`survival[id] <= 0`), and survives when
/// compaction reached it (`remap[id] != kInvalidNode`). On the total-death
/// outcome `remap` is empty: no node survives and none counts as stranded,
/// since compaction never ran.
///
/// The sweep has overwritten the node labels by then, so every a-priori
/// probability is read from `context`'s candidate list of the node's tick,
/// by location (the last entry wins, as in the forward engine). `context`
/// must hold one candidate list per layer, starting at layer 0.
void RecordExplainAttribution(const WorkGraph& work,
                              const ExplainBuildContext& context,
                              std::span<const double> survival,
                              std::span<const NodeId> remap,
                              std::string status,
                              std::uint64_t mass_lost_backward_ppb,
                              std::uint64_t mass_lost_compaction_ppb);

#else

inline void RecordExplainAttribution(const WorkGraph&,
                                     const ExplainBuildContext&,
                                     std::span<const double>,
                                     std::span<const NodeId>, std::string,
                                     std::uint64_t, std::uint64_t) {}

#endif  // RFIDCLEAN_EXPLAIN_ENABLED

}  // namespace rfidclean::internal_core

#endif  // RFIDCLEAN_CORE_EXPLAIN_ATTRIBUTION_H_
