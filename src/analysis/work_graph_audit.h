#ifndef RFIDCLEAN_ANALYSIS_WORK_GRAPH_AUDIT_H_
#define RFIDCLEAN_ANALYSIS_WORK_GRAPH_AUDIT_H_

#include "analysis/audit_report.h"
#include "core/work_graph.h"

namespace rfidclean {

/// \file
/// Invariant audit of the *in-construction* columnar work graph (see
/// core/work_graph.h and docs/ALGORITHM.md §8) — the forward-phase state a
/// ForwardEngine exposes through work(), before ConditionAndCompact
/// consumes it. The compacted CtGraph has its own auditor (graph_audit.h);
/// this one verifies the layout the backward phase relies on:
///
///  - layer offsets and columns: layer_begin[0] == 0, monotone
///    non-decreasing, last entry == node count, and the per-node columns
///    agree in length (kCsrLayerOffsets); a node's time is its layer;
///  - edge offsets: edge_begin starts at 0, never decreases and ends at
///    the edge count, so the slices partition the edge column in id order,
///    and every offset of the unexpanded last layer equals the edge count
///    — it owns no edges yet (kCsrEdgeSlices);
///  - edge targets: every edge lands in the next layer's id range
///    (kEdgeTargetRange);
///  - key interning: every key id indexes the arena, and no two nodes of
///    an expanded layer share one — per-layer interning collapsed equal
///    keys to a single node (kCsrKeyInterning; the source layer is exempt:
///    Definition 2 materializes one node per candidate reading);
///  - probability labels: every node's a-priori label (on layer 0 its
///    source probability) is finite and in (0, 1] (kCsrProbabilities).
///
/// Like the ct-graph auditor it is defensive: out-of-range offsets are
/// reported, never dereferenced, so it can be pointed at deliberately
/// corrupted fixtures. Key ids and labels are checked by index, so broken
/// layer offsets do not hide them.

/// Appends violations of `graph` to `report`; updates the report's
/// coverage counters.
void AuditWorkGraphStructure(const internal_core::WorkGraph& graph,
                             const AuditOptions& options,
                             AuditReport* report);

/// One-call audit of a work graph.
AuditReport AuditWorkGraph(const internal_core::WorkGraph& graph,
                           const AuditOptions& options = AuditOptions());

}  // namespace rfidclean

#endif  // RFIDCLEAN_ANALYSIS_WORK_GRAPH_AUDIT_H_
