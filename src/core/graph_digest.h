#ifndef RFIDCLEAN_CORE_GRAPH_DIGEST_H_
#define RFIDCLEAN_CORE_GRAPH_DIGEST_H_

#include <cstddef>
#include <cstdint>

#include "common/fnv.h"
#include "core/location_node.h"

/// \file
/// The one statement of the ct-graph digest's field order
/// (docs/FORMATS.md, "Graph digest"). CtGraph::Arrays folds the digest
/// node by node as a graph is built, so CtGraph::Digest returns a stored
/// value and the blob encoder copies it into the header; the zero-copy
/// store::CtGraphView::Digest recomputes it from the blob. Both stream
/// their fields through these two helpers, so they cannot drift apart.

namespace rfidclean {

/// Mixes the digest's graph-level fields: length, then node count.
constexpr void MixGraphDigestHeader(Fnv64* fnv, Timestamp length,
                                    std::size_t num_nodes) {
  fnv->MixI64(length);
  fnv->MixU64(static_cast<std::uint64_t>(num_nodes));
}

/// The digest of a graph of length 0 without nodes: what a default
/// CtGraph reports.
inline constexpr std::uint64_t kEmptyGraphDigest = [] {
  Fnv64 fnv;
  MixGraphDigestHeader(&fnv, 0, 0);
  return fnv.Digest();
}();

/// Mixes one node's fields; call once per node in id order. `departures`
/// (elements with .time and .location) and `edges` (elements with .to and
/// .probability) need size() and operator[]. Access is indexed because a
/// DepartureList past its inline slots cannot be iterated.
template <typename Departures, typename Edges>
inline void MixGraphDigestNode(Fnv64* fnv, Timestamp time,
                               LocationId location, Timestamp delta,
                               const Departures& departures,
                               double source_probability,
                               const Edges& edges) {
  fnv->MixI64(time);
  fnv->MixI64(location);
  fnv->MixI64(delta);
  const std::size_t num_departures = departures.size();
  fnv->MixU64(static_cast<std::uint64_t>(num_departures));
  for (std::size_t d = 0; d < num_departures; ++d) {
    const Departure& departure = departures[d];
    fnv->MixI64(departure.time);
    fnv->MixI64(departure.location);
  }
  fnv->MixDouble(source_probability);
  const std::size_t num_edges = edges.size();
  fnv->MixU64(static_cast<std::uint64_t>(num_edges));
  for (std::size_t e = 0; e < num_edges; ++e) {
    const auto edge = edges[e];
    fnv->MixI64(edge.to);
    fnv->MixDouble(edge.probability);
  }
}

}  // namespace rfidclean

#endif  // RFIDCLEAN_CORE_GRAPH_DIGEST_H_
