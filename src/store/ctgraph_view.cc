#include "store/ctgraph_view.h"

#include <utility>

#include "common/float_eq.h"
#include "common/fnv.h"
#include "common/strings.h"
#include "core/graph_digest.h"
#include "store/graph_codec.h"

namespace rfidclean::store {

Result<CtGraphView> CtGraphView::Map(const unsigned char* data,
                                     std::size_t size,
                                     std::shared_ptr<const MmapFile>
                                         keepalive,
                                     MapVerify verify) {
  CtGraphView view;
  RFID_ASSIGN_OR_RETURN(
      view.contents_,
      ParseBlobContents(data, size,
                        verify == MapVerify::kFull ? SectionChecks::kAll
                                                   : SectionChecks::kGeometry));
  view.keepalive_ = std::move(keepalive);
  if (verify == MapVerify::kFull) {
    RFID_RETURN_IF_ERROR(view.CheckConsistency());
    const std::uint64_t digest = view.Digest();
    if (digest != view.contents_.parsed.header.graph_digest) {
      return InvalidArgumentError(StrFormat(
          "ct-graph blob: stored graph digest %016llx does not match mapped "
          "content %016llx",
          static_cast<unsigned long long>(
              view.contents_.parsed.header.graph_digest),
          static_cast<unsigned long long>(digest)));
    }
  }
  return view;
}

Result<CtGraphView> CtGraphView::Map(const unsigned char* data,
                                     std::size_t size, MapVerify verify) {
  return Map(data, size, nullptr, verify);
}

Result<CtGraphView> CtGraphView::MapFile(const std::string& path,
                                         MapVerify verify) {
  MmapFile file;
  RFID_ASSIGN_OR_RETURN(file, MmapFile::Open(path));
  auto shared = std::make_shared<const MmapFile>(std::move(file));
  return Map(shared->data(), shared->size(), shared, verify);
}

Timestamp CtGraphView::TimeOf(NodeId id) const {
  const std::uint32_t target = static_cast<std::uint32_t>(CheckedIndex(id));
  // Find the last layer whose begin offset is <= id.
  Timestamp lo = 0;
  Timestamp hi = length() - 1;
  while (lo < hi) {
    const Timestamp mid = lo + (hi - lo + 1) / 2;
    if (contents_.LayerBegin(mid) <= target) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

std::uint64_t CtGraphView::Digest() const {
  // Blob node ids run in layer order, so the key walk enumerates ids
  // 0..N-1 in order, as CtGraph::Digest() does.
  Fnv64 fnv;
  MixGraphDigestHeader(&fnv, length(), NumNodes());
  Timestamp t = 0;
  const Status walked = WalkKeys(
      contents_.parsed, [&](std::uint64_t i, LocationId location,
                            Timestamp delta, std::span<const Departure> tl) {
        while (i >= contents_.LayerBegin(t + 1)) ++t;
        const NodeId id = static_cast<NodeId>(i);
        MixGraphDigestNode(&fnv, t, location, delta, tl,
                           SourceProbability(id), OutEdges(id));
      });
  // Map already walked these bytes, which must stay unchanged while the
  // view lives, so a second walk cannot fail.
  RFID_CHECK(walked.ok());
  return fnv.Digest();
}

Status CtGraphView::CheckConsistency(double tolerance) const {
  // Structure (layer monotonicity, CSR bounds, next-layer targets, edge
  // presence/absence per layer) was enforced by ParseBlobContents; this
  // mirrors the *semantic* checks of CtGraph::CheckConsistency.
  double source_sum = 0.0;
  for (NodeId id : SourceNodes()) source_sum += SourceProbability(id);
  if (!ApproxOne(source_sum, tolerance)) {
    return InternalError(
        StrFormat("source probabilities sum to %.12f", source_sum));
  }
  std::vector<bool> has_in_edge(NumNodes(), false);
  const Timestamp last = length() - 1;
  for (Timestamp t = 0; t < last; ++t) {
    for (NodeId id : NodesAt(t)) {
      double out_sum = 0.0;
      for (const EdgeRef edge : OutEdges(id)) {
        if (edge.probability <= 0.0) {
          return InternalError("non-positive edge probability");
        }
        has_in_edge[static_cast<std::size_t>(edge.to)] = true;
        out_sum += edge.probability;
      }
      if (!ApproxOne(out_sum, tolerance)) {
        return InternalError(
            StrFormat("outgoing probabilities of node %d sum to %.12f", id,
                      out_sum));
      }
    }
  }
  for (Timestamp t = 1; t < length(); ++t) {
    for (NodeId id : NodesAt(t)) {
      if (!has_in_edge[static_cast<std::size_t>(id)]) {
        return InternalError(
            StrFormat("non-source node %d is unreachable", id));
      }
    }
  }
  return Status::Ok();
}

Result<CtGraph> CtGraphView::Materialize() const {
  return DecodeCtGraphBlob(contents_.parsed.base, contents_.parsed.size);
}

}  // namespace rfidclean::store
