#ifndef RFIDCLEAN_STORE_GRAPH_CODEC_H_
#define RFIDCLEAN_STORE_GRAPH_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "core/ct_graph.h"
#include "store/format.h"

/// \file
/// Materializing codec between CtGraph and the version-1 binary blob
/// (docs/FORMATS.md). Encoding is canonical: a given graph has exactly one
/// valid byte encoding, so equal graphs produce byte-identical blobs and
/// golden fixtures can assert byte-for-byte equality. Decoding re-validates
/// every invariant (CtGraph::Assemble + the stored graph digest + the
/// installed self-audit hook), so a blob that decodes is as trustworthy as
/// a graph the builder just produced.

namespace rfidclean::store {

/// Provenance carried alongside a serialized graph: the FNV digests of the
/// tag's input readings and of the integrity-constraint set that cleaned
/// it (matching obs::TagProvenance). Zero when unknown.
struct GraphProvenance {
  std::uint64_t input_digest = 0;
  std::uint64_t constraint_digest = 0;
};

/// Serializes `graph` into a self-contained blob. A graph's ids run in
/// layer order, as a blob's do, so LAYERS, SRCPROB, EDGEROWS and EDGEPROB
/// are copies of the graph's columns, only KEYS and EDGETGT are encoded,
/// and the graph round-trips with a bit-identical CtGraph::Digest().
std::string EncodeCtGraphBlob(const CtGraph& graph, std::int64_t tag,
                              const GraphProvenance& provenance = {});

/// Decodes a blob into an owning CtGraph. Verifies checksums, structure,
/// CtGraph invariants, the stored graph digest, and runs the registered
/// self-audit hook on the result.
Result<CtGraph> DecodeCtGraphBlob(const unsigned char* data,
                                  std::size_t size);
inline Result<CtGraph> DecodeCtGraphBlob(const std::string& bytes) {
  return DecodeCtGraphBlob(
      reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size());
}

/// Header fields plus measured size of a blob, for listings and `store
/// ls`. Verifies the header checksum and geometry but skips section
/// payload decoding.
struct BlobInfo {
  BlobHeader header;
  std::size_t blob_bytes = 0;
};
Result<BlobInfo> InspectCtGraphBlob(const unsigned char* data,
                                    std::size_t size);

}  // namespace rfidclean::store

#endif  // RFIDCLEAN_STORE_GRAPH_CODEC_H_
