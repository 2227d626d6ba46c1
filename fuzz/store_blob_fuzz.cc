// Fuzz surface: the binary ct-graph blob readers (store/blob_layout.h and
// everything funneling through it — the materializing decoder and the
// zero-copy view). The input is arbitrary bytes standing in for a mapped
// blob; every parse path must return a diagnostic Result, never crash,
// RFID_CHECK, or read out of bounds (run under asan+ubsan). On inputs that
// do parse, cross-path invariants are asserted: the verification tiers
// must be consistent with each other, the vector and the forced-scalar
// section decoders must agree word for word, queries on a structurally
// verified view must answer, and a decoded graph must re-encode to the
// exact input bytes (the v1 encoding is canonical).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/check.h"
#include "common/simd.h"
#include "query/most_likely.h"
#include "query/stay_query.h"
#include "store/blob_layout.h"
#include "store/ctgraph_view.h"
#include "store/graph_codec.h"

using rfidclean::store::BlobContents;
using rfidclean::store::CtGraphView;
using rfidclean::store::MapVerify;
using rfidclean::store::SectionChecks;

namespace {

/// The vector parse `got` and a forced-scalar parse of the same bytes agree
/// on the verdict, its message and every decoded array.
void CheckSameAsScalar(const rfidclean::Result<BlobContents>& got,
                       const std::uint8_t* data, std::size_t size,
                       SectionChecks checks) {
  rfidclean::simd::ForceScalarForTesting(true);
  const auto scalar = rfidclean::store::ParseBlobContents(data, size, checks);
  rfidclean::simd::ForceScalarForTesting(false);
  RFID_CHECK_EQ(got.ok(), scalar.ok());
  if (!got.ok()) {
    RFID_CHECK(got.status().ToString() == scalar.status().ToString());
    return;
  }
  RFID_CHECK(std::ranges::equal(got.value().locations,
                                scalar.value().locations));
  RFID_CHECK(std::ranges::equal(got.value().edge_targets,
                                scalar.value().edge_targets));
  RFID_CHECK_EQ(got.value().num_departures, scalar.value().num_departures);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace store = rfidclean::store;

  const auto all = store::ParseBlobContents(data, size, SectionChecks::kAll);
  const auto geometry =
      store::ParseBlobContents(data, size, SectionChecks::kGeometry);
  // kGeometry verifies a strict subset of what kAll verifies.
  if (all.ok()) RFID_CHECK(geometry.ok());
  CheckSameAsScalar(all, data, size, SectionChecks::kAll);
  CheckSameAsScalar(geometry, data, size, SectionChecks::kGeometry);

  // A structurally verified view has unchecked probabilities; queries on
  // it must still answer.
  const auto structural =
      CtGraphView::Map(data, size, MapVerify::kStructural);
  RFID_CHECK_EQ(structural.ok(), geometry.ok());
  if (structural.ok()) {
    const CtGraphView& graph = structural.value();
    const rfidclean::StayQueryEvaluatorT<CtGraphView> stay(graph);
    for (const rfidclean::Timestamp t :
         {0, graph.length() / 2, graph.length() - 1}) {
      (void)stay.Evaluate(t);
    }
    (void)rfidclean::MostLikelyTrajectoryOf(graph);
  }

  const auto info = store::InspectCtGraphBlob(data, size);
  // Inspection checks the header, the table and every section CRC without
  // decoding, so any fully parsed blob inspects. A kGeometry parse skips
  // the probability CRCs, so it implies nothing here.
  if (all.ok()) RFID_CHECK(info.ok());

  const auto decoded = store::DecodeCtGraphBlob(data, size);
  const auto view = CtGraphView::Map(data, size, MapVerify::kFull);
  // The materializing decoder and the fully-verifying view run the same
  // checks over the same bytes; they must agree on validity and content.
  RFID_CHECK_EQ(decoded.ok(), view.ok());
  if (decoded.ok()) {
    RFID_CHECK_EQ(decoded.value().Digest(), view.value().Digest());
    // Canonical encoding: decode -> encode reproduces the input blob.
    const std::string reencoded = store::EncodeCtGraphBlob(
        decoded.value(), info.value().header.tag,
        store::GraphProvenance{info.value().header.input_digest,
                               info.value().header.constraint_digest});
    RFID_CHECK_EQ(reencoded.size(), size);
    RFID_CHECK(std::memcmp(reencoded.data(), data, size) == 0);
  }
  return 0;
}
