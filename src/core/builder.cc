#include "core/builder.h"

#include "core/streaming.h"
#include "obs/trace.h"

namespace rfidclean {

CtGraphBuilder::CtGraphBuilder(const ConstraintSet& constraints,
                               const SuccessorOptions& options)
    : CtGraphBuilder(constraints, CleanOptions{options, /*preflight=*/true}) {}

CtGraphBuilder::CtGraphBuilder(const ConstraintSet& constraints,
                               const CleanOptions& options)
    : successors_(constraints, options.successor) {
  if (options.preflight) oracle_.emplace(constraints);
}

Result<CtGraph> CtGraphBuilder::Build(const LSequence& sequence,
                                      BuildStats* stats) const {
  RFID_TRACE_SPAN(span, "core", "build");
  RFID_TRACE(
      span.AddArg("ticks", static_cast<std::uint64_t>(sequence.length())));
  return internal_core::CleanSequence(*this, sequence, stats);
}

}  // namespace rfidclean
