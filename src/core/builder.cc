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
  if (options.forward_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options.forward_threads);
  }
}

Result<CtGraph> CtGraphBuilder::Build(const LSequence& sequence,
                                      BuildStats* stats) const {
  RFID_TRACE_SPAN(span, "core", "build");
  RFID_TRACE(
      span.AddArg("ticks", static_cast<std::uint64_t>(sequence.length())));
  return internal_core::CleanSequence(*this, sequence, pool_.get(), stats);
}

}  // namespace rfidclean
