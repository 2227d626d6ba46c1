#ifndef RFIDCLEAN_OBS_EXPLAIN_EXPORT_H_
#define RFIDCLEAN_OBS_EXPLAIN_EXPORT_H_

#include <ostream>

#include "obs/explain.h"

/// \file
/// Versioned JSON report for explain collections (obs/explain.h): session
/// totals (per-constraint kill counts and root-cause masses, per-phase kill
/// counts, ppb splits), the per-timestamp uncertainty-reduction timeline,
/// and one record per tag with its killed-candidate list and top-K killed
/// edges. Schema documented in docs/FORMATS.md ("explain report"). The
/// output is deterministic for a given input set and worker count
/// independent (cross-checked by the differential battery).

namespace rfidclean::obs {

/// Report schema version (the "explain_format_version" field). Version 2
/// removed version 1's event-ring overflow count along with the rings.
/// Version 3 keeps the schema and takes liveness from the cleaner:
/// surviving_mass is the forward mass of the last layer's survivors, which
/// rounds differently, and long tags no longer report phantom kills. The
/// store blob keeps its own store::kExplainFormatVersion.
inline constexpr int kExplainFormatVersion = 3;

#if RFIDCLEAN_EXPLAIN_ENABLED

/// Writes `collection` as one JSON object, indented by `indent` spaces.
/// Entries of the killed-candidate and top-edge arrays are one line each so
/// the report stays greppable.
void WriteExplainReport(const ExplainCollection& collection, std::ostream& os,
                        int indent = 0);

#else

inline void WriteExplainReport(const ExplainCollection&, std::ostream&,
                               int = 0) {}

#endif  // RFIDCLEAN_EXPLAIN_ENABLED

}  // namespace rfidclean::obs

#endif  // RFIDCLEAN_OBS_EXPLAIN_EXPORT_H_
