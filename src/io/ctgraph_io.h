#ifndef RFIDCLEAN_IO_CTGRAPH_IO_H_
#define RFIDCLEAN_IO_CTGRAPH_IO_H_

#include <istream>
#include <ostream>

#include "common/result.h"
#include "core/ct_graph.h"

namespace rfidclean {

/// Serializes a ct-graph as a line-oriented text format, so cleaned data
/// can be warehoused and queried later without re-running the cleaning
/// (the Lahar-style "Markovian stream" storage angle of §5's remark):
///
///   ctgraph <length> <num_nodes>
///   node <id> <time> <location> <delta> <source_prob> <tl_time,tl_loc>*
///   edge <from> <to> <probability>
///
/// Probabilities are written with 17 significant digits so a round trip is
/// bit-faithful for doubles.
void WriteCtGraph(const CtGraph& graph, std::ostream& os);

/// Parses the format written by WriteCtGraph and re-validates every graph
/// invariant (CtGraph::Assemble). Document-level defects that Assemble
/// would only report obliquely — duplicate or missing node rows, edge
/// targets outside the declared node count, non-finite probabilities — are
/// rejected at parse time with the offending line number. The header's
/// length may not exceed kMaxGraphLength (so every readable graph can be
/// stored) nor its node count the NodeId range, and memory grows with the
/// rows read, not with the counts the header declares.
Result<CtGraph> ReadCtGraph(std::istream& is);

}  // namespace rfidclean

#endif  // RFIDCLEAN_IO_CTGRAPH_IO_H_
