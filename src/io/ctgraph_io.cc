#include "io/ctgraph_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace rfidclean {

namespace {

std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.emplace_back(line.substr(start, i - start));
  }
  return tokens;
}

bool ParseLong(const std::string& text, long* out) {
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool ParseDouble(const std::string& text, double* out) {
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

}  // namespace

void WriteCtGraph(const CtGraph& graph, std::ostream& os) {
  os << StrFormat("ctgraph %d %zu\n", graph.length(), graph.NumNodes());
  // Ids run in layer order, so the layers list every node in id order.
  for (Timestamp t = 0; t < graph.length(); ++t) {
    for (const NodeId id : graph.NodesAt(t)) {
      os << StrFormat("node %d %d %d %d %.17g", id, t, graph.LocationOf(id),
                      graph.DeltaOf(id), graph.SourceProbability(id));
      for (const Departure& d : graph.DeparturesOf(id)) {
        os << StrFormat(" %d,%d", d.time, d.location);
      }
      os << '\n';
    }
  }
  for (std::size_t i = 0; i < graph.NumNodes(); ++i) {
    for (const CtGraph::Edge edge : graph.OutEdges(static_cast<NodeId>(i))) {
      os << StrFormat("edge %zu %d %.17g\n", i, edge.to, edge.probability);
    }
  }
}

Result<CtGraph> ReadCtGraph(std::istream& is) {
  std::string line;
  int line_number = 0;
  auto error = [&line_number](const char* message) {
    return InvalidArgumentError(
        StrFormat("line %d: %s", line_number, message));
  };

  // Rows are kept in the order read and placed by id at the end, so memory
  // follows the rows the document holds, never the counts its header
  // declares.
  Timestamp length = 0;
  std::size_t num_nodes = 0;
  std::vector<CtGraph::Node> rows;
  std::unordered_map<long, std::size_t> row_of_id;
  std::vector<std::pair<long, CtGraph::Edge>> edges;
  bool saw_header = false;
  while (std::getline(is, line)) {
    ++line_number;
    std::string_view content = StripWhitespace(line);
    if (content.empty() || content[0] == '#') continue;
    std::vector<std::string> tokens = Tokenize(content);
    if (tokens[0] == "ctgraph") {
      long parsed_length = 0;
      long parsed_nodes = 0;
      if (saw_header || tokens.size() != 3 ||
          !ParseLong(tokens[1], &parsed_length) ||
          !ParseLong(tokens[2], &parsed_nodes) || parsed_length < 1 ||
          parsed_nodes < 1) {
        return error("expected 'ctgraph <length> <num_nodes>'");
      }
      if (parsed_length > kMaxGraphLength) {
        return InvalidArgumentError(StrFormat(
            "line %d: length %ld exceeds the maximum of %d", line_number,
            parsed_length, kMaxGraphLength));
      }
      if (parsed_nodes > std::numeric_limits<NodeId>::max()) {
        return InvalidArgumentError(StrFormat(
            "line %d: %ld nodes exceed the node id range", line_number,
            parsed_nodes));
      }
      saw_header = true;
      length = static_cast<Timestamp>(parsed_length);
      num_nodes = static_cast<std::size_t>(parsed_nodes);
    } else if (tokens[0] == "node") {
      if (!saw_header) return error("'node' before 'ctgraph' header");
      long id = 0, time = 0, location = 0, delta = 0;
      double source_probability = 0.0;
      if (tokens.size() < 6 || !ParseLong(tokens[1], &id) ||
          !ParseLong(tokens[2], &time) || !ParseLong(tokens[3], &location) ||
          !ParseLong(tokens[4], &delta) ||
          !ParseDouble(tokens[5], &source_probability)) {
        return error(
            "expected 'node <id> <time> <location> <delta> <source_prob> "
            "<tl>*'");
      }
      if (id < 0 || static_cast<std::size_t>(id) >= num_nodes) {
        return error("node id out of range");
      }
      if (!row_of_id.emplace(id, rows.size()).second) {
        // A silent overwrite would drop the first row's TL entries and
        // keep its edges — a mangled graph that may still pass Assemble.
        return InvalidArgumentError(
            StrFormat("line %d: duplicate row for node %ld", line_number, id));
      }
      if (!std::isfinite(source_probability)) {
        // std::from_chars accepts "inf"/"nan" spellings; a non-finite mass
        // would poison every conditioned probability downstream.
        return error("non-finite source probability");
      }
      CtGraph::Node& node = rows.emplace_back();
      node.time = static_cast<Timestamp>(time);
      node.key.location = static_cast<LocationId>(location);
      node.key.delta = static_cast<Timestamp>(delta);
      node.source_probability = source_probability;
      for (std::size_t i = 6; i < tokens.size(); ++i) {
        std::size_t comma = tokens[i].find(',');
        long tl_time = 0, tl_location = 0;
        if (comma == std::string::npos ||
            !ParseLong(tokens[i].substr(0, comma), &tl_time) ||
            !ParseLong(tokens[i].substr(comma + 1), &tl_location)) {
          return error("malformed TL entry, expected '<time>,<location>'");
        }
        node.key.departures.push_back(
            Departure{static_cast<Timestamp>(tl_time),
                      static_cast<LocationId>(tl_location)});
      }
    } else if (tokens[0] == "edge") {
      if (!saw_header) return error("'edge' before 'ctgraph' header");
      long from = 0, to = 0;
      double probability = 0.0;
      if (tokens.size() != 4 || !ParseLong(tokens[1], &from) ||
          !ParseLong(tokens[2], &to) ||
          !ParseDouble(tokens[3], &probability)) {
        return error("expected 'edge <from> <to> <probability>'");
      }
      if (from < 0 || static_cast<std::size_t>(from) >= num_nodes) {
        return error("edge source out of range");
      }
      if (to < 0 || static_cast<std::size_t>(to) >= num_nodes) {
        // Assemble would reject the dangling target too, but only after the
        // whole document is consumed and without naming the line.
        return error("edge target out of range");
      }
      if (!std::isfinite(probability)) {
        return error("non-finite edge probability");
      }
      edges.emplace_back(
          from, CtGraph::Edge{static_cast<NodeId>(to), probability});
    } else {
      return error("unknown directive");
    }
  }
  if (!saw_header) return InvalidArgumentError("no 'ctgraph' header found");
  if (rows.size() != num_nodes) {
    // A missing row leaves a node whose rejection by Assemble ("empty
    // layer", "unreachable node") would obscure the actual defect: the
    // document never declared the node. Ids are unique and below
    // num_nodes, so the first gap in their sorted order is the first
    // missing id.
    std::vector<long> ids;
    ids.reserve(row_of_id.size());
    for (const auto& [id, row] : row_of_id) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    std::size_t missing = 0;
    while (missing < ids.size() &&
           ids[missing] == static_cast<long>(missing)) {
      ++missing;
    }
    return InvalidArgumentError(StrFormat(
        "node %zu declared in header but has no 'node' row", missing));
  }
  // Every id in [0, num_nodes) has exactly one row, so num_nodes is
  // bounded by the rows read.
  std::vector<CtGraph::Node> nodes(num_nodes);
  for (const auto& [id, row] : row_of_id) {
    nodes[static_cast<std::size_t>(id)] = std::move(rows[row]);
  }
  for (const auto& [from, edge] : edges) {
    nodes[static_cast<std::size_t>(from)].out_edges.push_back(edge);
  }
  return CtGraph::Assemble(nodes, length);
}

}  // namespace rfidclean
