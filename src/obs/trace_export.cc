#include "obs/trace_export.h"

#include <string>

#include "common/strings.h"

namespace rfidclean::obs {
namespace {

std::string HexDigest(std::uint64_t digest) {
  return StrFormat("%016llx", static_cast<unsigned long long>(digest));
}

}  // namespace

void WriteProvenanceJson(const std::vector<TagProvenance>& provenance,
                         std::ostream& os, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  if (provenance.empty()) {
    os << "[]";
    return;
  }
  os << "[\n";
  for (std::size_t i = 0; i < provenance.size(); ++i) {
    const TagProvenance& record = provenance[i];
    os << pad << "  {\n";
    os << pad << "    \"tag\": " << record.tag << ",\n";
    os << pad << "    \"input_digest\": \"" << HexDigest(record.input_digest)
       << "\",\n";
    os << pad << "    \"constraint_digest\": \""
       << HexDigest(record.constraint_digest) << "\",\n";
    os << pad << "    \"graph_digest\": \"" << HexDigest(record.graph_digest)
       << "\",\n";
    os << pad << "    \"forward_millis\": "
       << StrFormat("%.3f", record.forward_millis) << ",\n";
    os << pad << "    \"backward_millis\": "
       << StrFormat("%.3f", record.backward_millis) << ",\n";
    os << pad << "    \"status\": \"" << JsonEscape(record.status) << "\"\n";
    os << pad << "  }" << (i + 1 < provenance.size() ? ",\n" : "\n");
  }
  os << pad << "]";
}

#if RFIDCLEAN_TRACE_ENABLED

namespace {

const char* PhOf(TraceEventType type) {
  switch (type) {
    case TraceEventType::kBegin: return "B";
    case TraceEventType::kEnd: return "E";
    case TraceEventType::kInstant: return "i";
    case TraceEventType::kCounter: return "C";
  }
  return "i";
}

void WriteEvent(std::ostream& os, const TraceEvent& event, int tid) {
  os << "{\"ph\": \"" << PhOf(event.type) << "\", \"pid\": 1, \"tid\": " << tid
     << ", \"ts\": "
     << StrFormat("%.3f", static_cast<double>(event.ts_nanos) / 1000.0)
     << ", \"cat\": \"" << JsonEscape(event.category ? event.category : "")
     << "\", \"name\": \"" << JsonEscape(event.name ? event.name : "") << '"';
  if (event.type == TraceEventType::kInstant) os << ", \"s\": \"t\"";
  if (event.num_args > 0) {
    os << ", \"args\": {";
    for (int i = 0; i < event.num_args; ++i) {
      if (i > 0) os << ", ";
      os << '"' << JsonEscape(event.arg_names[i] ? event.arg_names[i] : "")
         << "\": " << event.arg_values[i];
    }
    os << '}';
  }
  os << '}';
}

}  // namespace

void WriteChromeTrace(const TraceCollection& collection, std::ostream& os) {
  os << "{\n  \"traceEvents\": [\n";
  bool first = true;
  auto separate = [&] {
    if (!first) os << ",\n";
    first = false;
    os << "    ";
  };
  separate();
  os << "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", "
        "\"args\": {\"name\": \"rfidclean\"}}";
  for (const TraceThread& thread : collection.threads) {
    if (thread.name.empty()) continue;
    separate();
    os << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << thread.tid
       << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
       << JsonEscape(thread.name) << "\"}}";
  }
  for (const TraceThread& thread : collection.threads) {
    for (const TraceEvent& event : thread.events) {
      separate();
      WriteEvent(os, event, thread.tid);
    }
  }
  os << "\n  ],\n";
  os << "  \"displayTimeUnit\": \"ms\",\n";
  os << "  \"otherData\": {\n";
  os << "    \"tool\": \"rfidclean\",\n";
  os << "    \"num_events\": " << collection.NumEvents() << ",\n";
  os << "    \"dropped_events\": " << collection.DroppedEvents() << "\n";
  os << "  },\n";
  os << "  \"provenance\": ";
  WriteProvenanceJson(collection.provenance, os, 2);
  os << "\n}\n";
}

#endif  // RFIDCLEAN_TRACE_ENABLED

}  // namespace rfidclean::obs
