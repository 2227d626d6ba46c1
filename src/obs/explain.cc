#include "obs/explain.h"

#include "common/check.h"

namespace rfidclean::obs {

// Name tables live in every build mode: the store codec validates enum
// ranges against them and the CLI prints them for persisted summaries even
// when the recorder itself is compiled out.
const char* ExplainPhaseName(ExplainPhase phase) {
  switch (phase) {
    case ExplainPhase::kPreflight: return "preflight";
    case ExplainPhase::kForward: return "forward";
    case ExplainPhase::kBackward: return "backward";
    case ExplainPhase::kCompaction: return "compaction";
    case ExplainPhase::kCount: break;
  }
  RFID_CHECK(false);  // unreachable: exhaustive switch
  return "";
}

const char* ExplainConstraintName(ExplainConstraint constraint) {
  switch (constraint) {
    case ExplainConstraint::kUnreachable: return "unreachable";
    case ExplainConstraint::kTravelTime: return "travel_time";
    case ExplainConstraint::kLatency: return "latency";
    case ExplainConstraint::kInfeasible: return "infeasible";
    case ExplainConstraint::kPropagated: return "propagated";
    case ExplainConstraint::kStranded: return "stranded";
    case ExplainConstraint::kRenormalized: return "renormalized";
    case ExplainConstraint::kCount: break;
  }
  RFID_CHECK(false);  // unreachable: exhaustive switch
  return "";
}

}  // namespace rfidclean::obs

#if RFIDCLEAN_EXPLAIN_ENABLED

#include <algorithm>
#include <mutex>
#include <utility>

namespace rfidclean::obs {
namespace {

/// Process-wide session state: the options and the per-tag summaries.
struct Session {
  std::mutex mutex;
  std::vector<ExplainTagSummary> tags;
  ExplainOptions options;
};

Session& GetSession() {
  static Session* session = new Session();  // leaked: outlives TLS dtors
  return *session;
}

thread_local long long t_explain_tag = 0;

}  // namespace

namespace internal {
std::atomic<bool> g_explain_armed{false};
}  // namespace internal

void StartExplain(const ExplainOptions& options) {
  Session& session = GetSession();
  std::lock_guard<std::mutex> lock(session.mutex);
  session.options = options;
  if (session.options.top_edges < 1) session.options.top_edges = 1;
  session.tags.clear();
  internal::g_explain_armed.store(true, std::memory_order_release);
}

void StopExplain() {
  Session& session = GetSession();
  std::lock_guard<std::mutex> lock(session.mutex);
  internal::g_explain_armed.store(false, std::memory_order_release);
  session.tags.clear();
}

ExplainOptions ExplainSessionOptions() {
  Session& session = GetSession();
  std::lock_guard<std::mutex> lock(session.mutex);
  return session.options;
}

void RecordTagExplain(ExplainTagSummary summary) {
  if (!internal::ExplainArmedRelaxed()) return;
  Session& session = GetSession();
  std::lock_guard<std::mutex> lock(session.mutex);
  session.tags.push_back(std::move(summary));
}

void SetExplainTag(long long tag) { t_explain_tag = tag; }

long long ExplainCurrentTag() { return t_explain_tag; }

ExplainCollection CollectExplain() {
  Session& session = GetSession();
  std::lock_guard<std::mutex> lock(session.mutex);
  ExplainCollection collection;
  collection.tags = session.tags;
  // Each tag is cleaned by exactly one worker, so sorting by tag makes the
  // collection independent of the worker count and of the tag->worker
  // assignment.
  std::sort(collection.tags.begin(), collection.tags.end(),
            [](const ExplainTagSummary& a, const ExplainTagSummary& b) {
              return a.tag < b.tag;
            });
  return collection;
}

}  // namespace rfidclean::obs

#endif  // RFIDCLEAN_EXPLAIN_ENABLED
