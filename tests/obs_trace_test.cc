// Tests for the structured trace recorder (obs/trace.h), its Chrome
// trace-event exporter (obs/trace_export.h) and the determinism contract of
// the pipeline's span instrumentation: the *content* of a tag's span
// subtree (names, args, nesting) is a function of the workload alone, never
// of the worker count or scheduling. Timestamps and thread ids are the only
// things allowed to differ between a --jobs 1 and a --jobs 8 run.

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "constraints/constraint_set.h"
#include "core/builder.h"
#include "model/lsequence.h"
#include "obs/cleaning_stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "runtime/batch_cleaner.h"
#include "test_util.h"

namespace rfidclean {
namespace {

using ::rfidclean::testing::MakeLSequence;
using ::rfidclean::testing::PaperExampleConstraints;
using ::rfidclean::testing::PaperExampleSequence;

#if RFIDCLEAN_TRACE_ENABLED

/// One reconstructed span (or instant leaf) from a thread's event stream.
struct SpanNode {
  std::string name;
  std::vector<std::pair<std::string, std::uint64_t>> args;
  std::vector<SpanNode> children;
};

/// Rebuilds the span forest of one thread from its linearized events.
/// Counter samples are skipped: they snapshot process-global state, which
/// legitimately depends on what the other workers have done.
std::vector<SpanNode> BuildSpanForest(const obs::TraceThread& thread) {
  std::vector<SpanNode> roots;
  std::vector<SpanNode> stack;
  for (const obs::TraceEvent& event : thread.events) {
    switch (event.type) {
      case obs::TraceEventType::kBegin:
        stack.push_back(SpanNode{event.name, {}, {}});
        break;
      case obs::TraceEventType::kEnd: {
        EXPECT_FALSE(stack.empty()) << "unbalanced 'E' for " << event.name;
        if (stack.empty()) break;
        SpanNode node = std::move(stack.back());
        stack.pop_back();
        EXPECT_EQ(node.name, event.name) << "mismatched span nesting";
        for (int i = 0; i < event.num_args; ++i) {
          node.args.emplace_back(event.arg_names[i], event.arg_values[i]);
        }
        (stack.empty() ? roots : stack.back().children)
            .push_back(std::move(node));
        break;
      }
      case obs::TraceEventType::kInstant: {
        SpanNode leaf{std::string("instant:") + event.name, {}, {}};
        for (int i = 0; i < event.num_args; ++i) {
          leaf.args.emplace_back(event.arg_names[i], event.arg_values[i]);
        }
        (stack.empty() ? roots : stack.back().children)
            .push_back(std::move(leaf));
        break;
      }
      case obs::TraceEventType::kCounter:
        break;
    }
  }
  EXPECT_TRUE(stack.empty()) << "span(s) left open: " << stack.back().name;
  return roots;
}

/// Canonical text form of a subtree: name, args in recorded order, children
/// in recorded order — everything that must be scheduling-invariant, and
/// nothing (timestamps, tids) that may not be.
std::string Canonicalize(const SpanNode& node) {
  std::ostringstream os;
  os << node.name << '(';
  for (std::size_t i = 0; i < node.args.size(); ++i) {
    if (i > 0) os << ',';
    os << node.args[i].first << '=' << node.args[i].second;
  }
  os << ')';
  if (!node.children.empty()) {
    os << '{';
    for (std::size_t i = 0; i < node.children.size(); ++i) {
      if (i > 0) os << ',';
      os << Canonicalize(node.children[i]);
    }
    os << '}';
  }
  return os.str();
}

std::uint64_t ArgValue(const SpanNode& node, const std::string& name) {
  for (const auto& [arg, value] : node.args) {
    if (arg == name) return value;
  }
  ADD_FAILURE() << "span " << node.name << " lacks arg " << name;
  return 0;
}

/// Collects every `tag_clean` subtree (any depth: with --jobs 1 the spans
/// nest under batch_clean_all on the calling thread; with workers they are
/// top-level on worker tracks), keyed by the span's `tag` argument.
void CollectTagTrees(const std::vector<SpanNode>& forest,
                     std::map<std::uint64_t, std::string>* by_tag) {
  for (const SpanNode& node : forest) {
    if (node.name == "tag_clean") {
      const std::uint64_t tag = ArgValue(node, "tag");
      const std::string canonical = Canonicalize(node);
      auto [it, inserted] = by_tag->emplace(tag, canonical);
      EXPECT_TRUE(inserted) << "tag " << tag << " cleaned twice";
    }
    CollectTagTrees(node.children, by_tag);
  }
}

/// Deterministic multi-tag workload: dense enough constraints that layers
/// narrow and some renormalization happens, all seeded so two runs see
/// byte-identical inputs.
std::vector<TagWorkload> MakeWorkloads(int num_tags, std::uint64_t seed) {
  Rng rng(seed, /*stream=*/77);
  std::vector<TagWorkload> workloads;
  for (int k = 0; k < num_tags; ++k) {
    const Timestamp length = static_cast<Timestamp>(rng.UniformInt(4, 9));
    std::vector<std::vector<std::pair<LocationId, double>>> spec;
    for (Timestamp t = 0; t < length; ++t) {
      const int width = rng.UniformInt(1, 3);
      std::vector<std::pair<LocationId, double>> at_t;
      double total = 0.0;
      for (int i = 0; i < width; ++i) {
        at_t.emplace_back(static_cast<LocationId>((t + i) % 5),
                          rng.UniformDouble(0.2, 1.0));
        total += at_t.back().second;
      }
      for (auto& candidate : at_t) candidate.second /= total;
      spec.push_back(std::move(at_t));
    }
    workloads.push_back(
        TagWorkload{static_cast<TagId>(k), MakeLSequence(std::move(spec))});
  }
  return workloads;
}

ConstraintSet MakeConstraints() {
  ConstraintSet constraints(5);
  constraints.AddUnreachable(0, 3);
  constraints.AddUnreachable(4, 1);
  constraints.AddTravelingTime(1, 4, 2);
  constraints.AddLatency(2, 2);
  return constraints;
}

class ObsTraceTest : public ::testing::Test {
 protected:
  void TearDown() override { obs::StopTracing(); }

  static obs::TraceCollection TraceBatch(
      const ConstraintSet& constraints,
      const std::vector<TagWorkload>& workloads, int jobs) {
    obs::StartTracing(obs::TraceOptions());
    BatchOptions batch;
    batch.jobs = jobs;
    BatchCleaner cleaner(constraints, batch);
    cleaner.CleanAll(workloads);
    obs::TraceCollection collection = obs::CollectTrace();
    obs::StopTracing();
    return collection;
  }
};

TEST_F(ObsTraceTest, TagSpanTreesIdenticalAcrossJobCounts) {
  const ConstraintSet constraints = MakeConstraints();
  const std::vector<TagWorkload> workloads = MakeWorkloads(8, 11);

  std::map<std::uint64_t, std::string> serial_trees;
  std::map<std::uint64_t, std::string> parallel_trees;
  {
    obs::TraceCollection collection = TraceBatch(constraints, workloads, 1);
    for (const obs::TraceThread& thread : collection.threads) {
      ASSERT_EQ(thread.dropped_events, 0u);
      CollectTagTrees(BuildSpanForest(thread), &serial_trees);
    }
  }
  {
    obs::TraceCollection collection = TraceBatch(constraints, workloads, 8);
    for (const obs::TraceThread& thread : collection.threads) {
      ASSERT_EQ(thread.dropped_events, 0u);
      CollectTagTrees(BuildSpanForest(thread), &parallel_trees);
    }
  }

  ASSERT_EQ(serial_trees.size(), workloads.size());
  ASSERT_EQ(parallel_trees.size(), workloads.size());
  for (const auto& [tag, tree] : serial_trees) {
    SCOPED_TRACE(::testing::Message() << "tag " << tag);
    auto it = parallel_trees.find(tag);
    ASSERT_NE(it, parallel_trees.end());
    // The whole subtree — span names, argument lists (widths, edge counts,
    // per-layer t) and nesting — must be bit-identical across job counts.
    EXPECT_EQ(tree, it->second);
  }
}

TEST_F(ObsTraceTest, CounterTracksSampleOnceAfterTheBatch) {
  if (!obs::Enabled()) GTEST_SKIP() << "stats compiled out";
  // Every tag cleans under an empty constraint set. The counter tracks are
  // sampled once per CleanAll, after its lanes are joined, so the batch's
  // one batch_tags_cleaned point counts every tag, whichever lanes cleaned
  // them. A sample taken while other lanes still run would read their
  // sinks as they write them.
  const ConstraintSet constraints(5);
  const std::vector<TagWorkload> workloads = MakeWorkloads(12, 5);
  for (int jobs : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "jobs " << jobs);
    obs::CleaningStats::Reset();
    obs::TraceCollection collection = TraceBatch(constraints, workloads, jobs);
    std::vector<std::uint64_t> samples;
    for (const obs::TraceThread& thread : collection.threads) {
      for (const obs::TraceEvent& event : thread.events) {
        if (event.type == obs::TraceEventType::kCounter &&
            std::string(event.name) == "batch_tags_cleaned") {
          samples.push_back(event.arg_values[0]);
        }
      }
    }
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_EQ(samples[0], workloads.size());
  }
}

TEST_F(ObsTraceTest, RingDropsOldestAndCountsDrops) {
  obs::TraceOptions options;
  options.buffer_events = 16;
  obs::StartTracing(options);
  for (std::uint64_t i = 0; i < 40; ++i) {
    obs::TraceInstant("test", "tick", "i", i);
  }
  obs::TraceCollection collection = obs::CollectTrace();
  ASSERT_EQ(collection.threads.size(), 1u);
  const obs::TraceThread& thread = collection.threads[0];
  EXPECT_EQ(thread.dropped_events, 24u);
  EXPECT_EQ(collection.DroppedEvents(), 24u);
  ASSERT_EQ(thread.events.size(), 16u);
  // Drop-oldest: the survivors are exactly the newest 16, oldest-first.
  for (std::size_t i = 0; i < thread.events.size(); ++i) {
    EXPECT_EQ(thread.events[i].arg_values[0], 24 + i);
  }
}

TEST_F(ObsTraceTest, BufferCapacityIsClampedToMinimum) {
  obs::TraceOptions options;
  options.buffer_events = 1;  // below the floor of 8
  obs::StartTracing(options);
  for (std::uint64_t i = 0; i < 10; ++i) {
    obs::TraceInstant("test", "tick", "i", i);
  }
  obs::TraceCollection collection = obs::CollectTrace();
  ASSERT_EQ(collection.threads.size(), 1u);
  EXPECT_EQ(collection.threads[0].events.size(), 8u);
  EXPECT_EQ(collection.threads[0].dropped_events, 2u);
}

TEST_F(ObsTraceTest, NoEventsRecordedWithoutSession) {
  ASSERT_FALSE(obs::TraceActive());
  {
    RFID_TRACE_SPAN(span, "test", "orphan");
    RFID_TRACE(span.AddArg("x", 1));
    obs::TraceInstant("test", "orphan_instant");
  }
  EXPECT_EQ(obs::CollectTrace().NumEvents(), 0u);
}

TEST_F(ObsTraceTest, SpanLatchesArmedStateAtConstruction) {
  // A span that opens before StartTracing must not emit a dangling 'E'
  // into the new session.
  {
    RFID_TRACE_SPAN(span, "test", "pre_session");
    obs::StartTracing(obs::TraceOptions());
  }
  EXPECT_EQ(obs::CollectTrace().NumEvents(), 0u);
}

TEST_F(ObsTraceTest, BatchRecordsProvenancePerTag) {
  const ConstraintSet constraints = MakeConstraints();
  const std::vector<TagWorkload> workloads = MakeWorkloads(4, 3);
  obs::TraceCollection collection = TraceBatch(constraints, workloads, 2);

  ASSERT_EQ(collection.provenance.size(), workloads.size());
  std::map<long long, const obs::TagProvenance*> by_tag;
  for (const obs::TagProvenance& record : collection.provenance) {
    by_tag.emplace(record.tag, &record);
  }
  BatchCleaner cleaner(constraints, BatchOptions{});
  std::vector<TagOutcome> outcomes = cleaner.CleanAll(workloads);
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "tag " << workloads[i].tag);
    auto it = by_tag.find(static_cast<long long>(workloads[i].tag));
    ASSERT_NE(it, by_tag.end());
    const obs::TagProvenance& record = *it->second;
    EXPECT_EQ(record.input_digest, workloads[i].sequence.Digest());
    EXPECT_EQ(record.constraint_digest, constraints.Digest());
    if (outcomes[i].graph.ok()) {
      EXPECT_EQ(record.status, "ok");
      EXPECT_EQ(record.graph_digest, outcomes[i].graph.value().Digest());
      EXPECT_NE(record.graph_digest, 0u);
    } else {
      EXPECT_EQ(record.status, outcomes[i].graph.status().ToString());
      EXPECT_EQ(record.graph_digest, 0u);
    }
    EXPECT_GE(record.forward_millis, 0.0);
    EXPECT_GE(record.backward_millis, 0.0);
  }
}

TEST_F(ObsTraceTest, FailedTagRecordsFailureProvenance) {
  // unreachable(1 -> 2) kills the only transition: Push fails, the graph
  // digest stays 0 and the status string lands in the provenance.
  ConstraintSet constraints(3);
  constraints.AddUnreachable(1, 2);
  std::vector<TagWorkload> workloads;
  workloads.push_back(
      TagWorkload{7, MakeLSequence({{{1, 1.0}}, {{2, 1.0}}})});
  obs::TraceCollection collection = TraceBatch(constraints, workloads, 1);
  ASSERT_EQ(collection.provenance.size(), 1u);
  EXPECT_EQ(collection.provenance[0].tag, 7);
  EXPECT_NE(collection.provenance[0].status, "ok");
  EXPECT_EQ(collection.provenance[0].graph_digest, 0u);
  EXPECT_NE(collection.provenance[0].input_digest, 0u);
}

TEST_F(ObsTraceTest, ChromeTraceExportShape) {
  const ConstraintSet constraints = PaperExampleConstraints();
  std::vector<TagWorkload> workloads;
  workloads.push_back(TagWorkload{1, PaperExampleSequence()});
  obs::TraceCollection collection = TraceBatch(constraints, workloads, 1);
  ASSERT_GT(collection.NumEvents(), 0u);

  std::ostringstream os;
  WriteChromeTrace(collection, os);
  const std::string json = os.str();
  for (const char* fragment :
       {"\"traceEvents\"", "\"displayTimeUnit\": \"ms\"", "\"ph\": \"B\"",
        "\"ph\": \"E\"", "\"ph\": \"M\"", "\"process_name\"",
        "\"tag_clean\"", "\"provenance\"", "\"dropped_events\""}) {
    EXPECT_NE(json.find(fragment), std::string::npos)
        << "export lacks " << fragment << ":\n"
        << json.substr(0, 2000);
  }
  // Instants are thread-scoped so chrome://tracing draws them on their
  // worker's track instead of a full-height flash.
  if (json.find("\"ph\": \"i\"") != std::string::npos) {
    EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
  }
}

TEST_F(ObsTraceTest, ProvenanceJsonEscapesAndFormats) {
  std::vector<obs::TagProvenance> provenance(1);
  provenance[0].tag = 42;
  provenance[0].input_digest = 0xabcULL;
  provenance[0].status = "bad \"quote\"\nnewline";
  std::ostringstream os;
  obs::WriteProvenanceJson(provenance, os, 0);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"tag\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"input_digest\": \"0000000000000abc\""),
            std::string::npos);
  EXPECT_NE(json.find("bad \\\"quote\\\"\\nnewline"), std::string::npos);

  std::ostringstream empty;
  obs::WriteProvenanceJson({}, empty, 0);
  EXPECT_EQ(empty.str(), "[]");
}

#else  // !RFIDCLEAN_TRACE_ENABLED

TEST(ObsTraceTest, CompiledOutBuildIsInert) {
  EXPECT_FALSE(obs::TraceCompiledIn());
  EXPECT_FALSE(obs::TraceActive());
  obs::StartTracing(obs::TraceOptions{});
  {
    RFID_TRACE_SPAN(span, "test", "noop");
    RFID_TRACE(span.AddArg("x", 1));
  }
  EXPECT_FALSE(obs::TraceActive());
  EXPECT_EQ(obs::CollectTrace().NumEvents(), 0u);
}

#endif  // RFIDCLEAN_TRACE_ENABLED

// Digest helpers back the trace provenance records; they must be stable
// across runs, sensitive to content and (for constraint sets) independent
// of insertion order. Compiled in all build modes.

TEST(TraceDigestTest, LSequenceDigestIsContentSensitive) {
  const LSequence a = PaperExampleSequence();
  const LSequence b = PaperExampleSequence();
  EXPECT_EQ(a.Digest(), b.Digest());
  const LSequence changed = MakeLSequence(
      {{{testing::kL1, 0.5}, {testing::kL2, 0.5}},
       {{testing::kL3, 1.0 / 3}, {testing::kL4, 2.0 / 3}},
       {{testing::kL3, 2.0 / 3}, {testing::kL5, 1.0 / 3}}});
  EXPECT_NE(a.Digest(), changed.Digest());
}

TEST(TraceDigestTest, ConstraintSetDigestIgnoresInsertionOrder) {
  ConstraintSet forward(6);
  forward.AddUnreachable(1, 2);
  forward.AddTravelingTime(2, 4, 3);
  forward.AddLatency(3, 2);
  ConstraintSet reversed(6);
  reversed.AddLatency(3, 2);
  reversed.AddTravelingTime(2, 4, 3);
  reversed.AddUnreachable(1, 2);
  EXPECT_EQ(forward.Digest(), reversed.Digest());

  ConstraintSet different(6);
  different.AddUnreachable(2, 1);  // direction matters
  different.AddTravelingTime(2, 4, 3);
  different.AddLatency(3, 2);
  EXPECT_NE(forward.Digest(), different.Digest());
}

TEST(TraceDigestTest, GraphDigestIsDeterministic) {
  const ConstraintSet constraints = PaperExampleConstraints();
  CtGraphBuilder builder(constraints);
  Result<CtGraph> first = builder.Build(PaperExampleSequence());
  Result<CtGraph> second = builder.Build(PaperExampleSequence());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().Digest(), second.value().Digest());
  EXPECT_NE(first.value().Digest(), 0u);
}

}  // namespace
}  // namespace rfidclean
