// Tests for the causal-tracing / latency-breakdown observability layer:
// tracer primitives, phase marks and their exact-sum breakdown, the Chrome
// trace_event exporter, golden-trace determinism across runs of the same
// seed, the pinned message complexity of one PBFT commit, and the unified
// metrics registry.
#include "common/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/deployment.h"
#include "pbft/client.h"
#include "pbft/replica.h"
#include "sim/simulator.h"

namespace blockplane {
namespace {

using core::BlockplaneOptions;
using core::Deployment;
using core::Participant;
using net::kCalifornia;
using net::kVirginia;
using net::NodeId;
using net::Topology;
using sim::Seconds;

/// Every test starts from a clean, enabled tracer and leaves it disabled:
/// the tracer is process-global and other suites expect it off.
class TraceTest : public ::testing::Test {
 protected:
  TraceTest() {
    tracer().Clear();
    tracer().Enable();
  }
  ~TraceTest() override {
    tracer().Disable();
    tracer().Clear();
  }
};

TEST_F(TraceTest, DisabledTracerIsInert) {
  tracer().Disable();
  EXPECT_EQ(tracer().NewTrace(), kNoTrace);
  tracer().Mark(1, TracePhase::kSubmit, 100);  // must be a no-op
  tracer().Span(1, "x", "t", 0, 10, 0, 0);
  tracer().Instant(1, "y", "t", 5, 0, 0);
  EXPECT_TRUE(tracer().events().empty());
  EXPECT_TRUE(tracer().MarksFor(1).empty());
}

TEST_F(TraceTest, TraceIdsAreMonotoneFromOne) {
  EXPECT_EQ(tracer().NewTrace(), 1u);
  EXPECT_EQ(tracer().NewTrace(), 2u);
  tracer().Clear();  // resets the counter (golden-trace reproducibility)
  tracer().Enable();
  EXPECT_EQ(tracer().NewTrace(), 1u);
}

TEST_F(TraceTest, MarksAreFirstWinsAndBreakdownSumsExactly) {
  TraceId t = tracer().NewTrace();
  tracer().Mark(t, TracePhase::kSubmit, 1000);
  tracer().Mark(t, TracePhase::kLocalCommitted, 3500);
  // A late duplicate is ignored.
  tracer().Mark(t, TracePhase::kLocalCommitted, 9999);
  tracer().Mark(t, TracePhase::kAttested, 4200);
  tracer().Mark(t, TracePhase::kDone, 7000);

  const std::vector<TraceMark>& marks = tracer().MarksFor(t);
  ASSERT_EQ(marks.size(), 4u);
  EXPECT_STREQ(marks[1].phase, "local_committed");
  EXPECT_EQ(marks[1].ts, 3500);

  std::vector<BreakdownComponent> breakdown = tracer().BreakdownFor(t);
  ASSERT_EQ(breakdown.size(), 3u);
  int64_t sum = 0;
  for (const BreakdownComponent& c : breakdown) sum += c.dur;
  // The defining property of the mark-based decomposition: components sum
  // EXACTLY to the end-to-end time — no residual bucket, no rounding.
  EXPECT_EQ(sum, tracer().EndToEndFor(t));
  EXPECT_EQ(tracer().EndToEndFor(t), 7000 - 1000);
  EXPECT_EQ(breakdown[0].from, "submit");
  EXPECT_EQ(breakdown[0].to, "local_committed");
  EXPECT_EQ(breakdown[0].dur, 2500);
}

TEST_F(TraceTest, CommRecordBindingsRoundTrip) {
  TraceId t = tracer().NewTrace();
  tracer().BindCommRecord(/*src_site=*/2, /*log_pos=*/17, t);
  EXPECT_EQ(tracer().LookupCommRecord(2, 17), t);
  EXPECT_EQ(tracer().LookupCommRecord(2, 18), kNoTrace);
  EXPECT_EQ(tracer().LookupCommRecord(3, 17), kNoTrace);
}

// --- a traced PBFT commit through a bare 4-node unit --------------------------

struct UnitHarness {
  explicit UnitHarness(uint64_t seed)
      : simulator(seed), network(&simulator, Topology::SingleSite()) {
    config = pbft::UnitConfig(/*site=*/0, /*f=*/1);
    for (const NodeId& node : config.nodes) {
      auto replica = std::make_unique<pbft::PbftReplica>(
          &network, &keys, config, node, nullptr);
      replica->RegisterWithNetwork();
      replicas.push_back(std::move(replica));
    }
    client = std::make_unique<pbft::PbftClient>(&network, config,
                                                NodeId{0, 1000});
  }

  sim::Simulator simulator;
  net::Network network;
  crypto::KeyStore keys;
  pbft::PbftConfig config;
  std::vector<std::unique_ptr<pbft::PbftReplica>> replicas;
  std::unique_ptr<pbft::PbftClient> client;
};

TEST_F(TraceTest, TracedCommitEmitsPhaseSpansOnEveryReplica) {
  UnitHarness unit(11);
  TraceId trace = tracer().NewTrace();
  tracer().Mark(trace, TracePhase::kSubmit, unit.simulator.Now());
  bool done = false;
  unit.client->Submit(ToBytes("traced"), [&](uint64_t) { done = true; },
                      trace);
  ASSERT_TRUE(
      unit.simulator.RunUntilCondition([&] { return done; }, Seconds(30)));
  unit.simulator.Run();  // drain the remaining replies / timers

  int request_spans = 0, prepare_spans = 0, commit_spans = 0, executes = 0;
  for (const TraceEvent& event : tracer().events()) {
    EXPECT_EQ(event.trace, trace);
    std::string name = event.name;
    if (name == "request") ++request_spans;
    if (name == "prepare") ++prepare_spans;
    if (name == "commit") ++commit_spans;
    if (name == "execute") ++executes;
    if (event.kind == TraceEvent::Kind::kSpan) {
      EXPECT_GE(event.dur, 0);
    }
  }
  // One client-side end-to-end span; every replica reports its own
  // prepare/commit phase spans and an execution instant.
  EXPECT_EQ(request_spans, 1);
  EXPECT_EQ(prepare_spans, 4);
  EXPECT_EQ(commit_spans, 4);
  EXPECT_EQ(executes, 4);

  std::string chrome = tracer().ToChromeTrace();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"request\""), std::string::npos);
}

TEST_F(TraceTest, OneCommitMessageComplexityIsPinned) {
  // The analytic message count of one PBFT commit in a 4-node unit
  // (f=1, clean network): 1 request + 3 pre-prepares + 3x3 prepares +
  // 4x3 commits + 4 replies = 29. A protocol change that alters the
  // normal-case message complexity must update this pin consciously.
  UnitHarness unit(12);
  bool done = false;
  unit.client->Submit(ToBytes("count me"), [&](uint64_t) { done = true; });
  ASSERT_TRUE(
      unit.simulator.RunUntilCondition([&] { return done; }, Seconds(30)));
  unit.simulator.Run();
  EXPECT_EQ(unit.network.counters().Get("lan_messages"), 29);
  EXPECT_EQ(unit.network.counters().Get("wan_messages"), 0);
  EXPECT_EQ(unit.network.counters().Get("dropped_messages"), 0);
}

// --- end-to-end breakdown through a full deployment ----------------------------

TEST_F(TraceTest, GeoCommitBreakdownDecomposesEndToEnd) {
  sim::Simulator simulator(21);
  BlockplaneOptions options;
  options.fg = 1;  // geo-correlated tolerance: attest + mirror phases exist
  Deployment deployment(&simulator, Topology::Aws4(), options);

  bool done = false;
  deployment.participant(kCalifornia)
      ->LogCommit(ToBytes("geo"), 0, [&](uint64_t) { done = true; });
  // The first traced operation after Clear() gets trace id 1.
  const TraceId trace = 1;
  ASSERT_TRUE(
      simulator.RunUntilCondition([&] { return done; }, Seconds(120)));

  const std::vector<TraceMark>& marks = tracer().MarksFor(trace);
  ASSERT_GE(marks.size(), 4u);
  std::vector<std::string> phases;
  for (const TraceMark& mark : marks) phases.emplace_back(mark.phase);
  EXPECT_EQ(phases[0], "submit");
  EXPECT_EQ(phases[1], "local_committed");
  EXPECT_EQ(phases[2], "attested");
  EXPECT_EQ(phases[3], "mirrored");

  // The acceptance property: local-PBFT + attestation + WAN-mirror
  // components sum exactly to the measured end-to-end commit latency.
  std::vector<BreakdownComponent> breakdown = tracer().BreakdownFor(trace);
  int64_t sum = 0;
  for (const BreakdownComponent& c : breakdown) sum += c.dur;
  EXPECT_EQ(sum, tracer().EndToEndFor(trace));
  EXPECT_GT(tracer().EndToEndFor(trace), 0);

  // Every phase should take nonzero time except mirrored->done (same
  // callback) — and the attest + mirror phases dominate a local commit.
  EXPECT_GT(breakdown[0].dur, 0);  // submit -> local_committed (PBFT round)
  EXPECT_GT(breakdown[2].dur, 0);  // attested -> mirrored (WAN round trip)
}

TEST_F(TraceTest, TracedSendReachesDeliveredMilestone) {
  sim::Simulator simulator(22);
  Deployment deployment(&simulator, Topology::Aws4(), {});

  deployment.participant(kCalifornia)
      ->Send(kVirginia, ToBytes("traced message"), 0, nullptr);
  const TraceId trace = 1;
  Participant* receiver = deployment.participant(kVirginia);
  Bytes payload;
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return receiver->TryReceive(kCalifornia, &payload); },
      Seconds(60)));

  std::vector<std::string> phases;
  for (const TraceMark& mark : tracer().MarksFor(trace)) {
    phases.emplace_back(mark.phase);
  }
  // The full cross-site journey: committed at the source, picked up by the
  // communication daemon, committed in the destination unit, delivered to
  // the destination participant with f_i+1 matching notices.
  EXPECT_NE(std::find(phases.begin(), phases.end(), "local_committed"),
            phases.end());
  EXPECT_NE(std::find(phases.begin(), phases.end(), "transmitted"),
            phases.end());
  EXPECT_NE(std::find(phases.begin(), phases.end(), "remote_committed"),
            phases.end());
  EXPECT_NE(std::find(phases.begin(), phases.end(), "delivered"),
            phases.end());

  // Timestamps decompose exactly even across sites (one global sim clock).
  std::vector<BreakdownComponent> breakdown = tracer().BreakdownFor(trace);
  int64_t sum = 0;
  for (const BreakdownComponent& c : breakdown) sum += c.dur;
  EXPECT_EQ(sum, tracer().EndToEndFor(trace));
}

// --- golden trace: bit-identical export per seed -------------------------------

std::string RunGoldenScenario(uint64_t seed) {
  tracer().Clear();
  tracer().Enable();
  sim::Simulator simulator(seed);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    deployment.participant(kCalifornia)
        ->LogCommit(ToBytes("op" + std::to_string(i)), 0,
                    [&](uint64_t) { ++done; });
  }
  deployment.participant(kCalifornia)
      ->Send(kVirginia, ToBytes("payload"), 0, [&](uint64_t) { ++done; });
  EXPECT_TRUE(
      simulator.RunUntilCondition([&] { return done == 4; }, Seconds(120)));
  simulator.RunFor(Seconds(2));  // let the delivery side settle
  std::string chrome = tracer().ToChromeTrace();
  tracer().Disable();
  return chrome;
}

TEST_F(TraceTest, GoldenTraceIsByteIdenticalAcrossRuns) {
  std::string first = RunGoldenScenario(77);
  std::string second = RunGoldenScenario(77);
  EXPECT_GT(first.size(), 100u);
  // Determinism is the whole point: same seed => byte-identical trace.
  EXPECT_EQ(first, second);
  // A different seed schedules differently (timestamps shift).
  std::string other = RunGoldenScenario(78);
  EXPECT_NE(first, other);
}

// --- metrics registry -----------------------------------------------------------

TEST(MetricsRegistryTest, SnapshotUnifiesBuiltinAndNetworkGroups) {
  sim::Simulator simulator(5);
  net::Network network(&simulator, Topology::SingleSite());
  auto snapshot = metrics_registry().Snapshot();
  EXPECT_EQ(snapshot.count("hotpath"), 1u);
  EXPECT_EQ(snapshot.count("transport"), 1u);
  ASSERT_EQ(snapshot.count("network"), 1u);

  transport_stats().frames_sent = 41;
  auto after = metrics_registry().Snapshot();
  EXPECT_EQ(after.at("transport").at("frames_sent"), 41);

  metrics_registry().ResetAll();
  EXPECT_EQ(transport_stats().frames_sent, 0);

  std::string json = metrics_registry().ToJson();
  EXPECT_NE(json.find("\"hotpath\""), std::string::npos);
  EXPECT_NE(json.find("\"transport\""), std::string::npos);
  EXPECT_NE(json.find("\"network\""), std::string::npos);
}

TEST(MetricsRegistryTest, NetworkUnregistersOnDestruction) {
  sim::Simulator simulator(6);
  {
    net::Network network(&simulator, Topology::SingleSite());
    EXPECT_EQ(metrics_registry().Snapshot().count("network"), 1u);
  }
  EXPECT_EQ(metrics_registry().Snapshot().count("network"), 0u);
}

}  // namespace
}  // namespace blockplane
