// Reproducibility: the whole point of the simulator substrate is that an
// experiment is a pure function of its seed. Two runs of the same scenario
// must produce identical event counts, identical virtual end times, and
// identical logs; a different seed perturbs jitter but not outcomes.
#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/deployment.h"
#include "protocols/counter.h"
#include "sim/simulator.h"

namespace blockplane {
namespace {

using net::Topology;
using sim::Seconds;

struct ScenarioResult {
  uint64_t events;
  sim::SimTime end_time;
  int64_t counter;
  std::vector<Bytes> oregon_log;
};

ScenarioResult RunScenario(uint64_t seed) {
  sim::Simulator simulator(seed);
  core::Deployment deployment(&simulator, Topology::Aws4(), {});
  protocols::CounterProtocol counter(&deployment);
  for (int i = 0; i < 4; ++i) {
    counter.UserRequest(net::kCalifornia, net::kOregon, "trusted-repro");
  }
  simulator.RunUntilCondition(
      [&] { return counter.counter(net::kOregon) == 4; }, Seconds(120));
  simulator.RunFor(Seconds(2));

  ScenarioResult result;
  result.events = simulator.processed_events();
  result.end_time = simulator.Now();
  result.counter = counter.counter(net::kOregon);
  for (auto& [pos, record] : deployment.node(net::kOregon, 0)->log()) {
    result.oregon_log.push_back(record.payload);
  }
  return result;
}

TEST(DeterminismTest, SameSeedSameUniverse) {
  ScenarioResult a = RunScenario(12345);
  ScenarioResult b = RunScenario(12345);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.counter, b.counter);
  EXPECT_EQ(a.oregon_log, b.oregon_log);
}

TEST(DeterminismTest, DifferentSeedSameOutcome) {
  ScenarioResult a = RunScenario(1);
  ScenarioResult b = RunScenario(2);
  // Jitter differs, protocol outcome does not.
  EXPECT_EQ(a.counter, b.counter);
  EXPECT_EQ(a.oregon_log.size(), b.oregon_log.size());
}

// All JSON exports of one run: metrics snapshot, Chrome trace, and the
// trace summary. Everything a run writes to disk for analysis.
struct JsonExports {
  std::string metrics;
  std::string chrome_trace;
  std::string trace_json;
};

JsonExports RunScenarioWithExports(uint64_t seed) {
  // The tracer and metrics registry are process-wide; reset both so the
  // export is a pure function of the scenario below.
  tracer().Clear();
  tracer().Enable();
  metrics_registry().ResetAll();

  JsonExports out;
  {
    sim::Simulator simulator(seed);
    core::Deployment deployment(&simulator, Topology::Aws4(), {});
    protocols::CounterProtocol counter(&deployment);
    for (int i = 0; i < 4; ++i) {
      counter.UserRequest(net::kCalifornia, net::kOregon, "trusted-json");
    }
    simulator.RunUntilCondition(
        [&] { return counter.counter(net::kOregon) == 4; }, Seconds(120));
    simulator.RunFor(Seconds(2));
    out.metrics = metrics_registry().ToJson();
    out.chrome_trace = tracer().ToChromeTrace();
    out.trace_json = tracer().ToJson();
  }
  tracer().Clear();
  tracer().Disable();
  metrics_registry().ResetAll();
  return out;
}

// Two runs over the same seed must serialize byte for byte: map-ordered
// exporters, no wall-clock timestamps, no iteration-order leaks (BP001:
// the hash containers in src/ cannot be iterated, DESIGN.md §11).
TEST(DeterminismTest, SameSeedByteIdenticalJsonExports) {
  JsonExports a = RunScenarioWithExports(777);
  JsonExports b = RunScenarioWithExports(777);

  // Non-trivial exports: the run actually produced counters and spans.
  EXPECT_NE(a.metrics.find("\"hotpath\""), std::string::npos);
  EXPECT_NE(a.metrics.find("\"transport\""), std::string::npos);
  EXPECT_NE(a.chrome_trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_GT(a.trace_json.size(), 2u);

  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.chrome_trace, b.chrome_trace);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

}  // namespace
}  // namespace blockplane
