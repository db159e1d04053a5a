// Tests for the sliding-window pipelining of DESIGN.md §9: PBFT proposal
// windows (out-of-order certificate collection, strict in-order
// execution), view changes with multiple proposals in flight, byzantine
// leaders inside the window, the Participant's windowed geo-commit path
// (completion callbacks in submission order, contiguous mirror streams),
// and the window controllers every window runs on (DESIGN.md §13).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
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

using net::kCalifornia;
using net::kIreland;
using net::kOregon;
using net::NodeId;
using net::Topology;
using sim::Milliseconds;
using sim::Seconds;

/// A single-site PBFT group with a configurable proposal window.
class WindowedPbftHarness {
 public:
  WindowedPbftHarness(int f, uint64_t window, uint64_t seed = 7,
                      net::NetworkOptions net_options = {})
      : simulator_(seed),
        network_(&simulator_, Topology::SingleSite(), net_options) {
    config_ = pbft::UnitConfig(/*site=*/0, f);
    config_.window = window;
    config_.checkpoint_interval = 8;  // exercise watermark advancement
    executed_.resize(config_.nodes.size());
    for (size_t i = 0; i < config_.nodes.size(); ++i) {
      auto replica = std::make_unique<pbft::PbftReplica>(
          &network_, &keys_, config_, config_.nodes[i],
          [this, i](uint64_t, const Bytes& value, const crypto::Digest&) {
            if (!value.empty()) executed_[i].push_back(ToString(value));
          });
      replica->RegisterWithNetwork();
      replicas_.push_back(std::move(replica));
    }
    client_ = std::make_unique<pbft::PbftClient>(&network_, config_,
                                                 NodeId{0, 1000});
  }

  /// Submits `count` values concurrently and waits for all completions.
  bool SubmitBurst(int count, sim::SimTime deadline = Seconds(60)) {
    for (int i = 0; i < count; ++i) {
      client_->Submit(ToBytes("v" + std::to_string(i)), nullptr);
    }
    return simulator_.RunUntilCondition(
        [&] { return client_->completed() >= static_cast<uint64_t>(count); },
        simulator_.Now() + deadline);
  }

  /// Everything replica `index` executed, in execution order (survives
  /// checkpoint garbage collection of executed_log(); drops no-op gap
  /// fillers).
  const std::vector<std::string>& LogOf(int index) const {
    return executed_[index];
  }

  sim::Simulator simulator_;
  net::Network network_;
  crypto::KeyStore keys_;
  pbft::PbftConfig config_;
  std::vector<std::unique_ptr<pbft::PbftReplica>> replicas_;
  std::unique_ptr<pbft::PbftClient> client_;
  std::vector<std::vector<std::string>> executed_;
};

std::vector<std::string> ExpectedValues(int count) {
  std::vector<std::string> expected;
  for (int i = 0; i < count; ++i) expected.push_back("v" + std::to_string(i));
  return expected;
}

TEST(PipelineTest, WindowedLeaderKeepsMultipleProposalsInFlight) {
  pipeline_stats().Reset();
  WindowedPbftHarness harness(/*f=*/1, /*window=*/4);
  ASSERT_TRUE(harness.SubmitBurst(12));
  harness.simulator_.RunFor(Seconds(1));
  // The pipeline actually overlapped instances...
  EXPECT_GE(pipeline_stats().pbft_inflight_peak, 2u);
  // ...while every replica executed the values in submission order.
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(harness.LogOf(r), ExpectedValues(12)) << "replica " << r;
  }
}

TEST(PipelineTest, WindowOneReproducesStopAndWait) {
  pipeline_stats().Reset();
  WindowedPbftHarness harness(/*f=*/1, /*window=*/1);
  ASSERT_TRUE(harness.SubmitBurst(6));
  harness.simulator_.RunFor(Seconds(1));
  // The paper's group-commit rule: never more than one instance in flight.
  EXPECT_EQ(pipeline_stats().pbft_inflight_peak, 1u);
  EXPECT_EQ(pipeline_stats().pbft_ooo_commits, 0u);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(harness.LogOf(r), ExpectedValues(6)) << "replica " << r;
  }
}

TEST(PipelineTest, OutOfOrderCommitCertificatesDeliverInOrder) {
  // Heavy jitter scrambles vote arrival, so commit certificates for later
  // sequence numbers can complete before earlier ones; execution must
  // still be strictly in sequence order on every replica.
  net::NetworkOptions net_options;
  net_options.jitter_frac = 0.9;
  pipeline_stats().Reset();
  WindowedPbftHarness harness(/*f=*/1, /*window=*/8, /*seed=*/23,
                              net_options);
  ASSERT_TRUE(harness.SubmitBurst(24));
  harness.simulator_.RunFor(Seconds(1));
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(harness.LogOf(r), ExpectedValues(24)) << "replica " << r;
  }
}

TEST(PipelineTest, ViewChangeWithWindowInFlight) {
  // Crash the leader with >= 3 proposals in flight: the new view must
  // carry over every prepared instance, commit each client value exactly
  // once, and leave no gaps.
  WindowedPbftHarness harness(/*f=*/1, /*window=*/4);
  constexpr int kCount = 6;
  for (int i = 0; i < kCount; ++i) {
    harness.client_->Submit(ToBytes("v" + std::to_string(i)), nullptr);
  }
  // Let the leader issue the first window of pre-prepares, then kill it
  // mid-flight (before the certificates can complete).
  harness.simulator_.RunFor(Milliseconds(1));
  harness.network_.Crash(NodeId{0, 0});
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return harness.client_->completed() >= kCount; }, Seconds(60)));
  harness.simulator_.RunFor(Seconds(1));

  // Every live replica agrees and holds each value exactly once (the
  // new-view may legitimately insert no-op gap fillers; LogOf drops them).
  std::vector<std::string> reference = harness.LogOf(1);
  std::vector<std::string> sorted = reference;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::string> expected_sorted = ExpectedValues(kCount);
  std::sort(expected_sorted.begin(), expected_sorted.end());
  EXPECT_EQ(sorted, expected_sorted);  // no duplicates, no losses
  for (int r = 2; r < 4; ++r) {
    EXPECT_EQ(harness.LogOf(r), reference) << "replica " << r;
  }
}

TEST(PipelineTest, EquivocatingLeaderInsideWindowIsMasked) {
  // A leader that equivocates on multiple sequence numbers inside the
  // window is voted out; the values still commit exactly once.
  WindowedPbftHarness harness(/*f=*/1, /*window=*/4);
  harness.replicas_[0]->SetByzantineMode(pbft::ByzantineMode::kEquivocate);
  constexpr int kCount = 5;
  for (int i = 0; i < kCount; ++i) {
    harness.client_->Submit(ToBytes("v" + std::to_string(i)), nullptr);
  }
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return harness.client_->completed() >= kCount; }, Seconds(60)));
  harness.simulator_.RunFor(Seconds(1));
  std::vector<std::string> reference = harness.LogOf(1);
  std::vector<std::string> sorted = reference;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::string> expected_sorted = ExpectedValues(kCount);
  std::sort(expected_sorted.begin(), expected_sorted.end());
  EXPECT_EQ(sorted, expected_sorted);
  for (int r = 2; r < 4; ++r) {
    EXPECT_EQ(harness.LogOf(r), reference) << "replica " << r;
  }
}

// --- participant-level windowing -------------------------------------------

TEST(PipelineTest, ParticipantWindowPipelinesGeoCommits) {
  pipeline_stats().Reset();
  sim::Simulator simulator(11);
  core::BlockplaneOptions options;
  options.fg = 1;
  options.pbft_window = 4;
  options.participant_window = 4;
  core::Deployment deployment(&simulator, Topology::Aws4(), options);

  core::Participant* participant = deployment.participant(kCalifornia);
  constexpr int kCount = 10;
  std::vector<int> completion_order;
  for (int i = 0; i < kCount; ++i) {
    participant->LogCommit(ToBytes("geo" + std::to_string(i)), 0,
                           [&, i](uint64_t) { completion_order.push_back(i); });
  }
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return completion_order.size() >= kCount; }, Seconds(600)));

  // Callbacks fired strictly in submission order despite 4 concurrent
  // geo rounds.
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(completion_order[i], i);
  EXPECT_GE(pipeline_stats().participant_inflight_peak, 2u);
}

TEST(PipelineTest, MirrorStreamStaysContiguousUnderWindow) {
  sim::Simulator simulator(13);
  core::BlockplaneOptions options;
  options.fg = 1;
  options.pbft_window = 8;
  options.participant_window = 8;
  core::Deployment deployment(&simulator, Topology::Aws4(), options);

  core::Participant* participant = deployment.participant(kCalifornia);
  constexpr int kCount = 12;
  int done = 0;
  for (int i = 0; i < kCount; ++i) {
    participant->LogCommit(ToBytes("m" + std::to_string(i)), 0,
                           [&](uint64_t) { ++done; });
  }
  ASSERT_TRUE(simulator.RunUntilCondition([&] { return done >= kCount; },
                                          Seconds(600)));
  simulator.RunFor(Seconds(1));

  // Every mirror node of every mirror site replicated the full stream with
  // contiguous geo positions 1..kCount.
  for (net::SiteId host : deployment.mirror_sites_of(kCalifornia)) {
    core::BlockplaneNode* mirror =
        deployment.mirror_node(host, kCalifornia, 0);
    std::vector<uint64_t> geo_positions;
    for (const auto& [pos, record] : mirror->log()) {
      if (record.type == core::RecordType::kMirrored) {
        geo_positions.push_back(record.geo_pos);
      }
    }
    ASSERT_EQ(geo_positions.size(), static_cast<size_t>(kCount))
        << "mirror at site " << host;
    for (int i = 0; i < kCount; ++i) {
      EXPECT_EQ(geo_positions[i], static_cast<uint64_t>(i + 1));
    }
  }
}

// --- stall-episode accounting ---------------------------------------------
//
// pipeline.*_window_stalls counts distinct back-pressure *episodes*: the
// counter ticks when admission transitions from flowing to blocked-by-the-
// window and the episode closes on any admission (partial drains count).
// The old per-invocation counting ticked on every poll/pump re-entry while
// one stall persisted, which made the metric scale with event traffic
// instead of back pressure.

TEST(PipelineTest, PbftStallCounterCountsEpisodesNotPumpInvocations) {
  pipeline_stats().Reset();
  WindowedPbftHarness harness(/*f=*/1, /*window=*/1);
  constexpr int kCount = 12;
  ASSERT_TRUE(harness.SubmitBurst(kCount));
  harness.simulator_.RunFor(Seconds(1));
  // Window 1, burst of 12: one episode opens when request 2 queues behind
  // the full window, and each execution admits exactly one request
  // (closing the episode) before the still-backlogged queue reopens it —
  // kCount - 1 episodes total. Per-invocation counting also ticked for
  // every queued arrival and every commit-message pump while the same
  // stall persisted, far exceeding the burst size.
  EXPECT_EQ(pipeline_stats().pbft_window_stalls,
            static_cast<int64_t>(kCount - 1));
}

TEST(PipelineTest, WideWindowNeverStalls) {
  pipeline_stats().Reset();
  WindowedPbftHarness harness(/*f=*/1, /*window=*/16);
  ASSERT_TRUE(harness.SubmitBurst(12));
  harness.simulator_.RunFor(Seconds(1));
  // The whole burst fits in the window: no admission was ever blocked, so
  // no episode may be counted no matter how often the pump re-entered.
  EXPECT_EQ(pipeline_stats().pbft_window_stalls, 0);
}

TEST(PipelineTest, ParticipantStallEpisodesCloseOnPartialDrain) {
  pipeline_stats().Reset();
  sim::Simulator simulator(17);
  core::BlockplaneOptions options;
  options.fg = 1;
  options.pbft_window = 8;
  options.participant_window = 2;
  core::Deployment deployment(&simulator, Topology::Aws4(), options);

  core::Participant* participant = deployment.participant(kCalifornia);
  constexpr int kCount = 10;
  int done = 0;
  for (int i = 0; i < kCount; ++i) {
    participant->LogCommit(ToBytes("s" + std::to_string(i)), 0,
                           [&](uint64_t) { ++done; });
  }
  ASSERT_TRUE(simulator.RunUntilCondition([&] { return done >= kCount; },
                                          Seconds(600)));
  simulator.RunFor(Seconds(1));
  // Window 2: the episode opened when op 3 queued closes as soon as one
  // geo round completes and frees a slot (a partial drain — the queue is
  // still deep), then reopens while backlog remains: kCount - window
  // episodes, not one tick per pump.
  EXPECT_EQ(pipeline_stats().participant_window_stalls,
            static_cast<int64_t>(kCount - 2));
}

// --- window controllers (DESIGN.md §13) -----------------------------------

// A lossless run never shrinks a window, and no window grows past its
// knob, so every controller ends where it started. This is what keeps the
// paper figures on the static schedule. The same run pins the quiet path:
// a fault-free pipelined geo stream takes no recovery path, so every
// robustness counter stays at zero and no mirror backfill crosses the WAN.
TEST(PipelineTest, LosslessRunKeepsEveryWindowAtItsKnob) {
  congestion_stats().Reset();
  robustness_stats().Reset();
  sim::Simulator simulator(19);
  core::BlockplaneOptions options;
  options.fg = 1;
  options.pbft_window = 8;
  options.participant_window = 8;
  options.daemon_window = 32;
  net::NetworkOptions net_options;
  net_options.per_type_wan_counters = true;
  core::Deployment deployment(&simulator, Topology::Aws4(), options,
                              net_options);

  constexpr int kCount = 16;
  int committed = 0;
  int received = 0;
  deployment.participant(kIreland)->SetReceiveHandler(
      [&received](net::SiteId, const Bytes&) { ++received; });
  core::Participant* sender = deployment.participant(kCalifornia);
  for (int i = 0; i < kCount; ++i) {
    sender->LogCommit(ToBytes("c" + std::to_string(i)), 0,
                      [&](uint64_t) { ++committed; });
    sender->Send(kIreland, ToBytes("s" + std::to_string(i)), 0, nullptr);
  }
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return committed >= kCount && received >= kCount; },
      Seconds(600)));
  simulator.RunFor(Seconds(1));

  const std::map<std::string, int64_t> knobs = {
      {"congestion.pbft_", 8}, {"congestion.geo_", 8},
      {"congestion.daemon_", 32}};
  std::map<std::string, int> controllers;
  for (const auto& [group, gauges] : metrics_registry().Snapshot()) {
    for (const auto& [prefix, knob] : knobs) {
      if (group.rfind(prefix, 0) != 0) continue;
      ++controllers[prefix];
      EXPECT_EQ(gauges.at("window"), knob) << group;
      EXPECT_EQ(gauges.at("min_window_seen"), knob) << group;
      EXPECT_EQ(gauges.at("decreases"), 0) << group;
    }
  }
  // 4 sites x (4 unit + 2 mirror groups x 4) replicas; one geo controller
  // per mirror site; 3 destinations x (active + 2 reserves) per site.
  EXPECT_EQ(controllers["congestion.pbft_"], 4 * (4 + 2 * 4));
  EXPECT_EQ(controllers["congestion.geo_"], 4 * 2);
  EXPECT_EQ(controllers["congestion.daemon_"], 4 * 3 * 3);
  EXPECT_EQ(congestion_stats().decreases, 0);
  EXPECT_EQ(congestion_stats().loss_events, 0);
  EXPECT_GT(congestion_stats().rtt_samples, 0)
      << "the controllers were exercised";

  const auto robustness = metrics_registry().Snapshot().at("robustness");
  EXPECT_FALSE(robustness.empty());
  for (const auto& [name, value] : robustness) {
    EXPECT_EQ(value, 0) << "robustness." << name;
  }
  const CounterSet& traffic = deployment.network()->counters();
  EXPECT_GT(traffic.Get("wan_bytes.type_" +
                        std::to_string(core::kGeoReplicate)),
            0)
      << "the geo stream crossed the WAN";
  for (net::MessageType type : {core::kMirrorFetch, core::kMirrorEntry}) {
    EXPECT_EQ(traffic.Get("wan_bytes.type_" + std::to_string(type)), 0)
        << "message type " << type;
  }
}

// bench_pipeline section C at 1 % loss (seed 2): a daemon stream from
// Oregon to California and Ireland at the given daemon window. Returns
// the number of records delivered within 60 s of simulated time.
uint64_t LossyDelivery(size_t daemon_window) {
  sim::Simulator simulator(2);
  net::NetworkOptions net_options;
  net_options.intra_site_one_way = sim::Microseconds(100);
  net_options.per_message_cpu = sim::Microseconds(25);
  core::BlockplaneOptions options;
  options.checkpoint_interval = 32;
  options.pbft_window = 8;
  options.daemon_window = daemon_window;
  core::Deployment deployment(&simulator, Topology::Aws4(), options,
                              net_options);
  deployment.network()->set_drop_prob(0.01);

  constexpr uint64_t kTotal = 2 * 120;
  uint64_t received = 0;
  for (net::SiteId dest : {kCalifornia, kIreland}) {
    deployment.participant(dest)->SetReceiveHandler(
        [&received](net::SiteId, const Bytes&) { ++received; });
  }
  core::Participant* sender = deployment.participant(kOregon);
  const Bytes payload(1000, 0x5a);
  uint64_t issued = 0;
  std::function<void()> submit_next = [&]() {
    if (issued >= kTotal) return;
    net::SiteId dest = issued % 2 == 0 ? kCalifornia : kIreland;
    ++issued;
    sender->Send(dest, Bytes(payload), 0, [&](uint64_t) { submit_next(); });
  };
  for (int i = 0; i < 8; ++i) submit_next();
  simulator.RunUntilCondition([&] { return received >= kTotal; },
                              Seconds(60));
  EXPECT_GT(deployment.network()->counters().Get("dropped_messages"), 0);
  return received;
}

// With exact-match acks, ship-on-completion and a fixed retransmit period
// this seed wedged at 176/240 deliveries for good; the one controller path
// delivers everything.
TEST(PipelineTest, LossyDeliveryAtWindowFourDoesNotWedge) {
  EXPECT_EQ(LossyDelivery(4), 2u * 120);
}

// A unit replica that falls behind catches up through PBFT committed
// entries. While their commit certificates mixed votes from several views
// (or carried none), every peer rejected them and this run delivered
// 124/240 in 60 s.
TEST(PipelineTest, LossyDeliveryAtWindowSixtyFourDoesNotWedge) {
  EXPECT_EQ(LossyDelivery(64), 2u * 120);
}

}  // namespace
}  // namespace blockplane
