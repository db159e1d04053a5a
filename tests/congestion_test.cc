// Window-controller tests (DESIGN.md §13): the knob as start and ceiling,
// regrowth by one per window of acks, spike-gated multiplicative decrease
// with the one-per-RTO rate limit, view-change churn handling, RTT-derived
// retransmission timeouts, and the metrics-registry gauge contract. The
// chaos-campaign tests at the bottom drive the controllers end-to-end
// through a loss burst and a partition/heal cycle and assert the windows
// shrink under loss and the deployment still satisfies I1–I4.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "chaos/engine.h"
#include "common/metrics.h"
#include "common/congestion.h"
#include "sim/sim_time.h"

namespace blockplane::common {
namespace {

// With the 10 ms prior, Rto = srtt + max(4*rttvar, srtt, kMinRto)
//                            = 10 + max(20, 10, 5) = 30 ms.
constexpr sim::SimTime kPrior = sim::Milliseconds(10);
constexpr sim::SimTime kRto = sim::Milliseconds(30);

TEST(WindowControllerTest, KnobIsStartAndCeiling) {
  WindowController ctl(/*max_window=*/8, kPrior, "t-knob");
  EXPECT_EQ(ctl.window(), 8u);
  for (int i = 0; i < 100; ++i) ctl.OnAckNoSample();
  EXPECT_EQ(ctl.window(), 8u) << "acks never grow a window past its knob";
  EXPECT_EQ(ctl.SnapshotGauges()["increases"], 0);

  // After a decrease the window regrows by one per window of acks and
  // stops at the knob again.
  ctl.OnViewChange(sim::Milliseconds(100));
  ASSERT_EQ(ctl.window(), 4u);
  for (int i = 0; i < 4 + 5 + 6 + 7; ++i) ctl.OnAckNoSample();
  EXPECT_EQ(ctl.window(), 8u);
  for (int i = 0; i < 100; ++i) ctl.OnAckNoSample();
  EXPECT_EQ(ctl.window(), 8u);
  EXPECT_EQ(ctl.SnapshotGauges()["increases"], 4);
}

TEST(WindowControllerTest, InitialWindowIsClamped) {
  // No global ceiling: the knob is the window, however large.
  WindowController high(/*max_window=*/1000, kPrior, "t-hi");
  EXPECT_EQ(high.window(), 1000u);

  WindowController low(/*max_window=*/0, kPrior, "t-lo");
  EXPECT_EQ(low.window(), kMinWindow);
  EXPECT_EQ(low.min_window_seen(), kMinWindow);
}

TEST(WindowControllerTest, IsolatedLossesNeverDecrease) {
  WindowController ctl(/*max_window=*/32, kPrior, "t-iso");
  // Random single drops land more than spike_threshold()*RTO apart: each
  // one opens a fresh spike bucket and the threshold is never crossed.
  sim::SimTime now = sim::Milliseconds(100);
  for (int i = 0; i < 10; ++i) {
    ctl.OnLoss(now);
    now += (static_cast<sim::SimTime>(ctl.spike_threshold()) + 1) * kRto;
  }
  EXPECT_EQ(ctl.loss_events(), 10);
  EXPECT_EQ(ctl.decreases(), 0);
  EXPECT_EQ(ctl.window(), 32u);
}

TEST(WindowControllerTest, LossSpikeHalvesOnceAndIsRateLimited) {
  WindowController ctl(/*max_window=*/32, kPrior, "t-spk");
  const sim::SimTime t0 = sim::Milliseconds(100);
  ctl.OnLoss(t0);
  ctl.OnLoss(t0 + sim::Milliseconds(10));
  EXPECT_EQ(ctl.decreases(), 0) << "two signals are below the threshold";
  ctl.OnLoss(t0 + sim::Milliseconds(20));
  EXPECT_EQ(ctl.decreases(), 1);
  EXPECT_EQ(ctl.window(), 16u);
  EXPECT_EQ(ctl.min_window_seen(), 16u);

  // A correlated burst right behind the decrease (every in-flight item
  // timing out at once) is one congestion event: the rate limit holds
  // further decreases for a full RTO.
  ctl.OnLoss(t0 + sim::Milliseconds(22));
  ctl.OnLoss(t0 + sim::Milliseconds(24));
  ctl.OnLoss(t0 + sim::Milliseconds(26));
  EXPECT_EQ(ctl.decreases(), 1) << "rate limit: one decrease per RTO";
  EXPECT_EQ(ctl.window(), 16u);

  // Once the RTO has passed, a fresh spike decreases again.
  ctl.OnLoss(t0 + kRto + sim::Milliseconds(25));
  EXPECT_EQ(ctl.decreases(), 2);
  EXPECT_EQ(ctl.window(), 8u);
  EXPECT_EQ(ctl.min_window_seen(), 8u);
}

TEST(WindowControllerTest, CongestionAvoidanceAfterDecrease) {
  WindowController ctl(/*max_window=*/32, kPrior, "t-ca");
  const sim::SimTime t0 = sim::Milliseconds(100);
  for (int i = 0; i < 3; ++i) ctl.OnLoss(t0 + i * sim::Milliseconds(5));
  ASSERT_EQ(ctl.window(), 16u);
  // Regrowth is +1 per full window of acks, not +1 per ack.
  for (int i = 0; i < 15; ++i) ctl.OnAckNoSample();
  EXPECT_EQ(ctl.window(), 16u);
  ctl.OnAckNoSample();
  EXPECT_EQ(ctl.window(), 17u);
}

TEST(WindowControllerTest, ViewChangeDecreasesUnconditionally) {
  WindowController ctl(/*max_window=*/32, kPrior, "t-vc");
  const sim::SimTime t0 = sim::Milliseconds(100);
  // No loss spike needed: churn alone shrinks the window.
  ctl.OnViewChange(t0);
  EXPECT_EQ(ctl.decreases(), 1);
  EXPECT_EQ(ctl.window(), 16u);
  // ...but the per-RTO rate limit still applies.
  ctl.OnViewChange(t0 + sim::Milliseconds(1));
  EXPECT_EQ(ctl.decreases(), 1);
  ctl.OnViewChange(t0 + kRto);
  EXPECT_EQ(ctl.decreases(), 2);
  EXPECT_EQ(ctl.window(), 8u);
}

TEST(WindowControllerTest, WindowNeverLeavesClampBounds) {
  WindowController ctl(/*max_window=*/4, kPrior, "t-clamp");
  sim::SimTime now = sim::Milliseconds(100);
  // Hammer the controller with decrease-eligible spikes: the window must
  // bottom out at kMinWindow, never below.
  for (int i = 0; i < 30; ++i) {
    ctl.OnLoss(now);
    now += sim::Milliseconds(2);
  }
  EXPECT_GE(ctl.window(), kMinWindow);
  EXPECT_EQ(ctl.min_window_seen(), kMinWindow);
}

TEST(WindowControllerTest, RetryTimeoutClampsToFloorAndCap) {
  WindowController ctl(/*max_window=*/8, kPrior, "t-rto");
  // Prior 10 ms → raw Rto 30 ms (see kRto above).
  EXPECT_EQ(ctl.RetryTimeout(sim::Milliseconds(5), sim::Milliseconds(500)),
            kRto);
  EXPECT_EQ(ctl.RetryTimeout(sim::Milliseconds(50), sim::Milliseconds(500)),
            sim::Milliseconds(50))
      << "floor wins over an optimistic estimate";
  EXPECT_EQ(ctl.RetryTimeout(sim::Milliseconds(1), sim::Milliseconds(20)),
            sim::Milliseconds(20))
      << "the cap bounds a pessimistic estimate";
}

TEST(WindowControllerTest, FirstSampleReplacesPrior) {
  WindowController ctl(/*max_window=*/8, kPrior, "t-srtt");
  EXPECT_EQ(ctl.srtt(), kPrior);
  ctl.OnAck(sim::Milliseconds(80));
  EXPECT_EQ(ctl.srtt(), sim::Milliseconds(80))
      << "the first measurement wins over the construction-time prior";
  // Subsequent samples move srtt with the 1/8 gain.
  ctl.OnAck(sim::Milliseconds(160));
  EXPECT_EQ(ctl.srtt(), sim::Milliseconds(90));
}

TEST(WindowControllerTest, SnapshotEmitsEveryCatalogKey) {
  WindowController ctl(/*max_window=*/8, kPrior, "t-snap");
  ctl.OnAck(kPrior);
  ctl.OnLoss(sim::Milliseconds(50));
  std::map<std::string, int64_t> gauges = ctl.SnapshotGauges();
  std::vector<std::string> keys;
  for (const auto& [key, value] : gauges) keys.push_back(key);
  // The exact key set of every congestion.<label> gauge group.
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "decreases", "increases", "loss_events",
                      "min_window_seen", "rtt_samples", "rttvar_us",
                      "srtt_us", "window"}));
  EXPECT_EQ(gauges["window"], 8) << "an ack at the knob does not grow it";
  EXPECT_EQ(gauges["loss_events"], 1);
  EXPECT_EQ(gauges["rtt_samples"], 1);
}

TEST(WindowControllerTest, RegistersGaugeGroupForLifetime) {
  const std::string group = "congestion.t-registry";
  auto has_group = [&group]() {
    // Duplicate group names get "#<handle>"-suffixed, so match by prefix.
    for (const auto& [name, gauges] : metrics_registry().Snapshot()) {
      if (name.rfind(group, 0) == 0) return true;
    }
    return false;
  };
  ASSERT_FALSE(has_group());
  {
    WindowController ctl(/*max_window=*/8, kPrior, "t-registry");
    EXPECT_TRUE(has_group());
  }
  EXPECT_FALSE(has_group()) << "destruction must unregister the group";
}

}  // namespace
}  // namespace blockplane::common

namespace blockplane::chaos {
namespace {

// A hand-built campaign that exercises the window controllers under the
// two signals they exist for: a sustained drop burst (loss spikes) and a
// partition/heal cycle (head-of-line stalls, then recovery). All faults
// end before the horizon and the schedule ends with the heal-all sweep,
// matching the compiler's recoverability constraints.
Campaign LossCampaign() {
  Campaign campaign;
  campaign.config.seed = 4242;
  campaign.config.num_sites = 3;
  campaign.config.fi = 1;
  campaign.config.fg = 0;
  campaign.config.pbft_window = 8;
  campaign.config.participant_window = 4;
  campaign.config.rtt_ms = 40.0;
  campaign.config.start = sim::Milliseconds(500);
  campaign.config.horizon = sim::Seconds(20);
  campaign.config.deadline = sim::Seconds(60);
  campaign.config.ops_per_site = 6;
  campaign.config.sends_per_site = 4;
  campaign.config.reads_per_site = 0;

  // The engine fires workload bursts at horizon/4 intervals (5 s, 10 s,
  // 15 s here); faults must overlap them or nothing is in flight to lose.
  FaultAction burst;
  burst.at = sim::Milliseconds(4500);
  burst.type = FaultType::kDropBurst;
  burst.probability = 0.6;
  burst.duration = sim::Seconds(4);
  campaign.actions.push_back(burst);

  // Site 1's second-burst send targets site 0 at ~10 s: a 0<->1 partition
  // across that burst stalls the daemon flight's head until the heal, so
  // the retransmit timer fires once per RTO and the spike threshold is
  // guaranteed to trip.
  FaultAction cut;
  cut.at = sim::Milliseconds(9500);
  cut.type = FaultType::kPartition;
  cut.site_a = 0;
  cut.site_b = 1;
  campaign.actions.push_back(cut);

  FaultAction heal = cut;
  heal.at = sim::Milliseconds(12500);
  heal.type = FaultType::kHeal;
  campaign.actions.push_back(heal);

  FaultAction sweep;
  sweep.at = campaign.config.horizon;
  sweep.type = FaultType::kHealAll;
  campaign.actions.push_back(sweep);
  return campaign;
}

TEST(CongestionChaosTest, WindowsShrinkUnderLossAndRecover) {
  ChaosReport report = RunCampaign(LossCampaign());
  // I1–I4 must survive the window controllers.
  EXPECT_TRUE(report.ok) << report.ToString();
  EXPECT_TRUE(report.live) << report.ToString();
  // The burst and the partition must have registered as loss signals and
  // shrunk at least one window below where it ended the run.
  EXPECT_GT(report.congestion_loss_events, 0) << report.ToString();
  EXPECT_GT(report.congestion_decreases, 0) << report.ToString();
  EXPECT_GE(report.window_min_seen, 1) << report.ToString();
  EXPECT_LT(report.window_min_seen, report.window_final_max)
      << "windows must recover after the faults heal: " << report.ToString();
}

TEST(CongestionChaosTest, AdaptiveCampaignIsDeterministic) {
  Campaign campaign = LossCampaign();
  ChaosReport a = RunCampaign(campaign);
  ChaosReport b = RunCampaign(campaign);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.finished_at, b.finished_at);
  EXPECT_EQ(a.congestion_loss_events, b.congestion_loss_events);
  EXPECT_EQ(a.congestion_decreases, b.congestion_decreases);
  EXPECT_EQ(a.window_min_seen, b.window_min_seen);
}

}  // namespace
}  // namespace blockplane::chaos
