// Unit tests for the network model: topology (Table I), latency/bandwidth
// cost model, fault injection, and counters.
#include "net/network.h"

#include <gtest/gtest.h>

#include "net/topology.h"
#include "sim/simulator.h"

namespace blockplane::net {
namespace {

using sim::Milliseconds;
using sim::MillisecondsD;
using sim::Microseconds;
using sim::SimTime;

TEST(TopologyTest, Aws4MatchesTableI) {
  Topology topo = Topology::Aws4();
  ASSERT_EQ(topo.num_sites(), 4);
  EXPECT_EQ(topo.site_name(kCalifornia), "California");
  EXPECT_EQ(topo.Rtt(kCalifornia, kOregon), Milliseconds(19));
  EXPECT_EQ(topo.Rtt(kCalifornia, kVirginia), Milliseconds(61));
  EXPECT_EQ(topo.Rtt(kCalifornia, kIreland), Milliseconds(130));
  EXPECT_EQ(topo.Rtt(kOregon, kVirginia), Milliseconds(79));
  EXPECT_EQ(topo.Rtt(kOregon, kIreland), Milliseconds(132));
  EXPECT_EQ(topo.Rtt(kVirginia, kIreland), Milliseconds(70));
  // Symmetry and zero diagonal.
  for (int a = 0; a < 4; ++a) {
    EXPECT_EQ(topo.Rtt(a, a), 0);
    for (int b = 0; b < 4; ++b) EXPECT_EQ(topo.Rtt(a, b), topo.Rtt(b, a));
  }
}

TEST(TopologyTest, ProximityOrder) {
  Topology topo = Topology::Aws4();
  // California's closest site is Oregon, then Virginia, then Ireland.
  EXPECT_EQ(topo.SitesByProximity(kCalifornia),
            (std::vector<int>{kOregon, kVirginia, kIreland}));
  EXPECT_EQ(topo.RttToKthClosest(kCalifornia, 1), Milliseconds(19));
  EXPECT_EQ(topo.RttToKthClosest(kCalifornia, 2), Milliseconds(61));
  // Virginia's RTTs: C 61, I 70, O 79.
  EXPECT_EQ(topo.SitesByProximity(kVirginia),
            (std::vector<int>{kCalifornia, kIreland, kOregon}));
}

// The programmatic factory validates the matrix instead of CHECK-failing:
// a malformed topology from config/flags surfaces as InvalidArgument the
// caller can report, not a process abort.
TEST(TopologyTest, CreateValidatesTheRttMatrix) {
  EXPECT_TRUE(Topology::Create({}, {}).status().IsInvalidArgument())
      << "zero sites";
  EXPECT_TRUE(Topology::Create({"A", "B"}, {{0, 1}})
                  .status()
                  .IsInvalidArgument())
      << "row count must match the site count";
  EXPECT_TRUE(Topology::Create({"A", "B"}, {{0, 1}, {1}})
                  .status()
                  .IsInvalidArgument())
      << "ragged row";
  EXPECT_TRUE(Topology::Create({"A", "B"}, {{0, -5}, {-5, 0}})
                  .status()
                  .IsInvalidArgument())
      << "negative RTT";
  EXPECT_TRUE(Topology::Create({"A", "B"}, {{0, 10}, {20, 0}})
                  .status()
                  .IsInvalidArgument())
      << "asymmetric RTT";
  EXPECT_TRUE(Topology::Create({"A", "B"}, {{3, 10}, {10, 0}})
                  .status()
                  .IsInvalidArgument())
      << "nonzero self-RTT";

  auto ok = Topology::Create({"A", "B"}, {{0, 10}, {10, 0}});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().num_sites(), 2);
  EXPECT_EQ(ok.value().Rtt(0, 1), Milliseconds(10));
  EXPECT_EQ(ok.value().site_name(0), "A");
}

TEST(TopologyTest, UniformAndSingleSite) {
  Topology uniform = Topology::Uniform(5, 10.0);
  EXPECT_EQ(uniform.num_sites(), 5);
  EXPECT_EQ(uniform.Rtt(0, 4), Milliseconds(10));
  Topology single = Topology::SingleSite();
  EXPECT_EQ(single.num_sites(), 1);
}

class RecordingHost : public Host {
 public:
  void HandleMessage(const Message& msg) override {
    messages.push_back(msg);
    receive_times.push_back(simulator->Now());
  }
  std::vector<Message> messages;
  std::vector<SimTime> receive_times;
  sim::Simulator* simulator = nullptr;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : simulator_(1) {
    options_.jitter_frac = 0.0;  // deterministic latency for assertions
    options_.per_message_cpu = 0;
    options_.header_bytes = 0;
    network_ = std::make_unique<Network>(&simulator_, Topology::Aws4(),
                                         options_);
    for (auto& host : hosts_) host.simulator = &simulator_;
  }

  void RegisterHost(NodeId id, int slot) {
    network_->Register(id, &hosts_[slot]);
  }

  sim::Simulator simulator_;
  NetworkOptions options_;
  std::unique_ptr<Network> network_;
  RecordingHost hosts_[4];
};

TEST_F(NetworkTest, WanLatencyIsOneWayRtt) {
  RegisterHost({kOregon, 0}, 0);
  Message msg;
  msg.src = {kCalifornia, 0};
  msg.dst = {kOregon, 0};
  msg.type = 7;
  msg.set_body(ToBytes("x"));
  network_->Send(msg);
  simulator_.Run();
  ASSERT_EQ(hosts_[0].messages.size(), 1u);
  // One byte at 640 MB/s is ~1.5 ns; one-way C-O is 9.5 ms.
  EXPECT_NEAR(sim::ToMillis(hosts_[0].receive_times[0]), 9.5, 0.001);
  EXPECT_EQ(hosts_[0].messages[0].type, 7u);
}

TEST_F(NetworkTest, IntraSiteLatency) {
  RegisterHost({kCalifornia, 1}, 0);
  Message msg;
  msg.src = {kCalifornia, 0};
  msg.dst = {kCalifornia, 1};
  network_->Send(msg);
  simulator_.Run();
  ASSERT_EQ(hosts_[0].messages.size(), 1u);
  EXPECT_EQ(hosts_[0].receive_times[0], options_.intra_site_one_way);
}

TEST_F(NetworkTest, NicSerializationIsFifoPerSender) {
  // Two 640 KB messages sent back-to-back from one node share its NIC:
  // the second is delayed by the first's 1 ms serialization time.
  RegisterHost({kCalifornia, 1}, 0);
  RegisterHost({kCalifornia, 2}, 1);
  Message a;
  a.src = {kCalifornia, 0};
  a.dst = {kCalifornia, 1};
  a.set_body(Bytes(640000, 0));
  Message b = a;
  b.dst = {kCalifornia, 2};
  network_->Send(a);
  network_->Send(b);
  simulator_.Run();
  ASSERT_EQ(hosts_[0].messages.size(), 1u);
  ASSERT_EQ(hosts_[1].messages.size(), 1u);
  double t1 = sim::ToMillis(hosts_[0].receive_times[0]);
  double t2 = sim::ToMillis(hosts_[1].receive_times[0]);
  EXPECT_NEAR(t1, 0.25 + 1.0, 0.01);        // serialize + propagate
  EXPECT_NEAR(t2, 0.25 + 2.0, 0.01);        // queued behind the first
}

TEST_F(NetworkTest, PerMessageCpuSerializesAtReceiver) {
  options_.per_message_cpu = Microseconds(100);
  network_ = std::make_unique<Network>(&simulator_, Topology::Aws4(),
                                       options_);
  RegisterHost({kCalifornia, 1}, 0);
  // Two tiny messages from different senders arrive together; the receiver
  // processes them serially.
  for (int sender : {0, 2}) {
    Message m;
    m.src = {kCalifornia, sender};
    m.dst = {kCalifornia, 1};
    network_->Send(m);
  }
  simulator_.Run();
  ASSERT_EQ(hosts_[0].messages.size(), 2u);
  SimTime gap = hosts_[0].receive_times[1] - hosts_[0].receive_times[0];
  EXPECT_EQ(gap, Microseconds(100));
}

TEST_F(NetworkTest, CrashedNodeIsSilent) {
  RegisterHost({kOregon, 0}, 0);
  network_->Crash({kOregon, 0});
  Message msg;
  msg.src = {kCalifornia, 0};
  msg.dst = {kOregon, 0};
  network_->Send(msg);
  simulator_.Run();
  EXPECT_TRUE(hosts_[0].messages.empty());
  EXPECT_EQ(network_->counters().Get("dropped_messages"), 1);

  network_->Recover({kOregon, 0});
  network_->Send(msg);
  simulator_.Run();
  EXPECT_EQ(hosts_[0].messages.size(), 1u);
}

TEST_F(NetworkTest, CrashedSenderIsNotTraffic) {
  RegisterHost({kOregon, 0}, 0);
  Message msg;
  msg.src = {kCalifornia, 0};
  msg.dst = {kOregon, 0};
  msg.set_body(Bytes(100, 0xab));

  // A crashed sender's message never reaches the wire: it is a drop, not
  // WAN traffic.
  network_->Crash({kCalifornia, 0});
  network_->Send(msg);
  simulator_.Run();
  EXPECT_EQ(network_->counters().Get("dropped_messages"), 1);
  EXPECT_EQ(network_->counters().Get("wan_messages"), 0);
  EXPECT_EQ(network_->counters().Get("wan_bytes"), 0);

  // A crashed destination's bytes did leave the sender: still counted.
  network_->Recover({kCalifornia, 0});
  network_->Crash({kOregon, 0});
  network_->Send(msg);
  simulator_.Run();
  EXPECT_TRUE(hosts_[0].messages.empty());
  EXPECT_EQ(network_->counters().Get("dropped_messages"), 2);
  EXPECT_EQ(network_->counters().Get("wan_messages"), 1);
  EXPECT_EQ(network_->counters().Get("wan_bytes"),
            static_cast<int64_t>(100 + options_.header_bytes));
}

TEST_F(NetworkTest, CrashDuringFlightDropsDelivery) {
  RegisterHost({kOregon, 0}, 0);
  Message msg;
  msg.src = {kCalifornia, 0};
  msg.dst = {kOregon, 0};
  network_->Send(msg);
  // Crash the destination while the message is in flight (one-way 9.5 ms).
  simulator_.Schedule(Milliseconds(1),
                      [&] { network_->Crash({kOregon, 0}); });
  simulator_.Run();
  EXPECT_TRUE(hosts_[0].messages.empty());
}

TEST_F(NetworkTest, SiteCrashSilencesAllNodes) {
  RegisterHost({kOregon, 0}, 0);
  RegisterHost({kOregon, 1}, 1);
  network_->CrashSite(kOregon);
  EXPECT_TRUE(network_->IsSiteCrashed(kOregon));
  EXPECT_TRUE(network_->IsCrashed({kOregon, 3}));
  for (int i = 0; i < 2; ++i) {
    Message m;
    m.src = {kCalifornia, 0};
    m.dst = {kOregon, i};
    network_->Send(m);
  }
  simulator_.Run();
  EXPECT_TRUE(hosts_[0].messages.empty());
  EXPECT_TRUE(hosts_[1].messages.empty());
  network_->RecoverSite(kOregon);
  EXPECT_FALSE(network_->IsCrashed({kOregon, 0}));
}

TEST_F(NetworkTest, PartitionBlocksBothDirections) {
  RegisterHost({kCalifornia, 0}, 0);
  RegisterHost({kOregon, 0}, 1);
  network_->PartitionSites(kCalifornia, kOregon);
  Message m;
  m.src = {kCalifornia, 0};
  m.dst = {kOregon, 0};
  network_->Send(m);
  Message r;
  r.src = {kOregon, 0};
  r.dst = {kCalifornia, 0};
  network_->Send(r);
  simulator_.Run();
  EXPECT_TRUE(hosts_[0].messages.empty());
  EXPECT_TRUE(hosts_[1].messages.empty());
  network_->HealPartition(kOregon, kCalifornia);
  network_->Send(m);
  simulator_.Run();
  EXPECT_EQ(hosts_[1].messages.size(), 1u);
}

TEST_F(NetworkTest, CountersDistinguishLanAndWan) {
  RegisterHost({kCalifornia, 1}, 0);
  RegisterHost({kOregon, 0}, 1);
  Message lan;
  lan.src = {kCalifornia, 0};
  lan.dst = {kCalifornia, 1};
  lan.set_body(Bytes(100, 0));
  Message wan;
  wan.src = {kCalifornia, 0};
  wan.dst = {kOregon, 0};
  wan.set_body(Bytes(200, 0));
  network_->Send(lan);
  network_->Send(wan);
  simulator_.Run();
  EXPECT_EQ(network_->counters().Get("lan_messages"), 1);
  EXPECT_EQ(network_->counters().Get("wan_messages"), 1);
  EXPECT_EQ(network_->counters().Get("lan_bytes"), 100);
  EXPECT_EQ(network_->counters().Get("wan_bytes"), 200);
}

TEST_F(NetworkTest, DropProbabilityOneDropsEverything) {
  RegisterHost({kOregon, 0}, 0);
  network_->set_drop_prob(1.0);
  for (int i = 0; i < 10; ++i) {
    Message m;
    m.src = {kCalifornia, 0};
    m.dst = {kOregon, 0};
    network_->Send(m);
  }
  simulator_.Run();
  EXPECT_TRUE(hosts_[0].messages.empty());
  EXPECT_EQ(network_->counters().Get("dropped_messages"), 10);
}

TEST_F(NetworkTest, CorruptionFlipsPayloadByte) {
  RegisterHost({kOregon, 0}, 0);
  network_->set_corrupt_prob(1.0);
  Message m;
  m.src = {kCalifornia, 0};
  m.dst = {kOregon, 0};
  m.set_body(ToBytes("hello"));
  network_->Send(m);
  simulator_.Run();
  ASSERT_EQ(hosts_[0].messages.size(), 1u);
  EXPECT_NE(hosts_[0].messages[0].body(), ToBytes("hello"));
}

TEST_F(NetworkTest, UnregisteredDestinationCountsAsDrop) {
  Message m;
  m.src = {kCalifornia, 0};
  m.dst = {kIreland, 2};
  network_->Send(m);
  simulator_.Run();
  EXPECT_EQ(network_->counters().Get("dropped_messages"), 1);
}

}  // namespace
}  // namespace blockplane::net
