// Blockplane core tests: the log-commit / send / receive / read interface,
// communication daemons and reserves, verification routines, byzantine
// behaviours, and geo-correlated fault tolerance (§III–§VI).
#include "core/deployment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/wire.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace blockplane::core {
namespace {

using net::kCalifornia;
using net::kIreland;
using net::kOregon;
using net::kVirginia;
using net::Topology;
using sim::Milliseconds;
using sim::Seconds;

class CoreHarness {
 public:
  explicit CoreHarness(BlockplaneOptions options = {}, uint64_t seed = 1,
                       Topology topology = Topology::Aws4())
      : simulator_(seed),
        deployment_(&simulator_, std::move(topology), options) {}

  /// Commits and waits for the done callback.
  uint64_t CommitAndWait(net::SiteId site, const std::string& payload,
                         uint64_t routine = 0,
                         sim::SimTime deadline = Seconds(60)) {
    uint64_t committed_pos = 0;
    bool done = false;
    deployment_.participant(site)->LogCommit(ToBytes(payload), routine,
                                             [&](uint64_t pos) {
                                               committed_pos = pos;
                                               done = true;
                                             });
    EXPECT_TRUE(simulator_.RunUntilCondition([&] { return done; },
                                             simulator_.Now() + deadline))
        << "commit timed out";
    return committed_pos;
  }

  /// Sends and waits until the destination participant can receive it.
  bool SendAndDeliver(net::SiteId src, net::SiteId dest,
                      const std::string& payload, Bytes* out,
                      sim::SimTime deadline = Seconds(60)) {
    deployment_.participant(src)->Send(dest, ToBytes(payload), 0, nullptr);
    Participant* receiver = deployment_.participant(dest);
    if (!simulator_.RunUntilCondition(
            [&] {
              Bytes received;
              if (receiver->TryReceive(src, &received)) {
                *out = std::move(received);
                return true;
              }
              return false;
            },
            simulator_.Now() + deadline)) {
      return false;
    }
    return true;
  }

  sim::Simulator simulator_;
  Deployment deployment_;
};

TEST(BlockplaneCoreTest, LogCommitReplicatesAcrossUnit) {
  CoreHarness harness;
  uint64_t pos = harness.CommitAndWait(kCalifornia, "state change");
  EXPECT_EQ(pos, 1u);
  harness.simulator_.RunFor(Seconds(1));
  for (int i = 0; i < 4; ++i) {
    const auto& log = harness.deployment_.node(kCalifornia, i)->log();
    ASSERT_EQ(log.size(), 1u) << "node " << i;
    EXPECT_EQ(ToString(log.at(1).payload), "state change");
    EXPECT_EQ(log.at(1).type, RecordType::kLogCommit);
  }
}

TEST(BlockplaneCoreTest, LocalCommitIsFast) {
  CoreHarness harness;
  sim::SimTime start = harness.simulator_.Now();
  harness.CommitAndWait(kVirginia, "quick");
  double ms = sim::ToMillis(harness.simulator_.Now() - start);
  // A local commit is a three-phase intra-datacenter protocol: ~1-2 ms,
  // never wide-area scale (Fig. 4a).
  EXPECT_LT(ms, 5.0);
}

TEST(BlockplaneCoreTest, SendDeliversToDestination) {
  CoreHarness harness;
  Bytes received;
  ASSERT_TRUE(harness.SendAndDeliver(kCalifornia, kOregon, "hello oregon",
                                     &received));
  EXPECT_EQ(ToString(received), "hello oregon");
  // The receive was committed into Oregon's Local Log as a received record.
  harness.simulator_.RunFor(Seconds(1));
  const auto& log = harness.deployment_.node(kOregon, 0)->log();
  ASSERT_GE(log.size(), 1u);
  EXPECT_EQ(log.at(1).type, RecordType::kReceived);
  EXPECT_EQ(log.at(1).src_site, kCalifornia);
}

TEST(BlockplaneCoreTest, MessagesDeliverInSourceOrder) {
  CoreHarness harness;
  Participant* sender = harness.deployment_.participant(kCalifornia);
  for (int i = 0; i < 10; ++i) {
    sender->Send(kIreland, ToBytes("m" + std::to_string(i)), 0, nullptr);
  }
  Participant* receiver = harness.deployment_.participant(kIreland);
  std::vector<std::string> got;
  receiver->SetReceiveHandler([&](net::SiteId src, const Bytes& payload) {
    got.push_back(ToString(payload));
  });
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return got.size() == 10; }, Seconds(120)));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], "m" + std::to_string(i));
}

TEST(BlockplaneCoreTest, BidirectionalTraffic) {
  CoreHarness harness;
  Participant* a = harness.deployment_.participant(kCalifornia);
  Participant* b = harness.deployment_.participant(kVirginia);
  for (int i = 0; i < 5; ++i) {
    a->Send(kVirginia, ToBytes("c" + std::to_string(i)), 0, nullptr);
    b->Send(kCalifornia, ToBytes("v" + std::to_string(i)), 0, nullptr);
  }
  std::vector<std::string> at_b;
  std::vector<std::string> at_a;
  b->SetReceiveHandler(
      [&](net::SiteId, const Bytes& m) { at_b.push_back(ToString(m)); });
  a->SetReceiveHandler(
      [&](net::SiteId, const Bytes& m) { at_a.push_back(ToString(m)); });
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return at_a.size() == 5 && at_b.size() == 5; }, Seconds(120)));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(at_b[i], "c" + std::to_string(i));
    EXPECT_EQ(at_a[i], "v" + std::to_string(i));
  }
}

TEST(BlockplaneCoreTest, CommunicationLatencyTracksRtt) {
  // Fig. 6: one send + receive + ack is roughly the pair RTT plus small
  // local-commit overheads (23.4 ms measured for C-O against a 19 ms RTT).
  CoreHarness harness;
  Bytes received;
  sim::SimTime start = harness.simulator_.Now();
  ASSERT_TRUE(harness.SendAndDeliver(kCalifornia, kOregon, "ping",
                                     &received));
  double one_way_ms = sim::ToMillis(harness.simulator_.Now() - start);
  // Receipt at the destination takes one-way latency (9.5) + commit
  // overheads; well under a full RTT + overhead budget.
  EXPECT_GT(one_way_ms, 9.5);
  EXPECT_LT(one_way_ms, 19.0);
}

TEST(BlockplaneCoreTest, TryReceiveEmptyReturnsFalse) {
  CoreHarness harness;
  Bytes payload;
  EXPECT_FALSE(
      harness.deployment_.participant(kOregon)->TryReceive(kCalifornia,
                                                           &payload));
}

TEST(BlockplaneCoreTest, UserVerificationRoutineBlocksBadCommits) {
  CoreHarness harness;
  constexpr uint64_t kRoutine = 7;
  harness.deployment_.RegisterVerifier(
      kCalifornia, kRoutine, [](BlockplaneNode*) {
        return [](const LogRecord& record) {
          return ToString(record.payload).find("forbidden") ==
                 std::string::npos;
        };
      });
  bool done = false;
  harness.deployment_.participant(kCalifornia)
      ->LogCommit(ToBytes("forbidden value"), kRoutine,
                  [&](uint64_t) { done = true; });
  EXPECT_FALSE(
      harness.simulator_.RunUntilCondition([&] { return done; }, Seconds(3)));
  // A good value still goes through afterwards.
  harness.CommitAndWait(kCalifornia, "allowed value", kRoutine);
}

TEST(BlockplaneCoreTest, ForgedTransmissionIsRejected) {
  CoreHarness harness;
  // A malicious node fabricates a transmission record with a bogus quorum
  // cert (two claimed signers, garbage aggregate) and pushes it at
  // Oregon's unit.
  TransmissionRecord forged;
  forged.src_site = kCalifornia;
  forged.dest_site = kOregon;
  forged.src_log_pos = 1;
  forged.prev_src_log_pos = 0;
  forged.payload = ToBytes("increment your counter, trust me");
  crypto::QuorumCert bogus;
  bogus.site = kCalifornia;
  bogus.signer_bits = 0b11;
  forged.proof = {bogus};

  // The claimed signers are registered, so verification runs (and fails
  // on the aggregate).
  harness.deployment_.keys()->RegisterNode({kCalifornia, 0});
  harness.deployment_.keys()->RegisterNode({kCalifornia, 1});
  net::Message msg;
  msg.src = {kCalifornia, 3};
  msg.dst = {kOregon, 0};
  msg.type = kTransmission;
  msg.set_body(forged.Encode());
  harness.deployment_.network()->Send(msg);

  harness.simulator_.RunFor(Seconds(5));
  Bytes payload;
  EXPECT_FALSE(
      harness.deployment_.participant(kOregon)->TryReceive(kCalifornia,
                                                           &payload));
  // Nothing entered Oregon's Local Log.
  EXPECT_EQ(harness.deployment_.node(kOregon, 1)->log_size(), 0u);
}

TEST(BlockplaneCoreTest, DuplicateTransmissionCommitsOnce) {
  CoreHarness harness;
  Bytes received;
  ASSERT_TRUE(harness.SendAndDeliver(kCalifornia, kOregon, "once",
                                     &received));
  harness.simulator_.RunFor(Seconds(2));
  uint64_t log_size = harness.deployment_.node(kOregon, 0)->log_size();

  // Replay the committed transmission verbatim at every Oregon node.
  const auto& log = harness.deployment_.node(kCalifornia, 0)->log();
  ASSERT_FALSE(log.empty());
  TransmissionRecord replay;
  replay.src_site = kCalifornia;
  replay.dest_site = kOregon;
  replay.src_log_pos = 1;
  replay.prev_src_log_pos = 0;
  replay.payload = ToBytes("once");
  // (Signatures don't matter: the dedup check fires first.)
  net::Message msg;
  msg.src = {kCalifornia, 0};
  msg.dst = {kOregon, 0};
  msg.type = kTransmission;
  msg.set_body(replay.Encode());
  harness.deployment_.network()->Send(msg);
  harness.simulator_.RunFor(Seconds(2));

  EXPECT_EQ(harness.deployment_.node(kOregon, 0)->log_size(), log_size);
  Bytes payload;
  EXPECT_FALSE(
      harness.deployment_.participant(kOregon)->TryReceive(kCalifornia,
                                                           &payload));
}

TEST(BlockplaneCoreTest, MutedDaemonReserveTakesOver) {
  // §IV-C: a malicious daemon "may pretend maliciously to send messages";
  // the reserve detects the reception gap and becomes a daemon. The
  // rank-1 reserve takes over after two stalled polls (about 1.7 s).
  CoreHarness harness;
  harness.deployment_.node(kCalifornia, 0)->MuteDaemons();
  Bytes received;
  ASSERT_TRUE(harness.SendAndDeliver(kCalifornia, kVirginia,
                                     "despite malicious daemon", &received,
                                     Milliseconds(2500)));
  EXPECT_EQ(ToString(received), "despite malicious daemon");
}

/// A network that counts WAN bytes per message type.
net::NetworkOptions PerTypeWanBytes() {
  net::NetworkOptions options;
  options.per_type_wan_counters = true;
  return options;
}

int64_t WanBytes(Deployment& deployment, net::MessageType type) {
  return deployment.network()->counters().Get("wan_bytes.type_" +
                                              std::to_string(type));
}

// --- one shipping daemon per destination (DESIGN.md §5 item 5) ----------------

/// What happens to California node 0 (view-0 leader and active daemon for
/// every destination) during a ShipperRun.
enum class Outage {
  kNone,
  kDown,       // crashed from 2 s to 8 s, then the network lets it back in
  kRecovered,  // kDown, plus BlockplaneNode::Recover at 8 s
};

/// 400 sends California -> Virginia, one every 25 ms, on a network that
/// counts WAN bytes per message type.
class ShipperRun {
 public:
  static constexpr int kSends = 400;

  explicit ShipperRun(Outage outage)
      : deployment_(&simulator_, Topology::Aws4(), {}, PerTypeWanBytes()) {
    for (int i = 0; i < kSends; ++i) {
      simulator_.ScheduleAt(i * Milliseconds(25), [this, i] {
        deployment_.participant(kCalifornia)
            ->Send(kVirginia, ToBytes("m" + std::to_string(i)), 0, nullptr);
      });
    }
    if (outage == Outage::kNone) return;
    BlockplaneNode* node0 = deployment_.node(kCalifornia, 0);
    simulator_.ScheduleAt(Seconds(2), [this, node0] {
      deployment_.network()->Crash(node0->self());
    });
    simulator_.ScheduleAt(Seconds(8), [this, node0, outage] {
      deployment_.network()->Recover(node0->self());
      if (outage == Outage::kRecovered) node0->Recover();
    });
  }

  /// Runs until every send arrived, then one more second for stragglers.
  /// Expects each send exactly once, in California's log order.
  void DeliverAll() {
    Participant* receiver = deployment_.participant(kVirginia);
    std::vector<std::string> received;
    ASSERT_TRUE(simulator_.RunUntilCondition(
        [&] {
          Bytes payload;
          while (receiver->TryReceive(kCalifornia, &payload)) {
            received.push_back(ToString(payload));
          }
          return static_cast<int>(received.size()) >= kSends;
        },
        Seconds(60)));
    simulator_.RunFor(Seconds(1));
    std::vector<std::string> logged;
    for (const auto& [pos, record] :
         deployment_.node(kCalifornia, 1)->log()) {
      if (record.type == RecordType::kCommunication &&
          record.dest_site == kVirginia) {
        logged.push_back(ToString(record.payload));
      }
    }
    EXPECT_EQ(received, logged);
    std::sort(logged.begin(), logged.end());
    EXPECT_EQ(std::unique(logged.begin(), logged.end()), logged.end());
    EXPECT_EQ(static_cast<int>(logged.size()), kSends);
  }

  bool daemon_active(int node) {
    return deployment_.node(kCalifornia, node)->daemon_active(kVirginia);
  }
  int active_daemons() {
    int active = 0;
    for (int i = 0; i < 4; ++i) active += daemon_active(i) ? 1 : 0;
    return active;
  }
  int64_t transmission_wan_bytes() {
    return WanBytes(deployment_, kTransmission);
  }

 private:
  sim::Simulator simulator_{1};
  Deployment deployment_;
};

TEST(BlockplaneCoreTest, CrashedDaemonIsReplacedByOneReserve) {
  // Rank-staggered takeover: one stall promotes one reserve, so after the
  // crash each record still crosses the WAN once per receiver.
  ShipperRun clean(Outage::kNone);
  clean.DeliverAll();
  ShipperRun crashed(Outage::kDown);
  crashed.DeliverAll();
  EXPECT_NE(crashed.daemon_active(1), crashed.daemon_active(2));
  EXPECT_LE(crashed.transmission_wan_bytes(),
            clean.transmission_wan_bytes() * 11 / 10)
      << "without the crash: " << clean.transmission_wan_bytes();
}

TEST(BlockplaneCoreTest, RecoveredDaemonStepsBack) {
  // The recovered node's daemon resumes from its pre-crash cursor; the
  // receivers' watermark acks show it is behind, and it steps back.
  ShipperRun run(Outage::kRecovered);
  run.DeliverAll();
  EXPECT_FALSE(run.daemon_active(0));
  EXPECT_EQ(run.active_daemons(), 1);
}

// --- one body per first attempt (DESIGN.md §5 item 5) -------------------------

/// Wire bytes of one message with `body`.
int64_t OnWire(Deployment& deployment, const Bytes& body) {
  return static_cast<int64_t>(body.size() +
                              deployment.network()->options().header_bytes);
}

TEST(BlockplaneCoreTest, FirstAttemptsShipOneBodyPerGroup) {
  // Fault-free, every first attempt ships one body per destination unit
  // and per mirror site, and f_i notices stand in for the other
  // transmission receivers: ten log commits and ten sends at f_g = 1 are
  // twenty geo rounds to two mirror sites and ten transmissions.
  robustness_stats().Reset();
  sim::Simulator simulator(1);
  BlockplaneOptions options;
  options.fg = 1;
  Deployment deployment(&simulator, Topology::Aws4(), options,
                        PerTypeWanBytes());
  constexpr int kCount = 10;
  const Bytes payload(200, 'p');
  Participant* sender = deployment.participant(kCalifornia);
  int committed = 0;
  int received = 0;
  deployment.participant(kIreland)->SetReceiveHandler(
      [&](net::SiteId, const Bytes&) { ++received; });
  for (int i = 0; i < kCount; ++i) {
    sender->LogCommit(payload, 0, [&](uint64_t) { ++committed; });
    sender->Send(kIreland, payload, 0, nullptr);
  }
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return committed == kCount && received == kCount; },
      Seconds(60)));
  simulator.RunFor(Seconds(1));

  // Every body of a kind has the same size: fixed-width fields, one cert
  // per proof, and one proving mirror site.
  LogRecord record;
  record.payload = payload;
  GeoReplicateMsg replicate;
  replicate.record = record.Encode();
  replicate.proof = {crypto::QuorumCert{}};
  TransmissionRecord transmission;
  transmission.payload = payload;
  transmission.proof = {crypto::QuorumCert{}};
  transmission.geo_proof = {crypto::QuorumCert{}};
  EXPECT_EQ(WanBytes(deployment, kGeoReplicate),
            2 * kCount * 2 * OnWire(deployment, replicate.Encode()));
  EXPECT_EQ(WanBytes(deployment, kTransmission),
            kCount * OnWire(deployment, transmission.Encode()));
  EXPECT_EQ(WanBytes(deployment, kTransmissionNotice),
            kCount * options.fi *
                OnWire(deployment, TransmissionNoticeMsg{}.Encode()));
  EXPECT_EQ(robustness_stats().receiver_moves, 0);
}

TEST(BlockplaneCoreTest, CrashedFirstReceiverCostsOneRetry) {
  // Virginia node 0, the view-0 leader and the first body receiver, is
  // down. The first record's retry moves the sticky receiver to node 1;
  // after that every record ships one body and arrives without a
  // retransmission.
  robustness_stats().Reset();
  sim::Simulator simulator(5);
  Deployment deployment(&simulator, Topology::Aws4(), {}, PerTypeWanBytes());
  deployment.network()->Crash({kVirginia, 0});
  std::vector<sim::SimTime> arrived;
  deployment.participant(kVirginia)->SetReceiveHandler(
      [&](net::SiteId, const Bytes&) { arrived.push_back(simulator.Now()); });
  const Bytes payload(64, 'm');
  Participant* sender = deployment.participant(kCalifornia);
  sender->Send(kVirginia, payload, 0, nullptr);
  // The unit's view change takes most of it.
  ASSERT_TRUE(simulator.RunUntilCondition([&] { return arrived.size() == 1; },
                                          Seconds(2)));
  EXPECT_EQ(robustness_stats().receiver_moves, 1);

  deployment.network()->ResetCounters();
  constexpr int kSends = 50;
  const sim::SimTime start = simulator.Now();
  for (int i = 0; i < kSends; ++i) {
    simulator.ScheduleAt(start + i * Milliseconds(20), [&] {
      sender->Send(kVirginia, payload, 0, nullptr);
    });
  }
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return arrived.size() == kSends + 1; }, start + Seconds(5)));
  // One crossing of the 30.5 ms one-way delay plus two local commits; a
  // retransmission would add at least one 61 ms round trip.
  for (int i = 0; i < kSends; ++i) {
    EXPECT_LT(arrived[i + 1] - (start + i * Milliseconds(20)),
              Milliseconds(45))
        << "record " << i;
  }
  simulator.RunFor(Seconds(1));
  TransmissionRecord transmission;
  transmission.payload = payload;
  transmission.proof = {crypto::QuorumCert{}};
  EXPECT_EQ(WanBytes(deployment, kTransmission),
            kSends * OnWire(deployment, transmission.Encode()));
  EXPECT_EQ(robustness_stats().receiver_moves, 1);
}

TEST(BlockplaneCoreTest, CrashedMirrorLeaderIsReplaced) {
  // Node 0, the view-0 leader, is down in both of California's mirror
  // groups. A mirror node forwards a replicate to its group's leader; from
  // a position's third replicate on it gives the request to the whole
  // group, whose backups forward it and arm their request watchdogs, so a
  // view change replaces the dead leader. Without that escalation nothing
  // commits in 120 s.
  sim::Simulator simulator(5);
  BlockplaneOptions options;
  options.fg = 1;
  options.pbft_window = 8;
  options.participant_window = 8;
  Deployment deployment(&simulator, Topology::Aws4(), options);
  for (net::SiteId host : deployment.mirror_sites_of(kCalifornia)) {
    deployment.network()->Crash(
        deployment.mirror_node(host, kCalifornia, 0)->self());
  }
  Participant* primary = deployment.participant(kCalifornia);
  const Bytes payload(64, 'c');
  constexpr int kCommits = 100;
  int committed = 0;
  const sim::SimTime start = simulator.Now();
  for (int i = 0; i < kCommits; ++i) {
    simulator.ScheduleAt(start + i * Milliseconds(20), [&] {
      primary->LogCommit(payload, 0, [&](uint64_t) { ++committed; });
    });
  }
  // The first commit takes 766 ms (the two view changes), and the last
  // completes 2,002 ms after the first was submitted.
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return committed == kCommits; }, start + Seconds(10)))
      << committed << " of " << kCommits << " commits completed";
  for (net::SiteId host : deployment.mirror_sites_of(kCalifornia)) {
    EXPECT_GE(deployment.mirror_node(host, kCalifornia, 1)->replica()->view(),
              1u)
        << "mirror group at site " << host;
  }
}

TEST(BlockplaneCoreTest, CrashedUnitNodeDoesNotBlockAnything) {
  CoreHarness harness;
  harness.deployment_.network()->Crash({kCalifornia, 2});
  harness.CommitAndWait(kCalifornia, "commit with crash");
  Bytes received;
  ASSERT_TRUE(harness.SendAndDeliver(kCalifornia, kOregon, "send with crash",
                                     &received));
}

TEST(BlockplaneCoreTest, ByzantineUnitNodeDoesNotBlockAnything) {
  CoreHarness harness;
  harness.deployment_.node(kCalifornia, 3)
      ->SetByzantineMode(pbft::ByzantineMode::kBogusVotes);
  harness.deployment_.node(kCalifornia, 3)->RefuseAttestations();
  harness.CommitAndWait(kCalifornia, "commit");
  Bytes received;
  ASSERT_TRUE(harness.SendAndDeliver(kCalifornia, kOregon, "send",
                                     &received));
}

// --- reads (§VI-A) -----------------------------------------------------------

TEST(BlockplaneCoreTest, ReadStrategies) {
  CoreHarness harness;
  uint64_t pos = harness.CommitAndWait(kCalifornia, "readable");
  harness.simulator_.RunFor(Seconds(1));

  for (ReadStrategy strategy :
       {ReadStrategy::kReadOne, ReadStrategy::kReadQuorum,
        ReadStrategy::kLinearizable}) {
    bool done = false;
    LogRecord result;
    harness.deployment_.participant(kCalifornia)
        ->Read(pos, strategy, [&](Status status, LogRecord record) {
          ASSERT_TRUE(status.ok()) << status;
          result = std::move(record);
          done = true;
        });
    ASSERT_TRUE(harness.simulator_.RunUntilCondition([&] { return done; },
                                                     Seconds(30)));
    EXPECT_EQ(ToString(result.payload), "readable");
  }
}

TEST(BlockplaneCoreTest, QuorumReadShipsFiPlusOneBodies) {
  // Digest replies (DESIGN.md §5 item 7): of the 3f_i+1 nodes a quorum
  // read asks, f_i+1 ship the entry and the rest its 32 B value digest.
  CoreHarness harness;
  const uint64_t pos =
      harness.CommitAndWait(kCalifornia, std::string(32 * 1024, 'x'));
  harness.simulator_.RunFor(Seconds(1));
  const net::Network* network = harness.deployment_.network();
  const int64_t before = network->counters().Get("lan_bytes");
  bool done = false;
  harness.deployment_.participant(kCalifornia)
      ->Read(pos, ReadStrategy::kReadQuorum, [&](Status status, LogRecord) {
        EXPECT_TRUE(status.ok()) << status;
        done = true;
      });
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return done; }, harness.simulator_.Now() + Seconds(1)));
  // Every node answered at once; let the last reply land.
  harness.simulator_.RunFor(Milliseconds(5));
  const int64_t read_bytes = network->counters().Get("lan_bytes") - before;
  const int64_t body = static_cast<int64_t>(
      harness.deployment_.node(kCalifornia, 0)->log().at(pos).Encode().size());
  const int fi = harness.deployment_.options().fi;
  // Four requests and four replies fit well inside the 4 KB of slack.
  EXPECT_GT(read_bytes, fi * body);
  EXPECT_LE(read_bytes, (fi + 1) * body + 4096);
}

TEST(BlockplaneCoreTest, ReadOneFallsBackWhenClosestNodeIsDown) {
  CoreHarness harness;
  uint64_t pos = harness.CommitAndWait(kCalifornia, "still readable");
  harness.simulator_.RunFor(Seconds(1));
  // The node read-1 consults first is crashed; the read must widen to the
  // rest of the unit instead of hanging.
  harness.deployment_.network()->Crash({kCalifornia, 0});
  bool done = false;
  LogRecord result;
  harness.deployment_.participant(kCalifornia)
      ->Read(pos, ReadStrategy::kReadOne, [&](Status s, LogRecord record) {
        ASSERT_TRUE(s.ok());
        result = std::move(record);
        done = true;
      });
  ASSERT_TRUE(
      harness.simulator_.RunUntilCondition([&] { return done; }, Seconds(30)));
  EXPECT_EQ(ToString(result.payload), "still readable");
}

TEST(BlockplaneCoreTest, ReadMissingPositionIsNotFound) {
  CoreHarness harness;
  harness.CommitAndWait(kCalifornia, "only one");
  harness.simulator_.RunFor(Seconds(1));
  bool done = false;
  harness.deployment_.participant(kCalifornia)
      ->Read(99, ReadStrategy::kReadQuorum,
             [&](Status status, LogRecord) {
               EXPECT_TRUE(status.IsNotFound());
               done = true;
             });
  ASSERT_TRUE(
      harness.simulator_.RunUntilCondition([&] { return done; }, Seconds(30)));
}

TEST(BlockplaneCoreTest, ReadBelowTheWindowIsOutOfRange) {
  // At I = 8 a unit node keeps the entries above its stable checkpoint
  // minus 4·I: after 100 commits position 1 is gone from every node.
  BlockplaneOptions options;
  options.checkpoint_interval = 8;
  CoreHarness harness(options);
  for (int i = 0; i < 100; ++i) harness.CommitAndWait(kCalifornia, "commit");
  harness.simulator_.RunFor(Seconds(1));
  for (int i = 0; i < 4; ++i) {
    ASSERT_GE(harness.deployment_.node(kCalifornia, i)->horizon(), 1u);
  }
  Participant* california = harness.deployment_.participant(kCalifornia);
  auto read = [&](uint64_t pos) {
    Status result;
    bool done = false;
    california->Read(pos, ReadStrategy::kReadQuorum,
                     [&](Status status, LogRecord) {
                       result = status;
                       done = true;
                     });
    EXPECT_TRUE(harness.simulator_.RunUntilCondition(
        [&] { return done; }, harness.simulator_.Now() + Seconds(30)));
    return result;
  };
  EXPECT_TRUE(read(1).IsOutOfRange()) << read(1);
  EXPECT_TRUE(read(1000).IsNotFound()) << read(1000);
  EXPECT_TRUE(read(100).ok()) << read(100);
}

TEST(BlockplaneCoreTest, ValueThatDoesNotReencodeIsNotCommitted) {
  // A node keeps decoded records and catch-up pages re-encode them, so a
  // value with trailing bytes could never be proven by a page: honest
  // replicas neither admit nor commit one.
  CoreHarness harness;
  LogRecord record;
  record.payload = ToBytes("padded");
  pbft::RequestMsg request;
  request.client_token = pbft::ClientToken({kCalifornia, 2});
  request.req_id = 999;
  request.value = record.Encode();
  request.value.push_back(0);
  for (int i = 0; i < 4; ++i) {
    net::Message msg;
    msg.src = {kCalifornia, 2};
    msg.dst = {kCalifornia, i};
    msg.type = pbft::kRequest;
    msg.set_body(request.Encode());
    harness.deployment_.network()->Send(std::move(msg));
  }
  harness.simulator_.RunFor(Seconds(5));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(harness.deployment_.node(kCalifornia, i)->applied_high(), 0u);
  }
  EXPECT_EQ(harness.CommitAndWait(kCalifornia, "canonical"), 1u);
}

TEST(BlockplaneCoreTest, PrunedLogKeepsCommunicationRecords) {
  // A unit node drops the entries at or below its stable checkpoint minus
  // 4·I, except communication records its daemon has not yet seen f_i+1
  // receivers hold. Oregon is cut off for more than 6·I of California's
  // positions, so every send to it is at or below the horizon by the heal.
  BlockplaneOptions options;
  options.checkpoint_interval = 8;
  CoreHarness harness(options);
  Deployment& deployment = harness.deployment_;
  deployment.network()->PartitionSites(kCalifornia, kOregon);
  Participant* california = deployment.participant(kCalifornia);
  std::vector<uint64_t> sends;
  for (uint64_t i = 1; i <= 60; ++i) {
    if (i % 10 != 6) {
      ASSERT_EQ(harness.CommitAndWait(kCalifornia, "commit"), i);
      continue;
    }
    uint64_t pos = 0;
    california->Send(kOregon, ToBytes("send " + std::to_string(i)), 0,
                     [&](uint64_t p) { pos = p; });
    ASSERT_TRUE(harness.simulator_.RunUntilCondition(
        [&] { return pos != 0; }, harness.simulator_.Now() + Seconds(60)));
    ASSERT_EQ(pos, i);
    sends.push_back(pos);
  }
  auto held = [&](int index, uint64_t pos) {
    return deployment.node(kCalifornia, index)->log().count(pos) > 0;
  };
  // Nodes 0-2 host Oregon's daemon and its reserves: they keep every
  // undelivered send. Node 3 hosts none and keeps only what is above its
  // horizon.
  for (int i = 0; i < 4; ++i) {
    BlockplaneNode* node = deployment.node(kCalifornia, i);
    ASSERT_GE(node->horizon(), 16u) << "node " << i;
    for (uint64_t pos : sends) {
      EXPECT_EQ(held(i, pos), i < 3 || pos > node->horizon())
          << "node " << i << " pos " << pos;
    }
  }

  // After the heal Oregon receives every send once, in order.
  deployment.network()->HealPartition(kCalifornia, kOregon);
  Participant* oregon = deployment.participant(kOregon);
  std::vector<std::string> received;
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] {
        Bytes payload;
        while (oregon->TryReceive(kCalifornia, &payload)) {
          received.push_back(ToString(payload));
        }
        return received.size() == sends.size();
      },
      harness.simulator_.Now() + Seconds(60)));
  std::vector<std::string> want;
  for (uint64_t pos : sends) want.push_back("send " + std::to_string(pos));
  EXPECT_EQ(received, want);

  // Once the active daemon's acks and the reserves' polls show the sends
  // delivered, the next checkpoints drop them everywhere.
  harness.simulator_.RunFor(Seconds(2));
  for (int i = 0; i < 6 * 8; ++i) harness.CommitAndWait(kCalifornia, "more");
  harness.simulator_.RunFor(Seconds(1));
  Bytes payload;
  EXPECT_FALSE(oregon->TryReceive(kCalifornia, &payload));
  for (int i = 0; i < 4; ++i) {
    BlockplaneNode* node = deployment.node(kCalifornia, i);
    ASSERT_GT(node->horizon(), sends.back()) << "node " << i;
    for (uint64_t pos : sends) {
      EXPECT_FALSE(held(i, pos)) << "node " << i << " pos " << pos;
    }
  }
}

TEST(BlockplaneCoreTest, UnitLogsStayWithinTheRetainedWindow) {
  // 5,000 commits and sends at I = 8: every unit node ends with at most
  // 4·I entries below its stable checkpoint plus the HighWatermark span
  // above it, a dedup window of at most 4·I requests, and checkpoint
  // certificates from its horizon up.
  BlockplaneOptions options;
  options.checkpoint_interval = 8;
  CoreHarness harness(options);
  Deployment& deployment = harness.deployment_;
  Participant* california = deployment.participant(kCalifornia);
  Participant* oregon = deployment.participant(kOregon);
  int sent = 0;
  int received = 0;
  oregon->SetReceiveHandler([&](net::SiteId, const Bytes&) { ++received; });
  for (int i = 0; i < 5000; ++i) {
    if (i % 5 == 1 || i % 5 == 3) {
      bool done = false;
      california->Send(kOregon, ToBytes("send " + std::to_string(i)), 0,
                       [&](uint64_t) { done = true; });
      ASSERT_TRUE(harness.simulator_.RunUntilCondition(
          [&] { return done; }, harness.simulator_.Now() + Seconds(60)));
      ++sent;
    } else {
      harness.CommitAndWait(kCalifornia, "commit " + std::to_string(i));
    }
  }
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return received == sent; },
      harness.simulator_.Now() + Seconds(60)));
  // The reserves learn of deliveries from polls 800 ms apart; let them
  // poll, then let two more intervals commit at both ends.
  harness.simulator_.RunFor(Seconds(2));
  for (int i = 0; i < 2 * 8; ++i) {
    harness.CommitAndWait(kCalifornia, "tail");
    harness.CommitAndWait(kOregon, "tail");
  }
  harness.simulator_.RunFor(Seconds(1));

  constexpr uint64_t kInterval = 8;
  const uint64_t span = 2 * kInterval;  // HighWatermark at window 1
  for (net::SiteId site : {kCalifornia, kOregon}) {
    for (int i = 0; i < 4; ++i) {
      BlockplaneNode* node = deployment.node(site, i);
      const pbft::PbftReplica* replica = node->replica();
      SCOPED_TRACE("site " + std::to_string(site) + " node " +
                   std::to_string(i));
      EXPECT_LE(node->log().size(), 4 * kInterval + span);
      EXPECT_GT(node->horizon(), 0u);
      EXPECT_EQ(node->horizon(), replica->horizon());
      EXPECT_EQ(replica->oldest_checkpoint(), replica->horizon());
      EXPECT_LE(replica->executed_request_count(), 4 * kInterval);
    }
  }
  // Per-op bookkeeping that nothing reads once the op is done is gone too,
  // after 2,000 sends.
  ASSERT_EQ(sent, 2000);
  EXPECT_LE(deployment.node(kOregon, 0)->replica()->assigned_request_count(),
            4 * kInterval);
  EXPECT_LE(oregon->pending_notice_count(), 4 * kInterval);
}

// --- geo-correlated fault tolerance (§V) ----------------------------------------

TEST(BlockplaneGeoTest, CommitWaitsForMirrorProofs) {
  BlockplaneOptions options;
  options.fg = 1;
  CoreHarness harness(options);
  sim::SimTime start = harness.simulator_.Now();
  harness.CommitAndWait(kCalifornia, "geo commit");
  double ms = sim::ToMillis(harness.simulator_.Now() - start);
  // Needs a round trip to the closest mirror (Oregon, 19 ms RTT) plus
  // local commits — Fig. 5's C(1) is ~23 ms.
  EXPECT_GT(ms, 19.0);
  EXPECT_LT(ms, 40.0);
}

TEST(BlockplaneGeoTest, MirrorLogsHoldTheRecord) {
  BlockplaneOptions options;
  options.fg = 1;
  CoreHarness harness(options);
  harness.CommitAndWait(kCalifornia, "mirrored");
  harness.simulator_.RunFor(Seconds(2));
  // California's mirrors are Oregon and Virginia (closest two).
  int holding = 0;
  for (net::SiteId host : harness.deployment_.mirror_sites_of(kCalifornia)) {
    BlockplaneNode* node =
        harness.deployment_.mirror_node(host, kCalifornia, 0);
    if (node->mirror_high() >= 1) {
      LogRecord inner;
      ASSERT_TRUE(
          LogRecord::Decode(node->log().at(1).payload, &inner).ok());
      EXPECT_EQ(ToString(inner.payload), "mirrored");
      ++holding;
    }
  }
  EXPECT_GE(holding, 1);  // fg = 1 mirror must hold it
}

TEST(BlockplaneGeoTest, BackupFailureRaisesLatencyToNextMirror) {
  // Fig. 8(a): with the closest mirror down, commits wait for the
  // second-closest mirror.
  BlockplaneOptions options;
  options.fg = 1;
  CoreHarness harness(options);
  harness.CommitAndWait(kCalifornia, "warm");
  harness.deployment_.network()->CrashSite(kOregon);
  sim::SimTime start = harness.simulator_.Now();
  harness.CommitAndWait(kCalifornia, "after backup failure");
  double ms = sim::ToMillis(harness.simulator_.Now() - start);
  // Now bounded below by the C-V RTT (61 ms).
  EXPECT_GT(ms, 61.0);
  EXPECT_LT(ms, 120.0);
}

TEST(BlockplaneGeoTest, SecondaryActsAfterPrimaryFailure) {
  // Fig. 8(b): the primary site fails; a mirror site continues the log.
  BlockplaneOptions options;
  options.fg = 1;
  CoreHarness harness(options);
  harness.CommitAndWait(kCalifornia, "by primary");
  harness.simulator_.RunFor(Seconds(2));
  harness.deployment_.network()->CrashSite(kCalifornia);

  // Virginia mirrors California; it takes over.
  Participant* secondary = harness.deployment_.participant(kVirginia);
  std::vector<net::SiteId> peers =
      harness.deployment_.mirror_sites_of(kCalifornia);
  peers.push_back(kCalifornia);
  secondary->SetMirrorPeers(kCalifornia, peers);

  // Runs one MirrorCommit; returns its position and how long it took.
  auto mirror_commit = [&](const std::string& payload, sim::SimTime* took) {
    sim::SimTime start = harness.simulator_.Now();
    uint64_t pos = 0;
    secondary->MirrorCommit(kCalifornia, ToBytes(payload), 0,
                            [&](uint64_t p) { pos = p; });
    EXPECT_TRUE(harness.simulator_.RunUntilCondition(
        [&] { return pos != 0; }, start + Seconds(60)));
    *took = harness.simulator_.Now() - start;
    return pos;
  };
  // The takeover first learns the mirror streams' high positions. The new
  // entry extends the mirrored stream (position 2 after the primary's one
  // commit).
  sim::SimTime takeover = 0;
  EXPECT_EQ(mirror_commit("by secondary", &takeover), 2u);
  // Already acting for California, Virginia continues the stream directly:
  // no status round, so each continuation is quicker than the takeover.
  for (uint64_t want : {3u, 4u}) {
    sim::SimTime took = 0;
    EXPECT_EQ(mirror_commit("continued", &took), want);
    EXPECT_LT(took, takeover);
  }
  harness.simulator_.RunFor(Seconds(2));
  // Every node of both mirror groups of California holds all four entries.
  for (net::SiteId host : harness.deployment_.mirror_sites_of(kCalifornia)) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(
          harness.deployment_.mirror_node(host, kCalifornia, i)->mirror_high(),
          4u)
          << "site " << host << ", node " << i;
    }
  }
}

TEST(BlockplaneGeoTest, LaggingSecondaryReconcilesBeforeActing) {
  // The primary needs proofs from only fg mirrors, so a secondary's mirror
  // can lag. Before acting as primary its mirror group must fetch the
  // missing entries from an up-to-date peer (§V's fg+1-intersection
  // argument), or it would fork the stream. Runs with the secondary one,
  // two and 100 entries behind; 100 spans two 64-entry fetches. At 40
  // behind with a checkpoint interval of 4 the peer mirror has dropped the
  // first missed entries, so the secondary installs the peer group's base
  // and fetches only the entries above it (DESIGN.md §10, retention).
  struct Case {
    int lag;
    uint64_t checkpoint_interval;
  };
  for (Case c : {Case{1, 128}, Case{2, 128}, Case{100, 128}, Case{40, 4}}) {
    SCOPED_TRACE("lag " + std::to_string(c.lag) + ", interval " +
                 std::to_string(c.checkpoint_interval));
    BlockplaneOptions options;
    options.fg = 1;
    options.checkpoint_interval = c.checkpoint_interval;
    CoreHarness harness(options);
    harness.CommitAndWait(kCalifornia, "first");
    harness.simulator_.RunFor(Seconds(2));

    // Virginia's datacenter goes dark while the primary keeps committing
    // (Oregon supplies the fg=1 proofs).
    harness.deployment_.network()->CrashSite(kVirginia);
    std::vector<std::string> expected = {"first"};
    for (int i = 0; i < c.lag; ++i) {
      expected.push_back("missed " + std::to_string(i));
      harness.CommitAndWait(kCalifornia, expected.back());
    }

    // Virginia comes back; California fails; Virginia takes over.
    harness.deployment_.network()->RecoverSite(kVirginia);
    harness.deployment_.network()->CrashSite(kCalifornia);
    Participant* secondary = harness.deployment_.participant(kVirginia);
    std::vector<net::SiteId> peers =
        harness.deployment_.mirror_sites_of(kCalifornia);
    peers.push_back(kCalifornia);
    secondary->SetMirrorPeers(kCalifornia, peers);
    BlockplaneNode* mirror =
        harness.deployment_.mirror_node(kVirginia, kCalifornia, 0);
    uint64_t base_high = 0;
    mirror->SetApplyHook([&](uint64_t, const LogRecord& record) {
      if (record.type == RecordType::kMirrorBase) base_high = record.geo_pos;
    });

    bool done = false;
    uint64_t pos = 0;
    expected.push_back("takeover");
    robustness_stats().Reset();
    secondary->MirrorCommit(kCalifornia, ToBytes(expected.back()), 0,
                            [&](uint64_t p) {
                              pos = p;
                              done = true;
                            });
    ASSERT_TRUE(harness.simulator_.RunUntilCondition([&] { return done; },
                                                     Seconds(120)));
    // The new entry continues after the ones the old primary committed —
    // Virginia reconciled the missed entries from Oregon before acting.
    EXPECT_EQ(pos, expected.size());
    // One mechanism: every missed entry above the base (if any) entered
    // Virginia's mirror through its leader's backfill, exactly once.
    const bool past_the_window = c.checkpoint_interval < 128;
    EXPECT_EQ(robustness_stats().mirror_bases_installed,
              past_the_window ? 1 : 0);
    if (past_the_window) {
      EXPECT_GT(base_high, 1u);
    } else {
      EXPECT_EQ(base_high, 0u);
    }
    // Virginia held the first entry, or the base, and the takeover entry
    // is new.
    const uint64_t held = std::max<uint64_t>(base_high, 1);
    EXPECT_EQ(robustness_stats().mirror_gap_filled,
              static_cast<int64_t>(expected.size() - 1 - held));
    if (past_the_window) {
      // The peer served its newest certified checkpoint, so fewer than
      // 2·I entries remain above the base.
      EXPECT_LT(robustness_stats().mirror_gap_filled,
                static_cast<int64_t>(2 * c.checkpoint_interval));
    }
    harness.simulator_.RunFor(Seconds(2));
    // The entries Virginia holds are the stream's, contiguous up to the
    // takeover entry.
    ASSERT_EQ(mirror->mirror_high(), expected.size());
    std::vector<std::string> contents;
    for (const auto& [mirror_pos, record] : mirror->log()) {
      if (record.type != RecordType::kMirrored ||
          record.geo_pos <= mirror->mirror_horizon()) {
        continue;
      }
      LogRecord inner;
      ASSERT_TRUE(LogRecord::Decode(record.payload, &inner).ok());
      contents.push_back(ToString(inner.payload));
    }
    EXPECT_EQ(contents,
              std::vector<std::string>(
                  expected.begin() +
                      static_cast<std::ptrdiff_t>(mirror->mirror_horizon()),
                  expected.end()));
  }
}

TEST(BlockplaneGeoTest, MirrorPastABaseServesItsPeerByGeoPosition) {
  // A base moves a mirror's log positions off its geo positions, so a
  // mirror serves kMirrorFetch by geo position. Virginia's group installs
  // Oregon's base, then Oregon falls behind and backfills from Virginia.
  BlockplaneOptions options;
  options.fg = 1;
  options.checkpoint_interval = 4;
  CoreHarness harness(options);
  net::Network* network = harness.deployment_.network();
  auto mirror = [&](net::SiteId host, int index) {
    return harness.deployment_.mirror_node(host, kCalifornia, index);
  };
  auto converged = [&](net::SiteId host, uint64_t high) {
    return harness.simulator_.RunUntilCondition(
        [&] {
          for (int i = 0; i < 4; ++i) {
            if (mirror(host, i)->mirror_high() != high) return false;
          }
          return true;
        },
        harness.simulator_.Now() + Seconds(30));
  };
  robustness_stats().Reset();
  network->CrashSite(kVirginia);
  for (int i = 0; i < 40; ++i) harness.CommitAndWait(kCalifornia, "early");
  network->RecoverSite(kVirginia);
  harness.CommitAndWait(kCalifornia, "ahead of Virginia");
  ASSERT_TRUE(converged(kVirginia, 41));
  ASSERT_EQ(robustness_stats().mirror_bases_installed, 1);
  const uint64_t base_high = mirror(kVirginia, 0)->mirror_horizon();
  ASSERT_GT(base_high, 1u);
  ASSERT_LT(mirror(kVirginia, 0)->applied_high(), 41u);

  network->CrashSite(kOregon);
  for (int i = 0; i < 3; ++i) {
    harness.CommitAndWait(kCalifornia, "late " + std::to_string(i));
  }
  network->RecoverSite(kOregon);
  harness.CommitAndWait(kCalifornia, "ahead of Oregon");
  ASSERT_TRUE(converged(kOregon, 45));
  EXPECT_EQ(robustness_stats().mirror_bases_installed, 1);
  // Both groups hold the same entries at each geo position above
  // Virginia's base.
  std::map<uint64_t, Bytes> virginia;
  for (const auto& [pos, record] : mirror(kVirginia, 0)->log()) {
    if (record.type == RecordType::kMirrored) {
      virginia[record.geo_pos] = record.payload;
    }
  }
  int compared = 0;
  for (const auto& [pos, record] : mirror(kOregon, 0)->log()) {
    if (record.type != RecordType::kMirrored || record.geo_pos <= base_high) {
      continue;
    }
    ASSERT_EQ(virginia.count(record.geo_pos), 1u) << record.geo_pos;
    EXPECT_EQ(virginia[record.geo_pos], record.payload) << record.geo_pos;
    ++compared;
  }
  EXPECT_GE(compared, 4);
}

TEST(BlockplaneGeoTest, SendCarriesGeoProofs) {
  BlockplaneOptions options;
  options.fg = 1;
  CoreHarness harness(options);
  Bytes received;
  ASSERT_TRUE(harness.SendAndDeliver(kCalifornia, kVirginia, "geo send",
                                     &received, Seconds(120)));
  EXPECT_EQ(ToString(received), "geo send");
  harness.simulator_.RunFor(Seconds(1));
  // The received record embeds the geo proof: a cert from a mirror site
  // of California, with f_i+1 signers.
  const auto& log = harness.deployment_.node(kVirginia, 0)->log();
  ASSERT_GE(log.size(), 1u);
  EXPECT_EQ(log.at(1).type, RecordType::kReceived);
  ASSERT_EQ(log.at(1).geo_proof.size(), 1u);
  const crypto::QuorumCert& geo_cert = log.at(1).geo_proof[0];
  std::vector<net::SiteId> mirrors =
      harness.deployment_.mirror_sites_of(kCalifornia);
  EXPECT_NE(std::find(mirrors.begin(), mirrors.end(), geo_cert.site),
            mirrors.end());
  EXPECT_EQ(geo_cert.signer_count(), 2);
}

// --- property sweeps ----------------------------------------------------------

class CorePairSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CorePairSweepTest, AllPairsDeliverInOrder) {
  auto [src, dest] = GetParam();
  if (src == dest) GTEST_SKIP();
  CoreHarness harness({}, /*seed=*/17);
  Participant* sender = harness.deployment_.participant(src);
  constexpr int kCount = 5;
  for (int i = 0; i < kCount; ++i) {
    sender->Send(dest, ToBytes("p" + std::to_string(i)), 0, nullptr);
  }
  Participant* receiver = harness.deployment_.participant(dest);
  std::vector<std::string> got;
  receiver->SetReceiveHandler([&](net::SiteId s, const Bytes& payload) {
    EXPECT_EQ(s, src);
    got.push_back(ToString(payload));
  });
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return got.size() == kCount; }, Seconds(120)));
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(got[i], "p" + std::to_string(i));
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, CorePairSweepTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(0, 1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& pinfo) {
      return "from" + std::to_string(std::get<0>(pinfo.param)) + "_to" +
             std::to_string(std::get<1>(pinfo.param));
    });

class CoreFiSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(CoreFiSweepTest, CommitAndSendWorkAcrossFaultLevels) {
  BlockplaneOptions options;
  options.fi = GetParam();
  CoreHarness harness(options);
  harness.CommitAndWait(kCalifornia, "commit");
  Bytes received;
  ASSERT_TRUE(harness.SendAndDeliver(kCalifornia, kOregon, "send",
                                     &received, Seconds(120)));
}

INSTANTIATE_TEST_SUITE_P(FaultLevels, CoreFiSweepTest,
                         ::testing::Values(1, 2, 3),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "fi" + std::to_string(pinfo.param);
                         });

}  // namespace
}  // namespace blockplane::core
