// Adversarial end-to-end tests: the byzantine behaviours of §VII's lemmas
// driven against the full Blockplane stack, plus a randomized crash/recover
// soak over the counter protocol.
#include <gtest/gtest.h>

#include <functional>

#include "common/codec.h"
#include "common/metrics.h"
#include "core/deployment.h"
#include "core/wire.h"
#include "crypto/quorum_cert.h"
#include "pbft/client.h"
#include "pbft/message.h"
#include "protocols/bank.h"
#include "protocols/counter.h"
#include "sim/simulator.h"

namespace blockplane::core {
namespace {

using net::kCalifornia;
using net::kIreland;
using net::kOregon;
using net::kVirginia;
using net::Topology;
using sim::Seconds;

/// Makes each of `liars` send a `type` message with `body` to each of
/// `targets` now and every 50 ms after.
void SprayEvery50Ms(sim::Simulator* simulator, net::Network* network,
                    const std::vector<net::NodeId>& liars,
                    const std::vector<net::NodeId>& targets,
                    net::MessageType type, const Bytes& body) {
  for (const net::NodeId& liar : liars) {
    for (const net::NodeId& target : targets) {
      net::Message msg;
      msg.src = liar;
      msg.dst = target;
      msg.type = type;
      msg.set_body(Bytes(body));
      network->Send(std::move(msg));
    }
  }
  simulator->Schedule(sim::Milliseconds(50), [=] {
    SprayEvery50Ms(simulator, network, liars, targets, type, body);
  });
}

/// The nodes of `site`'s unit at f_i = 1.
std::vector<net::NodeId> UnitOf(net::SiteId site) {
  return {{site, 0}, {site, 1}, {site, 2}, {site, 3}};
}

TEST(ByzantineEndToEndTest, EquivocatingUnitLeaderIsDethroned) {
  // Lemma 1: honest nodes of a participant agree on every Local Log entry
  // even when the unit's PBFT leader equivocates.
  sim::Simulator simulator(31);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  deployment.node(kCalifornia, 0)
      ->SetByzantineMode(pbft::ByzantineMode::kEquivocate);

  int completed = 0;
  for (int i = 0; i < 5; ++i) {
    deployment.participant(kCalifornia)
        ->LogCommit(ToBytes("v" + std::to_string(i)), 0,
                    [&](uint64_t) { ++completed; });
  }
  ASSERT_TRUE(simulator.RunUntilCondition([&] { return completed == 5; },
                                          Seconds(120)));
  simulator.RunFor(Seconds(2));
  // All honest nodes hold identical logs.
  const auto& reference = deployment.node(kCalifornia, 1)->log();
  for (int i = 2; i < 4; ++i) {
    const auto& log = deployment.node(kCalifornia, i)->log();
    ASSERT_EQ(log.size(), reference.size()) << "node " << i;
    for (const auto& [pos, record] : reference) {
      EXPECT_EQ(log.at(pos).payload, record.payload);
    }
  }
  // Note: with a 3-vs-1 split the majority value still commits and the
  // odd node catches up via state transfer, so the equivocator may keep
  // the lead — what matters (and is asserted above) is that no two honest
  // nodes ever diverge.
}

TEST(ByzantineEndToEndTest, LyingStatusRepliesCannotSuppressReserve) {
  // §IV-C: a faulty destination node reporting a huge reception watermark
  // must not convince the reserve that everything was delivered. The
  // reserve takes the (f_i+1)-th largest reply: one liar is outvoted.
  sim::Simulator simulator(33);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  deployment.node(kCalifornia, 0)->MuteDaemons();      // malicious daemon
  deployment.node(kVirginia, 0)->LieAboutReception();  // accomplice

  deployment.participant(kCalifornia)
      ->Send(kVirginia, ToBytes("must arrive"), 0, nullptr);
  Participant* receiver = deployment.participant(kVirginia);
  Bytes payload;
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return receiver->TryReceive(kCalifornia, &payload); },
      Seconds(60)));
  EXPECT_EQ(ToString(payload), "must arrive");
}

TEST(ByzantineEndToEndTest, DoubleDaemonFailureStillDelivers) {
  // Both the active daemon and the first reserve go mute; the second
  // reserve (nodes 1..f_i+1 hold reserves) must still take over. It waits
  // four stalled polls to the first reserve's two, so the double fault
  // costs two more polls (about 3.3 s in all).
  sim::Simulator simulator(43);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  deployment.node(kCalifornia, 0)->MuteDaemons();
  deployment.node(kCalifornia, 1)->MuteDaemons();

  deployment.participant(kCalifornia)
      ->Send(kVirginia, ToBytes("twice unlucky"), 0, nullptr);
  Participant* receiver = deployment.participant(kVirginia);
  Bytes payload;
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return receiver->TryReceive(kCalifornia, &payload); },
      sim::Milliseconds(4500)));
  EXPECT_EQ(ToString(payload), "twice unlucky");
}

TEST(ByzantineEndToEndTest, LyingAcksCannotDemoteActiveDaemon) {
  // A daemon steps back once f_i+1 destination nodes ack above its send
  // cursor. One receiver that inflates every ack stays below that.
  sim::Simulator simulator(47);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  deployment.node(kVirginia, 0)->LieAboutReception();

  constexpr int kSends = 20;
  for (int i = 0; i < kSends; ++i) {
    deployment.participant(kCalifornia)
        ->Send(kVirginia, ToBytes("m" + std::to_string(i)), 0, nullptr);
  }
  Participant* receiver = deployment.participant(kVirginia);
  int received = 0;
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] {
        Bytes payload;
        while (receiver->TryReceive(kCalifornia, &payload)) ++received;
        return received == kSends;
      },
      Seconds(30)));
  simulator.RunFor(Seconds(2));
  EXPECT_TRUE(deployment.node(kCalifornia, 0)->daemon_active(kVirginia));
  EXPECT_FALSE(deployment.node(kCalifornia, 1)->daemon_active(kVirginia));
  EXPECT_FALSE(deployment.node(kCalifornia, 2)->daemon_active(kVirginia));
}

TEST(ByzantineEndToEndTest, AcksFromAnotherGroupCannotDemoteActiveDaemon) {
  // Only the destination unit's nodes ack its stream. With f_g = 1
  // Virginia also hosts mirror groups, and f_i = 1 allows one faulty node
  // in each group: Virginia unit node 3 and node 0 of Oregon's mirror
  // group there ack position 1,000,000 to every California node every
  // 50 ms. Counted together they would be the f_i+1 acks above its cursor
  // that make the active daemon step back, and every reserve that
  // promotes would step back in turn.
  sim::Simulator simulator(47);
  BlockplaneOptions options;
  options.fg = 1;
  Deployment deployment(&simulator, Topology::Aws4(), options);
  TransmissionAckMsg inflated;
  inflated.src_log_pos = 1'000'000;
  SprayEvery50Ms(&simulator, deployment.network(),
                 {{kVirginia, 3}, MirrorNodeId(kVirginia, kOregon, 0)},
                 UnitOf(kCalifornia), kTransmissionAck, inflated.Encode());

  constexpr int kSends = 20;
  for (int i = 0; i < kSends; ++i) {
    deployment.participant(kCalifornia)
        ->Send(kVirginia, ToBytes("m" + std::to_string(i)), 0, nullptr);
  }
  Participant* receiver = deployment.participant(kVirginia);
  int received = 0;
  // About 0.48 s, as with the unit node's acks alone.
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] {
        Bytes payload;
        while (receiver->TryReceive(kCalifornia, &payload)) ++received;
        return received == kSends;
      },
      Seconds(1)))
      << received << " of " << kSends << " arrived";
  EXPECT_TRUE(deployment.node(kCalifornia, 0)->daemon_active(kVirginia));
  EXPECT_FALSE(deployment.node(kCalifornia, 1)->daemon_active(kVirginia));
  EXPECT_FALSE(deployment.node(kCalifornia, 2)->daemon_active(kVirginia));
}

TEST(ByzantineEndToEndTest, StatusRepliesFromAnotherGroupCannotHoldOffReserves) {
  // The reserve's attested watermark counts only the destination unit's
  // replies. California's active daemon is mute; Virginia unit node 3 and
  // node 0 of Oregon's mirror group there report position 1,000,000 to
  // every California node every 50 ms. Counted together they would make
  // the lie the (f_i+1)-th largest reply, and no reserve would ever see a
  // gap and promote.
  sim::Simulator simulator(47);
  BlockplaneOptions options;
  options.fg = 1;
  Deployment deployment(&simulator, Topology::Aws4(), options);
  deployment.node(kCalifornia, 0)->MuteDaemons();
  RecvStatusReplyMsg inflated;
  inflated.src_site = kCalifornia;
  inflated.last_pos = 1'000'000;
  SprayEvery50Ms(&simulator, deployment.network(),
                 {{kVirginia, 3}, MirrorNodeId(kVirginia, kOregon, 0)},
                 UnitOf(kCalifornia), kRecvStatusReply, inflated.Encode());

  constexpr int kSends = 20;
  for (int i = 0; i < kSends; ++i) {
    deployment.participant(kCalifornia)
        ->Send(kVirginia, ToBytes("m" + std::to_string(i)), 0, nullptr);
  }
  Participant* receiver = deployment.participant(kVirginia);
  int received = 0;
  // About 1.7 s: the rank-1 reserve promotes after two stalled polls.
  EXPECT_TRUE(simulator.RunUntilCondition(
      [&] {
        Bytes payload;
        while (receiver->TryReceive(kCalifornia, &payload)) ++received;
        return received == kSends;
      },
      sim::Milliseconds(4500)))
      << received << " of " << kSends << " arrived";
}

TEST(ByzantineEndToEndTest, RepeatedAcksCannotHoldOffRetransmissions) {
  // Retransmit timers defer only to an ack that credits a flight a sender
  // it did not have (DESIGN.md §13). Virginia node 0, the view-0 leader
  // and the first body receiver, is silent in PBFT and acks position 0 to
  // every California node every 50 ms. If any ack were progress, no
  // retransmission would reach the backups that depose it.
  sim::Simulator simulator(1);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  deployment.node(kVirginia, 0)
      ->SetByzantineMode(pbft::ByzantineMode::kSilent);
  SprayEvery50Ms(&simulator, deployment.network(), {{kVirginia, 0}},
                 UnitOf(kCalifornia), kTransmissionAck,
                 TransmissionAckMsg{}.Encode());

  constexpr int kSends = 5;
  for (int i = 0; i < kSends; ++i) {
    deployment.participant(kCalifornia)
        ->Send(kVirginia, ToBytes("m" + std::to_string(i)), 0, nullptr);
  }
  Participant* receiver = deployment.participant(kVirginia);
  int received = 0;
  // About 0.6 s, as without the acks: a view change deposes node 0.
  EXPECT_TRUE(simulator.RunUntilCondition(
      [&] {
        Bytes payload;
        while (receiver->TryReceive(kCalifornia, &payload)) ++received;
        return received == kSends;
      },
      Seconds(2)))
      << received << " of " << kSends << " arrived";
}

TEST(ByzantineEndToEndTest, ForgedGeoAcksCannotHoldOffReplicateRetries) {
  // Geo replicate retries defer only to a valid ack from a node new to its
  // round. With Virginia down, Oregon alone can prove California's commit,
  // and the first replicate to Oregon is lost. A byzantine Oregon mirror
  // node sends a forged geo ack every 50 ms; the retry must still go out.
  sim::Simulator simulator(1);
  BlockplaneOptions options;
  options.fg = 1;
  Deployment deployment(&simulator, Topology::Aws4(), options);
  deployment.network()->CrashSite(kVirginia);
  deployment.network()->PartitionOneWay(kCalifornia, kOregon);
  simulator.Schedule(sim::Milliseconds(30), [&] {
    deployment.network()->HealOneWay(kCalifornia, kOregon);
  });
  GeoAckMsg forged;
  forged.geo_pos = 1;
  forged.sig.signer = MirrorNodeId(kOregon, kCalifornia, 3);
  SprayEvery50Ms(&simulator, deployment.network(), {forged.sig.signer},
                 {ParticipantNodeId(kCalifornia)}, kGeoAck, forged.Encode());

  bool committed = false;
  deployment.participant(kCalifornia)
      ->LogCommit(ToBytes("proven by Oregon"), 0,
                  [&](uint64_t) { committed = true; });
  // About 0.2 s: one retry after the measured timeout.
  EXPECT_TRUE(
      simulator.RunUntilCondition([&] { return committed; }, Seconds(1)));
}

TEST(ByzantineEndToEndTest, MutedMirrorReceiverCostsOneRetry) {
  // The first replicate of each round goes to one node of each mirror
  // group, the group's sticky receiver (DESIGN.md §5 item 5). Node 0 of
  // Oregon's mirror of California drops every replicate while its replica
  // stays honest, and Virginia is down, so Oregon alone proves each
  // commit. The first commit's retry moves both groups' receivers to node
  // 1; every later commit ships one replicate per site and needs no retry.
  robustness_stats().Reset();
  sim::Simulator simulator(5);
  BlockplaneOptions options;
  options.fg = 1;
  net::NetworkOptions net_options;
  net_options.per_type_wan_counters = true;
  Deployment deployment(&simulator, Topology::Aws4(), options, net_options);
  deployment.network()->CrashSite(kVirginia);
  deployment.mirror_node(kOregon, kCalifornia, 0)->DropGeoReplicates();
  const Bytes payload(64, 'c');
  Participant* primary = deployment.participant(kCalifornia);
  int committed = 0;
  auto commit = [&](sim::SimTime deadline) {
    const int target = committed + 1;
    primary->LogCommit(payload, 0, [&](uint64_t) { ++committed; });
    return simulator.RunUntilCondition([&] { return committed == target; },
                                       simulator.Now() + deadline);
  };
  ASSERT_TRUE(commit(Seconds(1)));
  EXPECT_EQ(robustness_stats().receiver_moves, 2);

  deployment.network()->ResetCounters();
  constexpr int kCommits = 20;
  for (int i = 0; i < kCommits; ++i) {
    // Fault-free, a commit takes 22 ms; a retry would add a timeout of
    // more than one 19 ms round trip.
    ASSERT_TRUE(commit(sim::Milliseconds(30))) << "commit " << i;
  }
  LogRecord record;
  record.payload = payload;
  GeoReplicateMsg replicate;
  replicate.record = record.Encode();
  replicate.proof = {crypto::QuorumCert{}};
  const int64_t one = static_cast<int64_t>(
      replicate.Encode().size() + net_options.header_bytes);
  EXPECT_EQ(deployment.network()->counters().Get(
                "wan_bytes.type_" + std::to_string(kGeoReplicate)),
            2 * kCommits * one);
  EXPECT_EQ(robustness_stats().receiver_moves, 2);
}

TEST(ByzantineEndToEndTest, StatusRepliesFromAnotherGroupCannotStallATakeover) {
  // A takeover learns how far the origin's stream reached from the
  // origin's mirror groups (§V), here and at each peer. Node 3 of Oregon's
  // mirror of California inflates its status replies, and Oregon unit
  // node 1 sends Oregon's participant an inflated reply every 50 ms.
  // Counted together they would make a lie the (f_i+1)-th largest local
  // reply, and the takeover would commit at a position Oregon's mirror
  // group never admits.
  sim::Simulator simulator(5);
  BlockplaneOptions options;
  options.fg = 1;
  Deployment deployment(&simulator, Topology::Aws4(), options);
  int committed = 0;
  for (int i = 0; i < 5; ++i) {
    deployment.participant(kCalifornia)
        ->LogCommit(ToBytes("c" + std::to_string(i)), 0,
                    [&](uint64_t) { ++committed; });
  }
  ASSERT_TRUE(simulator.RunUntilCondition([&] { return committed == 5; },
                                          Seconds(10)));
  deployment.network()->CrashSite(kCalifornia);
  deployment.mirror_node(kOregon, kCalifornia, 3)->LieAboutReception();
  RecvStatusReplyMsg inflated;
  inflated.src_site = kCalifornia;
  inflated.last_pos = 1'000'000;
  SprayEvery50Ms(&simulator, deployment.network(), {{kOregon, 1}},
                 {ParticipantNodeId(kOregon)}, kRecvStatusReply,
                 inflated.Encode());

  Participant* secondary = deployment.participant(kOregon);
  secondary->SetMirrorPeers(kCalifornia,
                            deployment.mirror_sites_of(kCalifornia));
  const sim::SimTime start = simulator.Now();
  uint64_t pos = 0;
  secondary->MirrorCommit(kCalifornia, ToBytes("takeover"), 0,
                          [&](uint64_t p) { pos = p; });
  // About 0.16 s, as with the mirror node's lie alone.
  EXPECT_TRUE(simulator.RunUntilCondition([&] { return pos != 0; },
                                          start + Seconds(1)));
  EXPECT_EQ(pos, 6u);
}

TEST(ByzantineEndToEndTest, TwoMixedByzantineNodesUnderF2) {
  // f_i = 2: one silent node AND one bogus-voter in the same unit, plus a
  // read liar — the 7-node unit absorbs all of it.
  sim::Simulator simulator(45);
  BlockplaneOptions options;
  options.fi = 2;
  Deployment deployment(&simulator, Topology::Aws4(), options);
  deployment.node(kCalifornia, 5)
      ->SetByzantineMode(pbft::ByzantineMode::kSilent);
  deployment.node(kCalifornia, 6)
      ->SetByzantineMode(pbft::ByzantineMode::kBogusVotes);
  deployment.node(kCalifornia, 6)->RefuseAttestations();
  deployment.node(kCalifornia, 6)->LieOnReads(ReadLie::kForgedBody);

  std::map<uint64_t, std::string> committed;
  for (int i = 0; i < 5; ++i) {
    const std::string value = "v" + std::to_string(i);
    deployment.participant(kCalifornia)
        ->LogCommit(ToBytes(value), 0,
                    [&, value](uint64_t pos) { committed[pos] = value; });
  }
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return committed.size() == 5; }, Seconds(120)));
  // Quorum reads: three body senders, rotating over 3f_i+1 reads, so the
  // liar and the silent node each ship a body and a digest in turn.
  const auto& [pos, value] = *committed.rbegin();
  for (int i = 0; i < 7; ++i) {
    bool read_done = false;
    LogRecord result;
    deployment.participant(kCalifornia)
        ->Read(pos, ReadStrategy::kReadQuorum,
               [&](Status s, LogRecord record) {
                 EXPECT_TRUE(s.ok()) << s;
                 result = std::move(record);
                 read_done = true;
               });
    ASSERT_TRUE(simulator.RunUntilCondition(
        [&] { return read_done; }, simulator.Now() + Seconds(1)));
    EXPECT_EQ(ToString(result.payload), value) << "read " << i;
  }
  // Cross-site traffic also survives (attestations need f_i+1 = 3 of 7).
  deployment.participant(kCalifornia)
      ->Send(kOregon, ToBytes("from the f2 unit"), 0, nullptr);
  Participant* receiver = deployment.participant(kOregon);
  Bytes payload;
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return receiver->TryReceive(kCalifornia, &payload); },
      Seconds(120)));
  // Honest nodes agree.
  simulator.RunFor(Seconds(2));
  const auto& reference = deployment.node(kCalifornia, 0)->log();
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ(deployment.node(kCalifornia, i)->log().size(),
              reference.size());
  }
}

TEST(ByzantineEndToEndTest, OutOfOrderTransmissionIsRejected) {
  // Lemma 2's ordering half: a transmission whose chain pointer skips an
  // earlier message is refused, so messages cannot be maliciously dropped
  // or reordered by a daemon.
  sim::Simulator simulator(35);
  Deployment deployment(&simulator, Topology::Aws4(), {});

  TransmissionRecord skipping;
  skipping.src_site = kCalifornia;
  skipping.dest_site = kOregon;
  skipping.src_log_pos = 7;       // claims to be the 7th record...
  skipping.prev_src_log_pos = 5;  // ...chained after an undelivered 5th
  skipping.payload = ToBytes("out of order");
  // A genuine f_i+1 California cert over the received form isolates the
  // ordering check: only the chain pointer can refuse this record.
  const Bytes canonical =
      AttestCanonical(AttestPurpose::kTransmission, kCalifornia,
                      skipping.src_log_pos, skipping.ContentDigest());
  std::vector<crypto::Signature> sigs;
  for (int i = 0; i <= deployment.options().fi; ++i) {
    sigs.push_back(
        deployment.keys()->RegisterNode({kCalifornia, i})->Sign(canonical));
  }
  skipping.proof = {crypto::BuildQuorumCert(kCalifornia, sigs)};
  net::Message msg;
  msg.src = {kCalifornia, 0};
  msg.dst = {kOregon, 0};
  msg.type = kTransmission;
  msg.set_body(skipping.Encode());
  deployment.network()->Send(msg);

  simulator.RunFor(Seconds(5));
  Bytes payload;
  EXPECT_FALSE(
      deployment.participant(kOregon)->TryReceive(kCalifornia, &payload));
  EXPECT_EQ(deployment.node(kOregon, 0)->log_size(), 0u);
}

TEST(ByzantineEndToEndTest, ForgedGeoAcksCannotFakeGlobalCommit) {
  // §V: with both mirrors down, a commit cannot complete — injected fake
  // geo-acks (wrong signatures) must not count as mirror proofs.
  sim::Simulator simulator(37);
  BlockplaneOptions options;
  options.fg = 1;
  Deployment deployment(&simulator, Topology::Aws4(), options);
  deployment.network()->CrashSite(kOregon);
  deployment.network()->CrashSite(kVirginia);  // both of California's mirrors

  bool committed = false;
  deployment.participant(kCalifornia)
      ->LogCommit(ToBytes("doomed"), 0, [&](uint64_t) { committed = true; });

  // An attacker sprays forged acks at the participant.
  simulator.Schedule(sim::Milliseconds(50), [&] {
    for (int i = 0; i < 4; ++i) {
      GeoAckMsg forged;
      forged.geo_pos = 1;
      forged.sig.signer = MirrorNodeId(kOregon, kCalifornia, i);
      net::Message msg;
      msg.src = forged.sig.signer;
      msg.dst = ParticipantNodeId(kCalifornia);
      msg.type = kGeoAck;
      msg.set_body(forged.Encode());
      // Bypass the site crash by sending from a live node id.
      msg.src = net::NodeId{kIreland, 0};
      deployment.network()->Send(msg);
    }
  });
  EXPECT_FALSE(
      simulator.RunUntilCondition([&] { return committed; }, Seconds(5)));
}

TEST(ByzantineEndToEndTest, UnprovenReplicateCannotPinMirrorBackfill) {
  // Only a proven replicate may move a mirror leader's backfill target
  // (DESIGN.md §10). Believed, one unproven replicate at a far-future
  // position would make the leader re-fetch from every peer mirror after
  // each apply, for as long as the stream runs.
  sim::Simulator simulator(5);
  BlockplaneOptions options;
  options.fg = 1;
  net::NetworkOptions net_options;
  net_options.per_type_wan_counters = true;
  Deployment deployment(&simulator, Topology::Aws4(), options, net_options);
  robustness_stats().Reset();
  BlockplaneNode* leader = deployment.mirror_node(
      deployment.mirror_sites_of(kCalifornia)[0], kCalifornia, 0);
  ASSERT_EQ(leader->replica()->leader(), leader->self());

  // A byzantine Ireland node forges a replicate of California's stream at
  // geo position 1,000,000: a well-formed record under a cert nobody signed.
  LogRecord inner;
  inner.type = RecordType::kLogCommit;
  inner.payload = ToBytes("never attested");
  inner.geo_pos = 1000000;
  GeoReplicateMsg forged;
  forged.acting_site = kCalifornia;
  forged.geo_pos = inner.geo_pos;
  forged.record = inner.Encode();
  crypto::QuorumCert cert;
  cert.site = kCalifornia;
  cert.signer_bits = 0b11;
  cert.agg[0] = 0x5a;
  forged.proof = {cert};
  net::Message msg;
  msg.src = {kIreland, 0};
  msg.dst = leader->self();
  msg.type = kGeoReplicate;
  msg.set_body(forged.Encode());
  deployment.network()->Send(msg);

  Participant* primary = deployment.participant(kCalifornia);
  for (int i = 0; i < 100; ++i) {
    bool committed = false;
    primary->LogCommit(ToBytes("op " + std::to_string(i)), 0,
                       [&](uint64_t) { committed = true; });
    ASSERT_TRUE(simulator.RunUntilCondition(
        [&] { return committed; }, simulator.Now() + Seconds(30)));
  }
  EXPECT_EQ(robustness_stats().mirror_gap_fetches, 0);
  EXPECT_EQ(deployment.network()->counters().Get(
                "wan_bytes.type_" + std::to_string(kMirrorFetch)),
            0);
}

TEST(ByzantineEndToEndTest, ForgedMirrorBasesAreRefused) {
  // A mirror group behind a peer group's horizon installs that group's
  // certified base (DESIGN.md §10, retention). A byzantine peer mirror node
  // answering the lagging leader's fetch must not move its mirror high with
  // a forged one; admission refuses each of them (every replica's commit
  // vote runs the same check), while an honest base still lets the group
  // catch up.
  sim::Simulator simulator(17);
  BlockplaneOptions options;
  options.fg = 1;
  options.checkpoint_interval = 4;
  Deployment deployment(&simulator, Topology::Aws4(), options);
  robustness_stats().Reset();
  deployment.network()->CrashSite(kVirginia);
  Participant* primary = deployment.participant(kCalifornia);
  auto commit = [&](int count) {
    for (int i = 0; i < count; ++i) {
      bool committed = false;
      primary->LogCommit(ToBytes("op"), 0, [&](uint64_t) { committed = true; });
      ASSERT_TRUE(simulator.RunUntilCondition(
          [&] { return committed; }, simulator.Now() + Seconds(30)));
    }
  };
  // Oregon's group mirrors every entry and moves its horizon; Virginia's
  // group is down.
  BlockplaneNode* peer = deployment.mirror_node(kOregon, kCalifornia, 0);
  auto newest_base = [&](MirrorBase* base) {
    ASSERT_TRUE(peer->replica()->NewestBase(&base->checkpoint, &base->state));
  };
  MirrorBase older;
  commit(30);
  newest_base(&older);
  MirrorBase honest;
  commit(10);
  newest_base(&honest);
  deployment.network()->RecoverSite(kVirginia);

  BlockplaneNode* leader = deployment.mirror_node(kVirginia, kCalifornia, 0);
  ASSERT_EQ(leader->replica()->leader(), leader->self());
  ASSERT_EQ(leader->mirror_high(), 0u);
  auto record_of = [](net::SiteId host, const MirrorBase& base) {
    DerivedState state;
    EXPECT_TRUE(DerivedState::Decode(base.state.app, &state).ok());
    LogRecord record;
    record.type = RecordType::kMirrorBase;
    record.payload = base.Encode();
    record.src_site = host;
    record.geo_pos = state.mirror_high;
    return record;
  };
  // Delivers `record` as a peer mirror node's fetch reply.
  auto deliver = [&](const LogRecord& record) {
    MirrorEntryMsg reply;
    reply.origin_site = kCalifornia;
    reply.record = record.Encode();
    net::Message msg;
    msg.src = MirrorNodeId(kOregon, kCalifornia, 1);
    msg.dst = leader->self();
    msg.type = kMirrorEntry;
    msg.set_body(reply.Encode());
    deployment.network()->Send(msg);
    simulator.RunFor(Seconds(1));
  };
  // The same state under 2f_i+1 checkpoint votes of `signers`.
  auto signed_by = [&](const std::vector<net::NodeId>& signers) {
    MirrorBase base = honest;
    const pbft::CheckpointMsg vote{base.checkpoint.seq,
                                   base.checkpoint.state_digest, {}};
    base.checkpoint.cert.clear();
    for (const net::NodeId& id : signers) {
      base.checkpoint.cert.push_back(
          deployment.keys()->RegisterNode(id)->Sign(vote.CanonicalBody()));
    }
    return base;
  };
  auto group = [](net::SiteId host, net::SiteId origin) {
    std::vector<net::NodeId> ids;
    for (int i = 0; i < 3; ++i) ids.push_back(MirrorNodeId(host, origin, i));
    return ids;
  };
  const std::vector<net::NodeId> origin_unit = {
      {kCalifornia, 0}, {kCalifornia, 1}, {kCalifornia, 2}};

  std::vector<std::pair<std::string, LogRecord>> forged;
  {
    // The state changed after signing: a higher mirror high.
    MirrorBase base = honest;
    DerivedState state;
    ASSERT_TRUE(DerivedState::Decode(base.state.app, &state).ok());
    state.mirror_high += 10;
    base.state.app = state.Encode();
    forged.emplace_back("tampered state", record_of(kOregon, base));
  }
  forged.emplace_back("own group",
                      record_of(kVirginia, signed_by(group(kVirginia,
                                                           kCalifornia))));
  forged.emplace_back("own group's votes under a peer's name",
                      record_of(kOregon, signed_by(group(kVirginia,
                                                         kCalifornia))));
  forged.emplace_back("origin unit",
                      record_of(kCalifornia, signed_by(origin_unit)));
  forged.emplace_back("origin unit's votes under a peer's name",
                      record_of(kOregon, signed_by(origin_unit)));
  {
    // Two distinct valid votes, the first one repeated.
    MirrorBase base = honest;
    ASSERT_GE(base.checkpoint.cert.size(), 3u);
    base.checkpoint.cert.resize(2);
    base.checkpoint.cert.push_back(base.checkpoint.cert[0]);
    forged.emplace_back("2f votes", record_of(kOregon, base));
  }
  // Ireland hosts no mirror of California.
  forged.emplace_back("non-host",
                      record_of(kIreland, signed_by(group(kIreland,
                                                          kCalifornia))));
  for (const auto& [label, record] : forged) {
    SCOPED_TRACE(label);
    deliver(record);
    EXPECT_EQ(leader->mirror_high(), 0u);
    EXPECT_EQ(robustness_stats().mirror_bases_installed, 0);
  }

  // The honest peer's base installs; one at or below the high does not.
  const LogRecord base = record_of(kOregon, honest);
  deliver(base);
  ASSERT_EQ(leader->mirror_high(), base.geo_pos);
  EXPECT_EQ(leader->mirror_horizon(), base.geo_pos);
  EXPECT_EQ(robustness_stats().mirror_bases_installed, 1);
  for (const MirrorBase& stale : {honest, older}) {
    deliver(record_of(kOregon, stale));
    EXPECT_EQ(leader->mirror_high(), base.geo_pos);
    EXPECT_EQ(robustness_stats().mirror_bases_installed, 1);
  }
  // The next replicate is ahead of the base: the group fetches the entries
  // above it and reaches the stream's high.
  commit(1);
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] {
        for (int i = 0; i < 4; ++i) {
          if (deployment.mirror_node(kVirginia, kCalifornia, i)
                  ->mirror_high() != peer->mirror_high()) {
            return false;
          }
        }
        return true;
      },
      simulator.Now() + Seconds(30)));
  EXPECT_EQ(peer->mirror_high(), 41u);
  EXPECT_EQ(robustness_stats().mirror_bases_installed, 1);
}

TEST(ByzantineEndToEndTest, ReplayedWireCannotDoubleCredit) {
  // A byzantine daemon replaying a committed wire must not mint money.
  sim::Simulator simulator(39);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  protocols::BankLedger bank(&deployment);

  bool funded = false;
  bank.Deposit(kCalifornia, "alice", 100, [&](Status) { funded = true; });
  ASSERT_TRUE(
      simulator.RunUntilCondition([&] { return funded; }, Seconds(30)));
  bank.Wire(kCalifornia, "alice", kIreland, "seamus", 60, nullptr);
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return bank.Balance(kIreland, "seamus") == 60; }, Seconds(120)));

  // Replay the wire's committed received-record content as a fresh
  // transmission at every Ireland node.
  const auto& log = deployment.node(kIreland, 0)->log();
  const LogRecord* wire = nullptr;
  for (const auto& [pos, record] : log) {
    if (record.type == RecordType::kReceived) wire = &record;
  }
  ASSERT_NE(wire, nullptr);
  TransmissionRecord replay;
  replay.src_site = wire->src_site;
  replay.dest_site = kIreland;
  replay.src_log_pos = wire->src_log_pos;
  replay.prev_src_log_pos = wire->prev_src_log_pos;
  replay.routine_id = wire->routine_id;
  replay.payload = wire->payload;
  replay.proof = wire->proof;  // the genuine cert, replayed
  for (int i = 0; i < 4; ++i) {
    net::Message msg;
    msg.src = {kCalifornia, 3};
    msg.dst = {kIreland, i};
    msg.type = kTransmission;
    msg.set_body(replay.Encode());
    deployment.network()->Send(msg);
  }
  simulator.RunFor(Seconds(5));
  EXPECT_EQ(bank.Balance(kIreland, "seamus"), 60);  // not 120
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(bank.NodeBalance(kIreland, i, "seamus"), 60);
  }
}

TEST(ByzantineEndToEndTest, ForgedTransmissionRejectedAfterCachesArePrimed) {
  // The verify-once caches memoize *successful* verifications only. After
  // genuine traffic has filled them hot, a forged transmission that moves
  // the genuine payload and its genuine cert to the next chain position
  // must still take — and fail — the full check: the cert's signers
  // attested the old position, and the canonical bytes bind it, so no
  // cache entry can vouch for a record at a position it never certified.
  sim::Simulator simulator(43);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  protocols::BankLedger bank(&deployment);

  qc_stats().Reset();
  hotpath_stats().Reset();
  bool funded = false;
  bank.Deposit(kCalifornia, "alice", 100, [&](Status) { funded = true; });
  ASSERT_TRUE(
      simulator.RunUntilCondition([&] { return funded; }, Seconds(30)));
  bank.Wire(kCalifornia, "alice", kIreland, "seamus", 40, nullptr);
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return bank.Balance(kIreland, "seamus") == 40; }, Seconds(120)));
  // Both verify-once caches are demonstrably hot.
  ASSERT_GT(hotpath_stats().sig_cache_hits, 0);
  ASSERT_GT(qc_stats().cache_hits, 0);

  // Forge the "next" transmission in the chain: correct chain pointers,
  // the genuine (cached-as-valid) cert and the genuine payload — but a
  // position its signers never attested.
  const auto& log = deployment.node(kIreland, 0)->log();
  const LogRecord* wire = nullptr;
  for (const auto& [pos, record] : log) {
    if (record.type == RecordType::kReceived) wire = &record;
  }
  ASSERT_NE(wire, nullptr);
  ASSERT_FALSE(wire->proof.empty());
  TransmissionRecord forged;
  forged.src_site = kCalifornia;
  forged.dest_site = kIreland;
  forged.src_log_pos = wire->src_log_pos + 1;
  forged.prev_src_log_pos = wire->src_log_pos;
  forged.routine_id = wire->routine_id;
  forged.payload = wire->payload;
  forged.proof = wire->proof;  // genuine cert over the old position
  const int64_t cold_before = qc_stats().certs_verified;
  for (int i = 0; i < 4; ++i) {
    net::Message msg;
    msg.src = {kCalifornia, 3};
    msg.dst = {kIreland, i};
    msg.type = kTransmission;
    msg.set_body(forged.Encode());
    deployment.network()->Send(msg);
  }
  simulator.RunFor(Seconds(5));
  // The forgery missed the cache and ran the full recomputation.
  EXPECT_GT(qc_stats().certs_verified, cold_before);
  EXPECT_EQ(bank.Balance(kIreland, "seamus"), 40);  // not 80
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(bank.NodeBalance(kIreland, i, "seamus"), 40);
  }
  qc_stats().Reset();
  hotpath_stats().Reset();
}

TEST(ByzantineEndToEndTest, ForgedCertCannotVouchForNewContent) {
  // Transmissions carry one compact quorum cert (DESIGN.md §14), and the
  // KeyStore memoizes *successfully verified* (cert, message) pairs and
  // (signer, mac, message) triples. After genuine traffic has primed both
  // caches, a byzantine daemon that replays a genuine certificate under
  // different content must take — and fail — the full aggregate
  // recomputation: the cache key binds the canonical bytes, so no cached
  // entry can vouch for bytes it never certified.
  sim::Simulator simulator(47);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  protocols::BankLedger bank(&deployment);

  qc_stats().Reset();
  hotpath_stats().Reset();
  bool funded = false;
  bank.Deposit(kCalifornia, "alice", 100, [&](Status) { funded = true; });
  ASSERT_TRUE(
      simulator.RunUntilCondition([&] { return funded; }, Seconds(30)));
  bank.Wire(kCalifornia, "alice", kIreland, "seamus", 40, nullptr);
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return bank.Balance(kIreland, "seamus") == 40; }, Seconds(120)));
  // The wire rode the cert path, and both verify-once caches are
  // demonstrably hot.
  ASSERT_GT(qc_stats().certs_built, 0);
  ASSERT_GT(qc_stats().cache_hits, 0);
  ASSERT_GT(hotpath_stats().sig_cache_hits, 0);

  // Forge the "next" transmission: correct chain pointers, the genuine
  // (cached-as-valid) certificate — but content its signers never saw.
  // The content is a valid bank wire credit (the genuine op re-encoded
  // with amount 1000), so the bank's own verifier accepts it and only the
  // cert check stands between the forgery and the balance.
  const auto& log = deployment.node(kIreland, 0)->log();
  const LogRecord* wire = nullptr;
  for (const auto& [pos, record] : log) {
    if (record.type == RecordType::kReceived) wire = &record;
  }
  ASSERT_NE(wire, nullptr);
  ASSERT_FALSE(wire->proof.empty());
  uint8_t kind = 0;
  std::string from;
  std::string to;
  int64_t amount = 0;
  Decoder dec(wire->payload);
  ASSERT_TRUE(dec.GetU8(&kind).ok());
  ASSERT_TRUE(dec.GetString(&from).ok());
  ASSERT_TRUE(dec.GetString(&to).ok());
  ASSERT_TRUE(dec.GetI64(&amount).ok());
  ASSERT_TRUE(dec.AtEnd());
  ASSERT_EQ(amount, 40);
  Encoder credit;
  credit.PutU8(kind);
  credit.PutString(from);
  credit.PutString(to);
  credit.PutI64(1000);
  TransmissionRecord forged;
  forged.src_site = kCalifornia;
  forged.dest_site = kIreland;
  forged.src_log_pos = wire->src_log_pos + 1;
  forged.prev_src_log_pos = wire->src_log_pos;
  forged.routine_id = wire->routine_id;
  forged.payload = credit.Take();
  forged.proof = wire->proof;  // genuine cert over other bytes
  for (int i = 0; i < 4; ++i) {
    net::Message msg;
    msg.src = {kCalifornia, 3};
    msg.dst = {kIreland, i};
    msg.type = kTransmission;
    msg.set_body(forged.Encode());
    deployment.network()->Send(msg);
  }
  simulator.RunFor(Seconds(5));
  EXPECT_EQ(bank.Balance(kIreland, "seamus"), 40);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(bank.NodeBalance(kIreland, i, "seamus"), 40);
  }
  qc_stats().Reset();
  hotpath_stats().Reset();
}

TEST(ByzantineEndToEndTest, MisboundAttestationCannotCompleteAFlight) {
  // A unit peer's attestation is verified against the canonical bytes of
  // the flight it names. A genuine MAC by that peer over a different
  // position must not count toward the f_i+1 proof; the honest attestation
  // that follows completes the flight, and the record arrives once.
  sim::Simulator simulator(49);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  for (int i = 0; i < 4; ++i) {
    deployment.node(kCalifornia, i)->RefuseAttestations();
  }
  deployment.participant(kCalifornia)
      ->Send(kOregon, ToBytes("attested once"), 0, nullptr);

  // Node 0 runs the active daemon; wait for the communication record.
  BlockplaneNode* daemon_host = deployment.node(kCalifornia, 0);
  uint64_t pos = 0;
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] {
        for (const auto& [p, record] : daemon_host->log()) {
          if (record.type == RecordType::kCommunication) pos = p;
        }
        return pos != 0;
      },
      Seconds(30)));
  simulator.RunFor(Seconds(1));
  Participant* receiver = deployment.participant(kOregon);
  Bytes payload;
  ASSERT_FALSE(receiver->TryReceive(kCalifornia, &payload));

  // The canonical a correct peer signs for this record (first record to
  // Oregon, so the chain pointer is 0).
  LogRecord as_received = daemon_host->log().at(pos);
  as_received.type = RecordType::kReceived;
  as_received.src_site = kCalifornia;
  as_received.src_log_pos = pos;
  as_received.prev_src_log_pos = 0;
  const crypto::Digest digest = as_received.ContentDigest();
  const net::NodeId peer{kCalifornia, 1};
  auto peer_signer = deployment.keys()->RegisterNode(peer);
  auto respond = [&](uint64_t signed_pos) {
    AttestResponseMsg response;
    response.purpose = AttestPurpose::kTransmission;
    response.pos = pos;
    response.sig = peer_signer->Sign(AttestCanonical(
        AttestPurpose::kTransmission, kCalifornia, signed_pos, digest));
    net::Message msg;
    msg.src = peer;
    msg.dst = daemon_host->self();
    msg.type = kAttestResponse;
    msg.set_body(response.Encode());
    deployment.network()->Send(msg);
  };

  respond(pos + 1);  // the peer's real key, the wrong position
  simulator.RunFor(Seconds(1));
  EXPECT_FALSE(receiver->TryReceive(kCalifornia, &payload));

  respond(pos);
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return receiver->TryReceive(kCalifornia, &payload); },
      Seconds(30)));
  EXPECT_EQ(ToString(payload), "attested once");
  simulator.RunFor(Seconds(5));
  EXPECT_FALSE(receiver->TryReceive(kCalifornia, &payload));
  int received = 0;
  for (const auto& [p, record] : deployment.node(kOregon, 0)->log()) {
    if (record.type == RecordType::kReceived) ++received;
  }
  EXPECT_EQ(received, 1);
}

TEST(ByzantineEndToEndTest, QuorumReadSurvivesALyingReplica) {
  // §VI-A: read-1 trusts the answering node; the 2f+1-identical-responses
  // strategy "overcomes the scenario where a malicious node returns"
  // wrong data.
  sim::Simulator simulator(41);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  bool committed = false;
  uint64_t pos = 0;
  deployment.participant(kCalifornia)
      ->LogCommit(ToBytes("the truth"), 0, [&](uint64_t p) {
        pos = p;
        committed = true;
      });
  ASSERT_TRUE(
      simulator.RunUntilCondition([&] { return committed; }, Seconds(30)));
  simulator.RunFor(Seconds(1));

  // Node 0 — the one read-1 happens to consult — starts lying with a
  // forged entry under its own digest.
  deployment.node(kCalifornia, 0)->LieOnReads(ReadLie::kForgedEntry);

  bool read_done = false;
  LogRecord result;
  deployment.participant(kCalifornia)
      ->Read(pos, ReadStrategy::kReadOne, [&](Status s, LogRecord record) {
        result = std::move(record);
        read_done = true;
      });
  ASSERT_TRUE(
      simulator.RunUntilCondition([&] { return read_done; }, Seconds(30)));
  // read-1 is fooled (this is its documented trust model)...
  EXPECT_EQ(ToString(result.payload), "forged read result");

  // ...while the quorum strategy returns the real entry: the liar can
  // never assemble 2f+1 identical forged answers.
  read_done = false;
  deployment.participant(kCalifornia)
      ->Read(pos, ReadStrategy::kReadQuorum,
             [&](Status s, LogRecord record) {
               ASSERT_TRUE(s.ok());
               result = std::move(record);
               read_done = true;
             });
  ASSERT_TRUE(
      simulator.RunUntilCondition([&] { return read_done; }, Seconds(30)));
  EXPECT_EQ(ToString(result.payload), "the truth");
}

TEST(ByzantineEndToEndTest, QuorumReadsSurviveAFaultyNodeInEveryRole) {
  // A quorum read asks f_i+1 nodes, rotating with the read id, for the
  // entry and the other 2f_i for its digest (DESIGN.md §5 item 7). Over
  // 3f_i+1 consecutive reads one faulty node holds every role, and each
  // read still returns the true entry in one round: a forged body fails
  // its hash, a forged digest finds no quorum, a crashed node is not
  // needed.
  enum class Fault { kForgedBody, kForgedEntry, kCrash };
  for (Fault fault : {Fault::kForgedBody, Fault::kForgedEntry, Fault::kCrash}) {
    SCOPED_TRACE("fault " + std::to_string(static_cast<int>(fault)));
    sim::Simulator simulator(43);
    Deployment deployment(&simulator, Topology::Aws4(), {});
    Participant* participant = deployment.participant(kCalifornia);
    uint64_t pos = 0;
    participant->LogCommit(ToBytes("the truth"), 0,
                           [&](uint64_t p) { pos = p; });
    ASSERT_TRUE(
        simulator.RunUntilCondition([&] { return pos != 0; }, Seconds(30)));
    simulator.RunFor(Seconds(1));
    switch (fault) {
      case Fault::kForgedBody:
        deployment.node(kCalifornia, 2)->LieOnReads(ReadLie::kForgedBody);
        break;
      case Fault::kForgedEntry:
        deployment.node(kCalifornia, 2)->LieOnReads(ReadLie::kForgedEntry);
        break;
      case Fault::kCrash:
        deployment.network()->Crash({kCalifornia, 2});
        break;
    }
    for (int i = 0; i < 4; ++i) {
      bool read_done = false;
      LogRecord result;
      participant->Read(pos, ReadStrategy::kReadQuorum,
                        [&](Status s, LogRecord record) {
                          EXPECT_TRUE(s.ok()) << s;
                          result = std::move(record);
                          read_done = true;
                        });
      // A LAN round trip; a quorum read has no timer to wait for.
      ASSERT_TRUE(simulator.RunUntilCondition(
          [&] { return read_done; },
          simulator.Now() + sim::Milliseconds(5)))
          << "read " << i;
      EXPECT_EQ(ToString(result.payload), "the truth") << "read " << i;
    }
  }
}

TEST(ByzantineEndToEndTest, QuorumReadReturnsOnlyAQuorumDigestsBody) {
  // The unit is crashed and its replies are scripted, so their order is
  // fixed. In the first read 2f_i+1 replies agree on the true digest but
  // their one body is forged: the read waits for a body that hashes to the
  // digest. In the second a forged entry comes first under its own digest:
  // one vote is no quorum.
  sim::Simulator simulator(47);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  Participant* participant = deployment.participant(kCalifornia);
  uint64_t pos = 0;
  participant->LogCommit(ToBytes("the truth"), 0, [&](uint64_t p) { pos = p; });
  ASSERT_TRUE(
      simulator.RunUntilCondition([&] { return pos != 0; }, Seconds(30)));
  simulator.RunFor(Seconds(1));
  const LogEntry& held = deployment.node(kCalifornia, 0)->log().at(pos);
  LogRecord forged = held;
  forged.payload = ToBytes("forged read result");
  const Bytes true_body = held.Encode();
  const Bytes forged_body = forged.Encode();
  const crypto::Digest digest = held.value_digest;
  ASSERT_EQ(crypto::Sha256Digest(true_body), digest);
  for (int i = 0; i < 4; ++i) deployment.network()->Crash({kCalifornia, i});

  // Read ids count from 1.
  for (uint64_t read_id : {1, 2}) {
    SCOPED_TRACE("read " + std::to_string(read_id));
    bool read_done = false;
    LogRecord result;
    participant->Read(pos, ReadStrategy::kReadQuorum,
                      [&](Status s, LogRecord record) {
                        EXPECT_TRUE(s.ok()) << s;
                        result = std::move(record);
                        read_done = true;
                      });
    auto reply_from = [&](int node, const crypto::Digest& claimed,
                          const Bytes& body) {
      ReadReplyMsg reply;
      reply.read_id = read_id;
      reply.pos = pos;
      reply.outcome = ReadOutcome::kFound;
      reply.digest = claimed;
      reply.record = body;
      net::Message msg;
      msg.src = {kCalifornia, node};
      msg.dst = ParticipantNodeId(kCalifornia);
      msg.type = kReadReply;
      msg.set_body(reply.Encode());
      participant->HandleMessage(msg);
    };
    if (read_id == 1) {
      reply_from(1, digest, forged_body);
    } else {
      reply_from(1, crypto::Sha256Digest(forged_body), forged_body);
    }
    reply_from(0, digest, {});
    reply_from(3, digest, {});
    EXPECT_FALSE(read_done);
    reply_from(2, digest, true_body);
    ASSERT_TRUE(read_done);
    EXPECT_EQ(ToString(result.payload), "the truth");
  }
}

// Regression: the client used to count f+1 replies as "matching" when they
// merely agreed on the sequence number. f byzantine replicas plus one
// honest straggler could then complete a request whose outcome the honest
// quorum never produced. Replies now vote on (seq, result_digest) — the
// replica's post-execution state digest — so divergent states never reach
// f+1 together.
TEST(ByzantineEndToEndTest, DivergentRepliesDoNotComplete) {
  sim::Simulator simulator(7);
  net::Network network(&simulator, Topology::Aws4(), {});
  pbft::PbftConfig config;
  config.f = 1;
  for (int i = 0; i < 4; ++i) config.nodes.push_back(net::NodeId{0, i});
  pbft::PbftClient client(&network, config, net::NodeId{0, 1001});

  int completions = 0;
  uint64_t completed_seq = 0;
  client.Submit(ToBytes("op"), [&](uint64_t seq) {
    completed_seq = seq;
    ++completions;
  });

  auto reply_from = [&](int replica, const crypto::Digest& digest) {
    pbft::ReplyMsg reply;
    reply.view = 0;
    reply.req_id = 1;
    reply.seq = 1;
    reply.replica = replica;
    reply.result_digest = digest;
    net::Message msg;
    msg.src = config.nodes[replica];
    msg.dst = client.self();
    msg.type = pbft::kReply;
    msg.set_body(reply.Encode());
    client.HandleMessage(msg);
  };

  crypto::Digest honest{};
  honest.fill(0xaa);
  crypto::Digest lying{};
  lying.fill(0xbb);

  // f+1 = 2 replies that agree on seq but diverge on post-execution state:
  // the pre-fix client accepted here.
  reply_from(0, honest);
  reply_from(1, lying);
  EXPECT_EQ(completions, 0) << "divergent replies must not complete";
  EXPECT_EQ(client.completed(), 0u);

  // A second reply matching the honest digest is a genuine f+1 match.
  reply_from(2, honest);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(completed_seq, 1u);
  EXPECT_EQ(client.completed(), 1u);
}

// --- randomized crash/recover soak ---------------------------------------------

class FaultSoakTest : public ::testing::TestWithParam<int> {};

TEST_P(FaultSoakTest, CountersConvergeUnderChurn) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  sim::Simulator simulator(seed);
  Deployment deployment(&simulator, Topology::Aws4(), {});
  protocols::CounterProtocol counter(&deployment);
  sim::Rng rng(seed * 7919);

  // Background churn: every 150 ms, crash or recover a random node, never
  // exceeding f_i = 1 down per site.
  std::map<net::SiteId, int> down;
  std::set<net::NodeId> crashed;
  std::function<void()> churn = [&]() {
    net::SiteId site = static_cast<net::SiteId>(rng.NextBelow(4));
    int index = static_cast<int>(rng.NextBelow(4));
    net::NodeId node{site, index};
    if (crashed.count(node) > 0) {
      deployment.network()->Recover(node);
      deployment.node(site, index)->Recover();
      crashed.erase(node);
      --down[site];
    } else if (down[site] < 1) {
      deployment.network()->Crash(node);
      crashed.insert(node);
      ++down[site];
    }
    simulator.Schedule(sim::Milliseconds(150), churn);
  };
  simulator.Schedule(sim::Milliseconds(100), churn);

  constexpr int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    counter.UserRequest(kCalifornia, kOregon, "trusted-soak");
  }
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return counter.counter(kOregon) == kRequests; }, Seconds(300)))
      << "only " << counter.counter(kOregon) << " arrived";
  simulator.RunFor(Seconds(5));
  EXPECT_EQ(counter.counter(kOregon), kRequests);  // exactly once each
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSoakTest, ::testing::Values(1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "seed" + std::to_string(pinfo.param);
                         });

}  // namespace
}  // namespace blockplane::core
