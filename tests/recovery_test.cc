// Recovery tests (§VI-B): a recovered replica catches up through one path,
// pages of executed entries proven by a stable checkpoint's digest chain or
// by their own commit certificates, and adopts the view its peers moved to.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "core/wire.h"
#include "crypto/sha256.h"
#include "net/topology.h"
#include "pbft/message.h"
#include "sim/simulator.h"

namespace blockplane::core {
namespace {

using net::Topology;
using sim::Seconds;

class RecoveryHarness {
 public:
  explicit RecoveryHarness(uint64_t checkpoint_interval, uint64_t seed = 51)
      : simulator_(seed) {
    BlockplaneOptions options;
    options.checkpoint_interval = checkpoint_interval;
    deployment_ =
        std::make_unique<Deployment>(&simulator_, Topology::SingleSite(),
                                     options);
  }

  void CommitMany(int count) {
    int completed = 0;
    for (int i = 0; i < count; ++i) {
      deployment_->participant(0)->LogCommit(
          ToBytes("entry-" + std::to_string(next_entry_++)), 0,
          [&](uint64_t) { ++completed; });
    }
    ASSERT_TRUE(simulator_.RunUntilCondition(
        [&] { return completed == count; }, Seconds(120)));
  }

  sim::Simulator simulator_;
  std::unique_ptr<Deployment> deployment_;
  int next_entry_ = 0;
};

/// Collects every message delivered to the node whose slot it takes.
struct CapturingHost : net::Host {
  void HandleMessage(const net::Message& msg) override {
    received.push_back(msg);
  }
  std::vector<net::Message> received;
};

TEST(RecoveryTest, ShortOutageRecoversViaCatchUp) {
  CapturingHost asker;  // declared first, so it outlives the network
  RecoveryHarness harness(/*checkpoint_interval=*/128);
  net::NodeId down{0, 3};
  harness.deployment_->network()->Crash(down);
  harness.CommitMany(10);
  harness.deployment_->network()->Recover(down);
  harness.deployment_->node(0, 3)->Recover();
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return harness.deployment_->node(0, 3)->log_size() == 10; },
      Seconds(60)));

  // The recovered replica filled its instances from the peers' committed
  // entries and kept each entry's certificate, so a replica lagging behind
  // it can catch up from it in turn. Ask it in node 2's name: every entry
  // it serves above the page's checkpoint must carry 2f+1 valid commit
  // votes of the entry's view.
  const pbft::PbftReplica* recovered =
      harness.deployment_->node(0, 3)->replica();
  harness.deployment_->network()->Register({0, 2}, &asker);
  pbft::FetchSnapshotMsg fetch;
  fetch.from_seq = 1;
  net::Message msg;
  msg.src = {0, 2};
  msg.dst = down;
  msg.type = pbft::kFetchSnapshot;
  msg.set_body(fetch.Encode());
  harness.deployment_->network()->Send(msg);
  harness.simulator_.RunFor(Seconds(1));

  uint64_t served = 0;
  for (const net::Message& reply : asker.received) {
    if (reply.type != pbft::kSnapshot) continue;
    pbft::SnapshotMsg page;
    ASSERT_TRUE(pbft::SnapshotMsg::Decode(reply.body(), &page).ok());
    for (const pbft::CommittedEntry& entry : page.entries) {
      if (entry.seq <= page.checkpoint.seq) continue;
      pbft::VoteMsg commit;
      commit.type = pbft::kCommit;
      commit.view = entry.view;
      commit.seq = entry.seq;
      commit.digest = pbft::RequestDigest(entry.client_token, entry.req_id,
                                          crypto::Sha256Digest(entry.value));
      const Bytes body = commit.CanonicalBody();
      std::set<int> signers;
      for (const crypto::Signature& sig : entry.commit_sigs) {
        if (harness.deployment_->keys()->Verify(body, sig)) {
          signers.insert(recovered->config().ReplicaIndex(sig.signer));
        }
      }
      EXPECT_GE(static_cast<int>(signers.size()),
                recovered->config().quorum())
          << "seq " << entry.seq;
      ++served;
    }
  }
  EXPECT_EQ(served, recovered->last_executed());
}

TEST(RecoveryTest, LongOutageRecoversViaSnapshotTransfer) {
  // Checkpoints every 4 entries: after 20 commits the early instances (and
  // their commit certificates) are garbage-collected everywhere. Pages of
  // values proven by each checkpoint's digest chain must serve them.
  RecoveryHarness harness(/*checkpoint_interval=*/4);
  net::NodeId down{0, 3};
  harness.deployment_->network()->Crash(down);
  harness.CommitMany(20);
  harness.simulator_.RunFor(Seconds(1));
  // The survivors garbage-collected past several checkpoints.
  EXPECT_GE(
      harness.deployment_->node(0, 0)->replica()->last_stable_checkpoint(),
      16u);

  harness.deployment_->network()->Recover(down);
  harness.deployment_->node(0, 3)->Recover();
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return harness.deployment_->node(0, 3)->log_size() == 20; },
      Seconds(60)));
  // Every entry matches a healthy node, byte for byte.
  const auto& healthy = harness.deployment_->node(0, 0)->log();
  const auto& recovered = harness.deployment_->node(0, 3)->log();
  for (const auto& [pos, record] : healthy) {
    ASSERT_TRUE(recovered.count(pos) > 0) << "missing pos " << pos;
    EXPECT_EQ(recovered.at(pos).payload, record.payload);
  }
}

TEST(RecoveryTest, RecoveredNodeParticipatesAgain) {
  RecoveryHarness harness(4);
  net::NodeId down{0, 1};
  harness.deployment_->network()->Crash(down);
  harness.CommitMany(12);
  harness.deployment_->network()->Recover(down);
  harness.deployment_->node(0, 1)->Recover();
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return harness.deployment_->node(0, 1)->log_size() == 12; },
      Seconds(60)));

  // With the node back, the unit tolerates losing a *different* node.
  harness.deployment_->network()->Crash({0, 2});
  harness.CommitMany(3);
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return harness.deployment_->node(0, 1)->log_size() == 15; },
      Seconds(60)));
}

TEST(RecoveryTest, CrashDuringSnapshotTransferRestartsIdempotently) {
  // The recovering node goes down again *mid transfer* (a first page
  // installed, later pages still to come). The partial transfer must not
  // poison the second recovery: it resumes from the executed prefix —
  // against a target that moved while the node was down — and still
  // installs a byte-for-byte copy.
  RecoveryHarness harness(/*checkpoint_interval=*/4);
  net::NodeId down{0, 3};
  harness.deployment_->network()->Crash(down);
  harness.CommitMany(20);
  harness.simulator_.RunFor(Seconds(1));
  ASSERT_GE(
      harness.deployment_->node(0, 0)->replica()->last_stable_checkpoint(),
      16u);

  // First recovery attempt: let the first pages land, then yank the node
  // again mid-transfer.
  harness.deployment_->network()->Recover(down);
  harness.deployment_->node(0, 3)->Recover();
  harness.simulator_.RunFor(sim::Microseconds(700));
  EXPECT_LT(harness.deployment_->node(0, 3)->log_size(), 20u)
      << "transfer already finished; crash no longer lands mid-transfer";
  harness.deployment_->network()->Crash(down);

  // The unit keeps committing while the straggler is down again, so the
  // restarted transfer chases a target past the one it first saw.
  harness.CommitMany(4);
  harness.simulator_.RunFor(Seconds(1));

  harness.deployment_->network()->Recover(down);
  harness.deployment_->node(0, 3)->Recover();
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return harness.deployment_->node(0, 3)->log_size() == 24; },
      Seconds(60)));
  // Every entry matches a healthy node, byte for byte — no duplicated or
  // torn entries from the abandoned first transfer.
  const auto& healthy = harness.deployment_->node(0, 0)->log();
  const auto& recovered = harness.deployment_->node(0, 3)->log();
  ASSERT_EQ(healthy.size(), recovered.size());
  for (const auto& [pos, record] : healthy) {
    ASSERT_TRUE(recovered.count(pos) > 0) << "missing pos " << pos;
    EXPECT_EQ(recovered.at(pos).Encode(), record.Encode()) << "pos " << pos;
  }
  // And the node is a live voter again: the unit survives losing another.
  harness.deployment_->network()->Crash({0, 1});
  harness.CommitMany(3);
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return harness.deployment_->node(0, 3)->log_size() == 27; },
      Seconds(60)));
}

TEST(RecoveryTest, ForgedSnapshotCertificateIsRejected) {
  // A byzantine peer offers a recovering node a snapshot far ahead of
  // reality, with an invalid certificate: the node must ignore it and
  // recover to the true state.
  RecoveryHarness harness(4);
  net::NodeId down{0, 3};
  harness.deployment_->network()->Crash(down);
  harness.CommitMany(20);
  harness.deployment_->network()->Recover(down);

  pbft::SnapshotMsg forged;
  forged.checkpoint.seq = 1000;
  forged.checkpoint.state_digest.fill(0xEE);
  crypto::Signature bogus;
  bogus.signer = {0, 0};
  forged.checkpoint.cert = {bogus, bogus, bogus};
  net::Message msg;
  msg.src = {0, 1};
  msg.dst = down;
  msg.type = pbft::kSnapshot;
  msg.set_body(forged.Encode());
  harness.deployment_->network()->Send(msg);

  harness.deployment_->node(0, 3)->Recover();
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return harness.deployment_->node(0, 3)->log_size() == 20; },
      Seconds(60)));
  // The replica did not fast-forward past reality.
  EXPECT_EQ(harness.deployment_->node(0, 3)->replica()->last_executed(),
            20u);
}

TEST(RecoveryTest, RecoveredLeaderConvergesWhileTheUnitCommits) {
  // The view-0 leader misses a view change and several checkpoint
  // intervals, and the unit keeps committing while it recovers. It must
  // reach its peers' applied position, digest chain and view, and count
  // as a voter again.
  RecoveryHarness harness(/*checkpoint_interval=*/8);
  Deployment& deployment = *harness.deployment_;
  net::NodeId down{0, 0};
  deployment.network()->Crash(down);
  harness.CommitMany(40);
  const pbft::PbftReplica* peer = deployment.node(0, 1)->replica();
  ASSERT_GE(peer->view(), 1u);
  ASSERT_GE(peer->last_stable_checkpoint(), 2 * 8u);

  deployment.network()->Recover(down);
  deployment.node(0, 0)->Recover();
  constexpr int kDuringRecovery = 40;
  int completed = 0;
  for (int i = 0; i < kDuringRecovery; ++i) {
    harness.simulator_.Schedule(sim::Milliseconds(2 * i), [&, i] {
      deployment.participant(0)->LogCommit(
          ToBytes("during-" + std::to_string(i)), 0,
          [&](uint64_t) { ++completed; });
    });
  }
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return completed == kDuringRecovery; }, Seconds(60)));
  harness.simulator_.RunFor(Seconds(1));

  BlockplaneNode* recovered = deployment.node(0, 0);
  for (int index = 1; index < 4; ++index) {
    BlockplaneNode* other = deployment.node(0, index);
    EXPECT_EQ(recovered->applied_high(), other->applied_high()) << index;
    EXPECT_EQ(recovered->chain_digest(), other->chain_digest()) << index;
    EXPECT_EQ(recovered->replica()->view(), other->replica()->view())
        << index;
  }

  // The unit survives losing the leader of the new view: the recovered
  // node's votes are needed for the next view and every commit after it.
  deployment.network()->Crash(deployment.node(0, 1)->self());
  harness.CommitMany(5);
  const BlockplaneNode* survivor = deployment.node(0, 2);
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return recovered->applied_high() == survivor->applied_high(); },
      Seconds(60)));
  EXPECT_EQ(recovered->chain_digest(), survivor->chain_digest());
}

TEST(RecoveryTest, ReplicaDownPastTheWindowInstallsABaseAndDedupsLikeItsPeers) {
  // The view-0 leader misses more than 10·I positions and a view change.
  // Its peers dropped what it missed below their horizon, so it installs
  // a base state and pages on from there. It must reach its peers'
  // applied position, digest chain and view, and it must skip a re-sent
  // request that executed while it was down, as they do.
  constexpr uint64_t kInterval = 32;
  RecoveryHarness harness(kInterval);
  Deployment& deployment = *harness.deployment_;
  Participant* participant = deployment.participant(0);
  auto commit = [&](const std::string& payload) {
    uint64_t pos = 0;
    participant->LogCommit(ToBytes(payload), 0, [&](uint64_t p) { pos = p; });
    EXPECT_TRUE(harness.simulator_.RunUntilCondition(
        [&] { return pos != 0; }, harness.simulator_.Now() + Seconds(60)));
    return pos;
  };
  net::NodeId down{0, 0};
  deployment.network()->Crash(down);
  // The participant's client numbers its requests from 1, one per commit.
  std::map<uint64_t, uint64_t> req_id_at;
  for (uint64_t req_id = 1; req_id <= 11 * kInterval; ++req_id) {
    req_id_at[commit("entry-" + std::to_string(req_id))] = req_id;
  }
  BlockplaneNode* peer = deployment.node(0, 1);
  ASSERT_GE(peer->replica()->view(), 1u);
  ASSERT_GT(peer->replica()->last_executed(), 10 * kInterval);
  ASSERT_GT(peer->horizon(), 0u);

  deployment.network()->Recover(down);
  BlockplaneNode* recovered = deployment.node(0, 0);
  recovered->Recover();
  auto converged = [&](BlockplaneNode* node) {
    return harness.simulator_.RunUntilCondition(
        [&] {
          return node->applied_high() == peer->applied_high() &&
                 node->replica()->view() == peer->replica()->view();
        },
        harness.simulator_.Now() + Seconds(60));
  };
  ASSERT_TRUE(converged(recovered));
  EXPECT_EQ(recovered->chain_digest(), peer->chain_digest());
  // It executed nothing at or below its base.
  EXPECT_GT(recovered->horizon(), 0u);
  EXPECT_EQ(recovered->log().count(1), 0u);

  // A request executed while it was down, below the page checkpoints it
  // caught up through and inside the dedup window.
  const uint64_t caught_up = recovered->applied_high();
  auto dup = req_id_at.upper_bound(caught_up - 2 * kInterval);
  ASSERT_NE(dup, req_id_at.begin());
  --dup;

  // Rotate leadership back to it (view 4): crash each leader in turn.
  for (int leader = 1; leader <= 3; ++leader) {
    net::NodeId id{0, leader};
    deployment.network()->Crash(id);
    commit("rotate");
    deployment.network()->Recover(id);
    deployment.node(0, leader)->Recover();
    ASSERT_TRUE(converged(deployment.node(0, leader))) << leader;
  }
  ASSERT_TRUE(recovered->replica()->IsLeader());
  ASSERT_LE(recovered->applied_high() + 1, dup->first + 4 * kInterval)
      << "the request left the dedup window";

  // The participant's PBFT client (index 1001) re-sends it.
  const net::NodeId client{0, 1001};
  LogRecord record;
  record.type = RecordType::kLogCommit;
  record.payload = ToBytes("entry-" + std::to_string(dup->second));
  pbft::RequestMsg request;
  request.client_token = pbft::ClientToken(client);
  request.req_id = dup->second;
  request.value = record.Encode();
  net::Message msg;
  msg.src = client;
  msg.dst = recovered->self();
  msg.type = pbft::kRequest;
  msg.set_body(request.Encode());
  deployment.network()->Send(std::move(msg));
  commit("after the duplicate");
  harness.simulator_.RunFor(Seconds(1));
  for (int index = 1; index < 4; ++index) {
    const BlockplaneNode* other = deployment.node(0, index);
    EXPECT_EQ(recovered->applied_high(), other->applied_high()) << index;
    EXPECT_EQ(recovered->chain_digest(), other->chain_digest()) << index;
  }
}

TEST(RecoveryTest, MirrorReplicaDownPastTheWindowInstallsABase) {
  // The mirror twin of the test above: a replica of Oregon's mirror group
  // of California misses more than 4·I of its group's positions. Its peers
  // dropped them below their horizon, so it installs a base page with no
  // values and pages on from there, to its peers' applied position, digest
  // chain and mirror high.
  constexpr uint64_t kInterval = 8;
  sim::Simulator simulator(59);
  BlockplaneOptions options;
  options.fg = 1;
  options.checkpoint_interval = kInterval;
  Deployment deployment(&simulator, Topology::Aws4(), options);
  const net::NodeId down = MirrorNodeId(net::kOregon, net::kCalifornia, 3);
  deployment.network()->Crash(down);
  Participant* primary = deployment.participant(net::kCalifornia);
  for (uint64_t i = 0; i < 6 * kInterval; ++i) {
    uint64_t pos = 0;
    primary->LogCommit(ToBytes("geo-" + std::to_string(i)), 0,
                       [&](uint64_t p) { pos = p; });
    ASSERT_TRUE(simulator.RunUntilCondition(
        [&] { return pos != 0; }, simulator.Now() + Seconds(60)));
  }
  simulator.RunFor(Seconds(1));
  BlockplaneNode* peer =
      deployment.mirror_node(net::kOregon, net::kCalifornia, 0);
  ASSERT_EQ(peer->mirror_high(), 6 * kInterval);
  const uint64_t base = peer->horizon();
  ASSERT_GT(base, 0u);

  deployment.network()->Recover(down);
  BlockplaneNode* recovered =
      deployment.mirror_node(net::kOregon, net::kCalifornia, 3);
  uint64_t first_executed = 0;
  recovered->SetApplyHook([&](uint64_t seq, const LogRecord&) {
    if (first_executed == 0) first_executed = seq;
  });
  recovered->Recover();
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return recovered->applied_high() == peer->applied_high(); },
      simulator.Now() + Seconds(60)));
  // It executed nothing at or below its base, and mirrors from there on.
  EXPECT_GT(first_executed, base);
  EXPECT_GE(recovered->horizon(), base);
  EXPECT_GT(recovered->mirror_horizon(), 0u);
  for (int index = 0; index < 3; ++index) {
    const BlockplaneNode* other =
        deployment.mirror_node(net::kOregon, net::kCalifornia, index);
    EXPECT_EQ(recovered->applied_high(), other->applied_high()) << index;
    EXPECT_EQ(recovered->chain_digest(), other->chain_digest()) << index;
    EXPECT_EQ(recovered->mirror_high(), other->mirror_high()) << index;
  }
}

TEST(RecoveryTest, TamperedBaseStateIsRejected) {
  // A base page from a real responder, with one reception watermark of
  // its certified state changed, must not install; the untouched page
  // does.
  CapturingHost asker;  // declared first, so it outlives the network
  sim::Simulator simulator(53);
  BlockplaneOptions options;
  options.checkpoint_interval = 4;
  Deployment deployment(&simulator, Topology::Aws4(), options);
  net::NodeId down{net::kOregon, 3};
  deployment.network()->Crash(down);
  int received = 0;
  deployment.participant(net::kOregon)
      ->SetReceiveHandler([&](net::SiteId, const Bytes&) { ++received; });
  for (int i = 0; i < 30; ++i) {
    deployment.participant(net::kCalifornia)
        ->Send(net::kOregon, ToBytes("m" + std::to_string(i)), 0, nullptr);
  }
  ASSERT_TRUE(simulator.RunUntilCondition([&] { return received == 30; },
                                          Seconds(120)));
  simulator.RunFor(Seconds(1));
  const BlockplaneNode* responder = deployment.node(net::kOregon, 0);
  ASSERT_GT(responder->horizon(), 0u);

  // Ask the responder from the crashed node's address.
  deployment.network()->Recover(down);
  deployment.network()->Register(down, &asker);
  pbft::FetchSnapshotMsg fetch;
  fetch.from_seq = 1;
  net::Message ask;
  ask.src = down;
  ask.dst = responder->self();
  ask.type = pbft::kFetchSnapshot;
  ask.set_body(fetch.Encode());
  deployment.network()->Send(ask);
  simulator.RunFor(Seconds(1));
  BlockplaneNode* node = deployment.node(net::kOregon, 3);
  deployment.network()->Register(down, node);
  pbft::SnapshotMsg page;
  for (const net::Message& reply : asker.received) {
    if (reply.type == pbft::kSnapshot && reply.src == responder->self()) {
      ASSERT_TRUE(pbft::SnapshotMsg::Decode(reply.body(), &page).ok());
    }
  }
  ASSERT_EQ(page.checkpoint.seq, responder->horizon());
  ASSERT_TRUE(page.entries.empty()) << "not a base page";
  DerivedState state;
  ASSERT_TRUE(DerivedState::Decode(page.state.app, &state).ok());
  ASSERT_EQ(state.received.size(), 1u);
  const uint64_t watermark = state.received[0].pos;
  ASSERT_GT(watermark, 0u);

  auto deliver = [&](const pbft::SnapshotMsg& snapshot) {
    net::Message msg;
    msg.src = responder->self();
    msg.dst = down;
    msg.type = pbft::kSnapshot;
    msg.set_body(snapshot.Encode());
    node->HandleMessage(msg);
  };
  pbft::SnapshotMsg tampered = page;
  state.received[0].pos = watermark + 1;
  tampered.state.app = state.Encode();
  deliver(tampered);
  EXPECT_EQ(node->replica()->last_executed(), 0u);
  EXPECT_EQ(node->last_received_pos(net::kCalifornia), 0u);
  EXPECT_EQ(node->horizon(), 0u);

  deliver(page);
  EXPECT_EQ(node->replica()->last_executed(), page.checkpoint.seq);
  EXPECT_EQ(node->last_received_pos(net::kCalifornia), watermark);
  EXPECT_EQ(node->horizon(), page.checkpoint.seq);
}

TEST(RecoveryTest, PipelinedGeoCommitsCompleteInOrder) {
  // The participant serializes geo rounds; five queued commits must all
  // complete, in order, with consecutive geo stream positions.
  sim::Simulator simulator(57);
  BlockplaneOptions options;
  options.fg = 1;
  Deployment deployment(&simulator, Topology::Aws4(), options);
  std::vector<uint64_t> positions;
  for (int i = 0; i < 5; ++i) {
    deployment.participant(net::kCalifornia)
        ->LogCommit(ToBytes("geo-" + std::to_string(i)), 0,
                    [&](uint64_t pos) { positions.push_back(pos); });
  }
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return positions.size() == 5; }, Seconds(300)));
  for (size_t i = 1; i < positions.size(); ++i) {
    EXPECT_GT(positions[i], positions[i - 1]);
  }
  // The closest mirror holds all five, in stream order.
  simulator.RunFor(Seconds(3));
  BlockplaneNode* mirror =
      deployment.mirror_node(net::kOregon, net::kCalifornia, 0);
  ASSERT_EQ(mirror->mirror_high(), 5u);
  uint64_t expected_geo_pos = 1;
  for (auto& [pos, record] : mirror->log()) {
    EXPECT_EQ(record.geo_pos, expected_geo_pos++);
  }
}

TEST(RecoveryTest, SnapshotTransferPreservesReceptionState) {
  // The synced log rebuilds derived state: reception watermarks must be
  // correct so future receive verification still enforces the chain.
  sim::Simulator simulator(53);
  BlockplaneOptions options;
  options.checkpoint_interval = 4;
  Deployment deployment(&simulator, Topology::Aws4(), options);
  net::NodeId down{net::kOregon, 3};
  deployment.network()->Crash(down);

  // Ten messages California -> Oregon (each also forces commits at C).
  Participant* receiver = deployment.participant(net::kOregon);
  int received = 0;
  receiver->SetReceiveHandler(
      [&](net::SiteId, const Bytes&) { ++received; });
  for (int i = 0; i < 10; ++i) {
    deployment.participant(net::kCalifornia)
        ->Send(net::kOregon, ToBytes("m" + std::to_string(i)), 0, nullptr);
  }
  ASSERT_TRUE(simulator.RunUntilCondition([&] { return received == 10; },
                                          Seconds(120)));

  deployment.network()->Recover(down);
  deployment.node(net::kOregon, 3)->Recover();
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] {
        return deployment.node(net::kOregon, 3)
                   ->last_received_pos(net::kCalifornia) ==
               deployment.node(net::kOregon, 0)
                   ->last_received_pos(net::kCalifornia);
      },
      Seconds(60)));
  // And an 11th message still flows end to end.
  deployment.participant(net::kCalifornia)
      ->Send(net::kOregon, ToBytes("m10"), 0, nullptr);
  ASSERT_TRUE(simulator.RunUntilCondition([&] { return received == 11; },
                                          Seconds(120)));
}

}  // namespace
}  // namespace blockplane::core
