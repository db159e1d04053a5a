// PBFT tests: normal case, crash faults, leader failure / view change,
// byzantine behaviours (equivocation, bogus votes, censorship), the
// Blockplane verification-routine hook, checkpoint garbage collection, and
// agreement invariants under parameter sweeps.
#include "pbft/replica.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "pbft/client.h"
#include "sim/simulator.h"

namespace blockplane::pbft {
namespace {

using net::NodeId;
using net::Topology;
using sim::Milliseconds;
using sim::Seconds;

/// A single-site PBFT group with one client, all wired to one simulator.
class PbftHarness {
 public:
  explicit PbftHarness(int f, uint64_t seed = 1,
                       Topology topology = Topology::SingleSite())
      : simulator_(seed),
        network_(&simulator_, std::move(topology)) {
    config_ = UnitConfig(/*site=*/0, f);
    if (network_.topology().num_sites() > 1) {
      // Spread replicas across sites for wide-area tests.
      config_.nodes.clear();
      for (int i = 0; i < 3 * f + 1; ++i) {
        config_.nodes.push_back(
            NodeId{i % network_.topology().num_sites(), i / 4});
      }
      config_.view_timeout = Milliseconds(400);
      config_.client_retry = Milliseconds(800);
    }
    for (const NodeId& node : config_.nodes) {
      auto replica = std::make_unique<PbftReplica>(
          &network_, &keys_, config_, node,
          [this, node](uint64_t seq, const Bytes& value,
                       const Digest& digest) {
            executions_.push_back({node, seq, value, digest});
          });
      replica->RegisterWithNetwork();
      replicas_.push_back(std::move(replica));
    }
    client_ = std::make_unique<PbftClient>(&network_, config_,
                                           NodeId{0, 1000});
  }

  /// Submits a value and runs until the client accepts it (or deadline).
  bool CommitAndWait(const std::string& value,
                     sim::SimTime deadline = Seconds(30)) {
    uint64_t before = client_->completed();
    client_->Submit(ToBytes(value), nullptr);
    return simulator_.RunUntilCondition(
        [&] { return client_->completed() > before; },
        simulator_.Now() + deadline);
  }

  /// The executed log of replica `index` as strings.
  std::vector<std::string> LogOf(int index) const {
    std::vector<std::string> result;
    for (auto& [seq, value] : replicas_[index]->executed_log()) {
      result.push_back(ToString(value));
    }
    return result;
  }

  /// Asserts all non-silent replicas executed identical logs.
  void ExpectAgreement(const std::vector<int>& skip = {}) {
    std::vector<std::string> reference;
    bool have_reference = false;
    for (size_t i = 0; i < replicas_.size(); ++i) {
      if (std::find(skip.begin(), skip.end(), static_cast<int>(i)) !=
          skip.end()) {
        continue;
      }
      auto log = LogOf(static_cast<int>(i));
      if (!have_reference) {
        reference = log;
        have_reference = true;
      } else {
        EXPECT_EQ(log, reference) << "replica " << i << " diverged";
      }
    }
  }

  struct Execution {
    NodeId node;
    uint64_t seq;
    Bytes value;
    Digest digest;
  };

  sim::Simulator simulator_;
  net::Network network_;
  crypto::KeyStore keys_;
  PbftConfig config_;
  std::vector<std::unique_ptr<PbftReplica>> replicas_;
  std::unique_ptr<PbftClient> client_;
  std::vector<Execution> executions_;
};

TEST(PbftTest, CommitsSingleValue) {
  PbftHarness harness(/*f=*/1);
  ASSERT_TRUE(harness.CommitAndWait("hello"));
  // All 4 replicas execute it at seq 1.
  EXPECT_EQ(harness.executions_.size(), 4u);
  for (const auto& execution : harness.executions_) {
    EXPECT_EQ(execution.seq, 1u);
    EXPECT_EQ(ToString(execution.value), "hello");
  }
}

TEST(PbftTest, CommitsManyValuesInOrder) {
  PbftHarness harness(1);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(harness.CommitAndWait("v" + std::to_string(i)));
  }
  harness.simulator_.RunFor(Seconds(1));
  for (int r = 0; r < 4; ++r) {
    auto log = harness.LogOf(r);
    ASSERT_EQ(log.size(), 20u) << "replica " << r;
    for (int i = 0; i < 20; ++i) EXPECT_EQ(log[i], "v" + std::to_string(i));
  }
}

TEST(PbftTest, PipelinedSubmissionsAllCommit) {
  PbftHarness harness(1);
  // Submit 10 at once; leader proposes one batch at a time (group commit).
  for (int i = 0; i < 10; ++i) {
    harness.client_->Submit(ToBytes("c" + std::to_string(i)), nullptr);
  }
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return harness.client_->completed() == 10; }, Seconds(30)));
  harness.simulator_.RunFor(Seconds(1));
  harness.ExpectAgreement();
  EXPECT_EQ(harness.LogOf(0).size(), 10u);
}

TEST(PbftTest, ToleratesCrashedBackup) {
  PbftHarness harness(1);
  harness.network_.Crash(NodeId{0, 2});  // a backup
  ASSERT_TRUE(harness.CommitAndWait("survives"));
  harness.ExpectAgreement({2});
}

TEST(PbftTest, ToleratesFCrashedBackups) {
  PbftHarness harness(/*f=*/2);  // 7 replicas
  harness.network_.Crash(NodeId{0, 3});
  harness.network_.Crash(NodeId{0, 5});
  ASSERT_TRUE(harness.CommitAndWait("two down"));
  harness.ExpectAgreement({3, 5});
}

TEST(PbftTest, StallsBeyondFCrashes) {
  PbftHarness harness(1);
  harness.network_.Crash(NodeId{0, 1});
  harness.network_.Crash(NodeId{0, 2});  // f+1 = 2 crashed backups
  EXPECT_FALSE(harness.CommitAndWait("cannot commit", Seconds(5)));
}

TEST(PbftTest, LeaderCrashTriggersViewChange) {
  PbftHarness harness(1);
  ASSERT_TRUE(harness.CommitAndWait("before"));
  harness.network_.Crash(NodeId{0, 0});  // view-0 leader
  ASSERT_TRUE(harness.CommitAndWait("after", Seconds(60)));
  // The surviving replicas agree and the view advanced past 0.
  harness.ExpectAgreement({0});
  EXPECT_GT(harness.replicas_[1]->view(), 0u);
  EXPECT_EQ(harness.LogOf(1).back(), "after");
}

TEST(PbftTest, ExecutedDigestIsTheValueDigestAcrossViewChange) {
  // The execute callback hands on the instance's value digest instead of
  // letting the application rehash the value, so it must be the value's
  // SHA-256 on every path that fills an instance: the leader's proposal,
  // verified pre-prepares, and prepared proposals carried into a new view.
  PbftHarness harness(1);
  for (auto& replica : harness.replicas_) {
    const_cast<PbftConfig&>(replica->config()).window = 4;
  }
  constexpr int kCount = 6;
  for (int i = 0; i < kCount; ++i) {
    harness.client_->Submit(ToBytes("v" + std::to_string(i)), nullptr);
  }
  // Kill the leader with a window of pre-prepares in flight, so the new
  // view re-proposes them from prepared certificates.
  harness.simulator_.RunFor(Milliseconds(1));
  harness.network_.Crash(NodeId{0, 0});
  ASSERT_TRUE(harness.simulator_.RunUntilCondition(
      [&] { return harness.client_->completed() >= kCount; }, Seconds(60)));
  harness.simulator_.RunFor(Seconds(1));
  EXPECT_GT(harness.replicas_[1]->view(), 0u);

  size_t live_executions = 0;
  for (const auto& execution : harness.executions_) {
    EXPECT_EQ(execution.digest, crypto::Sha256Digest(execution.value))
        << execution.node.ToString() << " seq " << execution.seq;
    if (execution.node != NodeId{0, 0}) ++live_executions;
  }
  EXPECT_EQ(live_executions, 3u * kCount);
}

TEST(PbftTest, RepeatedLeaderCrashes) {
  PbftHarness harness(/*f=*/2);  // 7 replicas: can lose 2
  ASSERT_TRUE(harness.CommitAndWait("a"));
  harness.network_.Crash(NodeId{0, 0});
  ASSERT_TRUE(harness.CommitAndWait("b", Seconds(60)));
  // Crash whoever leads now.
  NodeId leader = harness.replicas_[1]->leader();
  harness.network_.Crash(leader);
  ASSERT_TRUE(harness.CommitAndWait("c", Seconds(120)));
  std::vector<int> skip = {0, harness.config_.ReplicaIndex(leader)};
  harness.ExpectAgreement(skip);
}

TEST(PbftTest, SilentLeaderIsReplaced) {
  PbftHarness harness(1);
  harness.replicas_[0]->SetByzantineMode(ByzantineMode::kSilent);
  ASSERT_TRUE(harness.CommitAndWait("despite mute leader", Seconds(60)));
  harness.ExpectAgreement({0});
}

TEST(PbftTest, EquivocatingLeaderCannotCauseDivergence) {
  PbftHarness harness(1);
  harness.replicas_[0]->SetByzantineMode(ByzantineMode::kEquivocate);
  // The value may commit (after a view change re-proposes it) or the
  // client may keep retrying; either way honest replicas never diverge.
  harness.CommitAndWait("split brain?", Seconds(60));
  harness.simulator_.RunFor(Seconds(2));
  harness.ExpectAgreement({0});
}

TEST(PbftTest, BogusVoterIsHarmless) {
  PbftHarness harness(1);
  harness.replicas_[3]->SetByzantineMode(ByzantineMode::kBogusVotes);
  ASSERT_TRUE(harness.CommitAndWait("bogus votes ignored"));
  harness.ExpectAgreement({3});
}

TEST(PbftTest, NewViewCannotDropPreparedProofs) {
  // Only n2 is a real replica; the test speaks for n0, n1 and n3. `A`
  // prepares at n2 in view 0. n1, the byzantine leader of view 1, strips
  // A's prepared proof from n0's and n3's signed view changes and then
  // proposes `B` at the same sequence number. A view change signs its
  // proofs, so the stripped set does not verify and n2 never leaves view 0.
  sim::Simulator simulator(1);
  net::Network network(&simulator, Topology::SingleSite());
  crypto::KeyStore keys;
  const PbftConfig config = UnitConfig(/*site=*/0, /*f=*/1);
  std::vector<uint64_t> executed;
  PbftReplica n2(&network, &keys, config, config.nodes[2],
                 [&](uint64_t seq, const Bytes&, const Digest&) {
                   executed.push_back(seq);
                 });
  n2.RegisterWithNetwork();
  std::vector<std::unique_ptr<crypto::Signer>> signers;
  for (const NodeId& node : config.nodes) {
    signers.push_back(keys.RegisterNode(node));
  }
  auto deliver = [&](int from, PbftMessageType type, Bytes body) {
    net::Message msg;
    msg.src = config.nodes[from];
    msg.dst = n2.self();
    msg.type = type;
    msg.set_body(std::move(body));
    n2.HandleMessage(msg);
  };
  auto pre_prepare = [&](uint64_t view, const std::string& value) {
    PrePrepareMsg pp;
    pp.view = view;
    pp.seq = 1;
    pp.value = ToBytes(value);
    pp.digest = RequestDigest(pp.client_token, pp.req_id,
                              crypto::Sha256Digest(pp.value));
    pp.sig = signers[view]->Sign(pp.CanonicalBody());
    deliver(static_cast<int>(view), kPrePrepare, pp.Encode());
    return pp;
  };
  auto vote = [&](int from, PbftMessageType type, const PrePrepareMsg& pp) {
    VoteMsg v;
    v.type = type;
    v.view = pp.view;
    v.seq = pp.seq;
    v.digest = pp.digest;
    v.sig = signers[from]->Sign(v.CanonicalBody());
    deliver(from, type, v.Encode());
    return v.sig;
  };
  auto view_change = [&](int from, std::vector<PreparedProof> prepared) {
    ViewChangeMsg vc;
    vc.new_view = 1;
    vc.prepared = std::move(prepared);
    vc.sig = signers[from]->Sign(vc.CanonicalBody());
    return vc;
  };

  PrePrepareMsg a = pre_prepare(0, "A");
  PreparedProof proof;
  proof.seq = 1;
  proof.digest = a.digest;
  proof.value = a.value;
  proof.preprepare_sig = a.sig;
  proof.prepare_sigs = {vote(1, kPrepare, a), vote(3, kPrepare, a)};

  ViewChangeMsg vc0 = view_change(0, {proof});
  ViewChangeMsg vc3 = view_change(3, {proof});
  vc0.prepared.clear();
  vc3.prepared.clear();
  NewViewMsg nv;
  nv.view = 1;
  nv.view_changes = {view_change(1, {}).Encode(), vc0.Encode(), vc3.Encode()};
  nv.sig = signers[1]->Sign(nv.CanonicalBody());
  deliver(1, kNewView, nv.Encode());

  PrePrepareMsg b = pre_prepare(1, "B");
  vote(3, kPrepare, b);
  vote(1, kCommit, b);
  vote(3, kCommit, b);
  simulator.RunFor(Seconds(1));

  EXPECT_EQ(n2.view(), 0u);
  EXPECT_TRUE(executed.empty());
}

/// One real replica of a four-replica group; the test speaks for the other
/// three, signing with their keys and handing messages straight to it.
class ScriptedPeers {
 public:
  explicit ScriptedPeers(int real)
      : network_(&simulator_, Topology::SingleSite()),
        config_(UnitConfig(/*site=*/0, /*f=*/1)),
        replica_(&network_, &keys_, config_, config_.nodes[real],
                 [this](uint64_t seq, const Bytes& value, const Digest&) {
                   executed_[seq] = ToString(value);
                 }) {
    replica_.RegisterWithNetwork();
    for (const NodeId& node : config_.nodes) {
      signers_.push_back(keys_.RegisterNode(node));
    }
  }

  void Deliver(int from, PbftMessageType type, Bytes body) {
    net::Message msg;
    msg.src = config_.nodes[from];
    msg.dst = replica_.self();
    msg.type = type;
    msg.set_body(std::move(body));
    replica_.HandleMessage(msg);
  }
  /// The pre-prepare the leader of `view` signs for `value` at `seq`, as
  /// request `seq` of one client.
  PrePrepareMsg PrePrepare(uint64_t view, uint64_t seq, const Bytes& value) {
    PrePrepareMsg pp;
    pp.view = view;
    pp.seq = seq;
    pp.client_token = 7;
    pp.req_id = seq;
    pp.value = value;
    pp.digest = RequestDigest(pp.client_token, pp.req_id,
                              crypto::Sha256Digest(pp.value));
    pp.sig = signers_[view]->Sign(pp.CanonicalBody());
    Deliver(static_cast<int>(view), kPrePrepare, pp.Encode());
    return pp;
  }
  Signature Vote(int from, PbftMessageType type, const PrePrepareMsg& pp) {
    VoteMsg vote;
    vote.type = type;
    vote.view = pp.view;
    vote.seq = pp.seq;
    vote.digest = pp.digest;
    vote.sig = signers_[from]->Sign(vote.CanonicalBody());
    Deliver(from, type, vote.Encode());
    return vote.sig;
  }

  sim::Simulator simulator_{1};
  net::Network network_;
  crypto::KeyStore keys_;
  const PbftConfig config_;
  std::map<uint64_t, std::string> executed_;
  PbftReplica replica_;
  std::vector<std::unique_ptr<crypto::Signer>> signers_;
};

TEST(PbftTest, ViewChangeFillsAGapWithAPrePreparedValue) {
  // Only n2 is real. `A` reached it at seq 1 only as a pre-prepare, while
  // `B` prepared at seq 2. No value can have committed at a seq without a
  // prepared certificate in the view-change set, so the new view may put
  // any value there: the pre-prepared `A`, not a no-op that would run `B`
  // ahead of the value it was proposed after.
  ScriptedPeers group(/*real=*/2);
  const PrePrepareMsg a = group.PrePrepare(0, 1, ToBytes("A"));
  const PrePrepareMsg b = group.PrePrepare(0, 2, ToBytes("B"));
  const PreparedProof a_pre_prepared{0, 1, a.digest, 7, 1, a.value, a.sig, {}};
  const PreparedProof b_prepared{
      0, 2, b.digest, 7, 2, b.value, b.sig,
      {group.Vote(1, kPrepare, b), group.Vote(3, kPrepare, b)}};
  auto view_change = [&](int from, std::vector<PreparedProof> proofs) {
    ViewChangeMsg vc;
    vc.new_view = 1;
    vc.prepared = std::move(proofs);
    vc.sig = group.signers_[from]->Sign(vc.CanonicalBody());
    return vc.Encode();
  };
  NewViewMsg nv;
  nv.view = 1;
  nv.view_changes = {view_change(0, {a_pre_prepared, b_prepared}),
                     view_change(1, {}), view_change(3, {})};
  nv.sig = group.signers_[1]->Sign(nv.CanonicalBody());
  group.Deliver(1, kNewView, nv.Encode());
  ASSERT_EQ(group.replica_.view(), 1u);

  for (const PrePrepareMsg* carried : {&a, &b}) {
    const PrePrepareMsg pp = group.PrePrepare(1, carried->seq, carried->value);
    group.Vote(3, kPrepare, pp);
    group.Vote(1, kCommit, pp);
    group.Vote(3, kCommit, pp);
  }
  group.simulator_.RunFor(Seconds(1));
  EXPECT_EQ(group.executed_,
            (std::map<uint64_t, std::string>{{1, "A"}, {2, "B"}}));
}

TEST(PbftTest, WatchdogSparesTheLeaderForARequestThatNoLongerVerifies) {
  // The backups watch a request the mute leader never proposes. Before
  // their watchdogs fire, the request stops verifying (in Blockplane: the
  // same transmission committed under another node's request), so it can
  // never execute, and deposing the leader for it would gain nothing.
  PbftHarness harness(1);
  bool valid = true;
  for (auto& replica : harness.replicas_) {
    replica->SetVerifier([&valid](const Bytes&) { return valid; });
  }
  harness.replicas_[0]->SetByzantineMode(ByzantineMode::kSilent);
  harness.client_->Submit(ToBytes("stale"), nullptr);
  // The client's retry broadcasts the request; the backups forward it and
  // arm their watchdogs.
  harness.simulator_.RunFor(harness.config_.client_retry + Milliseconds(1));
  valid = false;
  harness.simulator_.RunFor(Seconds(2));
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(harness.replicas_[i]->view(), 0u) << "replica " << i;
  }
}

TEST(PbftTest, UnprovenStableCheckpointIsIgnoredInViewChange) {
  // n0 is mute, but it signs view changes for views 1-200 that claim a
  // stable checkpoint at seq 1000, backed by its own checkpoint vote
  // alone. Believed, the claim would start every view it joins past every
  // seq the honest replicas accept. Only proven checkpoints count, so the
  // request completes in view 1.
  PbftHarness harness(1);
  const NodeId n0 = harness.config_.nodes[0];
  harness.replicas_[0]->SetByzantineMode(ByzantineMode::kSilent);
  std::unique_ptr<crypto::Signer> signer = harness.keys_.RegisterNode(n0);
  CheckpointMsg claim;
  claim.seq = 1000;
  claim.state_digest.fill(0xab);
  claim.sig = signer->Sign(claim.CanonicalBody());
  for (uint64_t view = 1; view <= 200; ++view) {
    ViewChangeMsg vc;
    vc.new_view = view;
    vc.stable.seq = claim.seq;
    vc.stable.state_digest = claim.state_digest;
    vc.stable.cert = {claim.sig, claim.sig, claim.sig};
    vc.sig = signer->Sign(vc.CanonicalBody());
    for (int i = 1; i < 4; ++i) {
      net::Message msg;
      msg.src = n0;
      msg.dst = harness.config_.nodes[i];
      msg.type = kViewChange;
      msg.set_body(vc.Encode());
      harness.network_.Send(std::move(msg));
    }
  }
  ASSERT_TRUE(harness.CommitAndWait("request", Seconds(1)));
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(harness.replicas_[i]->view(), 1u) << "replica " << i;
  }
}

/// Whether `proof` is a prepared certificate a peer accepts: the leader of
/// its view signed the pre-prepare, and 2f other replicas the prepare.
bool ProofValidates(const PbftConfig& config, const crypto::KeyStore& keys,
                    const PreparedProof& proof) {
  if (RequestDigest(proof.client_token, proof.req_id,
                    crypto::Sha256Digest(proof.value)) != proof.digest) {
    return false;
  }
  PrePrepareMsg pp;
  pp.view = proof.view;
  pp.seq = proof.seq;
  pp.digest = proof.digest;
  pp.client_token = proof.client_token;
  pp.req_id = proof.req_id;
  const NodeId leader = config.LeaderOf(proof.view);
  if (proof.preprepare_sig.signer != leader ||
      !keys.Verify(pp.CanonicalBody(), proof.preprepare_sig)) {
    return false;
  }
  VoteMsg prepare;
  prepare.type = kPrepare;
  prepare.view = proof.view;
  prepare.seq = proof.seq;
  prepare.digest = proof.digest;
  std::set<int> signers;
  for (const Signature& sig : proof.prepare_sigs) {
    if (sig.signer != leader && keys.Verify(prepare.CanonicalBody(), sig)) {
      signers.insert(config.ReplicaIndex(sig.signer));
    }
  }
  signers.erase(-1);
  return static_cast<int>(signers.size()) >= 2 * config.f;
}

TEST(PbftTest, CaughtUpInstancesStayOutOfViewChanges) {
  // n3 misses three commits and fills them from a catch-up page, so those
  // instances are committed without a pre-prepare signature. When n3 then
  // demands a view change, every prepared proof it signs must validate at
  // its peers.
  struct ViewChangeTap : net::Host {
    void HandleMessage(const net::Message& msg) override {
      ViewChangeMsg vc;
      if (msg.type == kViewChange && msg.src == from &&
          ViewChangeMsg::Decode(msg.body(), &vc).ok()) {
        seen.push_back(std::move(vc));
      }
      replica->HandleMessage(msg);
    }
    NodeId from;
    PbftReplica* replica = nullptr;
    std::vector<ViewChangeMsg> seen;
  } tap;  // declared first, so it outlives the network
  PbftHarness harness(1);
  const NodeId n3 = harness.config_.nodes[3];
  harness.network_.Crash(n3);
  for (const char* value : {"a", "b", "c"}) {
    ASSERT_TRUE(harness.CommitAndWait(value));
  }
  harness.network_.Recover(n3);
  harness.replicas_[3]->CatchUp();
  harness.simulator_.RunFor(Seconds(1));
  ASSERT_EQ(harness.replicas_[3]->last_executed(), 3u);
  ASSERT_TRUE(harness.CommitAndWait("d"));  // prepared at n3 as usual

  tap.from = n3;
  tap.replica = harness.replicas_[1].get();
  harness.network_.Register(harness.config_.nodes[1], &tap);
  harness.network_.Crash(harness.config_.nodes[0]);
  ASSERT_TRUE(harness.CommitAndWait("e", Seconds(60)));

  ASSERT_FALSE(tap.seen.empty());
  size_t proofs = 0;
  for (const ViewChangeMsg& vc : tap.seen) {
    for (const PreparedProof& proof : vc.prepared) {
      EXPECT_TRUE(ProofValidates(harness.config_, harness.keys_, proof))
          << "seq " << proof.seq << " in the view change for "
          << vc.new_view;
      ++proofs;
    }
  }
  EXPECT_GT(proofs, 0u) << "n3 carried no prepared proof at all";
}

TEST(PbftTest, PageCannotMoveAValuePastANoOpGap) {
  // A certified checkpoint at seq 6 over values at seqs 1, 2, 3, 5 and 6:
  // seq 4 was a no-op, which executes nothing and leaves no link in the
  // digest chain. A responder that shifts the value of seq 3 into the gap
  // must not get it executed at seq 4.
  ScriptedPeers group(/*real=*/3);
  const std::map<uint64_t, std::string> values = {
      {1, "a"}, {2, "b"}, {3, "c"}, {5, "e"}, {6, "f"}};
  CheckpointState state;
  for (const auto& [seq, value] : values) {
    state.chain = ChainDigest(state.chain, seq,
                              crypto::Sha256Digest(ToBytes(value)));
  }
  StableCheckpoint checkpoint;
  checkpoint.seq = 6;
  checkpoint.state_digest = state.StateDigest();
  const CheckpointMsg vote{checkpoint.seq, checkpoint.state_digest, {}};
  for (int i = 0; i < 3; ++i) {
    checkpoint.cert.push_back(group.signers_[i]->Sign(vote.CanonicalBody()));
  }
  auto deliver_page = [&](const std::map<uint64_t, std::string>& entries) {
    SnapshotMsg page;
    page.checkpoint = checkpoint;
    page.state = state;
    for (const auto& [seq, value] : entries) {
      page.entries.push_back({seq, 0, 0, 0, ToBytes(value), {}});
    }
    group.Deliver(1, kSnapshot, page.Encode());
  };

  deliver_page({{1, "a"}, {2, "b"}, {4, "c"}, {5, "e"}, {6, "f"}});
  EXPECT_EQ(group.replica_.last_executed(), 0u);
  EXPECT_TRUE(group.executed_.empty());

  // The honest page, gap and all, installs.
  deliver_page(values);
  EXPECT_EQ(group.replica_.last_executed(), 6u);
  EXPECT_EQ(group.replica_.last_stable_checkpoint(), 6u);
  EXPECT_EQ(group.executed_, values);
}

TEST(PbftTest, PageCannotRenameARequest) {
  // A commit certificate endorses the request digest, which binds the
  // client and id along with the value. A page entry that carries the
  // certified value under another id must not install: the dedup window
  // would record an id its peers never executed.
  ScriptedPeers group(/*real=*/3);
  const Bytes value = ToBytes("v");
  VoteMsg commit;
  commit.type = kCommit;
  commit.view = 0;
  commit.seq = 1;
  commit.digest = RequestDigest(7, 1, crypto::Sha256Digest(value));
  CommittedEntry entry{1, 0, 7, 1, value, {}};
  for (int i = 0; i < 3; ++i) {
    entry.commit_sigs.push_back(
        group.signers_[i]->Sign(commit.CanonicalBody()));
  }
  auto deliver_page = [&](uint64_t req_id) {
    SnapshotMsg page;
    page.entries.push_back(entry);
    page.entries.back().req_id = req_id;
    group.Deliver(1, kSnapshot, page.Encode());
  };
  deliver_page(2);
  EXPECT_EQ(group.replica_.last_executed(), 0u);
  EXPECT_TRUE(group.executed_.empty());
  deliver_page(1);
  EXPECT_EQ(group.replica_.last_executed(), 1u);
  EXPECT_EQ(group.executed_.at(1), "v");
}

TEST(PbftTest, VerificationRoutineBlocksInvalidValues) {
  PbftHarness harness(1);
  // The Blockplane hook: replicas refuse values containing "bad".
  for (auto& replica : harness.replicas_) {
    replica->SetVerifier([](const Bytes& value) {
      return ToString(value).find("bad") == std::string::npos;
    });
  }
  EXPECT_FALSE(harness.CommitAndWait("bad transition", Seconds(5)));
  ASSERT_TRUE(harness.CommitAndWait("good transition", Seconds(60)));
  for (int r = 0; r < 4; ++r) {
    for (const std::string& entry : harness.LogOf(r)) {
      EXPECT_EQ(entry.find("bad"), std::string::npos);
    }
  }
}

/// Forwards to a replica and counts the commit votes it receives, by
/// (sender, seq).
class CommitVoteTap : public net::Host {
 public:
  explicit CommitVoteTap(net::Host* replica) : replica_(replica) {}
  void HandleMessage(const net::Message& msg) override {
    VoteMsg vote;
    if (msg.type == kCommit &&
        VoteMsg::Decode(kCommit, msg.body(), &vote).ok()) {
      ++votes[{msg.src, vote.seq}];
    }
    replica_->HandleMessage(msg);
  }
  std::map<std::pair<NodeId, uint64_t>, int> votes;

 private:
  net::Host* replica_;
};

TEST(PbftTest, WithheldCommitVoteIsSentOnceTheRoutineAccepts) {
  // Window 2: the leader proposes both values at once. Every replica's
  // routine rejects the second until the first executed there, so each
  // replica withholds its seq-2 commit vote when seq 2 prepares, and sends
  // it once seq 1 executes (RetryPendingVerifications).
  sim::Simulator simulator(1);
  net::Network network(&simulator, Topology::SingleSite());
  crypto::KeyStore keys;
  PbftConfig config = UnitConfig(/*site=*/0, /*f=*/1);
  config.window = 2;
  std::map<NodeId, std::vector<uint64_t>> executed;
  std::map<NodeId, int> rejected;
  std::vector<std::unique_ptr<PbftReplica>> replicas;
  std::vector<std::unique_ptr<CommitVoteTap>> taps;
  for (const NodeId& node : config.nodes) {
    auto replica = std::make_unique<PbftReplica>(
        &network, &keys, config, node,
        [&executed, node](uint64_t seq, const Bytes&, const Digest&) {
          executed[node].push_back(seq);
        });
    replica->SetVerifier([&executed, &rejected, node](const Bytes& value) {
      if (ToString(value) != "second" || !executed[node].empty()) return true;
      ++rejected[node];
      return false;
    });
    // The leader admits both values; the routine judges them at prepare.
    replica->SetAdmission([](const Bytes&) { return true; }, [] {});
    taps.push_back(std::make_unique<CommitVoteTap>(replica.get()));
    network.Register(node, taps.back().get());
    replicas.push_back(std::move(replica));
  }
  PbftClient client(&network, config, NodeId{0, 1000});
  client.Submit(ToBytes("first"), nullptr);
  client.Submit(ToBytes("second"), nullptr);
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return client.completed() == 2; }, Seconds(5)));
  simulator.RunFor(Seconds(1));

  for (const NodeId& node : config.nodes) {
    EXPECT_GT(rejected[node], 0) << node.ToString() << " withheld no vote";
    EXPECT_EQ(executed[node], (std::vector<uint64_t>{1, 2}))
        << node.ToString();
  }
  for (size_t receiver = 0; receiver < taps.size(); ++receiver) {
    for (size_t sender = 0; sender < config.nodes.size(); ++sender) {
      if (sender == receiver) continue;
      EXPECT_EQ((taps[receiver]->votes[{config.nodes[sender], 2}]), 1)
          << config.nodes[sender].ToString() << "'s seq-2 commit vote at "
          << config.nodes[receiver].ToString();
    }
  }
}

TEST(PbftTest, SingleRejectingVerifierDoesNotBlockCommit) {
  PbftHarness harness(1);
  harness.replicas_[2]->SetByzantineMode(ByzantineMode::kRejectVerification);
  ASSERT_TRUE(harness.CommitAndWait("2f+1 others vote"));
  harness.ExpectAgreement({2});
}

TEST(PbftTest, CheckpointTruncatesLog) {
  PbftHarness harness(1);
  // Small interval so GC kicks in quickly.
  for (auto& replica : harness.replicas_) {
    const_cast<PbftConfig&>(replica->config()).checkpoint_interval = 4;
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(harness.CommitAndWait("x" + std::to_string(i)));
  }
  harness.simulator_.RunFor(Seconds(1));
  EXPECT_GE(harness.replicas_[0]->last_stable_checkpoint(), 4u);
  // Entries at or below the stable checkpoint were truncated.
  EXPECT_LT(harness.LogOf(0).size(), 10u);
  EXPECT_EQ(harness.replicas_[0]->last_executed(), 10u);
}

TEST(PbftTest, RequestFromNoNodeIsDropped) {
  // A request carries no integrity check: a flipped byte of its client
  // token can name no node at all (a negative site, or one past the
  // topology). Replying to it would abort the run, so no replica caches,
  // queues, forwards, watches or executes it.
  PbftHarness harness(1);
  for (NodeId client : {NodeId{-3, 1000}, NodeId{0, -1}, NodeId{9, 1000}}) {
    RequestMsg request;
    request.client_token = ClientToken(client);
    request.req_id = 1;
    request.value = ToBytes("from nowhere");
    for (const NodeId& replica : harness.config_.nodes) {
      net::Message msg;
      msg.src = NodeId{0, 1000};
      msg.dst = replica;
      msg.type = kRequest;
      msg.set_body(request.Encode());
      harness.network_.Send(std::move(msg));
    }
  }
  harness.simulator_.RunFor(Seconds(5));
  EXPECT_TRUE(harness.executions_.empty());
  for (const auto& replica : harness.replicas_) {
    EXPECT_EQ(replica->view(), 0u);
  }
  ASSERT_TRUE(harness.CommitAndWait("from a client"));
  EXPECT_EQ(harness.replicas_[0]->last_executed(), 1u);
}

TEST(PbftTest, WideAreaDeployment) {
  // Flat PBFT across 4 datacenters (the paper's baseline topology).
  PbftHarness harness(1, /*seed=*/7, Topology::Aws4());
  ASSERT_TRUE(harness.CommitAndWait("global"));
  // The client needs only f+1 replies; give the slower replicas a moment.
  harness.simulator_.RunFor(Seconds(1));
  harness.ExpectAgreement();
  // End-to-end latency must be on the order of wide-area RTTs.
  EXPECT_GT(harness.simulator_.Now(), Milliseconds(30));
}

// --- property sweeps ---------------------------------------------------------

class PbftSweepTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PbftSweepTest, AgreementAndTotalOrderHold) {
  auto [f, seed] = GetParam();
  PbftHarness harness(f, static_cast<uint64_t>(seed));
  const int kCommits = 8;
  for (int i = 0; i < kCommits; ++i) {
    ASSERT_TRUE(harness.CommitAndWait("op" + std::to_string(i)))
        << "f=" << f << " seed=" << seed << " i=" << i;
  }
  harness.simulator_.RunFor(Seconds(1));
  harness.ExpectAgreement();
  auto log = harness.LogOf(0);
  ASSERT_EQ(log.size(), static_cast<size_t>(kCommits));
  for (int i = 0; i < kCommits; ++i) {
    EXPECT_EQ(log[i], "op" + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultLevelsAndSeeds, PbftSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2, 3, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& pinfo) {
      return "f" + std::to_string(std::get<0>(pinfo.param)) + "_seed" +
             std::to_string(std::get<1>(pinfo.param));
    });

class PbftByzantineSweepTest
    : public ::testing::TestWithParam<std::tuple<ByzantineMode, int>> {};

TEST_P(PbftByzantineSweepTest, OneByzantineReplicaNeverBreaksAgreement) {
  auto [mode, victim] = GetParam();
  PbftHarness harness(1, /*seed=*/11);
  harness.replicas_[victim]->SetByzantineMode(mode);
  for (int i = 0; i < 5; ++i) {
    // Commits may stall temporarily during view changes; allow a generous
    // deadline but do not require success when the byzantine node is the
    // leader mid-election.
    harness.CommitAndWait("op" + std::to_string(i), Seconds(30));
  }
  harness.simulator_.RunFor(Seconds(2));
  harness.ExpectAgreement({victim});
  // Liveness: despite one byzantine replica, progress happened.
  EXPECT_GE(harness.client_->completed(), 4u);
}

std::string ByzantineSweepName(
    const ::testing::TestParamInfo<std::tuple<ByzantineMode, int>>& pinfo) {
  const char* name = "Unknown";
  switch (std::get<0>(pinfo.param)) {
    case ByzantineMode::kNone:
      name = "None";
      break;
    case ByzantineMode::kSilent:
      name = "Silent";
      break;
    case ByzantineMode::kEquivocate:
      name = "Equivocate";
      break;
    case ByzantineMode::kBogusVotes:
      name = "BogusVotes";
      break;
    case ByzantineMode::kRejectVerification:
      name = "RejectVerification";
      break;
    case ByzantineMode::kReorderGeo:
      name = "ReorderGeo";
      break;
  }
  return std::string(name) + "_victim" +
         std::to_string(std::get<1>(pinfo.param));
}

INSTANTIATE_TEST_SUITE_P(
    Behaviours, PbftByzantineSweepTest,
    ::testing::Combine(::testing::Values(ByzantineMode::kSilent,
                                         ByzantineMode::kBogusVotes,
                                         ByzantineMode::kRejectVerification),
                       ::testing::Values(0, 1, 3)),
    ByzantineSweepName);

}  // namespace
}  // namespace blockplane::pbft
