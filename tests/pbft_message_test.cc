// Round-trip and canonical-form tests for every PBFT wire message, plus the
// paxos messages. Canonical bodies must differ across message types (no
// cross-type signature replay) and encodings must round-trip exactly.
#include "pbft/message.h"

#include <gtest/gtest.h>

#include "paxos/message.h"

namespace blockplane::pbft {
namespace {

crypto::Digest TestDigest(uint8_t fill) {
  crypto::Digest d;
  d.fill(fill);
  return d;
}

Signature TestSig(net::NodeId signer, uint8_t fill) {
  Signature sig;
  sig.signer = signer;
  sig.mac = TestDigest(fill);
  return sig;
}

TEST(PbftMessageTest, ClientTokenRoundTrip) {
  net::NodeId id{3, 1001};
  EXPECT_EQ(ClientFromToken(ClientToken(id)), id);
  net::NodeId zero{0, 0};
  EXPECT_EQ(ClientFromToken(ClientToken(zero)), zero);
}

TEST(PbftMessageTest, RequestRoundTrip) {
  RequestMsg msg;
  msg.client_token = ClientToken({1, 1000});
  msg.req_id = 42;
  msg.value = ToBytes("payload");
  RequestMsg out;
  ASSERT_TRUE(RequestMsg::Decode(msg.Encode(), &out).ok());
  EXPECT_EQ(out.client_token, msg.client_token);
  EXPECT_EQ(out.req_id, msg.req_id);
  EXPECT_EQ(out.value, msg.value);
}

TEST(PbftMessageTest, PrePrepareRoundTrip) {
  PrePrepareMsg msg;
  msg.view = 3;
  msg.seq = 17;
  msg.digest = TestDigest(0xaa);
  msg.client_token = 99;
  msg.req_id = 5;
  msg.value = ToBytes("batch contents");
  msg.sig = TestSig({0, 1}, 0xbb);
  PrePrepareMsg out;
  ASSERT_TRUE(PrePrepareMsg::Decode(msg.Encode(), &out).ok());
  EXPECT_EQ(out.view, 3u);
  EXPECT_EQ(out.seq, 17u);
  EXPECT_EQ(out.digest, msg.digest);
  EXPECT_EQ(out.value, msg.value);
  EXPECT_EQ(out.sig, msg.sig);
  // The canonical body is payload-independent (the digest stands in).
  PrePrepareMsg other = msg;
  other.value = ToBytes("different");
  EXPECT_EQ(other.CanonicalBody(), msg.CanonicalBody());
}

TEST(PbftMessageTest, VoteRoundTripAndTypeSeparation) {
  VoteMsg prepare;
  prepare.type = kPrepare;
  prepare.view = 1;
  prepare.seq = 2;
  prepare.digest = TestDigest(0x11);
  prepare.sig = TestSig({0, 2}, 0x22);

  VoteMsg out;
  ASSERT_TRUE(VoteMsg::Decode(kPrepare, prepare.Encode(), &out).ok());
  EXPECT_EQ(out.digest, prepare.digest);
  EXPECT_EQ(out.sig, prepare.sig);

  // A prepare's canonical body must never equal a commit's: otherwise a
  // byzantine node could replay prepare signatures as commit votes.
  VoteMsg commit = prepare;
  commit.type = kCommit;
  EXPECT_NE(prepare.CanonicalBody(), commit.CanonicalBody());
}

TEST(PbftMessageTest, CanonicalBodiesDifferAcrossTypes) {
  // Same numeric fields everywhere; the type tag must still separate them.
  CheckpointMsg checkpoint;
  checkpoint.seq = 2;
  checkpoint.state_digest = TestDigest(0x11);
  VoteMsg prepare;
  prepare.type = kPrepare;
  prepare.view = 2;  // overlaps checkpoint.seq position
  prepare.seq = 2;
  prepare.digest = TestDigest(0x11);
  EXPECT_NE(checkpoint.CanonicalBody(), prepare.CanonicalBody());
}

TEST(PbftMessageTest, ViewChangeWithProofsRoundTrip) {
  ViewChangeMsg msg;
  msg.new_view = 7;
  msg.stable.seq = 64;
  msg.stable.state_digest = TestDigest(0x22);
  msg.stable.cert = {TestSig({0, 0}, 1), TestSig({0, 1}, 2),
                     TestSig({0, 2}, 3)};
  PreparedProof proof;
  proof.view = 6;
  proof.seq = 65;
  proof.digest = TestDigest(0x33);
  proof.client_token = 12;
  proof.req_id = 8;
  proof.value = ToBytes("prepared value");
  proof.preprepare_sig = TestSig({0, 0}, 0x44);
  proof.prepare_sigs = {TestSig({0, 1}, 0x55), TestSig({0, 2}, 0x66)};
  msg.prepared.push_back(proof);
  msg.sig = TestSig({0, 3}, 0x77);

  ViewChangeMsg out;
  ASSERT_TRUE(ViewChangeMsg::Decode(msg.Encode(), &out).ok());
  EXPECT_EQ(out.new_view, 7u);
  EXPECT_EQ(out.stable.seq, 64u);
  EXPECT_EQ(out.stable.state_digest, msg.stable.state_digest);
  ASSERT_EQ(out.stable.cert.size(), 3u);
  EXPECT_EQ(out.stable.cert[2], msg.stable.cert[2]);
  ASSERT_EQ(out.prepared.size(), 1u);
  EXPECT_EQ(out.prepared[0].value, proof.value);
  EXPECT_EQ(out.prepared[0].preprepare_sig, proof.preprepare_sig);
  ASSERT_EQ(out.prepared[0].prepare_sigs.size(), 2u);
  EXPECT_EQ(out.prepared[0].prepare_sigs[1], proof.prepare_sigs[1]);

  // The signature covers the prepared proofs: a new leader that strips
  // them from an honest view change breaks its signature.
  ViewChangeMsg stripped = msg;
  stripped.prepared.clear();
  EXPECT_NE(stripped.CanonicalBody(), msg.CanonicalBody());
  // It covers the checkpoint certificate too.
  ViewChangeMsg uncertified = msg;
  uncertified.stable.cert.clear();
  EXPECT_NE(uncertified.CanonicalBody(), msg.CanonicalBody());
}

TEST(PbftMessageTest, NewViewRoundTripAndTamperDetection) {
  ViewChangeMsg vc;
  vc.new_view = 9;
  vc.sig = TestSig({0, 1}, 0x12);

  NewViewMsg msg;
  msg.view = 9;
  msg.view_changes = {vc.Encode(), vc.Encode(), vc.Encode()};
  Bytes canonical_before = msg.CanonicalBody();

  NewViewMsg out;
  ASSERT_TRUE(NewViewMsg::Decode(msg.Encode(), &out).ok());
  EXPECT_EQ(out.view, 9u);
  ASSERT_EQ(out.view_changes.size(), 3u);

  // Replacing an embedded view-change changes the canonical body, so the
  // leader's signature would no longer verify.
  msg.view_changes[1][0] ^= 0xff;
  EXPECT_NE(msg.CanonicalBody(), canonical_before);
}

TEST(PbftMessageTest, SnapshotRoundTrip) {
  SnapshotMsg msg;
  msg.checkpoint.seq = 128;
  msg.checkpoint.state_digest = TestDigest(0x88);
  msg.checkpoint.cert = {TestSig({0, 0}, 1), TestSig({0, 1}, 2),
                         TestSig({0, 2}, 3)};
  msg.state.chain = TestDigest(0x99);
  msg.state.app = ToBytes("derived state");
  msg.state.executed = {{126, 0x100000003e9, 7}, {127, 0x100000003e9, 8}};
  CommittedEntry below;
  below.seq = 127;
  below.value = ToBytes("executed");
  msg.entries = {below};
  NewViewMsg nv;
  nv.view = 3;
  nv.sig = TestSig({0, 3}, 4);
  msg.new_view = {nv};
  SnapshotMsg out;
  ASSERT_TRUE(SnapshotMsg::Decode(msg.Encode(), &out).ok());
  EXPECT_EQ(out.checkpoint.seq, 128u);
  EXPECT_EQ(out.checkpoint.state_digest, msg.checkpoint.state_digest);
  ASSERT_EQ(out.checkpoint.cert.size(), 3u);
  // What the checkpoint certifies round-trips to the same digest.
  EXPECT_EQ(out.state.chain, msg.state.chain);
  EXPECT_EQ(out.state.app, msg.state.app);
  ASSERT_EQ(out.state.executed.size(), 2u);
  EXPECT_EQ(out.state.executed[1].req_id, 8u);
  EXPECT_EQ(out.state.StateDigest(), msg.state.StateDigest());
  ASSERT_EQ(out.entries.size(), 1u);
  EXPECT_EQ(out.entries[0].seq, 127u);
  EXPECT_EQ(out.entries[0].value, below.value);
  ASSERT_EQ(out.new_view.size(), 1u);
  EXPECT_EQ(out.new_view[0].view, 3u);

  // A page relays at most one NEW-VIEW.
  msg.new_view = {nv, nv};
  EXPECT_FALSE(SnapshotMsg::Decode(msg.Encode(), &out).ok());
}

TEST(PbftMessageTest, CommittedEntryRoundTrip) {
  CommittedEntry msg;
  msg.seq = 10;
  msg.view = 2;
  msg.client_token = 55;
  msg.req_id = 6;
  msg.value = ToBytes("committed");
  msg.commit_sigs = {TestSig({0, 0}, 4), TestSig({0, 1}, 5),
                     TestSig({0, 2}, 6)};
  CommittedEntry out;
  ASSERT_TRUE(CommittedEntry::Decode(msg.Encode(), &out).ok());
  EXPECT_EQ(out.value, msg.value);
  EXPECT_EQ(out.commit_sigs.size(), 3u);
}

TEST(PaxosMessageTest, BallotPacking) {
  using namespace blockplane::paxos;
  Ballot b = MakeBallot(12, 3);
  EXPECT_EQ(BallotRound(b), 12u);
  EXPECT_EQ(BallotProposer(b), 3);
  // Higher round beats any proposer index of lower rounds.
  EXPECT_GT(MakeBallot(13, 0), MakeBallot(12, 65535 - 1));
}

TEST(PaxosMessageTest, PromiseRoundTrip) {
  using namespace blockplane::paxos;
  PromiseMsg msg;
  msg.ballot = MakeBallot(4, 1);
  msg.last_committed = 9;
  msg.accepted = {{10, MakeBallot(3, 0), ToBytes("old value")},
                  {11, MakeBallot(4, 1), ToBytes("newer")}};
  PromiseMsg out;
  ASSERT_TRUE(PromiseMsg::Decode(msg.Encode(), &out).ok());
  EXPECT_EQ(out.ballot, msg.ballot);
  ASSERT_EQ(out.accepted.size(), 2u);
  EXPECT_EQ(out.accepted[0].slot, 10u);
  EXPECT_EQ(ToString(out.accepted[1].value), "newer");
}

TEST(PaxosMessageTest, AcceptLearnHeartbeatRoundTrips) {
  using namespace blockplane::paxos;
  AcceptMsg accept;
  accept.ballot = MakeBallot(2, 2);
  accept.slot = 7;
  accept.value = ToBytes("v");
  AcceptMsg accept_out;
  ASSERT_TRUE(AcceptMsg::Decode(accept.Encode(), &accept_out).ok());
  EXPECT_EQ(accept_out.slot, 7u);

  LearnMsg learn;
  learn.slot = 8;
  learn.value = ToBytes("w");
  LearnMsg learn_out;
  ASSERT_TRUE(LearnMsg::Decode(learn.Encode(), &learn_out).ok());
  EXPECT_EQ(ToString(learn_out.value), "w");

  HeartbeatMsg hb;
  hb.ballot = MakeBallot(5, 0);
  hb.last_committed = 3;
  HeartbeatMsg hb_out;
  ASSERT_TRUE(HeartbeatMsg::Decode(hb.Encode(), &hb_out).ok());
  EXPECT_EQ(hb_out.last_committed, 3u);
}

}  // namespace
}  // namespace blockplane::pbft
