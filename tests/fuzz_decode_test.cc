// Decode robustness: every wire decoder must survive arbitrary bytes —
// a byzantine peer controls everything it sends, so "corrupted message"
// must always mean a clean error, never a crash or an out-of-bounds read.
//
// Three generators: pure random bytes, truncations of valid encodings, and
// single-byte mutations of valid encodings.
#include <gtest/gtest.h>

#include "core/batcher.h"
#include "core/record.h"
#include "core/wire.h"
#include "paxos/message.h"
#include "pbft/message.h"
#include "sim/random.h"

namespace blockplane {
namespace {

using sim::Rng;

Bytes RandomBytes(Rng& rng, size_t max_len) {
  Bytes out(rng.NextBelow(max_len + 1));
  for (auto& b : out) b = static_cast<uint8_t>(rng.NextU64());
  return out;
}

crypto::QuorumCert SomeCert(net::SiteId site) {
  crypto::QuorumCert cert;
  cert.site = site;
  cert.signer_bits = 0b11;
  cert.agg[0] = 0x5a;
  return cert;
}

template <typename Msg>
void DecodeAs(const Bytes& input) {
  Msg out;
  (void)Msg::Decode(input, &out);
}

/// Runs every decoder in the code base against one input.
void DecodeEverything(const Bytes& input) {
  DecodeAs<core::LogRecord>(input);
  DecodeAs<core::TransmissionRecord>(input);
  DecodeAs<core::TransmissionAckMsg>(input);
  DecodeAs<core::TransmissionNoticeMsg>(input);
  DecodeAs<core::AttestRequestMsg>(input);
  DecodeAs<core::AttestResponseMsg>(input);
  DecodeAs<core::DeliverNoticeMsg>(input);
  DecodeAs<core::RecvStatusQueryMsg>(input);
  DecodeAs<core::RecvStatusReplyMsg>(input);
  DecodeAs<core::GeoReplicateMsg>(input);
  DecodeAs<core::GeoAckMsg>(input);
  DecodeAs<core::GeoGapNoticeMsg>(input);
  DecodeAs<core::ReadRequestMsg>(input);
  DecodeAs<core::ReadReplyMsg>(input);
  DecodeAs<core::MirrorFetchMsg>(input);
  DecodeAs<core::MirrorEntryMsg>(input);
  DecodeAs<core::GeoProofBundleMsg>(input);
  DecodeAs<core::DerivedState>(input);
  DecodeAs<core::MirrorBase>(input);
  {
    std::vector<Bytes> ops;
    (void)core::Batcher::DecodeBatch(input, &ops);
  }
  DecodeAs<pbft::RequestMsg>(input);
  DecodeAs<pbft::PrePrepareMsg>(input);
  {
    pbft::VoteMsg out;
    (void)pbft::VoteMsg::Decode(pbft::kPrepare, input, &out);
  }
  DecodeAs<pbft::ReplyMsg>(input);
  DecodeAs<pbft::CheckpointMsg>(input);
  DecodeAs<pbft::StableCheckpoint>(input);
  DecodeAs<pbft::CheckpointState>(input);
  DecodeAs<pbft::FetchSnapshotMsg>(input);
  DecodeAs<pbft::CommittedEntry>(input);
  DecodeAs<pbft::SnapshotMsg>(input);
  DecodeAs<pbft::ViewChangeMsg>(input);
  DecodeAs<pbft::NewViewMsg>(input);
  DecodeAs<paxos::PrepareMsg>(input);
  DecodeAs<paxos::PromiseMsg>(input);
  DecodeAs<paxos::AcceptMsg>(input);
  DecodeAs<paxos::AcceptedMsg>(input);
  DecodeAs<paxos::NackMsg>(input);
  DecodeAs<paxos::LearnMsg>(input);
  DecodeAs<paxos::HeartbeatMsg>(input);
  DecodeAs<paxos::ForwardMsg>(input);
}

class FuzzDecodeTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzDecodeTest, RandomBytesNeverCrashDecoders) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0x9e3779b9);
  for (int i = 0; i < 500; ++i) {
    DecodeEverything(RandomBytes(rng, 300));
  }
}

TEST_P(FuzzDecodeTest, TruncatedValidRecordsFailCleanly) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31337);
  core::LogRecord record;
  record.type = core::RecordType::kReceived;
  record.routine_id = 9;
  record.payload = RandomBytes(rng, 64);
  record.src_site = 1;
  record.dest_site = 2;
  record.src_log_pos = 5;
  record.prev_src_log_pos = 3;
  record.proof = {SomeCert(1)};
  record.geo_proof = {SomeCert(0), SomeCert(3)};
  Bytes valid = record.Encode();

  // Every strict prefix must decode to an error, never to success with
  // garbage fields silently accepted... and never crash. The cert lists
  // are required fields, so a cut at a list boundary fails too.
  for (size_t len = 0; len < valid.size(); ++len) {
    Bytes truncated(valid.begin(), valid.begin() + len);
    core::LogRecord out;
    Status status = core::LogRecord::Decode(truncated, &out);
    EXPECT_FALSE(status.ok()) << "prefix of length " << len << " decoded";
  }
  // The full encoding round-trips.
  core::LogRecord out;
  ASSERT_TRUE(core::LogRecord::Decode(valid, &out).ok());
  EXPECT_EQ(out.payload, record.payload);
  EXPECT_EQ(out.src_log_pos, record.src_log_pos);
  EXPECT_EQ(out.proof, record.proof);
  EXPECT_EQ(out.geo_proof, record.geo_proof);
}

TEST_P(FuzzDecodeTest, ReadMessagesRejectPrefixesAndMutations) {
  // The read request's body flag and the reply's value digest (§VI-A).
  Rng rng(static_cast<uint64_t>(GetParam()) * 577);
  core::ReadRequestMsg request;
  request.read_id = 12;
  request.pos = 34;
  request.body = true;
  core::ReadReplyMsg reply;
  reply.read_id = 12;
  reply.pos = 34;
  reply.outcome = core::ReadOutcome::kFound;
  for (auto& b : reply.digest) b = static_cast<uint8_t>(rng.NextU64());
  reply.record = RandomBytes(rng, 200);
  const Bytes valid_request = request.Encode();
  const Bytes valid_reply = reply.Encode();

  for (size_t len = 0; len < valid_request.size(); ++len) {
    core::ReadRequestMsg out;
    EXPECT_FALSE(core::ReadRequestMsg::Decode(
                     Bytes(valid_request.begin(), valid_request.begin() + len),
                     &out)
                     .ok())
        << "request prefix of length " << len << " decoded";
  }
  for (size_t len = 0; len < valid_reply.size(); ++len) {
    core::ReadReplyMsg out;
    EXPECT_FALSE(core::ReadReplyMsg::Decode(
                     Bytes(valid_reply.begin(), valid_reply.begin() + len),
                     &out)
                     .ok())
        << "reply prefix of length " << len << " decoded";
  }
  core::ReadRequestMsg request_out;
  ASSERT_TRUE(core::ReadRequestMsg::Decode(valid_request, &request_out).ok());
  EXPECT_TRUE(request_out.body);
  core::ReadReplyMsg reply_out;
  ASSERT_TRUE(core::ReadReplyMsg::Decode(valid_reply, &reply_out).ok());
  EXPECT_EQ(reply_out.digest, reply.digest);
  EXPECT_EQ(reply_out.record, reply.record);

  for (const Bytes& valid : {valid_request, valid_reply}) {
    for (int i = 0; i < 100; ++i) {
      Bytes mutated = valid;
      mutated[rng.NextBelow(mutated.size())] =
          static_cast<uint8_t>(rng.NextU64());
      DecodeEverything(mutated);
    }
  }
}

TEST_P(FuzzDecodeTest, MutatedValidEncodingsNeverCrash) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7);
  core::TransmissionRecord tr;
  tr.src_site = 0;
  tr.dest_site = 3;
  tr.src_log_pos = 11;
  tr.prev_src_log_pos = 9;
  tr.payload = RandomBytes(rng, 128);
  tr.proof = {SomeCert(0)};
  tr.geo_proof = {SomeCert(1)};
  Bytes valid = tr.Encode();

  for (int i = 0; i < 300; ++i) {
    Bytes mutated = valid;
    size_t pos = rng.NextBelow(mutated.size());
    mutated[pos] = static_cast<uint8_t>(rng.NextU64());
    DecodeEverything(mutated);
  }
}

TEST_P(FuzzDecodeTest, ConcatenatedGarbageAfterValidPrefixIsHandled) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 101);
  pbft::RequestMsg request;
  request.client_token = 42;
  request.req_id = 7;
  request.value = RandomBytes(rng, 40);
  Bytes valid = request.Encode();
  for (int i = 0; i < 100; ++i) {
    Bytes extended = valid;
    Bytes garbage = RandomBytes(rng, 50);
    extended.insert(extended.end(), garbage.begin(), garbage.end());
    DecodeEverything(extended);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDecodeTest,
                         ::testing::Values(1, 2, 3, 4, 5),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "seed" + std::to_string(pinfo.param);
                         });

}  // namespace
}  // namespace blockplane
