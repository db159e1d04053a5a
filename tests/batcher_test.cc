// Tests for batching & group commit (§VI-C) and node recovery (§VI-B).
#include "core/batcher.h"

#include <gtest/gtest.h>

#include "common/codec.h"
#include "core/deployment.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace blockplane::core {
namespace {

using net::kCalifornia;
using net::Topology;
using sim::Milliseconds;
using sim::Seconds;

class BatcherTest : public ::testing::Test {
 protected:
  BatcherTest()
      : simulator_(19),
        deployment_(&simulator_, Topology::SingleSite(), {}) {}

  sim::Simulator simulator_;
  Deployment deployment_;
};

TEST_F(BatcherTest, EncodeDecodeRoundTrip) {
  std::vector<Bytes> ops = {ToBytes("a"), ToBytes("bb"), ToBytes(""),
                            ToBytes("cccc")};
  Bytes payload = Batcher::EncodeBatch(ops);
  std::vector<Bytes> decoded;
  ASSERT_TRUE(Batcher::DecodeBatch(payload, &decoded).ok());
  EXPECT_EQ(decoded, ops);
}

TEST_F(BatcherTest, DecodeRejectsTrailingBytes) {
  Bytes payload = Batcher::EncodeBatch({ToBytes("x")});
  payload.push_back(0x00);
  std::vector<Bytes> decoded;
  EXPECT_TRUE(Batcher::DecodeBatch(payload, &decoded).IsCorruption());
}

TEST_F(BatcherTest, DecodeRejectsTruncation) {
  Bytes payload = Batcher::EncodeBatch({ToBytes("hello")});
  payload.resize(payload.size() - 2);
  std::vector<Bytes> decoded;
  EXPECT_TRUE(Batcher::DecodeBatch(payload, &decoded).IsCorruption());
}

TEST_F(BatcherTest, GroupsSmallOpsIntoOneCommit) {
  Batcher batcher(deployment_.participant(0), &simulator_);
  std::vector<std::pair<uint64_t, uint32_t>> completions;
  for (int i = 0; i < 10; ++i) {
    batcher.Add(ToBytes("op" + std::to_string(i)),
                [&](uint64_t pos, uint32_t index) {
                  completions.push_back({pos, index});
                });
  }
  batcher.Flush();
  ASSERT_TRUE(simulator_.RunUntilCondition(
      [&] { return completions.size() == 10; }, Seconds(10)));
  // All ten ops landed in one batch (one log record), indexed in order.
  EXPECT_EQ(batcher.batches_committed(), 1u);
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(completions[i].first, completions[0].first);
    EXPECT_EQ(completions[i].second, i);
  }
  // The committed record decodes back to the ops.
  const auto& log = deployment_.node(0, 0)->log();
  simulator_.RunFor(Seconds(1));
  ASSERT_EQ(log.size(), 1u);
  std::vector<Bytes> ops;
  ASSERT_TRUE(Batcher::DecodeBatch(log.at(1).payload, &ops).ok());
  ASSERT_EQ(ops.size(), 10u);
  EXPECT_EQ(ToString(ops[3]), "op3");
}

TEST_F(BatcherTest, MaxDelayFlushesAutomatically) {
  Batcher::Options options;
  options.max_delay = Milliseconds(5);
  Batcher batcher(deployment_.participant(0), &simulator_, options);
  bool done = false;
  batcher.Add(ToBytes("lonely op"), [&](uint64_t, uint32_t) { done = true; });
  // No Flush() call: the delay timer must do it.
  ASSERT_TRUE(
      simulator_.RunUntilCondition([&] { return done; }, Seconds(10)));
}

TEST_F(BatcherTest, SizeThresholdFlushesAutomatically) {
  Batcher::Options options;
  options.max_batch_bytes = 100;
  options.max_delay = 0;  // disable the timer: only size can trigger
  Batcher batcher(deployment_.participant(0), &simulator_, options);
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    batcher.Add(Bytes(30, 0x42), [&](uint64_t, uint32_t) { ++completed; });
  }
  ASSERT_TRUE(
      simulator_.RunUntilCondition([&] { return completed == 4; },
                                   Seconds(10)));
}

TEST_F(BatcherTest, DecodeRejectsCountExceedingPayload) {
  // A malicious count varint must be rejected before it reaches
  // vector::reserve — every real op costs at least one payload byte.
  Encoder enc;
  enc.PutVarint(500'000);  // under the absolute cap, but payload is tiny
  enc.PutBytes(ToBytes("x"));
  std::vector<Bytes> decoded;
  EXPECT_TRUE(Batcher::DecodeBatch(enc.Take(), &decoded).IsCorruption());

  Encoder huge;
  huge.PutVarint(uint64_t{1} << 40);  // absurd count, empty payload
  EXPECT_TRUE(Batcher::DecodeBatch(huge.Take(), &decoded).IsCorruption());
}

TEST_F(BatcherTest, GroupCommitKeepsOneBatchInFlight) {
  Batcher::Options options;
  options.max_ops = 4;
  options.max_delay = Milliseconds(1);
  Batcher batcher(deployment_.participant(0), &simulator_, options);
  std::vector<uint64_t> batch_positions;
  constexpr int kOps = 20;
  int completed = 0;
  for (int i = 0; i < kOps; ++i) {
    batcher.Add(ToBytes(std::to_string(i)),
                [&](uint64_t pos, uint32_t) {
                  ++completed;
                  batch_positions.push_back(pos);
                });
  }
  ASSERT_TRUE(simulator_.RunUntilCondition(
      [&] { return completed == kOps; }, Seconds(10)));
  EXPECT_EQ(batcher.batches_committed(), 5u);  // 20 ops / 4 per batch
  // Batches committed strictly one after another: positions ascend.
  for (size_t i = 1; i < batch_positions.size(); ++i) {
    EXPECT_LE(batch_positions[i - 1], batch_positions[i]);
  }
  // Submission order is preserved across batches.
  const auto& log = deployment_.node(0, 0)->log();
  simulator_.RunFor(Seconds(1));
  int expected = 0;
  for (const auto& [pos, record] : log) {
    std::vector<Bytes> ops;
    ASSERT_TRUE(Batcher::DecodeBatch(record.payload, &ops).ok());
    for (const Bytes& op : ops) {
      EXPECT_EQ(ToString(op), std::to_string(expected++));
    }
  }
  EXPECT_EQ(expected, kOps);
}

TEST_F(BatcherTest, VerificationRoutineSeesWholeBatch) {
  // §VI-C: "the leader and replicas perform the validation routines for
  // each transaction and vote positively only if all are validated".
  constexpr uint64_t kRoutine = 5;
  for (int i = 0; i < 4; ++i) {
    deployment_.node(0, i)->RegisterVerifier(
        kRoutine, [](const LogRecord& record) {
          std::vector<Bytes> ops;
          if (!Batcher::DecodeBatch(record.payload, &ops).ok()) return false;
          for (const Bytes& op : ops) {
            if (ToString(op).find("bad") != std::string::npos) return false;
          }
          return true;
        });
  }
  Batcher batcher(deployment_.participant(0), &simulator_, {}, kRoutine);
  int completed = 0;
  batcher.Add(ToBytes("good-1"), [&](uint64_t, uint32_t) { ++completed; });
  batcher.Add(ToBytes("bad-2"), [&](uint64_t, uint32_t) { ++completed; });
  batcher.Flush();
  // The whole batch is rejected (one bad transaction poisons it).
  EXPECT_FALSE(simulator_.RunUntilCondition([&] { return completed > 0; },
                                            Seconds(3)));
}

TEST(NodeRecoveryTest, RecoveredNodeCatchesUpFromPeers) {
  // §VI-B: "When the replica becomes non-faulty again, it reads the state
  // of the Local Log from other nodes to catch up with the current state."
  sim::Simulator simulator(23);
  Deployment deployment(&simulator, Topology::SingleSite(), {});
  net::NodeId down{0, 2};
  deployment.network()->Crash(down);

  int completed = 0;
  for (int i = 0; i < 6; ++i) {
    deployment.participant(0)->LogCommit(ToBytes("c" + std::to_string(i)), 0,
                                         [&](uint64_t) { ++completed; });
  }
  ASSERT_TRUE(simulator.RunUntilCondition([&] { return completed == 6; },
                                          Seconds(30)));
  EXPECT_EQ(deployment.node(0, 2)->log_size(), 0u);

  deployment.network()->Recover(down);
  deployment.node(0, 2)->Recover();
  ASSERT_TRUE(simulator.RunUntilCondition(
      [&] { return deployment.node(0, 2)->log_size() == 6; }, Seconds(30)));
  // The recovered copy matches a healthy node's log.
  for (uint64_t pos = 1; pos <= 6; ++pos) {
    EXPECT_EQ(ToString(deployment.node(0, 2)->log().at(pos).payload),
              ToString(deployment.node(0, 0)->log().at(pos).payload));
  }
}

}  // namespace
}  // namespace blockplane::core
