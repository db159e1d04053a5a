// Focused tests on the Participant handle: receive-queue semantics,
// handler installation order, concurrent commits, and read ordering.
#include "core/participant.h"

#include <gtest/gtest.h>

#include "core/deployment.h"
#include "core/wire.h"
#include "sim/simulator.h"

namespace blockplane::core {
namespace {

using net::kCalifornia;
using net::kOregon;
using net::Topology;
using sim::Seconds;

class ParticipantTest : public ::testing::Test {
 protected:
  ParticipantTest()
      : simulator_(81), deployment_(&simulator_, Topology::Aws4(), {}) {}

  sim::Simulator simulator_;
  Deployment deployment_;
};

TEST_F(ParticipantTest, LateHandlerDrainsQueuedMessages) {
  // Messages received before a handler is installed wait in the polling
  // queue; SetReceiveHandler must drain them, in order.
  Participant* sender = deployment_.participant(kCalifornia);
  for (int i = 0; i < 3; ++i) {
    sender->Send(kOregon, ToBytes("early-" + std::to_string(i)), 0, nullptr);
  }
  Participant* receiver = deployment_.participant(kOregon);
  ASSERT_TRUE(simulator_.RunUntilCondition(
      [&] {
        // All three are queued (peek via a copy-free check: TryReceive
        // would consume, so wait on the unit's log instead).
        return deployment_.node(kOregon, 0)->log_size() >= 3;
      },
      Seconds(120)));
  simulator_.RunFor(Seconds(1));

  std::vector<std::string> got;
  receiver->SetReceiveHandler([&](net::SiteId src, const Bytes& payload) {
    EXPECT_EQ(src, kCalifornia);
    got.push_back(ToString(payload));
  });
  ASSERT_EQ(got.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(got[i], "early-" + std::to_string(i));
}

TEST_F(ParticipantTest, TryReceiveConsumesInOrder) {
  Participant* sender = deployment_.participant(kCalifornia);
  sender->Send(kOregon, ToBytes("one"), 0, nullptr);
  sender->Send(kOregon, ToBytes("two"), 0, nullptr);
  Participant* receiver = deployment_.participant(kOregon);
  Bytes first;
  ASSERT_TRUE(simulator_.RunUntilCondition(
      [&] { return receiver->TryReceive(kCalifornia, &first); },
      Seconds(120)));
  EXPECT_EQ(ToString(first), "one");
  Bytes second;
  ASSERT_TRUE(simulator_.RunUntilCondition(
      [&] { return receiver->TryReceive(kCalifornia, &second); },
      Seconds(120)));
  EXPECT_EQ(ToString(second), "two");
  Bytes none;
  EXPECT_FALSE(receiver->TryReceive(kCalifornia, &none));
}

TEST_F(ParticipantTest, ConcurrentCommitsAllCompleteWithDistinctPositions) {
  std::set<uint64_t> positions;
  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    deployment_.participant(kCalifornia)
        ->LogCommit(ToBytes("c" + std::to_string(i)), 0, [&](uint64_t pos) {
          positions.insert(pos);
          ++completed;
        });
  }
  ASSERT_TRUE(simulator_.RunUntilCondition([&] { return completed == 8; },
                                           Seconds(60)));
  EXPECT_EQ(positions.size(), 8u);  // all distinct log positions
  EXPECT_EQ(*positions.rbegin(), 8u);
  EXPECT_EQ(deployment_.participant(kCalifornia)->commits_completed(), 8u);
}

TEST_F(ParticipantTest, LinearizableReadSeesPriorCommit) {
  // A linearizable read issued after a commit completes must observe it.
  uint64_t pos = 0;
  bool committed = false;
  deployment_.participant(kCalifornia)
      ->LogCommit(ToBytes("observable"), 0, [&](uint64_t p) {
        pos = p;
        committed = true;
      });
  ASSERT_TRUE(simulator_.RunUntilCondition([&] { return committed; },
                                           Seconds(60)));
  bool read_done = false;
  deployment_.participant(kCalifornia)
      ->Read(pos, ReadStrategy::kLinearizable,
             [&](Status status, LogRecord record) {
               ASSERT_TRUE(status.ok());
               EXPECT_EQ(ToString(record.payload), "observable");
               read_done = true;
             });
  ASSERT_TRUE(simulator_.RunUntilCondition([&] { return read_done; },
                                           Seconds(60)));
}

TEST_F(ParticipantTest, InterleavedReadsResolveIndependently) {
  uint64_t pos = 0;
  bool committed = false;
  deployment_.participant(kCalifornia)
      ->LogCommit(ToBytes("shared"), 0, [&](uint64_t p) {
        pos = p;
        committed = true;
      });
  ASSERT_TRUE(simulator_.RunUntilCondition([&] { return committed; },
                                           Seconds(60)));
  simulator_.RunFor(Seconds(1));
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    deployment_.participant(kCalifornia)
        ->Read(pos, i % 2 == 0 ? ReadStrategy::kReadOne
                               : ReadStrategy::kReadQuorum,
               [&](Status status, LogRecord record) {
                 EXPECT_TRUE(status.ok());
                 EXPECT_EQ(ToString(record.payload), "shared");
                 ++done;
               });
  }
  ASSERT_TRUE(
      simulator_.RunUntilCondition([&] { return done == 4; }, Seconds(60)));
}

TEST_F(ParticipantTest, LostDeliverNoticesAreSentAgain) {
  // Every unit node's notice for the second message is lost on its way to
  // the receiving participant. The third message's notices reveal the gap,
  // and the participant asks its unit for the lost notice again.
  struct NoticeFilter : net::Host {
    void HandleMessage(const net::Message& msg) override {
      DeliverNoticeMsg notice;
      if (msg.type == kDeliverNotice && dropped < 4 &&
          DeliverNoticeMsg::Decode(msg.body(), &notice).ok() &&
          ToString(notice.payload) == "two") {
        ++dropped;
        return;
      }
      participant->HandleMessage(msg);
    }
    Participant* participant = nullptr;
    int dropped = 0;
  } filter;
  Participant* receiver = deployment_.participant(kOregon);
  filter.participant = receiver;
  deployment_.network()->Register(ParticipantNodeId(kOregon), &filter);
  std::vector<std::string> got;
  receiver->SetReceiveHandler([&](net::SiteId, const Bytes& payload) {
    got.push_back(ToString(payload));
  });
  for (const char* text : {"one", "two", "three"}) {
    deployment_.participant(kCalifornia)
        ->Send(kOregon, ToBytes(text), 0, nullptr);
  }
  ASSERT_TRUE(simulator_.RunUntilCondition([&] { return got.size() == 3; },
                                           Seconds(120)));
  EXPECT_EQ(filter.dropped, 4);
  EXPECT_EQ(got, (std::vector<std::string>{"one", "two", "three"}));
}

}  // namespace
}  // namespace blockplane::core
