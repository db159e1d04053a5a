// Unit tests for the discrete-event simulator.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/random.h"
#include "sim/sim_time.h"

namespace blockplane::sim {
namespace {

TEST(SimTimeTest, Conversions) {
  EXPECT_EQ(Milliseconds(3), 3'000'000);
  EXPECT_EQ(Microseconds(5), 5'000);
  EXPECT_EQ(Seconds(1), 1'000'000'000);
  EXPECT_EQ(MillisecondsD(0.5), 500'000);
  EXPECT_DOUBLE_EQ(ToMillis(Milliseconds(42)), 42.0);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(2)), 2.0);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.Schedule(Milliseconds(30), [&] { order.push_back(3); });
  simulator.Schedule(Milliseconds(10), [&] { order.push_back(1); });
  simulator.Schedule(Milliseconds(20), [&] { order.push_back(2); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.Now(), Milliseconds(30));
}

TEST(SimulatorTest, EqualTimestampsAreFifo) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulator.Schedule(Milliseconds(5), [&order, i] { order.push_back(i); });
  }
  simulator.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator simulator;
  int fired = 0;
  simulator.Schedule(Milliseconds(1), [&] {
    ++fired;
    simulator.Schedule(Milliseconds(1), [&] { ++fired; });
  });
  simulator.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(simulator.Now(), Milliseconds(2));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator simulator;
  bool fired = false;
  EventId id = simulator.Schedule(Milliseconds(1), [&] { fired = true; });
  simulator.Cancel(id);
  simulator.Run();
  EXPECT_FALSE(fired);
  // Cancelling again (or a bogus id) is a no-op.
  simulator.Cancel(id);
  simulator.Cancel(kInvalidEventId);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator simulator;
  int fired = 0;
  simulator.Schedule(Milliseconds(10), [&] { ++fired; });
  simulator.Schedule(Milliseconds(30), [&] { ++fired; });
  EXPECT_FALSE(simulator.RunUntil(Milliseconds(20)));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulator.Now(), Milliseconds(20));
  EXPECT_TRUE(simulator.RunUntil(Milliseconds(100)));
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenQueueDrains) {
  Simulator simulator;
  EXPECT_TRUE(simulator.RunUntil(Milliseconds(50)));
  EXPECT_EQ(simulator.Now(), Milliseconds(50));
}

TEST(SimulatorTest, RunUntilCondition) {
  Simulator simulator;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    simulator.Schedule(Milliseconds(i), [&] { ++count; });
  }
  EXPECT_TRUE(simulator.RunUntilCondition([&] { return count >= 4; },
                                          Seconds(1)));
  EXPECT_EQ(count, 4);
  EXPECT_EQ(simulator.Now(), Milliseconds(4));
}

TEST(SimulatorTest, RunUntilConditionTimesOut) {
  Simulator simulator;
  bool never = false;
  simulator.Schedule(Seconds(10), [&] { never = true; });
  EXPECT_FALSE(
      simulator.RunUntilCondition([&] { return never; }, Seconds(1)));
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator simulator;
  simulator.Schedule(Milliseconds(5), [&] {
    // Scheduling "in the past" runs immediately after the current event.
    simulator.Schedule(-Milliseconds(3), [] {});
  });
  simulator.Run();
  EXPECT_EQ(simulator.Now(), Milliseconds(5));
}

TEST(SimulatorTest, ProcessedEventCount) {
  Simulator simulator;
  for (int i = 0; i < 7; ++i) simulator.Schedule(i, [] {});
  simulator.Run();
  EXPECT_EQ(simulator.processed_events(), 7u);
}

TEST(SimulatorTest, PendingEventsTracksScheduleFireCancel) {
  Simulator simulator;
  EXPECT_EQ(simulator.pending_events(), 0u);
  EventId a = simulator.Schedule(Milliseconds(1), [] {});
  simulator.Schedule(Milliseconds(2), [] {});
  EXPECT_EQ(simulator.pending_events(), 2u);
  simulator.Cancel(a);
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.Run();
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(SimulatorTest, CancelChurnDoesNotLeakOrSkewPendingCount) {
  // Regression: Cancel() used to insert ids into the tombstone set
  // unconditionally. Cancelling ids that had already fired left tombstones
  // that nothing would ever pop, growing memory without bound and making
  // pending_events() (then queue size minus tombstones) wildly wrong —
  // even underflowing below zero.
  Simulator simulator;
  std::vector<EventId> fired_ids;
  constexpr int kRounds = 1000;
  for (int i = 0; i < kRounds; ++i) {
    fired_ids.push_back(simulator.Schedule(Milliseconds(i + 1), [] {}));
  }
  simulator.Run();
  ASSERT_EQ(simulator.pending_events(), 0u);

  // Heavy churn: cancel every fired id (twice), plus ids never issued.
  for (EventId id : fired_ids) {
    simulator.Cancel(id);
    simulator.Cancel(id);
  }
  for (EventId id = 1'000'000; id < 1'001'000; ++id) simulator.Cancel(id);
  EXPECT_EQ(simulator.pending_events(), 0u);

  // New events still schedule, cancel, and fire with an exact count: no
  // stale tombstone swallows a live event or skews the arithmetic.
  int fired = 0;
  std::vector<EventId> keep, drop;
  for (int i = 0; i < 100; ++i) {
    keep.push_back(simulator.Schedule(Milliseconds(i + 1), [&] { ++fired; }));
    drop.push_back(simulator.Schedule(Milliseconds(i + 1), [&] { ++fired; }));
  }
  EXPECT_EQ(simulator.pending_events(), 200u);
  for (EventId id : drop) simulator.Cancel(id);
  EXPECT_EQ(simulator.pending_events(), 100u);
  simulator.Run();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(SimulatorTest, CancelInsideCallbackOfSameTimestamp) {
  // An event may cancel a later event that shares its timestamp; the
  // cancelled event must not run and the pending count must stay exact.
  Simulator simulator;
  bool second_ran = false;
  EventId second = kInvalidEventId;
  simulator.Schedule(Milliseconds(1),
                     [&] { simulator.Cancel(second); });
  second = simulator.Schedule(Milliseconds(1), [&] { second_ran = true; });
  simulator.Run();
  EXPECT_FALSE(second_ran);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(SimulatorTest, StaleIdCannotCancelAReusedSlot) {
  // An id names a (slot, generation) pair. Once its event fired or was
  // cancelled, the slot goes to the next event, and the old id must not
  // reach that event.
  Simulator simulator;
  int fired = 0;
  auto count = [&fired] { ++fired; };
  const EventId fired_id = simulator.Schedule(Milliseconds(1), count);
  simulator.Run();
  const EventId after_fire = simulator.Schedule(Milliseconds(1), count);
  EXPECT_EQ(after_fire & 0xffffffffu, fired_id & 0xffffffffu)
      << "the event reuses the fired event's slot";
  EXPECT_NE(after_fire, fired_id);
  simulator.Cancel(fired_id);
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.Run();
  EXPECT_EQ(fired, 2);

  const EventId cancelled = simulator.Schedule(Milliseconds(1), count);
  simulator.Cancel(cancelled);
  const EventId after_cancel = simulator.Schedule(Milliseconds(1), count);
  EXPECT_EQ(after_cancel & 0xffffffffu, cancelled & 0xffffffffu)
      << "the event reuses the cancelled event's slot";
  simulator.Cancel(cancelled);
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.Run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.Fork();
  // The child stream should not mirror the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextU64() == child.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace blockplane::sim
