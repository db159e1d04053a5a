// Unit tests for the discrete-event simulator and its owning timers.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "sim/random.h"
#include "sim/sim_time.h"
#include "sim/timer.h"

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
  Timer timer(&simulator);
  timer.Arm(Milliseconds(1), [&] { fired = true; });
  timer.Disarm();
  simulator.Run();
  EXPECT_FALSE(fired);
  // Disarming again, or a timer that never armed, is a no-op.
  timer.Disarm();
  Timer idle(&simulator);
  idle.Disarm();
  EXPECT_EQ(simulator.pending_events(), 0u);
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

TEST(SimulatorTest, CancelledHeadCannotRunALaterEventEarly) {
  // A cancelled event's key can sit at the top of the heap before the
  // deadline while the next live event lies past it. Neither deadline
  // loop may run that event early.
  for (const bool until_condition : {false, true}) {
    SCOPED_TRACE(until_condition ? "RunUntilCondition" : "RunUntil");
    Simulator simulator;
    bool late_ran = false;
    Timer early(&simulator);
    early.Arm(Milliseconds(10), [] {});
    simulator.Schedule(Milliseconds(30), [&] { late_ran = true; });
    early.Disarm();
    if (until_condition) {
      EXPECT_FALSE(simulator.RunUntilCondition([] { return false; },
                                               Milliseconds(20)));
    } else {
      EXPECT_FALSE(simulator.RunUntil(Milliseconds(20)));
      EXPECT_EQ(simulator.Now(), Milliseconds(20));
    }
    EXPECT_FALSE(late_ran);
    EXPECT_LE(simulator.Now(), Milliseconds(20));
    simulator.Run();
    EXPECT_TRUE(late_ran);
    EXPECT_EQ(simulator.Now(), Milliseconds(30));
  }
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
  Timer a(&simulator);
  a.Arm(Milliseconds(1), [] {});
  simulator.Schedule(Milliseconds(2), [] {});
  EXPECT_EQ(simulator.pending_events(), 2u);
  a.Disarm();
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.Run();
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(SimulatorTest, CancelChurnDoesNotLeakOrSkewPendingCount) {
  // Regression: cancelling used to insert ids into the tombstone set
  // unconditionally. Cancelling ids that had already fired left tombstones
  // that nothing would ever pop, growing memory without bound and making
  // pending_events() (then queue size minus tombstones) wildly wrong —
  // even underflowing below zero.
  Simulator simulator;
  constexpr int kRounds = 1000;
  std::vector<Timer> fired_timers;
  fired_timers.reserve(kRounds);
  for (int i = 0; i < kRounds; ++i) {
    fired_timers.emplace_back(&simulator);
    fired_timers.back().Arm(Milliseconds(i + 1), [] {});
  }
  simulator.Run();
  ASSERT_EQ(simulator.pending_events(), 0u);

  // Heavy churn: disarm every fired timer, twice.
  for (Timer& timer : fired_timers) {
    timer.Disarm();
    timer.Disarm();
  }
  EXPECT_EQ(simulator.pending_events(), 0u);

  // New events still schedule, cancel, and fire with an exact count: no
  // stale tombstone swallows a live event or skews the arithmetic.
  int fired = 0;
  std::vector<Timer> keep, drop;
  keep.reserve(100);
  drop.reserve(100);
  for (int i = 0; i < 100; ++i) {
    keep.emplace_back(&simulator);
    keep.back().Arm(Milliseconds(i + 1), [&] { ++fired; });
    drop.emplace_back(&simulator);
    drop.back().Arm(Milliseconds(i + 1), [&] { ++fired; });
  }
  EXPECT_EQ(simulator.pending_events(), 200u);
  for (Timer& timer : drop) timer.Disarm();
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
  Timer second(&simulator);
  simulator.Schedule(Milliseconds(1), [&] { second.Disarm(); });
  second.Arm(Milliseconds(1), [&] { second_ran = true; });
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
  Timer first(&simulator);
  first.Arm(Milliseconds(1), count);
  simulator.Run();
  // The next event reuses the fired event's slot; the fired timer's id
  // neither reads it as armed nor cancels it.
  Timer second(&simulator);
  second.Arm(Milliseconds(1), count);
  EXPECT_FALSE(first.armed());
  first.Disarm();
  EXPECT_TRUE(second.armed());
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.Run();
  EXPECT_EQ(fired, 2);

  // Re-arming cancels the pending event and reuses its slot at once; the
  // cancelled event's key, still in the heap, must not run the new one.
  second.Arm(Milliseconds(1), count);
  second.Arm(Milliseconds(1), count);
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.Run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(TimerTest, RearmReplacesThePendingEvent) {
  Simulator simulator;
  std::vector<int> ran;
  Timer timer(&simulator);
  timer.Arm(Milliseconds(10), [&] { ran.push_back(1); });
  timer.ArmAt(Milliseconds(20), [&] { ran.push_back(2); });
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.Run();
  EXPECT_EQ(ran, (std::vector<int>{2}));
  EXPECT_EQ(simulator.Now(), Milliseconds(20));
  EXPECT_EQ(simulator.processed_events(), 1u);
}

TEST(TimerTest, DestructionCancels) {
  Simulator simulator;
  bool fired = false;
  {
    Timer timer(&simulator);
    timer.Arm(Milliseconds(1), [&] { fired = true; });
    EXPECT_EQ(simulator.pending_events(), 1u);
  }
  EXPECT_EQ(simulator.pending_events(), 0u);
  simulator.Run();
  EXPECT_FALSE(fired);
}

TEST(TimerTest, ArmedEndsWhenItFires) {
  Simulator simulator;
  Timer timer(&simulator);
  EXPECT_FALSE(timer.armed());
  bool armed_inside = true;
  timer.Arm(Milliseconds(1), [&] { armed_inside = timer.armed(); });
  EXPECT_TRUE(timer.armed());
  simulator.Run();
  EXPECT_FALSE(armed_inside) << "a callback sees its own timer disarmed";
  EXPECT_FALSE(timer.armed());
  // So a callback can re-arm its own timer.
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 3) timer.Arm(Milliseconds(1), tick);
  };
  timer.Arm(Milliseconds(1), tick);
  simulator.Run();
  EXPECT_EQ(ticks, 3);
}

TEST(TimerTest, MovedTimerOwnsTheEvent) {
  Simulator simulator;
  std::vector<int> ran;
  Timer a(&simulator);
  a.Arm(Milliseconds(1), [&] { ran.push_back(1); });
  Timer b(std::move(a));
  EXPECT_FALSE(a.armed());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.armed());
  a.Disarm();  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(simulator.pending_events(), 1u);

  // Move assignment cancels the target's own event first.
  Timer c(&simulator);
  c.Arm(Milliseconds(2), [&] { ran.push_back(2); });
  c = std::move(b);
  EXPECT_TRUE(c.armed());
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.Run();
  EXPECT_EQ(ran, (std::vector<int>{1}));
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
