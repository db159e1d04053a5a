// The discrete-event simulation core.
//
// A Simulator owns a virtual clock and an event queue. Everything in a
// Blockplane deployment — replicas, clients, daemons, the network — runs as
// callbacks scheduled on one Simulator, which makes every experiment
// single-threaded and deterministic for a given seed.
//
// Events live in a slot array with a free list; the heap orders 24-byte
// (when, seq, slot) keys, so scheduling, firing and cancelling never touch
// a hash set and never copy a callback. An event's id is the pair (slot,
// generation): a slot's generation moves on each time its event fires or
// is cancelled, so a stale id can never cancel a later event that reuses
// the slot, and its key left in the heap is skipped when it pops.
//
// Schedule and ScheduleAt are fire-and-forget: they return nothing, so an
// event that may need cancelling is armed through a sim::Timer
// (sim/timer.h), which owns the id and cancels it when destroyed.
#ifndef BLOCKPLANE_SIM_SIMULATOR_H_
#define BLOCKPLANE_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/macros.h"
#include "sim/random.h"
#include "sim/sim_time.h"

namespace blockplane::sim {

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1);
  BP_DISALLOW_COPY_AND_ASSIGN(Simulator);

  /// Current virtual time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run `delay` from now. Delays clamp to >= 0.
  void Schedule(SimTime delay, std::function<void()> fn);

  /// Schedules `fn` at an absolute virtual time (>= Now()).
  void ScheduleAt(SimTime when, std::function<void()> fn);

  /// Runs until the event queue drains. Returns the final virtual time.
  SimTime Run();

  /// Runs events with time <= deadline. Returns true if the queue drained.
  bool RunUntil(SimTime deadline);

  /// Runs for `duration` of virtual time from now.
  bool RunFor(SimTime duration) { return RunUntil(now_ + duration); }

  /// Runs until `pred()` is true, the queue drains, or `deadline` passes.
  /// Returns true iff the predicate became true.
  bool RunUntilCondition(const std::function<bool()>& pred, SimTime deadline);

  /// Root RNG; fork per-component streams from it for isolation.
  Rng& rng() { return rng_; }

  uint64_t processed_events() const { return processed_; }
  /// Events scheduled, not yet fired, and not cancelled.
  size_t pending_events() const { return live_; }

 private:
  friend class Timer;

  /// (generation << 32 | slot). Generation 0 is never issued.
  using EventId = uint64_t;
  static constexpr EventId kNoEvent = 0;

  /// One event's storage. `generation` names the event the slot holds (or
  /// held last); it moves on when that event fires or is cancelled.
  struct Slot {
    std::function<void()> fn;
    uint32_t generation = 1;
  };
  /// A heap entry: the slot and the generation it was scheduled under, so
  /// the key of a cancelled event is recognised (and skipped) when it pops.
  struct Key {
    SimTime when;
    uint64_t seq;  // FIFO tie-break for equal timestamps
    uint32_t slot;
    uint32_t generation;
  };
  struct KeyLater {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Schedules `fn` at `when` (>= Now()) and returns its id.
  EventId Enqueue(SimTime when, std::function<void()> fn);
  /// True while event `id` is scheduled and has neither fired nor been
  /// cancelled; false from the moment it starts to run.
  bool Pending(EventId id) const;
  /// Cancels event `id` if it is pending; any other id is a no-op. Its key
  /// stays in the heap until it pops.
  void Cancel(EventId id);
  /// Pops the keys of cancelled events off the top of the heap and returns
  /// the key of the next live event, or nullptr if none is pending. Every
  /// deadline test looks at this key, never at a cancelled one.
  const Key* NextLive();
  /// Runs the next live event. Returns false if none is pending.
  bool Step();
  /// Ends the slot's current event and puts the slot on the free list.
  void Release(uint32_t slot);

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t processed_ = 0;
  size_t live_ = 0;
  std::priority_queue<Key, std::vector<Key>, KeyLater> queue_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  Rng rng_;
};

}  // namespace blockplane::sim

#endif  // BLOCKPLANE_SIM_SIMULATOR_H_
