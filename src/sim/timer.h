// An owning handle on one cancellable simulator event.
//
// A Timer holds its Simulator and the id of the event it armed last. Arm
// and ArmAt cancel that event if it is still pending and then schedule the
// new one, so a timer never has two events in flight, and destroying the
// Timer cancels its event, so no callback outlives the object that armed
// it. armed() is the simulator's (slot, generation) check: it turns false
// the moment the event starts to run, so no callback resets a handle.
//
// A Timer is two words and wraps nothing: the callback goes to the
// simulator as given, so a 16-byte capture stays inside std::function's
// inline buffer and arming allocates nothing.
#ifndef BLOCKPLANE_SIM_TIMER_H_
#define BLOCKPLANE_SIM_TIMER_H_

#include <algorithm>
#include <functional>
#include <utility>

#include "sim/simulator.h"

namespace blockplane::sim {

class Timer {
 public:
  explicit Timer(Simulator* simulator) : sim_(simulator) {}
  Timer(Timer&& other) noexcept
      : sim_(other.sim_), id_(std::exchange(other.id_, Simulator::kNoEvent)) {}
  Timer& operator=(Timer&& other) noexcept {
    if (this != &other) {
      Disarm();
      sim_ = other.sim_;
      id_ = std::exchange(other.id_, Simulator::kNoEvent);
    }
    return *this;
  }
  ~Timer() { Disarm(); }

  /// Cancels the pending event, if any, and schedules `fn` `delay` from
  /// now. Delays clamp to >= 0.
  void Arm(SimTime delay, std::function<void()> fn) {
    ArmAt(sim_->Now() + std::max<SimTime>(delay, 0), std::move(fn));
  }
  /// Cancels the pending event, if any, and schedules `fn` at `when`.
  void ArmAt(SimTime when, std::function<void()> fn) {
    Disarm();
    id_ = sim_->Enqueue(when, std::move(fn));
  }
  /// Cancels the pending event, if any.
  void Disarm() {
    if (id_ != Simulator::kNoEvent) {
      sim_->Cancel(std::exchange(id_, Simulator::kNoEvent));
    }
  }
  /// True while the armed event has neither run nor been cancelled.
  bool armed() const { return sim_->Pending(id_); }

 private:
  Simulator* sim_;
  Simulator::EventId id_ = Simulator::kNoEvent;
};

static_assert(sizeof(Timer) == 2 * sizeof(void*), "a Timer is two words");

}  // namespace blockplane::sim

#endif  // BLOCKPLANE_SIM_TIMER_H_
