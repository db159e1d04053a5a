#include "sim/simulator.h"

#include <utility>

namespace blockplane::sim {

namespace {
/// Pre-sized backing storage: a busy deployment schedules thousands of
/// events before the queue's vector would otherwise finish doubling.
constexpr size_t kInitialQueueCapacity = 4096;

uint64_t MakeId(uint32_t slot, uint32_t generation) {
  return static_cast<uint64_t>(generation) << 32 | slot;
}
}  // namespace

Simulator::Simulator(uint64_t seed) : rng_(seed) {
  std::vector<Key> storage;
  storage.reserve(kInitialQueueCapacity);
  queue_ = std::priority_queue<Key, std::vector<Key>, KeyLater>(
      KeyLater{}, std::move(storage));
  slots_.reserve(kInitialQueueCapacity);
  free_slots_.reserve(kInitialQueueCapacity);
}

void Simulator::Schedule(SimTime delay, std::function<void()> fn) {
  if (delay < 0) delay = 0;
  Enqueue(now_ + delay, std::move(fn));
}

void Simulator::ScheduleAt(SimTime when, std::function<void()> fn) {
  Enqueue(when, std::move(fn));
}

Simulator::EventId Simulator::Enqueue(SimTime when,
                                      std::function<void()> fn) {
  BP_CHECK(when >= now_);
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  queue_.push(Key{when, next_seq_++, slot, s.generation});
  ++live_;
  return MakeId(slot, s.generation);
}

void Simulator::Release(uint32_t slot) {
  Slot& s = slots_[slot];
  // Generation 0 is never issued, so no live event's id is kNoEvent.
  if (++s.generation == 0) s.generation = 1;
  free_slots_.push_back(slot);
  --live_;
}

bool Simulator::Pending(EventId id) const {
  // Only the id of a live event matches its slot's generation; a fired,
  // cancelled or never-issued id (generation 0) does not.
  const uint64_t slot = id & 0xffffffffu;
  const uint32_t generation = static_cast<uint32_t>(id >> 32);
  return generation != 0 && slot < slots_.size() &&
         slots_[slot].generation == generation;
}

void Simulator::Cancel(EventId id) {
  if (!Pending(id)) return;
  const uint32_t slot = static_cast<uint32_t>(id & 0xffffffffu);
  slots_[slot].fn = nullptr;  // release the captures now
  Release(slot);
}

const Simulator::Key* Simulator::NextLive() {
  while (!queue_.empty()) {
    const Key& key = queue_.top();
    if (slots_[key.slot].generation == key.generation) return &key;
    queue_.pop();  // cancelled
  }
  return nullptr;
}

bool Simulator::Step() {
  const Key* next = NextLive();
  if (next == nullptr) return false;
  const Key key = *next;
  queue_.pop();
  // Move the callback out before running it: it may schedule events that
  // reuse this slot or grow the slot array.
  std::function<void()> fn = std::move(slots_[key.slot].fn);
  Release(key.slot);
  BP_CHECK(key.when >= now_);
  now_ = key.when;
  ++processed_;
  fn();
  return true;
}

SimTime Simulator::Run() {
  while (Step()) {
  }
  return now_;
}

bool Simulator::RunUntil(SimTime deadline) {
  while (const Key* next = NextLive()) {
    if (next->when > deadline) {
      now_ = deadline;
      return false;
    }
    Step();
  }
  if (now_ < deadline) now_ = deadline;
  return true;
}

bool Simulator::RunUntilCondition(const std::function<bool()>& pred,
                                  SimTime deadline) {
  if (pred()) return true;
  for (const Key* next = NextLive(); next != nullptr && next->when <= deadline;
       next = NextLive()) {
    Step();
    if (pred()) return true;
  }
  return false;
}

}  // namespace blockplane::sim
