#include "src/sim/event_loop.h"

#include "src/common/logging.h"

namespace lazylog {

bool EventHandle::Pending() const {
  return loop_ != nullptr && loop_->SlotAt(slot_).gen == gen_;
}

void EventHandle::Cancel() {
  if (Pending()) {
    loop_->ReleaseSlot(slot_);
  }
}

uint32_t EventLoop::AcquireSlot() {
  if (free_slots_.empty()) {
    const auto base = static_cast<uint32_t>(chunks_.size() * kChunkSize);
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    free_slots_.reserve(chunks_.size() * kChunkSize);
    for (uint32_t i = kChunkSize; i > 0; --i) {
      free_slots_.push_back(base + i - 1);  // lowest index on top
    }
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void EventLoop::ReleaseSlot(uint32_t slot) {
  Slot& s = SlotAt(slot);
  s.gen = kFreeGen;
  s.fn.reset();
  free_slots_.push_back(slot);
}

bool EventLoop::RunOne() {
  while (!queue_.empty()) {
    const QueueEntry e = queue_.top();
    queue_.pop();
    if (!Live(e)) {
      continue;  // tombstone of a cancelled (or empty) event
    }
    LL_CHECK(e.at >= now_, "event scheduled in the past");
    now_ = e.at;
    Slot& s = SlotAt(e.slot);
    s.gen = kFreeGen;  // the handle stops being Pending() before the callable runs
    ++events_run_;
    s.fn();
    s.fn.reset();
    free_slots_.push_back(e.slot);
    return true;
  }
  return false;
}

void EventLoop::RunUntil(SimTime deadline) {
  while (!queue_.empty()) {
    const QueueEntry& top = queue_.top();
    if (!Live(top)) {
      queue_.pop();
      continue;
    }
    if (top.at > deadline) {
      break;
    }
    RunOne();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

void EventLoop::RunUntilIdle(uint64_t max_events) {
  uint64_t ran = 0;
  while (ran < max_events && RunOne()) {
    ++ran;
  }
  LL_CHECK(ran < max_events, "RunUntilIdle exceeded max_events; runaway rescheduling?");
}

}  // namespace lazylog
