// Single-threaded discrete-event loop with a nanosecond clock. Every distributed
// component in this repo (replicas, shards, clients, the control plane) runs as event
// handlers on one EventLoop, which makes whole-cluster executions deterministic and
// lets tests inject failures at exact instants.
//
// Scheduling is allocation-free in steady state. Each pending event owns a pooled slot
// holding its callable inline (InlineFunction; captures above kEventCapture bytes fall
// back to one heap block). The heap orders plain {at, seq, slot} entries, and a slot
// freed by firing or cancelling is reused by a later event. An event's sequence number
// doubles as its slot generation: a handle or heap entry whose seq no longer matches
// the slot's refers to an event that already fired or was cancelled.
#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/types.h"

namespace lazylog {

class EventLoop;

// Handle for a scheduled event; lets the scheduler cancel it before it fires. A plain
// {loop, slot, generation} value: copies are cheap, and a handle that outlives its
// event (fired, cancelled, slot reused) is simply no longer Pending(). A non-empty
// handle must not be used after its EventLoop is destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  // True if the event has neither fired nor been cancelled.
  bool Pending() const;
  // Prevents the event from firing and destroys its callable (releasing captured
  // resources at once). Safe to call repeatedly, on an empty handle, or after firing.
  void Cancel();

 private:
  friend class EventLoop;
  EventHandle(EventLoop* loop, uint32_t slot, uint64_t gen)
      : loop_(loop), slot_(slot), gen_(gen) {}

  EventLoop* loop_ = nullptr;
  uint32_t slot_ = 0;
  uint64_t gen_ = 0;
};

// The event loop. Events scheduled for the same instant fire in scheduling order.
class EventLoop {
 public:
  // Inline capture budget per event. Fits the network delivery closure (80 B: a frame
  // Buf plus its attachment vector) and the CPU-stage closures of the append handlers,
  // which carry the decoded request and its responder.
  static constexpr size_t kEventCapture = 96;
  using EventFn = InlineFunction<void(), kEventCapture>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Current simulated time (ns since simulation start).
  SimTime Now() const { return now_; }

  // Schedules `fn` to run `delay_ns` from now. Returns a cancellable handle. `fn` is
  // any void() callable (move-only captures allowed). An empty one (null std::function)
  // still consumes a sequence number but never fires.
  template <typename F>
  EventHandle Schedule(uint64_t delay_ns, F&& fn) {
    return ScheduleAt(now_ + delay_ns, std::forward<F>(fn));
  }
  // Schedules `fn` at an absolute time (clamped to now if in the past).
  template <typename F>
  EventHandle ScheduleAt(SimTime at, F&& fn) {
    if (at < now_) {
      at = now_;
    }
    const uint64_t seq = next_seq_++;
    if (IsNullCallable(fn)) {
      queue_.push(QueueEntry{at, seq, kNoSlot});  // a tombstone from the start
      return EventHandle();
    }
    const uint32_t slot = AcquireSlot();
    Slot& s = SlotAt(slot);
    s.fn = std::forward<F>(fn);
    s.gen = seq;
    queue_.push(QueueEntry{at, seq, slot});
    return EventHandle(this, slot, seq);
  }

  // Runs the single earliest pending event; returns false if none remain.
  bool RunOne();
  // Runs events until the clock would pass `deadline`; the clock ends at exactly
  // `deadline` (events at later times stay pending).
  void RunUntil(SimTime deadline);
  // Runs until no events remain. `max_events` guards against runaway self-rescheduling.
  void RunUntilIdle(uint64_t max_events = UINT64_MAX);

  // Number of queue entries, including the tombstones of cancelled events that have
  // not reached the front yet.
  size_t QueuedEvents() const { return queue_.size(); }

  // Total events executed since construction (cancelled tombstones excluded). The
  // harness-throughput bench divides this by wall-clock time to measure simulator speed.
  uint64_t events_run() const { return events_run_; }

 private:
  friend class EventHandle;

  static constexpr uint32_t kNoSlot = UINT32_MAX;
  static constexpr uint64_t kFreeGen = UINT64_MAX;  // gen of a slot with no live event
  // Slots live in fixed-size chunks so a running callable keeps its address while it
  // schedules new events (which may add chunks).
  static constexpr uint32_t kChunkShift = 10;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;

  struct Slot {
    EventFn fn;
    uint64_t gen = kFreeGen;  // seq of the live event in this slot
  };
  struct QueueEntry {
    SimTime at;
    uint64_t seq;
    uint32_t slot;
    bool operator>(const QueueEntry& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  Slot& SlotAt(uint32_t i) { return chunks_[i >> kChunkShift][i & (kChunkSize - 1)]; }
  const Slot& SlotAt(uint32_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }
  bool Live(const QueueEntry& e) const {
    return e.slot != kNoSlot && SlotAt(e.slot).gen == e.seq;
  }
  uint32_t AcquireSlot();
  // Ends the life of the event in `slot`: stale-marks it, destroys its callable, and
  // returns the slot to the free list (in that order, so a capture's destructor that
  // schedules an event cannot be handed this slot half-cleared).
  void ReleaseSlot(uint32_t slot);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_run_ = 0;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> queue_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace lazylog

#endif  // SRC_SIM_EVENT_LOOP_H_
