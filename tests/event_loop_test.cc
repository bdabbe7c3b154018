// EventLoop tests: time advancement, ordering, same-instant FIFO, cancellation,
// RunUntil clamping, runaway protection hooks, and the pooled-slot handle semantics.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "src/sim/event_loop.h"

namespace lazylog {
namespace {

TEST(EventLoop, StartsAtZero) {
  EventLoop loop;
  EXPECT_EQ(loop.Now(), 0u);
  EXPECT_FALSE(loop.RunOne());
}

TEST(EventLoop, AdvancesToEventTime) {
  EventLoop loop;
  SimTime fired_at = 0;
  loop.Schedule(1000, [&]() { fired_at = loop.Now(); });
  EXPECT_TRUE(loop.RunOne());
  EXPECT_EQ(fired_at, 1000u);
  EXPECT_EQ(loop.Now(), 1000u);
}

TEST(EventLoop, OrdersByTime) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(300, [&]() { order.push_back(3); });
  loop.Schedule(100, [&]() { order.push_back(1); });
  loop.Schedule(200, [&]() { order.push_back(2); });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, SameInstantIsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.Schedule(500, [&order, i]() { order.push_back(i); });
  }
  loop.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventLoop, CancelPreventsFiring) {
  EventLoop loop;
  bool fired = false;
  EventHandle h = loop.Schedule(100, [&]() { fired = true; });
  EXPECT_TRUE(h.Pending());
  h.Cancel();
  EXPECT_FALSE(h.Pending());
  loop.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, CancelAfterFireIsSafe) {
  EventLoop loop;
  EventHandle h = loop.Schedule(1, []() {});
  loop.RunUntilIdle();
  EXPECT_FALSE(h.Pending());
  h.Cancel();  // no-op
}

TEST(EventLoop, EmptyHandleIsSafe) {
  EventHandle h;
  EXPECT_FALSE(h.Pending());
  h.Cancel();
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  bool late_fired = false;
  loop.Schedule(100, []() {});
  loop.Schedule(10'000, [&]() { late_fired = true; });
  loop.RunUntil(5'000);
  EXPECT_EQ(loop.Now(), 5'000u);
  EXPECT_FALSE(late_fired);
  loop.RunUntil(20'000);
  EXPECT_TRUE(late_fired);
  EXPECT_EQ(loop.Now(), 20'000u);
}

TEST(EventLoop, EventsCanScheduleEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 5) {
      loop.Schedule(10, recurse);
    }
  };
  loop.Schedule(10, recurse);
  loop.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.Now(), 50u);
}

TEST(EventLoop, ScheduleAtPastClampsToNow) {
  EventLoop loop;
  loop.Schedule(1000, []() {});
  loop.RunUntilIdle();
  SimTime fired_at = 0;
  loop.ScheduleAt(10, [&]() { fired_at = loop.Now(); });  // in the past
  loop.RunUntilIdle();
  EXPECT_EQ(fired_at, 1000u);
}

TEST(EventLoop, ManyEventsStressOrdering) {
  EventLoop loop;
  SimTime last = 0;
  int count = 0;
  for (int i = 0; i < 10'000; ++i) {
    loop.Schedule((i * 7919) % 100'000, [&]() {
      EXPECT_GE(loop.Now(), last);
      last = loop.Now();
      count++;
    });
  }
  loop.RunUntilIdle();
  EXPECT_EQ(count, 10'000);
}

// Slots are reused last-freed-first, so the event scheduled right after a cancel lands
// in the cancelled event's slot; the old handle must see a different generation.
TEST(EventLoop, StaleHandleDoesNotTouchSlotReuser) {
  EventLoop loop;
  bool old_fired = false;
  bool new_fired = false;
  EventHandle old_handle = loop.Schedule(100, [&]() { old_fired = true; });
  old_handle.Cancel();
  EventHandle new_handle = loop.Schedule(100, [&]() { new_fired = true; });
  EXPECT_FALSE(old_handle.Pending());
  EXPECT_TRUE(new_handle.Pending());
  old_handle.Cancel();  // stale: must leave the new event alone
  EXPECT_TRUE(new_handle.Pending());
  loop.RunUntilIdle();
  EXPECT_FALSE(old_fired);
  EXPECT_TRUE(new_fired);
}

TEST(EventLoop, HandleOfFiredEventIsStaleAfterReuse) {
  EventLoop loop;
  EventHandle first = loop.Schedule(10, []() {});
  loop.RunUntilIdle();
  int fired = 0;
  EventHandle second = loop.Schedule(10, [&]() { fired++; });
  EXPECT_FALSE(first.Pending());
  first.Cancel();
  EXPECT_TRUE(second.Pending());
  loop.RunUntilIdle();
  EXPECT_EQ(fired, 1);
}

TEST(EventLoop, SameInstantFifoSurvivesCancelsAndSlotReuse) {
  EventLoop loop;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(loop.Schedule(500, [&order, i]() { order.push_back(i); }));
  }
  for (int i = 1; i < 10; i += 2) {
    handles[i].Cancel();
  }
  // These reuse the cancelled slots but were scheduled later, so they fire later.
  for (int i = 10; i < 15; ++i) {
    loop.Schedule(500, [&order, i]() { order.push_back(i); });
  }
  handles[4].Cancel();
  loop.Schedule(500, [&order]() { order.push_back(15); });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 6, 8, 10, 11, 12, 13, 14, 15}));
}

TEST(EventLoop, CancelReleasesCapturesAtOnce) {
  EventLoop loop;
  auto resource = std::make_shared<int>(7);
  EventHandle h = loop.Schedule(100, [resource]() {});
  EXPECT_EQ(resource.use_count(), 2);
  h.Cancel();
  EXPECT_EQ(resource.use_count(), 1);  // destroyed before the tombstone is popped
  EXPECT_EQ(loop.QueuedEvents(), 1u);
  loop.Schedule(50, [resource]() {});
  EXPECT_EQ(resource.use_count(), 2);
  loop.RunUntilIdle();
  EXPECT_EQ(resource.use_count(), 1);  // released once fired too
}

TEST(EventLoop, OversizedCaptureFiresOnce) {
  EventLoop loop;
  std::array<uint64_t, 32> big{};
  big[31] = 42;
  uint64_t seen = 0;
  int fired = 0;
  auto fn = [big, &seen, &fired]() {
    seen = big[31];
    fired++;
  };
  static_assert(sizeof(fn) > EventLoop::kEventCapture);
  EXPECT_FALSE(EventLoop::EventFn(fn).is_inline());  // heap fallback
  EventHandle h = loop.Schedule(10, fn);
  EXPECT_TRUE(h.Pending());
  loop.RunUntilIdle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(seen, 42u);
  EXPECT_FALSE(h.Pending());
}

TEST(EventLoop, MoveOnlyCaptureFiresOnce) {
  EventLoop loop;
  int fired = 0;
  int seen = 0;
  auto owned = std::make_unique<int>(9);
  loop.Schedule(10, [p = std::move(owned), &fired, &seen]() {
    seen = *p;
    fired++;
  });
  loop.RunUntilIdle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(seen, 9);
}

TEST(EventLoop, EmptyFunctionConsumesSequenceButNeverFires) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(100, [&]() { order.push_back(1); });
  EventHandle empty = loop.Schedule(100, std::function<void()>());
  loop.Schedule(100, [&]() { order.push_back(2); });
  EXPECT_FALSE(empty.Pending());
  EXPECT_EQ(loop.QueuedEvents(), 3u);  // the empty event holds a queue entry
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.events_run(), 2u);
  EXPECT_EQ(loop.QueuedEvents(), 0u);
}

}  // namespace
}  // namespace lazylog
