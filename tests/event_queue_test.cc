#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace tmh {
namespace {

TEST(EventQueueTest, StartsAtTimeZero) {
  EventQueue q;
  EXPECT_EQ(q.Now(), 0);
  EXPECT_EQ(q.NextEventTime(-1), -1);
  EXPECT_EQ(q.ExecutedCount(), 0u);
}

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  q.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.Now(), 30);
}

TEST(EventQueueTest, SameTimeEventsRunInFifoOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  q.RunToCompletion();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  SimTime observed = -1;
  q.ScheduleAt(100, [&] { q.ScheduleAfter(50, [&] { observed = q.Now(); }); });
  q.RunToCompletion();
  EXPECT_EQ(observed, 150);
}

TEST(EventQueueTest, NowAdvancesOnlyWhenEventsRun) {
  EventQueue q;
  q.ScheduleAt(42, [] {});
  EXPECT_EQ(q.Now(), 0);
  EXPECT_EQ(q.RunWhile([] { return true; }), 1u);
  EXPECT_EQ(q.Now(), 42);
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) {
      q.ScheduleAfter(10, chain);
    }
  };
  q.ScheduleAt(0, chain);
  q.RunToCompletion();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.Now(), 40);
}

TEST(EventQueueTest, RunToCompletionHonorsEventCap) {
  EventQueue q;
  std::function<void()> forever = [&] { q.ScheduleAfter(1, forever); };
  q.ScheduleAt(0, forever);
  EXPECT_EQ(q.RunToCompletion(100), 100u);
}

TEST(EventQueueTest, NextEventTimeReportsEarliestPending) {
  EventQueue q;
  EXPECT_EQ(q.NextEventTime(777), 777);
  q.ScheduleAt(5000, [] {});
  q.ScheduleAt(50, [] {});
  q.ScheduleAt(25, [] {});
  EXPECT_EQ(q.NextEventTime(0), 25);
  q.RunWhile([] { return true; });
  EXPECT_EQ(q.NextEventTime(0), 50);
  q.RunWhile([] { return true; });
  EXPECT_EQ(q.NextEventTime(0), 5000);
  q.RunWhile([] { return true; });
  EXPECT_EQ(q.NextEventTime(0), 0);
}

TEST(EventQueueTest, NextEventTimeFromInsideAnAction) {
  // Kernel::TryDispatch peeks from inside the running action to decide
  // whether a woken thread may run inline: the running event must not count
  // as pending, while same-time events behind it or posted by it must.
  for (const SimTime later : {SimTime{20}, SimTime{5000}}) {
    EventQueue q;
    SimTime seen = 0;
    q.ScheduleAt(10, [&] { seen = q.NextEventTime(-1); });
    q.ScheduleAt(later, [] {});
    q.RunToCompletion();
    EXPECT_EQ(seen, later);
  }
  {
    EventQueue q;
    SimTime seen = 0;
    q.ScheduleAt(10, [&] { seen = q.NextEventTime(-1); });
    q.RunToCompletion();
    EXPECT_EQ(seen, -1);
  }
  {
    EventQueue q;
    SimTime seen = 0;
    q.ScheduleAt(10, [&] { seen = q.NextEventTime(-1); });
    q.ScheduleAt(10, [] {});
    q.ScheduleAt(20, [] {});
    q.RunToCompletion();
    EXPECT_EQ(seen, 10);
  }
  {
    EventQueue q;
    std::vector<int> order;
    SimTime seen = 0;
    q.ScheduleAt(10, [&] {
      order.push_back(1);
      q.ScheduleAt(10, [&] { order.push_back(2); });
      seen = q.NextEventTime(-1);
    });
    q.ScheduleAt(20, [&] { order.push_back(3); });
    q.RunToCompletion();
    EXPECT_EQ(seen, 10);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  }
}

TEST(EventQueueTest, ExecutedCountTracksEvents) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) {
    q.ScheduleAt(i, [] {});
  }
  q.RunToCompletion();
  EXPECT_EQ(q.ExecutedCount(), 7u);
}

TEST(EventQueueTest, DeterministicAcrossRuns) {
  auto run = [] {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) {
      q.ScheduleAt((i * 37) % 50, [&order, i] { order.push_back(i); });
    }
    q.RunToCompletion();
    return order;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace tmh
