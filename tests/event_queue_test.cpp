#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "util/require.hpp"

namespace csmabw::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimeNs::us(30), [&] { order.push_back(3); });
  q.schedule(TimeNs::us(10), [&] { order.push_back(1); });
  q.schedule(TimeNs::us(20), [&] { order.push_back(2); });
  while (!q.empty()) {
    q.pop_and_run();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(TimeNs::us(7), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.pop_and_run();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  std::vector<int> order;
  auto h = q.schedule(TimeNs::us(1), [&] { order.push_back(1); });
  q.schedule(TimeNs::us(2), [&] { order.push_back(2); });
  h.cancel();
  while (!q.empty()) {
    q.pop_and_run();
  }
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterFire) {
  EventQueue q;
  auto h = q.schedule(TimeNs::us(1), [] {});
  EXPECT_TRUE(h.scheduled());
  q.pop_and_run();
  EXPECT_FALSE(h.scheduled());
  h.cancel();  // no effect after firing
  h.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DefaultHandleIsUnscheduled) {
  EventHandle h;
  EXPECT_FALSE(h.scheduled());
  h.cancel();  // must not crash
}

TEST(EventQueue, NextTimeSeesEarliestLiveEvent) {
  EventQueue q;
  auto h = q.schedule(TimeNs::us(1), [] {});
  q.schedule(TimeNs::us(5), [] {});
  h.cancel();
  EXPECT_EQ(q.next_time(), TimeNs::us(5));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  auto h1 = q.schedule(TimeNs::us(1), [] {});
  q.schedule(TimeNs::us(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  h1.cancel();
  EXPECT_TRUE(!q.empty());
  EXPECT_EQ(q.size(), 1u);
  q.pop_and_run();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimeNs::us(1), [&] {
    order.push_back(1);
    q.schedule(TimeNs::us(2), [&] { order.push_back(2); });
  });
  while (!q.empty()) {
    q.pop_and_run();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, PopOnEmptyIsAnError) {
  EventQueue q;
  EXPECT_THROW((void)q.pop_and_run(), util::PreconditionError);
  EXPECT_THROW((void)q.next_time(), util::PreconditionError);
}

// A nullable callable smaller than std::function (whose size varies by
// standard library — libc++/MSVC would overflow the inline slot).
struct NullableFn {
  void (*fn)() = nullptr;
  explicit operator bool() const { return fn != nullptr; }
  void operator()() const { fn(); }
};

TEST(EventQueue, NullCallbackRejected) {
  EventQueue q;
  EXPECT_THROW((void)q.schedule(TimeNs::us(1), NullableFn{}),
               util::PreconditionError);
}

TEST(EventQueue, MemberDispatchRunsTheMethod) {
  struct Counter {
    int hits = 0;
    void bump() { ++hits; }
  };
  EventQueue q;
  Counter c;
  q.schedule_member<&Counter::bump>(TimeNs::us(1), c);
  auto h = q.schedule_member<&Counter::bump>(TimeNs::us(2), c);
  EXPECT_TRUE(h.scheduled());
  h.cancel();
  while (!q.empty()) {
    q.pop_and_run();
  }
  EXPECT_EQ(c.hits, 1);
}

TEST(EventQueue, NonTrivialCallbackIsDestroyed) {
  // A shared_ptr capture is non-trivially destructible; its destructor
  // must run both on the fire path and on the cancel path (and at
  // queue teardown).
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    EventQueue q;
    auto fn = [token] {};
    token.reset();
    EXPECT_FALSE(watch.expired());
    auto h = q.schedule(TimeNs::us(1), std::move(fn));
    h.cancel();
    EXPECT_TRUE(watch.expired());  // cancel destroys the callback eagerly
  }
}

TEST(EventQueue, TeardownDestroysPendingCallbacks) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    EventQueue q;
    auto fn = [token] {};
    token.reset();
    q.schedule(TimeNs::us(1), std::move(fn));
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

// --- generation safety (slot recycling must not enable ABA cancels) ---

TEST(EventQueue, HandleToFiredSlotGoesStale) {
  EventQueue q;
  auto h1 = q.schedule(TimeNs::us(1), [] {});
  q.pop_and_run();
  // The slot is free again; the next schedule recycles it.
  int fired = 0;
  auto h2 = q.schedule(TimeNs::us(2), [&] { ++fired; });
  EXPECT_FALSE(h1.scheduled());
  EXPECT_TRUE(h2.scheduled());
  h1.cancel();  // stale handle: must NOT cancel the slot's new occupant
  EXPECT_TRUE(h2.scheduled());
  q.pop_and_run();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, HandleToCancelledAndRecycledSlotGoesStale) {
  EventQueue q;
  auto h1 = q.schedule(TimeNs::us(1), [] {});
  h1.cancel();
  int fired = 0;
  auto h2 = q.schedule(TimeNs::us(2), [&] { ++fired; });
  EXPECT_FALSE(h1.scheduled());
  h1.cancel();  // idempotent and still a no-op for the new occupant
  EXPECT_TRUE(h2.scheduled());
  while (!q.empty()) {
    q.pop_and_run();
  }
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, SelfCancelDuringDispatchIsANoOp) {
  EventQueue q;
  EventHandle h;
  int other = 0;
  h = q.schedule(TimeNs::us(1), [&] {
    EXPECT_FALSE(h.scheduled());  // already firing
    h.cancel();                   // harmless
  });
  q.schedule(TimeNs::us(2), [&] { ++other; });
  while (!q.empty()) {
    q.pop_and_run();
  }
  EXPECT_EQ(other, 1);
}

// --- compaction: schedule/cancel churn must stay bounded ---

TEST(EventQueue, CancelChurnKeepsHeapAndSlabBounded) {
  EventQueue q;
  // A few long-lived events so the heap is never trivially empty.
  for (int i = 0; i < 10; ++i) {
    q.schedule(TimeNs::sec(100 + i), [] {});
  }
  std::size_t max_heap = 0;
  for (int i = 0; i < 100000; ++i) {
    auto h = q.schedule(TimeNs::us(i % 997), [] {});
    h.cancel();
    max_heap = std::max(max_heap, q.heap_entries());
  }
  // Cancelled-before-pop events must be reclaimed by compaction, not
  // accumulate until they surface: 100k cancels, yet the heap stays at
  // live + O(live + constant) records and the slab never grows past its
  // tiny high-water mark.
  EXPECT_EQ(q.size(), 10u);
  EXPECT_LT(max_heap, 200u);
  EXPECT_LE(q.slot_capacity(), 256u);
}

TEST(EventQueue, CompactionPreservesFireOrder) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 2000; ++i) {
    handles.push_back(
        q.schedule(TimeNs::us(2000 - i), [&order, i] { order.push_back(i); }));
  }
  // Cancel all odd events — enough to trigger several compactions once
  // the churn below runs.
  for (int i = 1; i < 2000; i += 2) {
    handles[static_cast<std::size_t>(i)].cancel();
  }
  for (int i = 0; i < 5000; ++i) {
    auto h = q.schedule(TimeNs::us(1), [] {});
    h.cancel();
  }
  while (!q.empty()) {
    q.pop_and_run();
  }
  // Even events fire in ascending time, i.e. descending i.
  ASSERT_EQ(order.size(), 1000u);
  for (std::size_t k = 1; k < order.size(); ++k) {
    EXPECT_LT(order[k], order[k - 1]);
  }
}

TEST(EventQueue, SteadyStateDoesNotAllocate) {
  EventQueue q;
  auto churn = [&q] {
    for (int i = 0; i < 10000; ++i) {
      auto h = q.schedule(TimeNs::us(i % 500), [] {});
      if (i % 3 == 0) {
        h.cancel();
      }
      if (q.size() > 700) {
        while (!q.empty()) {
          q.pop_and_run();
        }
      }
    }
    while (!q.empty()) {
      q.pop_and_run();
    }
  };
  // Warm-up: drive slab and heap to the workload's high-water mark.
  churn();
  // Steady state: the queue itself performs zero heap allocations across
  // 10k scheduled events (slab chunks and heap capacity are recycled).
  const std::uint64_t before = q.allocations();
  churn();
  EXPECT_EQ(q.allocations(), before);
}

TEST(EventQueue, RunUntilBatchesInOrder) {
  EventQueue q;
  std::vector<std::int64_t> seen;
  TimeNs now = TimeNs::zero();
  for (int i = 10; i >= 1; --i) {
    q.schedule(TimeNs::us(i), [&seen, &now] { seen.push_back(now.count()); });
  }
  const std::uint64_t ran = q.run_until(TimeNs::us(5), now);
  EXPECT_EQ(ran, 5u);
  EXPECT_EQ(q.size(), 5u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  const std::uint64_t rest = q.run_all(now);
  EXPECT_EQ(rest, 5u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(now, TimeNs::us(10));
}

// --- re-armable timers ---

// Seeded churn over one queue: kSlots re-armable slots plus one-shot
// heap events on a coarse time grid (so equal-time ties are common).
// In timer mode a slot is a timer that is armed/disarmed; in handle
// mode it is an EventHandle that is cancelled and re-scheduled.  Every
// dispatch logs its tag and mutates the queue again, so the two modes
// diverge at the first dispatch-order difference.  A dispatched
// one-shot schedules its successor, so the stream never drains.
class TimerChurn {
 public:
  static constexpr int kSlots = 3;

  TimerChurn(bool use_timers, std::uint64_t seed)
      : use_timers_(use_timers), rng_(seed) {
    for (int k = 0; k < kSlots; ++k) {
      slots_[static_cast<std::size_t>(k)] = Slot{this, k};
      ids_[static_cast<std::size_t>(k)] =
          q_.add_timer<&Slot::fire>(slots_[static_cast<std::size_t>(k)]);
    }
  }

  /// Runs until `events` dispatches happened (or the queue drains),
  /// alternating step() and run_until() so both loops are exercised.
  /// Returns (tag, queue size after dispatch) per dispatch.
  std::vector<std::pair<int, std::size_t>> run(int events) {
    for (int i = 0; i < 8; ++i) {
      mutate();
    }
    bool use_step = false;
    while (!q_.empty() && static_cast<int>(log_.size()) < events) {
      if (use_step) {
        q_.step(now_);
      } else {
        const TimeNs deadline = now_ + TimeNs::us(3);
        q_.run_until(deadline, now_);
        now_ = deadline;
      }
      use_step = !use_step;
      mutate();
    }
    return log_;
  }

 private:
  struct Slot {
    TimerChurn* owner = nullptr;
    int k = 0;
    void fire() { owner->dispatched(100 + k); }
  };

  void dispatched(int tag) {
    log_.emplace_back(tag, q_.size());
    if (tag >= kFirstOneShot) {
      schedule_one_shot(ahead());
    }
    mutate();
  }

  /// 0..3 us ahead: re-arms at an unchanged time and ties against
  /// equal-time heap events both happen often.
  TimeNs ahead() {
    return now_ + TimeNs::us(static_cast<std::int64_t>(rng_() % 4));
  }

  void schedule_one_shot(TimeNs at) {
    const int tag = next_tag_++;
    q_.schedule(at, [this, tag] { dispatched(tag); });
  }

  void mutate() {
    const int ops = static_cast<int>(rng_() % 3);
    for (int n = 0; n < ops; ++n) {
      const auto k = static_cast<std::size_t>(rng_() % kSlots);
      const TimeNs at = ahead();
      switch (rng_() % 4) {
        case 0:
        case 1:
          if (use_timers_) {
            q_.arm(ids_[k], at);
          } else {
            handles_[k].cancel();
            handles_[k] = q_.schedule_member<&Slot::fire>(at, slots_[k]);
          }
          break;
        case 2:
          if (use_timers_) {
            q_.disarm(ids_[k]);
          } else {
            handles_[k].cancel();
          }
          break;
        default:
          schedule_one_shot(at);
      }
    }
  }

  EventQueue q_;
  bool use_timers_;
  std::mt19937_64 rng_;
  TimeNs now_ = TimeNs::zero();
  std::array<Slot, kSlots> slots_{};
  std::array<TimerId, kSlots> ids_{};
  std::array<EventHandle, kSlots> handles_{};
  static constexpr int kFirstOneShot = 1000;
  int next_tag_ = kFirstOneShot;
  std::vector<std::pair<int, std::size_t>> log_;
};

TEST(EventQueueTimer, ArmMatchesCancelAndRescheduleOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto with_handles = TimerChurn(false, seed).run(4000);
    const auto with_timers = TimerChurn(true, seed).run(4000);
    ASSERT_GT(with_handles.size(), 100u) << "seed " << seed;
    ASSERT_EQ(with_handles, with_timers) << "seed " << seed;
  }
}

struct Ticker {
  EventQueue* q = nullptr;
  TimerId id = 0;
  TimeNs* now = nullptr;
  std::vector<std::int64_t> fired_at;
  bool armed_inside = true;
  void tick() {
    fired_at.push_back(now->count());
    armed_inside = armed_inside && q->armed(id);
    if (fired_at.size() < 3) {
      q->arm(id, *now + TimeNs::us(5));
    }
  }
};

TEST(EventQueueTimer, RearmFromOwnCallback) {
  EventQueue q;
  TimeNs now = TimeNs::zero();
  Ticker t;
  t.q = &q;
  t.now = &now;
  t.id = q.add_timer<&Ticker::tick>(t);
  q.arm(t.id, TimeNs::us(1));
  EXPECT_EQ(q.run_all(now), 3u);
  EXPECT_EQ(t.fired_at, (std::vector<std::int64_t>{1000, 6000, 11000}));
  EXPECT_FALSE(t.armed_inside);  // disarmed while its callback runs
  EXPECT_FALSE(q.armed(t.id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTimer, ArmedTimersCountAsLiveEvents) {
  struct Noop {
    void fire() {}
  };
  EventQueue q;
  Noop n;
  const TimerId a = q.add_timer<&Noop::fire>(n);
  const TimerId b = q.add_timer<&Noop::fire>(n);
  EXPECT_TRUE(q.empty());
  q.arm(a, TimeNs::us(4));
  q.arm(a, TimeNs::us(2));  // re-arm: still one live event
  EXPECT_EQ(q.size(), 1u);
  q.schedule(TimeNs::us(3), [] {});
  q.arm(b, TimeNs::us(1));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.next_time(), TimeNs::us(1));
  q.disarm(b);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), TimeNs::us(2));
  EXPECT_EQ(q.pop_and_run(), TimeNs::us(2));
  EXPECT_EQ(q.pop_and_run(), TimeNs::us(3));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTimer, DisarmOfUnarmedTimerIsANoOp) {
  struct Noop {
    int hits = 0;
    void fire() { ++hits; }
  };
  EventQueue q;
  Noop n;
  const TimerId a = q.add_timer<&Noop::fire>(n);
  const TimerId b = q.add_timer<&Noop::fire>(n);
  q.disarm(a);  // never armed
  EXPECT_TRUE(q.empty());
  q.arm(b, TimeNs::us(2));
  q.disarm(a);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.armed(b));
  q.disarm(b);
  q.disarm(b);  // already disarmed
  EXPECT_TRUE(q.empty());
  q.schedule(TimeNs::us(1), [] {});
  (void)q.pop_and_run();
  EXPECT_EQ(n.hits, 0);
  EXPECT_THROW(q.disarm(7), util::PreconditionError);
}

TEST(EventQueueTimer, EqualTimeTiesFollowArmOrder) {
  // An arm takes the next sequence number: a timer re-armed at an
  // unchanged time moves behind equal-time events scheduled since.
  struct Log {
    std::vector<int>* order = nullptr;
    void fire() { order->push_back(0); }
  };
  EventQueue q;
  std::vector<int> order;
  Log log{&order};
  const TimerId id = q.add_timer<&Log::fire>(log);
  q.arm(id, TimeNs::us(5));
  q.schedule(TimeNs::us(5), [&order] { order.push_back(1); });
  q.arm(id, TimeNs::us(5));
  q.schedule(TimeNs::us(5), [&order] { order.push_back(2); });
  while (!q.empty()) {
    q.pop_and_run();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

}  // namespace
}  // namespace csmabw::sim
