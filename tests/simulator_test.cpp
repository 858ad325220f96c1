#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/require.hpp"

namespace csmabw::sim {
namespace {

TEST(Simulator, NowInsideCallbackIsEventTime) {
  // Regression test: callbacks must observe now() == their scheduled
  // time, not the previous event's time (this bug broke every MAC
  // timestamp downstream).
  Simulator sim;
  std::vector<TimeNs> observed;
  sim.schedule_at(TimeNs::us(10), [&] { observed.push_back(sim.now()); });
  sim.schedule_at(TimeNs::us(25), [&] { observed.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0], TimeNs::us(10));
  EXPECT_EQ(observed[1], TimeNs::us(25));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(TimeNs::us(10), [&] { ++fired; });
  sim.schedule_at(TimeNs::us(30), [&] { ++fired; });
  sim.run_until(TimeNs::us(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimeNs::us(20));
  sim.run_until(TimeNs::us(40));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventAtDeadlineRuns) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(TimeNs::us(20), [&] { ++fired; });
  sim.run_until(TimeNs::us(20));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  TimeNs when;
  sim.schedule_at(TimeNs::us(5), [&] {
    sim.schedule_in(TimeNs::us(7), [&] { when = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(when, TimeNs::us(12));
}

TEST(Simulator, PastSchedulingRejected) {
  Simulator sim;
  sim.schedule_at(TimeNs::us(10), [] {});
  sim.run_until(TimeNs::us(20));
  EXPECT_THROW((void)sim.schedule_at(TimeNs::us(15), [] {}),
               util::PreconditionError);
  EXPECT_THROW((void)sim.schedule_in(TimeNs::ns(-1), [] {}),
               util::PreconditionError);
}

TEST(Simulator, PastDeadlineRejected) {
  Simulator sim;
  sim.run_until(TimeNs::us(10));
  EXPECT_THROW(sim.run_until(TimeNs::us(5)), util::PreconditionError);
}

TEST(Simulator, RunWhilePendingStopsOnPredicate) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(TimeNs::us(i), [&] { ++count; });
  }
  const bool satisfied =
      sim.run_while_pending([&] { return count == 3; });
  EXPECT_TRUE(satisfied);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), TimeNs::us(3));
}

TEST(Simulator, RunWhilePendingDrainReturnsPredicate) {
  Simulator sim;
  sim.schedule_at(TimeNs::us(1), [] {});
  EXPECT_FALSE(sim.run_while_pending([] { return false; }));
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 1; i <= 4; ++i) {
    sim.schedule_at(TimeNs::us(i), [] {});
  }
  sim.run();
  EXPECT_EQ(sim.events_processed(), 4u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelledEventsDoNotRun) {
  Simulator sim;
  int fired = 0;
  auto h = sim.schedule_at(TimeNs::us(2), [&] { ++fired; });
  sim.schedule_at(TimeNs::us(1), [&] { h.cancel(); });
  sim.run();
  EXPECT_EQ(fired, 0);
}

struct TimerProbe {
  Simulator* sim = nullptr;
  std::vector<TimeNs> fired;
  void fire() { fired.push_back(sim->now()); }
};

TEST(Simulator, RunUntilLeavesLaterTimerArmed) {
  Simulator sim;
  TimerProbe p{&sim, {}};
  const TimerId id = sim.add_timer<&TimerProbe::fire>(p);
  sim.arm_timer(id, TimeNs::us(30));
  sim.run_until(TimeNs::us(20));
  EXPECT_TRUE(p.fired.empty());
  EXPECT_TRUE(sim.timer_armed(id));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(TimeNs::us(40));
  EXPECT_EQ(p.fired, (std::vector<TimeNs>{TimeNs::us(30)}));
  EXPECT_FALSE(sim.timer_armed(id));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Simulator, TimerDispatchesCountAsProcessed) {
  Simulator sim;
  TimerProbe p{&sim, {}};
  const TimerId id = sim.add_timer<&TimerProbe::fire>(p);
  sim.schedule_at(TimeNs::us(1), [&] { sim.arm_timer(id, TimeNs::us(2)); });
  sim.schedule_at(TimeNs::us(3), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(p.fired, (std::vector<TimeNs>{TimeNs::us(2)}));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, RunWhilePendingSeesTimers) {
  Simulator sim;
  TimerProbe p{&sim, {}};
  const TimerId id = sim.add_timer<&TimerProbe::fire>(p);
  sim.arm_timer(id, TimeNs::us(4));
  EXPECT_TRUE(sim.run_while_pending([&] { return !p.fired.empty(); }));
  EXPECT_EQ(sim.now(), TimeNs::us(4));
}

TEST(Simulator, PastTimerArmRejected) {
  Simulator sim;
  TimerProbe p{&sim, {}};
  const TimerId id = sim.add_timer<&TimerProbe::fire>(p);
  sim.run_until(TimeNs::us(20));
  EXPECT_THROW(sim.arm_timer(id, TimeNs::us(15)), util::PreconditionError);
  EXPECT_FALSE(sim.timer_armed(id));
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.arm_timer(id, TimeNs::us(20));  // now itself is not the past
  sim.run();
  EXPECT_EQ(p.fired, (std::vector<TimeNs>{TimeNs::us(20)}));
}

}  // namespace
}  // namespace csmabw::sim
