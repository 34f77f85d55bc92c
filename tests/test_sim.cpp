// Tests for the discrete-event simulator: event ordering, coroutine tasks,
// channels, timeouts, wait groups.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace dodo::sim {
namespace {

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30_ms, [&] { order.push_back(3); });
  sim.schedule(10_ms, [&] { order.push_back(1); });
  sim.schedule(20_ms, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30_ms);
  EXPECT_EQ(sim.peak_queue_depth(), 3u);
}

TEST(Simulator, SameTimeEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    sim.schedule(5_ms, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, RunRespectsTimeLimit) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10_ms, [&] { ++fired; });
  sim.schedule(100_ms, [&] { ++fired; });
  sim.run(50_ms);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50_ms);
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule(10_ms, [&] {
    sim.schedule(1_ms, [&] { seen = sim.now(); });  // in the "past"
  });
  sim.run();
  EXPECT_EQ(seen, 10_ms);
}

Co<void> sleeper(Simulator& sim, std::vector<SimTime>& log) {
  log.push_back(sim.now());
  co_await sim.sleep(5_ms);
  log.push_back(sim.now());
  co_await sim.sleep(7_ms);
  log.push_back(sim.now());
}

TEST(Task, SleepAdvancesSimTime) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.spawn(sleeper(sim, log));
  sim.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], 0);
  EXPECT_EQ(log[1], 5_ms);
  EXPECT_EQ(log[2], 12_ms);
}

Co<int> answer(Simulator& sim) {
  co_await sim.sleep(1_ms);
  co_return 42;
}

Co<void> asker(Simulator& sim, int& out) {
  out = co_await answer(sim);
}

TEST(Task, ValueReturningSubtask) {
  Simulator sim;
  int out = 0;
  sim.spawn(asker(sim, out));
  sim.run();
  EXPECT_EQ(out, 42);
  EXPECT_EQ(sim.now(), 1_ms);
}

Co<int> deep(Simulator& sim, int depth) {
  if (depth == 0) co_return 1;
  co_await sim.sleep(1_us);
  const int below = co_await deep(sim, depth - 1);
  co_return below + 1;
}

TEST(Task, DeeplyNestedAwaitChains) {
  Simulator sim;
  int out = 0;
  sim.spawn([](Simulator& s, int& o) -> Co<void> {
    o = co_await deep(s, 200);
  }(sim, out));
  sim.run();
  EXPECT_EQ(out, 201);
}

Co<void> producer(Simulator& sim, Channel<int>& ch, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sim.sleep(1_ms);
    ch.send(i);
  }
}

Co<void> consumer(Channel<int>& ch, int n, std::vector<int>& got) {
  for (int i = 0; i < n; ++i) {
    got.push_back(co_await ch.recv());
  }
}

TEST(Channel, DeliversInOrder) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  sim.spawn(consumer(ch, 5, got));
  sim.spawn(producer(sim, ch, 5));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Channel, BufferedValuesReceivedWithoutSuspending) {
  Simulator sim;
  Channel<std::string> ch(sim);
  ch.send("a");
  ch.send("b");
  std::vector<std::string> got;
  sim.spawn([](Channel<std::string>& c, std::vector<std::string>& g) -> Co<void> {
    g.push_back(co_await c.recv());
    g.push_back(co_await c.recv());
  }(ch, got));
  sim.run();
  EXPECT_EQ(got, (std::vector<std::string>{"a", "b"}));
}

TEST(Channel, RecvForTimesOut) {
  Simulator sim;
  Channel<int> ch(sim);
  std::optional<int> got = 123;
  sim.spawn([](Simulator&, Channel<int>& c, std::optional<int>& g) -> Co<void> {
    g = co_await c.recv_for(10_ms);
  }(sim, ch, got));
  sim.run();
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(sim.now(), 10_ms);
}

TEST(Channel, RecvForValueBeatsTimeout) {
  Simulator sim;
  Channel<int> ch(sim);
  std::optional<int> got;
  SimTime when = -1;
  int resumes = 0;
  sim.spawn([](Simulator& s, Channel<int>& c, std::optional<int>& g,
               SimTime& w, int& r) -> Co<void> {
    g = co_await c.recv_for(10_ms);
    w = s.now();
    ++r;
    // Parks for good: a stray resume from the withdrawn timer would land
    // here and count a second resume.
    co_await c.recv();
    ++r;
  }(sim, ch, got, when, resumes));
  sim.schedule(3_ms, [&] { ch.send(7); });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);
  EXPECT_EQ(when, 3_ms);
  EXPECT_EQ(resumes, 1);
  // Spawn, send, resume: the withdrawn timer is not an event...
  EXPECT_EQ(sim.events_processed(), 3u);
  // ...but it keeps its place in the order and still advances the clock.
  EXPECT_GE(sim.now(), 10_ms);
}

TEST(Channel, LateSendSkipsTimedOutWaiter) {
  Simulator sim;
  Channel<int> ch(sim);
  std::optional<int> first, second;
  sim.spawn([](Channel<int>& c, std::optional<int>& g) -> Co<void> {
    g = co_await c.recv_for(5_ms);
  }(ch, first));
  sim.spawn([](Channel<int>& c, std::optional<int>& g) -> Co<void> {
    g = co_await c.recv_for(50_ms);
  }(ch, second));
  sim.schedule(20_ms, [&] { ch.send(9); });
  sim.run();
  EXPECT_FALSE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, 9);
}

TEST(Channel, FifoOrderSurvivesCompaction) {
  // Bursts of sends against fewer receives keep a backlog while the head of
  // the buffer advances, so full buffers get compacted again and again.
  Simulator sim;
  Channel<std::string> ch(sim);
  int sent = 0;
  int received = 0;
  for (int round = 0; round < 400; ++round) {
    const int pushes = 1 + round % 5;
    const int pops = 1 + (round * 7) % 4;
    for (int i = 0; i < pushes; ++i) ch.send(std::to_string(sent++));
    for (int i = 0; i < pops && !ch.empty(); ++i) {
      const auto v = ch.try_recv();
      ASSERT_TRUE(v.has_value());
      ASSERT_EQ(*v, std::to_string(received++));
    }
    ASSERT_EQ(ch.size(), static_cast<std::size_t>(sent - received));
  }
  // A waiting receiver drains the backlog, then takes fresh values in order.
  sim.spawn([](Channel<std::string>& c, int& r, int total) -> Co<void> {
    while (r < total) {
      const auto v = co_await c.recv_for(1_ms);
      EXPECT_TRUE(v.has_value());
      if (!v.has_value()) co_return;
      EXPECT_EQ(*v, std::to_string(r++));
    }
  }(ch, received, sent + 3));
  for (int i = 0; i < 3; ++i) {
    sim.schedule(micros(100.0 * (i + 1)),
                 [&ch, &sent] { ch.send(std::to_string(sent++)); });
  }
  sim.run();
  EXPECT_EQ(received, sent);
  EXPECT_TRUE(ch.empty());
  EXPECT_EQ(ch.pending_receivers(), 0u);
}

TEST(Channel, TryRecvDoesNotBlock) {
  Simulator sim;
  Channel<int> ch(sim);
  EXPECT_FALSE(ch.try_recv().has_value());
  ch.send(5);
  auto v = ch.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 5);
}

TEST(WaitGroup, WaitsForAllChildren) {
  Simulator sim;
  WaitGroup wg(sim);
  SimTime finished_at = -1;
  for (int i = 1; i <= 3; ++i) {
    wg.add();
    sim.spawn([](Simulator& s, WaitGroup& w, int ms) -> Co<void> {
      co_await s.sleep(millis(ms));
      w.done();
    }(sim, wg, i * 10));
  }
  sim.spawn([](Simulator& s, WaitGroup& w, SimTime& t) -> Co<void> {
    co_await w.wait();
    t = s.now();
  }(sim, wg, finished_at));
  sim.run();
  EXPECT_EQ(finished_at, 30_ms);
}

/// Appends `id` to `log` when destroyed; a moved-from guard stays silent.
struct LogOnDestroy {
  std::vector<int>* log;
  int id;
  LogOnDestroy(std::vector<int>* l, int i) : log(l), id(i) {}
  LogOnDestroy(LogOnDestroy&& o) noexcept
      : log(std::exchange(o.log, nullptr)), id(o.id) {}
  LogOnDestroy(const LogOnDestroy&) = delete;
  LogOnDestroy& operator=(const LogOnDestroy&) = delete;
  LogOnDestroy& operator=(LogOnDestroy&&) = delete;
  ~LogOnDestroy() {
    if (log != nullptr) log->push_back(id);
  }
};

Co<void> holds_for(Simulator& sim, Duration d, LogOnDestroy guard) {
  co_await sim.sleep(d);
  (void)guard;
}

Co<void> holds_until_sent(Channel<int>& ch, LogOnDestroy guard) {
  co_await ch.recv();
  (void)guard;
}

TEST(Task, DetachedFrameFreedAtFinalSuspend) {
  // The frame (and the parameters it owns) is freed when the task finishes,
  // before the next event runs, not at some later sweep.
  Simulator sim;
  std::vector<int> log;
  std::optional<std::size_t> seen;
  sim.spawn(holds_for(sim, 1_ms, LogOnDestroy{&log, 7}));
  sim.schedule(2_ms, [&] { seen = log.size(); });
  sim.run();
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(*seen, 1u);
  EXPECT_EQ(sim.peak_detached_tasks(), 1u);
}

TEST(Simulator, DestroyDetachedFreesSuspendedTasksInSpawnOrder) {
  Simulator sim;
  std::vector<int> log;
  std::vector<std::unique_ptr<Channel<int>>> chans;
  for (int i = 0; i < 4; ++i) {
    chans.push_back(std::make_unique<Channel<int>>(sim));
    sim.spawn(holds_until_sent(*chans.back(), LogOnDestroy{&log, i}));
  }
  sim.schedule(1_ms, [&] { chans[1]->send(0); });  // task 1 finishes
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1}));
  EXPECT_EQ(sim.peak_detached_tasks(), 4u);
  sim.destroy_detached();
  EXPECT_EQ(log, (std::vector<int>{1, 0, 2, 3}));
  sim.destroy_detached();  // nothing left: no double free
  EXPECT_EQ(log.size(), 4u);
}

TEST(Simulator, StopRequestHaltsLoop) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1_ms, [&] {
    ++fired;
    sim.request_stop();
  });
  sim.schedule(2_ms, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim(seed);
    std::vector<std::uint64_t> draws;
    sim.spawn([](Simulator& s, std::vector<std::uint64_t>& d) -> Co<void> {
      for (int i = 0; i < 10; ++i) {
        co_await s.sleep(millis(static_cast<double>(s.rng().below(5)) + 1));
        d.push_back(s.rng().next());
      }
    }(sim, draws));
    sim.run();
    return std::pair{draws, sim.now()};
  };
  auto [a1, t1] = run_once(99);
  auto [a2, t2] = run_once(99);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(t1, t2);
  auto [b1, tb] = run_once(100);
  EXPECT_NE(a1, b1);
}

}  // namespace
}  // namespace dodo::sim
