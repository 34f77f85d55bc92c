// Tests for the discrete-event simulator: event ordering, coroutine tasks,
// channels, timeouts, wait groups.
#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
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


// A withdrawn timer never resumes its handle, so these tests arm their
// throwaway timers against a coroutine that does nothing.
std::coroutine_handle<> no_coroutine() { return std::noop_coroutine(); }

TEST(Simulator, DrainReturnsLatestWithdrawnTimerTime) {
  Simulator sim;
  std::vector<Simulator::TimerId> ids;
  ids.push_back(sim.arm_timer(50_ms, no_coroutine()));
  ids.push_back(sim.arm_timer(80_ms, no_coroutine()));
  sim.schedule(10_ms, [&] {
    for (const auto id : ids) sim.withdraw_timer(id);
  });
  // The timers are gone from the queue, but run() still ends where popping
  // them would have left the clock: at the limit while one lies beyond it,
  // at the latest one once the limit allows.
  EXPECT_EQ(sim.run(60_ms), 60_ms);
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_EQ(sim.run(), 80_ms);
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Simulator, StopWithWithdrawnTimersPendingKeepsStopTime) {
  Simulator sim;
  const auto a = sim.arm_timer(50_ms, no_coroutine());
  const auto b = sim.arm_timer(80_ms, no_coroutine());
  sim.schedule(10_ms, [&] {
    sim.withdraw_timer(a);
    sim.withdraw_timer(b);
    sim.request_stop();
  });
  EXPECT_EQ(sim.run(), 10_ms);
  EXPECT_EQ(sim.now(), 10_ms);
  EXPECT_EQ(sim.run(), 80_ms);  // a later run() still drains to them
}

TEST(Simulator, ScheduleAtNowRunsAfterQueuedSameTimeEvents) {
  Simulator sim;
  std::vector<char> order;
  sim.schedule(5_ms, [&] {
    order.push_back('a');
    sim.schedule(sim.now(), [&] { order.push_back('d'); });
  });
  sim.schedule(5_ms, [&] { order.push_back('b'); });
  sim.schedule(5_ms, [&] { order.push_back('c'); });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c', 'd'}));
}

TEST(Simulator, ResumeAtNowRunsAfterQueuedSameTimeEvents) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<char> order;
  sim.spawn([](Channel<int>& c, std::vector<char>& o) -> Co<void> {
    co_await c.recv();
    o.push_back('r');
  }(ch, order));
  sim.schedule(5_ms, [&] {
    order.push_back('a');
    ch.send(1);  // schedule_resume(now) of the parked receiver
  });
  sim.schedule(5_ms, [&] { order.push_back('b'); });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'r'}));
}

TEST(Simulator, WithdrawnTimersDoNotAccumulate) {
  Simulator sim;
  std::vector<int> fired;
  for (int i = 1; i <= 3; ++i) {
    sim.spawn([](Simulator& s, std::vector<int>& f, int n) -> Co<void> {
      Channel<int> never(s);
      co_await never.recv_for(n * 1_s);
      f.push_back(n);
    }(sim, fired, 4 - i));
  }
  sim.schedule(1_ms, [&] {
    for (int i = 0; i < 10000; ++i) {
      sim.withdraw_timer(sim.arm_timer(10_s + i * 1_us, no_coroutine()));
    }
  });
  EXPECT_EQ(sim.run(), 10_s + 9999_us);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_processed(), 7u);  // 3 spawns, 1 callback, 3 timers
  EXPECT_LE(sim.peak_queue_depth(), 8u);
}

// Randomized differential test: seeded mixes of schedule, spawn, sleep,
// arm and withdraw run on Simulator and on a naive reference queue that
// keeps withdrawn timers until they are popped. Both must fire the same
// steps at the same times and end at the same now().

/// The reference: a std::map keyed by (time, seq), popped in order. A
/// withdrawn timer stays queued and advances the clock when popped.
class ReferenceQueue {
 public:
  using Timer = std::size_t;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t events() const { return events_; }

  void schedule(SimTime t, std::function<void()> fn) {
    push(t, std::move(fn), kNone);
  }
  Timer arm(SimTime t, std::function<void()> fn) {
    withdrawn_.push_back(false);
    push(t, std::move(fn), withdrawn_.size() - 1);
    return withdrawn_.size() - 1;
  }
  void withdraw(Timer id) { withdrawn_[id] = true; }

  SimTime run(SimTime limit) {
    while (!queue_.empty()) {
      auto it = queue_.begin();
      if (it->first.first > limit) {
        now_ = std::max(now_, limit);
        break;
      }
      auto [fn, timer] = std::move(it->second);
      now_ = it->first.first;
      queue_.erase(it);
      if (timer != kNone && withdrawn_[timer]) continue;
      fn();
      ++events_;
    }
    return now_;
  }

 private:
  static constexpr Timer kNone = ~Timer{0};

  void push(SimTime t, std::function<void()> fn, Timer timer) {
    queue_.emplace(std::pair{std::max(t, now_), seq_++},
                   std::pair{std::move(fn), timer});
  }

  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_ = 0;
  std::map<std::pair<SimTime, std::uint64_t>,
           std::pair<std::function<void()>, Timer>>
      queue_;
  std::vector<bool> withdrawn_;
};

/// The workload, shared by both engines: every step logs (id, now) and then
/// draws a few random operations. Engine supplies now(), schedule(),
/// withdraw() and the two task shapes, spawn_worker (start, sleep, step
/// again) and spawn_timer (start, arm a timer, step when it fires).
template <typename Engine>
struct Workload {
  Workload(Engine& e, std::uint64_t seed) : eng(e), rng(seed) {}

  Engine& eng;
  Rng rng;
  int budget = 4000;  // operations left to draw
  int next_id = 0;
  std::vector<std::pair<int, SimTime>> log;
  std::vector<std::pair<int, typename Engine::Timer>> armed;

  Duration delay() {
    switch (rng.below(4)) {
      case 0: return 0;  // the same instant
      case 1: return static_cast<Duration>(rng.below(3)) * 1_us;
      case 2: return static_cast<Duration>(rng.below(200)) * 1_us;
      default: return static_cast<Duration>(rng.below(20)) * 1_ms;
    }
  }

  void step(int id) {
    log.emplace_back(id, eng.now());
    for (auto n = 1 + rng.below(2); n > 0 && budget > 0; --n, --budget) {
      const Duration d = delay();
      switch (rng.below(5)) {
        case 0: {
          const int id2 = next_id++;
          eng.schedule(eng.now() + d, [this, id2] { step(id2); });
          break;
        }
        case 1:
          eng.spawn_worker(*this, next_id, d);
          next_id += 2;
          break;
        case 2:
        case 3:
          eng.spawn_timer(*this, next_id++, d);
          break;
        default:
          if (!armed.empty()) {
            const auto i = static_cast<std::ptrdiff_t>(rng.below(armed.size()));
            eng.withdraw(armed[static_cast<std::size_t>(i)].second);
            armed.erase(armed.begin() + i);
          }
      }
    }
  }

  void fired(int id) {
    std::erase_if(armed, [id](const auto& a) { return a.first == id; });
    step(id);
  }
};

struct SimEngine {
  using Timer = Simulator::TimerId;
  Simulator& sim;

  [[nodiscard]] SimTime now() const { return sim.now(); }
  void schedule(SimTime t, std::function<void()> fn) {
    sim.schedule(t, std::move(fn));
  }
  void withdraw(Timer id) { sim.withdraw_timer(id); }

  template <typename W>
  static Co<void> worker(W& w, int id, Duration d) {
    w.step(id);
    co_await w.eng.sim.sleep(d);
    w.step(id + 1);
  }

  template <typename W>
  struct ArmAwaiter {
    W& w;
    int id;
    Duration d;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      Simulator& s = w.eng.sim;
      w.armed.emplace_back(id, s.arm_timer(s.now() + d, h));
    }
    void await_resume() const noexcept {}
  };

  template <typename W>
  static Co<void> timer_task(W& w, int id, Duration d) {
    co_await ArmAwaiter<W>{w, id, d};
    w.fired(id);
  }

  template <typename W>
  void spawn_worker(W& w, int id, Duration d) {
    sim.spawn(worker(w, id, d));
  }
  template <typename W>
  void spawn_timer(W& w, int id, Duration d) {
    sim.spawn(timer_task(w, id, d));
  }
};

struct ReferenceEngine {
  using Timer = ReferenceQueue::Timer;
  ReferenceQueue& q;

  [[nodiscard]] SimTime now() const { return q.now(); }
  void schedule(SimTime t, std::function<void()> fn) {
    q.schedule(t, std::move(fn));
  }
  void withdraw(Timer id) { q.withdraw(id); }

  // Each task is the callback chain its coroutine's events would run.
  template <typename W>
  void spawn_worker(W& w, int id, Duration d) {
    q.schedule(q.now(), [this, &w, id, d] {
      w.step(id);
      q.schedule(q.now() + d, [&w, id] { w.step(id + 1); });
    });
  }
  template <typename W>
  void spawn_timer(W& w, int id, Duration d) {
    q.schedule(q.now(), [this, &w, id, d] {
      w.armed.emplace_back(id, q.arm(q.now() + d, [&w, id] { w.fired(id); }));
    });
  }
};

TEST(Simulator, MatchesNaiveReferenceQueue) {
  // Repeated and backward limits included: the clock never goes back.
  const SimTime limits[] = {2_ms, 2_ms, 9_ms, 5_ms, 10_ms, 25_ms, INT64_MAX};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Simulator sim;
    SimEngine se{sim};
    Workload<SimEngine> ws(se, seed);
    ReferenceQueue q;
    ReferenceEngine re{q};
    Workload<ReferenceEngine> wr(re, seed);
    for (int i = 0; i < 3; ++i) {
      ws.step(ws.next_id++);
      wr.step(wr.next_id++);
    }
    for (const SimTime limit : limits) {
      const SimTime got = sim.run(limit);
      const SimTime want = q.run(limit);
      ASSERT_EQ(got, want) << "seed " << seed << " limit " << limit;
      ASSERT_EQ(ws.log, wr.log) << "seed " << seed << " limit " << limit;
    }
    EXPECT_EQ(sim.events_processed(), q.events()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dodo::sim
