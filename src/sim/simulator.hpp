// The discrete-event simulator.
//
// Single-threaded, deterministic: events fire in (time, insertion-sequence)
// order, so two events scheduled for the same instant run in the order they
// were scheduled. All Dodo daemons and applications execute as detached
// Co<void> coroutines on this loop.
//
// The loop allocates nothing per event in steady state: the queue is a
// binary heap in one vector that events are moved out of, coroutine resumes
// carry only their handle, and a withdrawable timer's state is a slot in a
// reused table (DESIGN.md, "Event loop invariants").
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/task.hpp"

namespace dodo::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Schedules an arbitrary callback at absolute time `t` (clamped to now).
  void schedule(SimTime t, std::function<void()> fn);

  /// Schedules a coroutine resume at absolute time `t` (clamped to now).
  void schedule_resume(SimTime t, std::coroutine_handle<> h);

  using TimerId = std::uint32_t;
  static constexpr TimerId kNoTimer = ~TimerId{0};

  /// Arms a withdrawable timer that resumes `h` at absolute time `t`
  /// (clamped to now). It takes its (time, seq) place like any event.
  TimerId arm_timer(SimTime t, std::coroutine_handle<> h);

  /// Withdraws a timer armed by arm_timer() that has not fired yet. It keeps
  /// its seq and still advances the clock when reached, but never resumes
  /// and is not counted in events_processed().
  void withdraw_timer(TimerId id);

  /// Detaches a task onto the loop; its body starts at the current time.
  /// Exceptions escaping a detached task abort the simulation (fail fast).
  void spawn(Co<void> task);

  /// Awaitable: suspends the calling coroutine for `d` simulated time.
  [[nodiscard]] auto sleep(Duration d) {
    return SleepAwaiter{*this, now_ + (d > 0 ? d : 0)};
  }

  /// Awaitable: suspends the calling coroutine until absolute time `t`.
  [[nodiscard]] auto sleep_until(SimTime t) {
    return SleepAwaiter{*this, t > now_ ? t : now_};
  }

  /// Runs until the event queue drains, a stop is requested, or the
  /// simulated-time limit is hit. Returns the simulated time at exit.
  SimTime run(SimTime limit = INT64_MAX);

  /// Makes run() return after the event currently being processed.
  void request_stop() { stop_requested_ = true; }
  [[nodiscard]] bool stop_requested() const { return stop_requested_; }

  /// Number of events processed so far (for budget checks in tests).
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }

  /// Most events ever queued at once, withdrawn timers included.
  [[nodiscard]] std::size_t peak_queue_depth() const { return peak_queue_; }

  /// Most detached tasks ever alive (spawned and not yet finished) at once.
  [[nodiscard]] std::size_t peak_detached_tasks() const {
    return detached_.peak;
  }

  /// Hard cap on total events processed; run() returns once it is reached.
  /// Guards generative (fuzz) runs against schedules that livelock at a
  /// constant sim time, where a time limit alone would never fire. 0 = off.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }
  [[nodiscard]] bool event_limit_hit() const {
    return event_limit_ != 0 && events_processed_ >= event_limit_;
  }

  /// Destroys all still-suspended detached tasks immediately. Call this
  /// before tearing down objects (networks, filesystems) that suspended
  /// coroutine frames may reference from their local variables; must not be
  /// called while run() is executing.
  void destroy_detached();

 private:
  struct SleepAwaiter {
    Simulator& sim;
    SimTime wake_at;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim.schedule_resume(wake_at, h);
    }
    void await_resume() const noexcept {}
  };

  /// A coroutine resume when `resume` is set, otherwise a call of `fn`.
  /// `timer` names the slot of a withdrawable timer, else kNoTimer.
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::coroutine_handle<> resume;
    std::function<void()> fn;
    TimerId timer = kNoTimer;
  };

  /// Heap order: the event that fires later sorts first.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void push(SimTime t, std::coroutine_handle<> h, std::function<void()> fn,
            TimerId timer);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t event_limit_ = 0;
  std::size_t peak_queue_ = 0;
  bool stop_requested_ = false;
  Rng rng_;
  std::vector<Event> queue_;  // binary min-heap on (time, seq)
  std::vector<bool> timer_armed_;     // per timer slot: false once withdrawn
  std::vector<TimerId> free_timers_;  // slots of timers that have popped
  detail::DetachedList detached_;
};

}  // namespace dodo::sim
