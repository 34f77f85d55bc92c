// The discrete-event simulator.
//
// Single-threaded, deterministic: events fire in (time, insertion-sequence)
// order, so two events scheduled for the same instant run in the order they
// were scheduled. All Dodo daemons and applications execute as detached
// Co<void> coroutines on this loop.
//
// The queue holds only live events, and allocates nothing per event in
// steady state: heap nodes are 32-byte trivially copyable records (a
// schedule() callback waits in a reused side slab), withdrawn timers are
// compacted out, and events scheduled for the current instant skip the heap
// for a FIFO (DESIGN.md, "Event loop invariants").
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/fifo.hpp"
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

  /// Withdraws a timer armed by arm_timer() that has not fired yet. It never
  /// resumes and is not counted in events_processed(). Its queue entry is
  /// dropped once withdrawn entries fill more than half the heap; run()
  /// still returns the time the old entry would have advanced the clock to.
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
  /// simulated-time limit is hit. Returns the simulated time at exit. The
  /// clock never goes back: a limit below now() runs nothing.
  SimTime run(SimTime limit = INT64_MAX);

  /// Makes run() return after the event currently being processed.
  void request_stop() { stop_requested_ = true; }
  [[nodiscard]] bool stop_requested() const { return stop_requested_; }

  /// Number of events processed so far (for budget checks in tests).
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }

  /// Most entries ever queued at once: live events plus the withdrawn timers
  /// not yet compacted out (never more than the live ones).
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

  /// A coroutine resume when `resume` is set, otherwise a call of the
  /// callback in slot `fn` of the slab. `timer` names the slot of a
  /// withdrawable timer, else kNoTimer.
  struct Node {
    SimTime time;
    std::uint64_t seq;
    std::coroutine_handle<> resume;
    std::uint32_t fn;
    TimerId timer;
  };
  static_assert(std::is_trivially_copyable_v<Node> && sizeof(Node) == 32);

  /// Heap order: the event that fires later sorts first.
  struct Later {
    bool operator()(const Node& a, const Node& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void push(SimTime t, std::coroutine_handle<> h, std::uint32_t fn,
            TimerId timer);

  /// Drops every withdrawn timer from the heap and rebuilds it.
  void compact();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t event_limit_ = 0;
  std::size_t peak_queue_ = 0;
  bool stop_requested_ = false;
  Rng rng_;
  std::vector<Node> heap_;  // binary min-heap on (time, seq)
  // Non-timer events scheduled for the instant they were scheduled at. Their
  // seqs grow, so the front is the earliest; run() merges it with the heap.
  Fifo<Node> now_queue_;
  std::vector<std::function<void()>> fns_;  // schedule() callbacks by slot
  std::vector<std::uint32_t> free_fns_;
  std::vector<bool> timer_armed_;     // per timer slot: armed, not yet fired
  std::vector<TimerId> free_timers_;  // slots no longer in the heap
  std::size_t withdrawn_ = 0;         // withdrawn timers still in the heap
  // Latest time of a withdrawn timer compacted out of the heap: a run() that
  // drains the queue advances the clock to it, as popping it would have.
  SimTime withdrawn_horizon_ = 0;
  detail::DetachedList detached_;
};

}  // namespace dodo::sim
