#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

namespace dodo::sim {

namespace detail {

void abort_detached(std::exception_ptr e) noexcept {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    std::fprintf(stderr,
                 "dodo::sim: detached task terminated with exception: %s\n",
                 ex.what());
  } catch (...) {
    std::fprintf(stderr,
                 "dodo::sim: detached task terminated with unknown "
                 "exception\n");
  }
  std::abort();
}

}  // namespace detail

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

Simulator::~Simulator() { destroy_detached(); }

void Simulator::destroy_detached() {
  // Head first, so frames are destroyed in spawn order.
  while (detail::DetachedHook* n = detached_.head) {
    detached_.unlink(n);
    auto* promise = static_cast<Co<void>::promise_type*>(n);
    std::coroutine_handle<Co<void>::promise_type>::from_promise(*promise)
        .destroy();
  }
}

void Simulator::push(SimTime t, std::coroutine_handle<> h,
                     std::function<void()> fn, TimerId timer) {
  if (t < now_) t = now_;
  queue_.push_back(Event{t, next_seq_++, h, std::move(fn), timer});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  peak_queue_ = std::max(peak_queue_, queue_.size());
}

void Simulator::schedule(SimTime t, std::function<void()> fn) {
  push(t, {}, std::move(fn), kNoTimer);
}

void Simulator::schedule_resume(SimTime t, std::coroutine_handle<> h) {
  push(t, h, {}, kNoTimer);
}

Simulator::TimerId Simulator::arm_timer(SimTime t, std::coroutine_handle<> h) {
  TimerId id;
  if (free_timers_.empty()) {
    id = static_cast<TimerId>(timer_armed_.size());
    timer_armed_.push_back(true);
  } else {
    id = free_timers_.back();
    free_timers_.pop_back();
    timer_armed_[id] = true;
  }
  push(t, h, {}, id);
  return id;
}

void Simulator::withdraw_timer(TimerId id) {
  assert(id < timer_armed_.size() && timer_armed_[id]);
  timer_armed_[id] = false;
}

void Simulator::spawn(Co<void> task) {
  auto h = task.release();
  if (!h) return;
  detached_.push_back(&h.promise());
  schedule_resume(now_, h);
}

SimTime Simulator::run(SimTime limit) {
  stop_requested_ = false;
  while (!queue_.empty() && !stop_requested_ && !event_limit_hit()) {
    if (queue_.front().time > limit) {
      now_ = limit;
      break;
    }
    // Moved out before it runs: the handler may schedule new events, which
    // can reallocate the heap.
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    Event ev = std::move(queue_.back());
    queue_.pop_back();
    now_ = ev.time;
    if (ev.timer != kNoTimer) {
      const bool armed = timer_armed_[ev.timer];
      free_timers_.push_back(ev.timer);
      if (!armed) continue;  // withdrawn: the clock moves, nothing runs
    }
    if (ev.resume) {
      ev.resume.resume();
    } else {
      ev.fn();
    }
    ++events_processed_;
  }
  return now_;
}

}  // namespace dodo::sim
