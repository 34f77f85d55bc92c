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

void Simulator::push(SimTime t, std::coroutine_handle<> h, std::uint32_t fn,
                     TimerId timer) {
  if (t < now_) t = now_;
  const Node n{t, next_seq_++, h, fn, timer};
  // The clock never goes back, so the FIFO stays sorted by (time, seq).
  if (t == now_ && timer == kNoTimer) {
    now_queue_.push_back(n);
  } else {
    heap_.push_back(n);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  peak_queue_ = std::max(peak_queue_, heap_.size() + now_queue_.size());
}

void Simulator::schedule(SimTime t, std::function<void()> fn) {
  auto slot = static_cast<std::uint32_t>(fns_.size());
  if (free_fns_.empty()) {
    fns_.push_back(std::move(fn));
  } else {
    slot = free_fns_.back();
    free_fns_.pop_back();
    fns_[slot] = std::move(fn);
  }
  push(t, {}, slot, kNoTimer);
}

void Simulator::schedule_resume(SimTime t, std::coroutine_handle<> h) {
  push(t, h, 0, kNoTimer);
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
  push(t, h, 0, id);
  return id;
}

void Simulator::withdraw_timer(TimerId id) {
  assert(id < timer_armed_.size() && timer_armed_[id]);
  timer_armed_[id] = false;
  // Amortised O(1): each pass removes more entries than the heap keeps.
  if (2 * ++withdrawn_ > heap_.size()) compact();
}

void Simulator::compact() {
  std::erase_if(heap_, [this](const Node& n) {
    if (n.timer == kNoTimer || timer_armed_[n.timer]) return false;
    withdrawn_horizon_ = std::max(withdrawn_horizon_, n.time);
    free_timers_.push_back(n.timer);
    return true;
  });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  withdrawn_ = 0;
}

void Simulator::spawn(Co<void> task) {
  auto h = task.release();
  if (!h) return;
  detached_.push_back(&h.promise());
  schedule_resume(now_, h);
}

SimTime Simulator::run(SimTime limit) {
  stop_requested_ = false;
  while (!stop_requested_ && !event_limit_hit()) {
    const bool from_fifo =
        !now_queue_.empty() &&
        (heap_.empty() || Later{}(heap_.front(), now_queue_.front()));
    if (!from_fifo && heap_.empty()) {
      // Drained: move the clock to where popping the withdrawn timers that
      // were compacted out would have moved it.
      now_ = std::max(now_, std::min(withdrawn_horizon_, limit));
      break;
    }
    if ((from_fifo ? now_queue_.front() : heap_.front()).time > limit) {
      now_ = std::max(now_, limit);
      break;
    }
    Node ev{};
    if (from_fifo) {
      ev = now_queue_.pop_front();
    } else {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      ev = heap_.back();
      heap_.pop_back();
    }
    now_ = ev.time;
    if (ev.timer != kNoTimer) {
      const bool armed = timer_armed_[ev.timer];
      timer_armed_[ev.timer] = false;
      free_timers_.push_back(ev.timer);
      if (!armed) {  // withdrawn, not yet compacted out: nothing runs
        --withdrawn_;
        continue;
      }
    }
    if (ev.resume) {
      ev.resume.resume();
    } else {
      // Moved out before it runs: the callback may schedule new events,
      // which can reuse its slot or reallocate the slab.
      std::function<void()> fn = std::move(fns_[ev.fn]);
      free_fns_.push_back(ev.fn);
      fn();
    }
    ++events_processed_;
  }
  return now_;
}

}  // namespace dodo::sim
