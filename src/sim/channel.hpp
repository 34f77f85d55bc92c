// Awaitable message channels.
//
// A Channel<T> is an unbounded MPSC/MPMC queue on the simulated loop. send()
// never blocks; recv() suspends the receiving coroutine until a value is
// available; recv_for() additionally wakes with std::nullopt after a timeout.
//
// Implementation note on timeouts: recv_for() arms a withdrawable timer on
// the simulator (Simulator::arm_timer). A send() that reaches the waiter
// first withdraws the timer, so it never resumes the coroutine and is not
// counted as an event. A timer that fires first resumes the coroutine with
// std::nullopt, and the awaiter removes its own entry from the waiter queue.
// Values and waiters sit in vector-backed FIFOs that allocate on first push
// and then reuse their buffer.
#pragma once

#include <coroutine>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "sim/fifo.hpp"
#include "sim/simulator.hpp"

namespace dodo::sim {

template <typename T>
class Channel {
 public:
  explicit Channel(Simulator& sim) : sim_(&sim) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Enqueues a value; wakes one pending receiver if any (at current time).
  void send(T value) {
    if (waiters_.empty()) {
      items_.push_back(std::move(value));
      return;
    }
    const Waiter w = waiters_.pop_front();
    if (w.timer != Simulator::kNoTimer) sim_->withdraw_timer(w.timer);
    *w.slot = std::move(value);
    sim_->schedule_resume(sim_->now(), w.handle);
  }

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] std::size_t pending_receivers() const {
    return waiters_.size();
  }

  /// Awaitable receive; resumes with the next value.
  [[nodiscard]] auto recv() { return RecvAwaiter{*this}; }

  /// Awaitable receive with timeout; resumes with std::nullopt on timeout.
  [[nodiscard]] auto recv_for(Duration timeout) {
    return RecvForAwaiter{*this, timeout};
  }

  /// Non-blocking receive.
  std::optional<T> try_recv() {
    if (items_.empty()) return std::nullopt;
    return items_.pop_front();
  }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::optional<T>* slot;
    Simulator::TimerId timer;  // kNoTimer for recv()
  };

  struct RecvAwaiter {
    Channel& ch;
    std::optional<T> slot{};

    bool await_ready() {
      if (ch.items_.empty()) return false;
      slot = ch.items_.pop_front();
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ch.waiters_.push_back(Waiter{h, &slot, Simulator::kNoTimer});
    }
    T await_resume() { return std::move(*slot); }
  };

  struct RecvForAwaiter {
    Channel& ch;
    Duration timeout;
    std::optional<T> slot{};

    bool await_ready() {
      if (ch.items_.empty()) return false;
      slot = ch.items_.pop_front();
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      const SimTime at = ch.sim_->now() + timeout;
      ch.waiters_.push_back(Waiter{h, &slot, ch.sim_->arm_timer(at, h)});
    }
    std::optional<T> await_resume() {
      if (!slot.has_value()) {  // timed out: still queued as a waiter
        ch.waiters_.erase_first(
            [this](const Waiter& w) { return w.slot == &slot; });
      }
      return std::move(slot);
    }
  };

  Simulator* sim_;
  Fifo<T> items_;
  Fifo<Waiter> waiters_;
};

/// Counts outstanding work; wait() suspends until the count reaches zero.
class WaitGroup {
 public:
  explicit WaitGroup(Simulator& sim) : sim_(&sim) {}

  void add(int n = 1) { count_ += n; }

  void done() {
    if (--count_ == 0) {
      for (auto h : waiters_) sim_->schedule_resume(sim_->now(), h);
      waiters_.clear();
    }
  }

  [[nodiscard]] int count() const { return count_; }

  [[nodiscard]] auto wait() {
    struct Awaiter {
      WaitGroup& wg;
      bool await_ready() const { return wg.count_ == 0; }
      void await_suspend(std::coroutine_handle<> h) {
        wg.waiters_.push_back(h);
      }
      void await_resume() const {}
    };
    return Awaiter{*this};
  }

 private:
  Simulator* sim_;
  int count_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;  // woken in wait() order
};

}  // namespace dodo::sim
