// Coroutine task type for simulated processes.
//
// Every Dodo daemon, application, and protocol exchange is a `Co<T>`
// coroutine executing on the single-threaded discrete-event simulator.
// `Co<T>` is lazy: the body does not run until the task is either awaited by
// another coroutine or detached onto the simulator with Simulator::spawn().
//
// Ownership: a Co<T> owns its coroutine frame. Awaiting it transfers control
// with symmetric transfer and destroys the frame when the owning Co goes out
// of scope. A detached task (Simulator::spawn) has no owning Co: its promise
// links into the simulator's intrusive DetachedList, and at final_suspend the
// task unlinks itself and frees its own frame, so a finished task's
// parameters are destroyed before the next event runs. Only still-suspended
// detached frames remain for Simulator::destroy_detached() to free.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <type_traits>
#include <utility>
#include <variant>

namespace dodo::sim {

template <typename T = void>
class Co;

namespace detail {

struct DetachedList;

/// The links a detached Co<void> promise carries into its DetachedList.
struct DetachedHook {
  DetachedList* owner = nullptr;  // set while the task is detached
  DetachedHook* prev = nullptr;
  DetachedHook* next = nullptr;
};

/// Doubly linked list of the detached tasks still alive, in spawn order.
struct DetachedList {
  DetachedHook* head = nullptr;
  DetachedHook* tail = nullptr;
  std::size_t live = 0;
  std::size_t peak = 0;  // most tasks ever alive at once

  void push_back(DetachedHook* n) noexcept {
    n->owner = this;
    n->prev = tail;
    n->next = nullptr;
    (tail != nullptr ? tail->next : head) = n;
    tail = n;
    if (++live > peak) peak = live;
  }

  void unlink(DetachedHook* n) noexcept {
    (n->prev != nullptr ? n->prev->next : head) = n->next;
    (n->next != nullptr ? n->next->prev : tail) = n->prev;
    n->owner = nullptr;
    --live;
  }
};

/// A detached task died with an exception: that is a bug in the model,
/// never a recoverable condition. Prints it and aborts.
[[noreturn]] void abort_detached(std::exception_ptr e) noexcept;

struct FinalAwaiter {
  bool await_ready() noexcept { return false; }

  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    auto& promise = h.promise();
    promise.finished = true;
    if constexpr (std::is_base_of_v<DetachedHook, Promise>) {
      if (promise.owner != nullptr) {
        if (promise.exception) abort_detached(promise.exception);
        promise.owner->unlink(&promise);
        h.destroy();
        return std::noop_coroutine();
      }
    }
    if (promise.continuation) return promise.continuation;
    return std::noop_coroutine();
  }

  void await_resume() noexcept {}
};

struct PromiseBase {
  std::coroutine_handle<> continuation{};
  std::exception_ptr exception{};
  bool finished = false;

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

}  // namespace detail

/// A lazily-started coroutine producing a value of type T (or void).
template <typename T>
class [[nodiscard]] Co {
 public:
  struct promise_type : detail::PromiseBase {
    std::variant<std::monostate, T> value{};

    Co get_return_object() {
      return Co{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    template <typename U>
    void return_value(U&& v) {
      value.template emplace<1>(std::forward<U>(v));
    }
  };

  Co() = default;
  Co(Co&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  ~Co() { destroy(); }

  [[nodiscard]] bool valid() const { return handle_ != nullptr; }
  [[nodiscard]] bool done() const {
    return handle_ == nullptr || handle_.promise().finished;
  }

  /// Awaiting a Co starts it (symmetric transfer) and resumes the awaiter
  /// when the task completes, returning its value or rethrowing.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;

      bool await_ready() const noexcept { return handle.promise().finished; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        handle.promise().continuation = cont;
        return handle;
      }
      T await_resume() {
        auto& promise = handle.promise();
        if (promise.exception) std::rethrow_exception(promise.exception);
        return std::move(std::get<1>(promise.value));
      }
    };
    return Awaiter{handle_};
  }

  /// For the simulator's use only: releases ownership of the frame.
  std::coroutine_handle<promise_type> release() {
    return std::exchange(handle_, nullptr);
  }

 private:
  explicit Co(std::coroutine_handle<promise_type> h) : handle_(h) {}

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_{};
};

template <>
class [[nodiscard]] Co<void> {
 public:
  struct promise_type : detail::PromiseBase, detail::DetachedHook {
    Co get_return_object() {
      return Co{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() {}
  };

  Co() = default;
  Co(Co&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  ~Co() { destroy(); }

  [[nodiscard]] bool valid() const { return handle_ != nullptr; }
  [[nodiscard]] bool done() const {
    return handle_ == nullptr || handle_.promise().finished;
  }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;

      bool await_ready() const noexcept { return handle.promise().finished; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        handle.promise().continuation = cont;
        return handle;
      }
      void await_resume() {
        auto& promise = handle.promise();
        if (promise.exception) std::rethrow_exception(promise.exception);
      }
    };
    return Awaiter{handle_};
  }

  std::coroutine_handle<promise_type> release() {
    return std::exchange(handle_, nullptr);
  }

 private:
  explicit Co(std::coroutine_handle<promise_type> h) : handle_(h) {}

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_{};
};

}  // namespace dodo::sim
