// A FIFO queue in one vector, shared by the simulator's same-instant event
// queue and the channels' value and waiter queues.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace dodo::sim {

/// A FIFO queue in one vector. pop_front() advances a head index; a push
/// that finds the buffer full first slides the live entries down to the
/// front when at least half of it is dead, so a queue that drains as fast
/// as it fills keeps one allocation. Order is preserved throughout.
template <typename T>
class Fifo {
 public:
  [[nodiscard]] bool empty() const { return head_ == buf_.size(); }
  [[nodiscard]] std::size_t size() const { return buf_.size() - head_; }

  void push_back(T v) {
    if (head_ != 0 && buf_.size() == buf_.capacity() &&
        2 * head_ >= buf_.size()) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    buf_.push_back(std::move(v));
  }

  /// Precondition: !empty().
  [[nodiscard]] const T& front() const { return buf_[head_]; }

  /// Precondition: !empty().
  T pop_front() {
    T v = std::move(buf_[head_++]);
    if (empty()) clear();
    return v;
  }

  /// Removes the first live entry for which `match` holds, if any.
  template <typename Pred>
  void erase_first(Pred match) {
    for (std::size_t i = head_; i < buf_.size(); ++i) {
      if (match(buf_[i])) {
        buf_.erase(buf_.begin() + static_cast<std::ptrdiff_t>(i));
        if (empty()) clear();
        return;
      }
    }
  }

 private:
  void clear() {
    buf_.clear();
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;  // index of the front entry
};

}  // namespace dodo::sim
