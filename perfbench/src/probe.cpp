#include "probe.hpp"

#include <time.h>
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>

namespace perfbench {
namespace {

constexpr int kEvents = 100000;
constexpr int kInitialEvents = 256;
constexpr std::size_t kKeys = 1 << 15;
constexpr std::size_t kChaseEntries = (16u << 20) / sizeof(std::uint32_t);
constexpr int kChaseStepsPerEvent = 4;

struct State;
using Handler = void (*)(State&);

struct Event {
  std::uint64_t time = 0;
  std::uint64_t seq = 0;
  Handler fn = nullptr;
  bool operator>(const Event& o) const {
    return time != o.time ? time > o.time : seq > o.seq;
  }
};

/// Everything the probe touches. It is allocated once, on the first call,
/// and never again: the probe makes no heap allocation while it is timed,
/// so the heap the program leaves behind cannot change its speed.
struct State {
  std::array<std::uint32_t, kChaseEntries> chase;
  std::array<std::array<std::uint64_t, 4>, kKeys> table;
  std::array<Event, kInitialEvents> heap;
  std::size_t heap_size = 0;
  std::uint64_t x = 0;
  std::uint64_t seq = 0;
  std::uint64_t now = 0;
  std::uint64_t sink = 0;
  std::uint32_t cursor = 0;
  int processed = 0;

  std::uint64_t next() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
  void push(Event e) {
    heap[heap_size++] = e;
    std::push_heap(heap.begin(), heap.begin() + heap_size, std::greater<>{});
  }
  Event pop() {
    std::pop_heap(heap.begin(), heap.begin() + heap_size, std::greater<>{});
    return heap[--heap_size];
  }
};

void step(State& s);

/// Two handlers, picked at random, so dispatch is an unpredictable
/// indirect call as in the simulator's event loop.
void step_odd(State& s) {
  s.sink += s.now;
  step(s);
}

void step(State& s) {
  std::array<std::uint64_t, 4>& slot = s.table[s.next() % kKeys];
  slot[s.now % 4] = s.now;
  s.sink += slot[(s.now + 1) % 4];
  // Each load depends on the previous one and misses the private caches.
  for (int j = 0; j < kChaseStepsPerEvent; ++j) s.cursor = s.chase[s.cursor];
  if (++s.processed < kEvents) {
    const std::uint64_t r = s.next();
    s.push(Event{s.now + r % 1000, s.seq++, (r >> 32) & 1 ? step_odd : step});
  }
}

State& state() {
  static const std::unique_ptr<State> s = [] {
    auto p = std::make_unique<State>();
    // i -> (a*i + c) mod 2^22 with a = 1 (mod 4) and c odd is one cycle
    // through every entry: a pseudo-random walk over 16 MiB.
    static_assert((kChaseEntries & (kChaseEntries - 1)) == 0);
    for (std::uint64_t i = 0; i < kChaseEntries; ++i) {
      p->chase[i] = static_cast<std::uint32_t>((i * 2654435761u + 12345u) %
                                               kChaseEntries);
    }
    p->table = {};
    return p;
  }();
  return *s;
}

void flush(const void* p, std::size_t bytes) {
#if defined(__x86_64__) || defined(__i386__)
  const auto* c = static_cast<const char*>(p);
  for (std::size_t i = 0; i < bytes; i += 64) _mm_clflush(c + i);
  _mm_mfence();
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double host_probe_seconds() {
  State& s = state();
  // Untimed: flush the probe's memory out of every cache level, so the
  // timed part starts cold whatever the program touched last.
  flush(s.chase.data(), sizeof(s.chase));
  flush(s.table.data(), sizeof(s.table));
  s.x = 0x9e3779b97f4a7c15ULL;
  s.seq = 0;
  s.now = 0;
  s.cursor = 0;
  s.processed = 0;
  s.heap_size = 0;

  const double t0 = cpu_seconds();
  for (int i = 0; i < kInitialEvents; ++i) {
    s.push(Event{s.next() % 1000, s.seq++, step});
  }
  while (s.heap_size > 0) {
    const Event e = s.pop();
    s.now = e.time;
    e.fn(s);
  }
  const double elapsed = cpu_seconds() - t0;
  // Keep the loop's results observable so they cannot be optimized away.
  return (s.sink ^ s.cursor) == 1 ? elapsed + 1e-12 : elapsed;
}

}  // namespace perfbench
