// Submission/completion ring over libdodo (DESIGN.md §16), io_uring-style.
//
// The classic API costs one coroutine per op and one round trip per op: a
// client doing 4 KB mreads spends more sim (and host) time in per-message
// overhead than in data movement. The ring lets the application enqueue
// mread/mwrite *descriptors* (Sqe), keeps up to `depth` of them in flight,
// and hands back completions (Cqe) on a channel whenever the application
// reaps them.
//
// The ring is also the only place reads merge. A read Sqe joins the ring's
// most recent run that has not started yet when it is on the same
// descriptor, starts at the run's end, has a nonzero length and keeps the
// run within kMaxRunBytes. Otherwise it opens a new run. A run starts
// later in the same sim instant it was opened, so reads submitted together
// are already in it, and a lone read costs exactly one direct mread_ex:
// there is no timer. A write Sqe or a non-adjacent read ends the open run.
// Each run is one mread_ex over its merged [lo, hi); the ring slices n,
// filled, degraded and the op-relative disk_ranges back into each Cqe.
//
// Semantics:
//  - try_submit never suspends; it returns false (and counts a
//    ring_full_reject) when `depth` ops are already in flight.
//  - submit() is the awaitable variant: it backpressures until a slot frees.
//    A submit() that has to park counts one ring_full_reject, however many
//    completions wake it before it finds a free slot.
//  - Completions are reaped in completion order (reads of one run complete
//    in submission order; different runs and writes may reorder, which is
//    why Cqe carries user_data).
//  - A merged run reports one `filled` flag for all of its reads, so a read
//    merged with a never-written neighbour may see filled == false.
//  - mclose does not wait for ring reads: a read whose run starts after the
//    close completes with n < 0. drain() before mclose to keep the bytes.
//  - Ring counters (submitted/completed/rejects/peak depth/merged reads)
//    live in the client's metrics so one snapshot covers the whole runtime;
//    they are only exported once a ring has been attached.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "runtime/dodo_client.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace dodo::runtime {

enum class RingOp : std::uint8_t {
  kRead = 0,
  kWrite = 1,
};

/// One submission: an mread/mwrite descriptor. Buffers are borrowed and
/// must stay alive until the matching Cqe is reaped.
struct Sqe {
  RingOp op = RingOp::kRead;
  int rd = -1;
  Bytes64 offset = 0;
  Bytes64 len = 0;
  std::uint8_t* buf = nullptr;        // kRead landing (nullptr = phantom)
  const std::uint8_t* wbuf = nullptr;  // kWrite source
  std::uint64_t user_data = 0;         // echoed verbatim in the Cqe
};

/// One completion. For reads, `n`/`filled`/`disk_ranges` mirror
/// DodoClient::ReadResult; for writes `n` is mwrite's return and `filled`
/// is n >= 0.
struct Cqe {
  std::uint64_t user_data = 0;
  Bytes64 n = -1;
  bool filled = false;
  bool degraded = false;  // read served partly (or wholly) from disk
  std::vector<std::pair<Bytes64, Bytes64>> disk_ranges;  // op-relative
};

class DodoRing {
 public:
  /// Largest merged read. Measured with bench_smallops at 10 Gb/s and depth
  /// 16: merging without a cap fell to 4,048 (UDP) and 12,036 (U-Net) ops/s
  /// against 7,387 and 20,591 with a 16 KiB cap, because one large transfer
  /// stops the pipeline behind it. 16 KiB also beat 8 and 32 KiB on both
  /// transports.
  static constexpr Bytes64 kMaxRunBytes = 16 * 1024;

  DodoRing(sim::Simulator& sim, DodoClient& client, std::size_t depth);

  DodoRing(const DodoRing&) = delete;
  DodoRing& operator=(const DodoRing&) = delete;

  /// Non-blocking submit: false when the ring is full (op not queued).
  bool try_submit(const Sqe& sqe);

  /// Awaitable submit: backpressures until an in-flight slot frees up.
  sim::Co<void> submit(Sqe sqe);

  /// Reaps the next completion, waiting for one if none is pending.
  sim::Co<Cqe> reap();

  /// Non-blocking reap.
  std::optional<Cqe> try_reap();

  /// Waits until every submitted op has completed. Completions stay queued
  /// for reaping — drain() is a barrier, not a discard.
  sim::Co<void> drain();

  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
  [[nodiscard]] std::size_t depth() const { return depth_; }
  /// Completions queued and not yet reaped.
  [[nodiscard]] std::size_t completions_pending() const { return cq_.size(); }

 private:
  /// Adjacent reads on one descriptor that move as one transfer.
  struct ReadRun {
    Bytes64 end = 0;  // offset + len of the last read
    std::vector<Sqe> sqes;
  };

  /// Queues `sqe` unless `depth` ops are already in flight; counts nothing.
  bool admit(const Sqe& sqe);
  sim::Co<void> run_reads(std::unique_ptr<ReadRun> run);
  sim::Co<void> run_write(Sqe sqe);
  void post(Cqe c);

  sim::Simulator& sim_;
  DodoClient& client_;
  std::size_t depth_;
  std::size_t in_flight_ = 0;
  /// The run reads may still join; null once it started or was ended.
  ReadRun* open_run_ = nullptr;
  sim::Channel<Cqe> cq_;
  /// One token per waiter is sent on every completion, waking submit()/
  /// drain() backpressure loops to re-check their condition.
  sim::Channel<int> slots_;
};

}  // namespace dodo::runtime
