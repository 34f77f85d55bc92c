#include "runtime/ring.hpp"

#include <algorithm>

namespace dodo::runtime {

DodoRing::DodoRing(sim::Simulator& sim, DodoClient& client, std::size_t depth)
    : sim_(sim),
      client_(client),
      depth_(std::max<std::size_t>(1, depth)),
      cq_(sim),
      slots_(sim) {
  client_.ring_register();
}

bool DodoRing::try_submit(const Sqe& sqe) {
  if (admit(sqe)) return true;
  client_.ring_note_reject();
  return false;
}

bool DodoRing::admit(const Sqe& sqe) {
  if (in_flight_ >= depth_) return false;
  ++in_flight_;
  client_.ring_note_submit(static_cast<std::uint64_t>(in_flight_));
  if (sqe.op != RingOp::kRead) {
    open_run_ = nullptr;  // later reads must not join a run opened before it
    sim_.spawn(run_write(sqe));
    return true;
  }
  ReadRun* r = open_run_;
  if (r != nullptr && sqe.rd == r->sqes.front().rd && sqe.offset == r->end &&
      sqe.len > 0 &&
      sqe.offset + sqe.len - r->sqes.front().offset <= kMaxRunBytes) {
    r->sqes.push_back(sqe);
    r->end = sqe.offset + sqe.len;
    return true;
  }
  auto run = std::make_unique<ReadRun>();
  run->end = sqe.offset + sqe.len;
  run->sqes.push_back(sqe);
  // Only a well-formed read can be extended: mread_ex rejects a negative
  // offset or length for the whole run, which must not fail its joiners.
  open_run_ = sqe.offset >= 0 && sqe.len > 0 ? run.get() : nullptr;
  sim_.spawn(run_reads(std::move(run)));
  return true;
}

sim::Co<void> DodoRing::submit(Sqe sqe) {
  if (admit(sqe)) co_return;
  client_.ring_note_reject();
  do {
    co_await slots_.recv();
  } while (!admit(sqe));
}

sim::Co<void> DodoRing::run_reads(std::unique_ptr<ReadRun> run) {
  if (open_run_ == run.get()) open_run_ = nullptr;  // started: no joiners
  const Sqe& first = run->sqes.front();
  const Bytes64 lo = first.offset;
  // A lone read lands in its own buffer: exactly one direct mread_ex. A
  // merged run lands in one bounce buffer (none if every read is phantom).
  std::uint8_t* landing = first.buf;
  std::vector<std::uint8_t> bounce;
  const bool merged = run->sqes.size() > 1;
  if (merged) {
    client_.ring_note_merged(run->sqes.size());
    landing = nullptr;
    if (std::any_of(run->sqes.begin(), run->sqes.end(),
                    [](const Sqe& s) { return s.buf != nullptr; })) {
      bounce.resize(static_cast<std::size_t>(run->end - lo));
      landing = bounce.data();
    }
  }
  const DodoClient::ReadResult r =
      co_await client_.mread_ex(first.rd, lo, landing, run->end - lo);
  for (const Sqe& s : run->sqes) {
    const Bytes64 rel = s.offset - lo;
    Cqe c;
    c.user_data = s.user_data;
    if (r.n < 0 || (rel > 0 && rel >= r.n)) {
      // The run failed, or this read starts past the region's end (which a
      // read of its own would have rejected with EINVAL).
      c.degraded = true;
      post(std::move(c));
      continue;
    }
    c.n = std::min(s.len, r.n - rel);
    c.filled = r.filled;
    if (merged && s.buf != nullptr) {
      std::copy_n(bounce.begin() + rel, c.n, s.buf);
    }
    for (const auto& [off, len] : r.disk_ranges) {
      const Bytes64 a = std::max(off, rel);
      const Bytes64 b = std::min(off + len, rel + c.n);
      if (a < b) c.disk_ranges.emplace_back(a - rel, b - a);
    }
    c.degraded = !c.disk_ranges.empty();
    post(std::move(c));
  }
}

sim::Co<void> DodoRing::run_write(Sqe sqe) {
  const Bytes64 n =
      co_await client_.mwrite(sqe.rd, sqe.offset, sqe.wbuf, sqe.len);
  Cqe c;
  c.user_data = sqe.user_data;
  c.n = n;
  c.filled = n >= 0;
  post(std::move(c));
}

void DodoRing::post(Cqe c) {
  --in_flight_;
  client_.ring_note_complete();
  cq_.send(std::move(c));
  // Wake every backpressured submit()/drain() to re-check its condition.
  while (slots_.pending_receivers() > 0) slots_.send(0);
}

sim::Co<Cqe> DodoRing::reap() { co_return co_await cq_.recv(); }

std::optional<Cqe> DodoRing::try_reap() { return cq_.try_recv(); }

sim::Co<void> DodoRing::drain() {
  while (in_flight_ > 0) co_await slots_.recv();
}

}  // namespace dodo::runtime
