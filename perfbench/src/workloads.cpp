#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "cluster/cluster.hpp"
#include "core/activity.hpp"
#include "fault/fault.hpp"
#include "obs/critical_path.hpp"
#include "runtime/ring.hpp"
#include "probe.hpp"
#include "sim/channel.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using dodo::Bytes64;
using dodo::Duration;
using dodo::Rng;
using dodo::SimTime;
using dodo::operator""_KiB;
using dodo::operator""_MiB;
namespace cluster = dodo::cluster;
namespace runtime = dodo::runtime;
namespace sim = dodo::sim;

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

constexpr std::size_t kNoSpan = std::numeric_limits<std::size_t>::max();

/// The write share of the workloads that write: the share of lu's requests
/// that are writes at the paper's scale (1,024 of 49,376), as measured by
/// perfbench_rwmix (src/rwmix.cpp). dmine writes nothing.
constexpr double kLuWriteShare = 0.0207;

/// Everything one workload records while its measured phase runs.
class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual cluster::ClusterConfig config(
      std::uint64_t seed) const = 0;
  /// Datasets, descriptors and client fleets (timed as part of set-up).
  virtual void build(cluster::Cluster& c) = 0;
  virtual sim::Co<void> warmup(cluster::Cluster& c) = 0;
  virtual sim::Co<void> measure(cluster::Cluster& c) = 0;
  /// Untimed read-back of every byte against the shadow copy.
  virtual sim::Co<void> verify(cluster::Cluster& c) = 0;
  /// Drops objects that reference the cluster (before it is destroyed).
  virtual void release() {}
  /// Every libdodo client on the application node.
  [[nodiscard]] virtual std::vector<runtime::DodoClient*> app_clients(
      cluster::Cluster& c) {
    return {c.dodo()};
  }
  /// The workload's per-op latency limit for slo_goodput_per_s.
  [[nodiscard]] virtual Duration slo_limit() const = 0;

  std::uint64_t seed = 1;
  SpanLog* spans = nullptr;
  bool corrupt_shadow = false;
  sim::Simulator* simulator = nullptr;

  // -- measured-phase record ------------------------------------------------
  bool recording = false;
  SimTime t_begin = 0;
  SimTime t_end = 0;
  std::vector<Duration> op_latency;  // completed ops only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> fail_causes;
  /// Per-layer sim-clock samples, keyed by metric stem ("runtime.mopen_us").
  std::map<std::string, std::vector<Duration>> steps;
  std::int64_t inflight = 0;
  std::int64_t peak_inflight = 0;
  Duration max_lateness = 0;
  std::uint64_t user_bytes = 0;
  /// Control-plane mopens that served a completed op; -1 = derive from
  /// the clients' successful mopens.
  std::int64_t useful_mopens = -1;
  std::vector<std::string> checks;

  void fail(const char* step) {
    ++failed;
    ++fail_causes[step];
  }
  void check(bool ok, const std::string& what) {
    if (!ok && checks.size() < 8) checks.push_back(what);
  }
  void sample(const char* stem, Duration d) {
    if (recording) steps[stem].push_back(d);
  }
  std::size_t span_begin(const char* name) {
    return spans != nullptr ? spans->begin(name, simulator->now()) : kNoSpan;
  }
  void span_end(std::size_t id) {
    if (id != kNoSpan) spans->end(id, simulator->now());
  }
  void begin_op() {
    if (!recording) return;
    ++attempted;
    peak_inflight = std::max(peak_inflight, ++inflight);
  }
  void end_op(bool ok, Duration latency) {
    if (!recording) return;
    --inflight;
    if (ok) op_latency.push_back(latency);
  }
};

void fill_random(Rng& rng, std::uint8_t* p, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(p + i, &v, 8);
  }
  for (; i < n; ++i) p[i] = static_cast<std::uint8_t>(rng.next());
}

// ---------------------------------------------------------------------------
// sessions_nominal / sessions_overload: open-loop Poisson sessions
// (mopen -> mread -> mclose) from a fleet of libdodo clients against one
// cmd shard. A fixed session count per phase keeps the offered work equal
// across seeds; only the arrival times vary. Each client cycles through its
// own region slots and never reuses one that an in-flight session holds: two
// sessions sharing a region key would have the second mclose fail, a
// failure made by the generator rather than by the system.

class Sessions final : public Workload {
 public:
  Sessions(double rate, int count) : rate_(rate), count_(count) {}

  static constexpr int kClients = 400;
  static constexpr int kSlots = 64;
  static constexpr Bytes64 kRegion = 8_KiB;
  static constexpr Bytes64 kReadLen = 256;
  // Warm-up: the nominal rate, so both sessions workloads start from the
  // same steady control plane.
  static constexpr double kWarmRate = 4000;
  static constexpr int kWarmCount = 4000;

  [[nodiscard]] cluster::ClusterConfig config(
      std::uint64_t s) const override {
    cluster::ClusterConfig cfg;
    cfg.imd_hosts = 8;
    cfg.imd_pool = 16_MiB;
    cfg.materialize = false;  // sessions read with null buffers
    cfg.seed = s;
    return cfg;
  }

  void build(cluster::Cluster& c) override {
    rng_ = Rng(seed).fork(0x73657373);  // "sess"
    busy_.assign(static_cast<std::size_t>(kClients * kSlots), 0);
    next_slot_.assign(static_cast<std::size_t>(kClients), 0);
    fd_ = c.create_dataset("sessions.dat", kSlots * kRegion);
    for (int i = 0; i < kClients; ++i) {
      runtime::ClientParams p = c.config().client;
      p.client_id = static_cast<std::uint32_t>(1000 + i);
      p.ctl_port = static_cast<dodo::net::Port>(20000 + i);
      // As in the repo's loadgen fleet: hundreds of clients on one node
      // cannot each sit out a multi-second refraction after one failure.
      p.refraction = dodo::millis(50);
      if (c.traces() != nullptr) {
        p.spans = c.traces()->recorder(c.app_node(), "client");
      }
      clients_.push_back(std::make_unique<runtime::DodoClient>(
          c.sim(), c.network(), c.app_node(),
          std::vector<dodo::net::Endpoint>{c.cmd().endpoint()}, c.fs(), p));
      clients_.back()->start();
    }
  }

  sim::Co<void> warmup(cluster::Cluster& c) override {
    co_await open_loop(c, kWarmRate, kWarmCount);
  }

  sim::Co<void> measure(cluster::Cluster& c) override {
    t_begin = c.sim().now();
    co_await open_loop(c, rate_, count_);
    t_end = c.sim().now();
    useful_mopens = static_cast<std::int64_t>(op_latency.size());
  }

  sim::Co<void> verify(cluster::Cluster&) override { co_return; }

  void release() override { clients_.clear(); }

  std::vector<runtime::DodoClient*> app_clients(cluster::Cluster& c) override {
    std::vector<runtime::DodoClient*> out{c.dodo()};
    for (auto& cl : clients_) out.push_back(cl.get());
    return out;
  }

  // The client's first control-RPC attempt times out after 200 ms; a
  // session slower than that has waited out a retransmit's worth of
  // control-plane queueing. An idle session takes ~0.5 ms.
  [[nodiscard]] Duration slo_limit() const override {
    return dodo::millis(200);
  }

 private:
  /// `count` Poisson arrivals at `rate`, conditioned on all of them falling
  /// in the window count / rate: sorted uniform times over the window are
  /// exactly such a process, and the phase keeps the same length on every
  /// seed, so goodput does not wander with the sum of the gaps.
  sim::Co<void> open_loop(cluster::Cluster& c, double rate, int count) {
    sim::Simulator& s = c.sim();
    sim::WaitGroup wg(s);
    const double window = static_cast<double>(dodo::kSecond) * count / rate;
    std::vector<SimTime> arrivals(static_cast<std::size_t>(count));
    for (SimTime& t : arrivals) {
      t = s.now() + 1 + static_cast<Duration>(rng_.uniform() * window);
    }
    std::sort(arrivals.begin(), arrivals.end());
    for (const SimTime due : arrivals) {
      co_await s.sleep_until(due);
      auto client = static_cast<std::size_t>(
          rng_.below(static_cast<std::uint64_t>(kClients)));
      const int slot = claim_slot(&client);
      wg.add();
      s.spawn(session(c, client, slot, due, &wg));
    }
    co_await wg.wait();
  }

  /// The client's next slot not held by an in-flight session; moves on to
  /// the following client when all of this one's slots are held.
  int claim_slot(std::size_t* client) {
    for (;;) {
      for (int k = 0; k < kSlots; ++k) {
        int& next = next_slot_[*client];
        const int slot = next;
        next = (next + 1) % kSlots;
        char& b = busy_[*client * kSlots + static_cast<std::size_t>(slot)];
        if (b == 0) {
          b = 1;
          return slot;
        }
      }
      *client = (*client + 1) % kClients;
    }
  }

  sim::Co<void> session(cluster::Cluster& c, std::size_t client, int slot,
                        SimTime due, sim::WaitGroup* wg) {
    sim::Simulator& s = c.sim();
    runtime::DodoClient& cl = *clients_[client];
    begin_op();
    if (recording) max_lateness = std::max(max_lateness, s.now() - due);
    const std::size_t op_span = span_begin("bench.session");
    bool ok = false;

    SimTime t = s.now();
    std::size_t sp = span_begin("bench.mopen");
    const int rd = co_await cl.mopen(kRegion, fd_, slot * kRegion);
    span_end(sp);
    if (rd < 0) {
      if (recording) fail("mopen");
    } else {
      sample("runtime.mopen_us", s.now() - t);
      t = s.now();
      sp = span_begin("bench.mread");
      const Bytes64 n = co_await cl.mread(rd, 0, nullptr, kReadLen);
      span_end(sp);
      const bool read_ok = n == kReadLen;
      if (read_ok) sample("runtime.mread_us", s.now() - t);
      t = s.now();
      sp = span_begin("bench.mclose");
      const int closed = co_await cl.mclose(rd);
      span_end(sp);
      if (closed == 0) sample("runtime.mclose_us", s.now() - t);
      ok = read_ok && closed == 0;
      if (recording && !read_ok) fail("mread");
      if (recording && read_ok && closed != 0) fail("mclose");
      if (recording && ok) user_bytes += kReadLen;
    }
    span_end(op_span);
    end_op(ok, s.now() - due);
    busy_[client * kSlots + static_cast<std::size_t>(slot)] = 0;
    wg->done();
  }

  double rate_;
  int count_;
  Rng rng_;
  std::vector<char> busy_;     // [client * kSlots + slot]: held in flight
  std::vector<int> next_slot_;  // per client
  int fd_ = -1;
  std::vector<std::unique_ptr<runtime::DodoClient>> clients_;
};

// ---------------------------------------------------------------------------
// hotcold_rw: one application, closed loop with no think time, cread/cwrite
// through the region manager on the paper's hot/cold pattern (20% of the
// regions take 80% of references), with materialized bytes checked against
// a shadow copy. Op lengths are drawn byte-exact from [7.5, 8.5) KiB, the
// paper's 8 KiB request give or take 512 bytes: with one fixed length every
// local hit would cost the same sim time and the median op latency would
// not depend on the seed at all. The dataset is four times the local region cache and a
// quarter of the harvested pool; one harvested host's owner returns mid-phase,
// so reclamation and degrade-to-disk both run.

class HotCold final : public Workload {
 public:
  static constexpr int kHosts = 4;
  static constexpr Bytes64 kPool = 16_MiB;
  static constexpr Bytes64 kCache = 4_MiB;
  static constexpr Bytes64 kDataset = 16_MiB;
  static constexpr Bytes64 kRegion = 64_KiB;
  static constexpr Bytes64 kMinOp = 8_KiB - 512;
  static constexpr Bytes64 kMaxOp = 8_KiB + 512;  // exclusive
  static constexpr int kRegions = static_cast<int>(kDataset / kRegion);
  static constexpr int kHotRegions = kRegions / 5;
  // Every run of kDeck consecutive ops has exactly kHotInDeck hot ones, in
  // a shuffled order: 80% of references go to the hot 20% exactly, not
  // just on average, which keeps the hit ratio from drifting with the seed.
  static constexpr std::size_t kDeck = 10;
  static constexpr std::size_t kHotInDeck = 8;
  static constexpr double kWriteFrac = kLuWriteShare;
  static constexpr int kWarmOps = 500;
  static constexpr int kOps = 32000;
  // The warm-up is padded to end at this sim time, so the owner's return
  // lands at the same point of the measured phase on every seed.
  static constexpr SimTime kWarmEnd = 30 * dodo::kSecond;
  static constexpr Duration kOwnerReturn = 35 * dodo::kSecond;

  HotCold()
      : owner_(128_MiB, 20_MiB, 100_MiB,
               {{kWarmEnd + kOwnerReturn, std::numeric_limits<SimTime>::max()}}) {}

  [[nodiscard]] cluster::ClusterConfig config(
      std::uint64_t s) const override {
    cluster::ClusterConfig cfg;
    cfg.imd_hosts = kHosts;
    cfg.imd_pool = kPool;
    cfg.local_cache = kCache;
    cfg.page_cache_dodo = 2_MiB;
    cfg.materialize = true;
    cfg.seed = s;
    cfg.rmd.start_recruited = true;  // the scripted host starts idle
    cfg.host_activity = {&owner_};
    return cfg;
  }

  void build(cluster::Cluster& c) override {
    rng_ = Rng(seed).fork(0x686f7463);  // "hotc"
    const int fd = c.create_dataset("hotcold.dat", kDataset);
    for (int i = 0; i < kRegions; ++i) {
      cds_.push_back(c.manager()->copen(kRegion, fd, i * kRegion));
    }
    order_.resize(static_cast<std::size_t>(kRegions));
    for (int i = 0; i < kRegions; ++i) order_[static_cast<std::size_t>(i)] = i;
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.below(i)]);
    }
    shadow_.assign(static_cast<std::size_t>(kDataset), 0);
    buf_.assign(static_cast<std::size_t>(kRegion), 0);
  }

  sim::Co<void> warmup(cluster::Cluster& c) override {
    auto& m = *c.manager();
    // Write every region (initial content), then read it all back so clean
    // regions migrate to remote memory, then run the op mix unrecorded.
    for (int i = 0; i < kRegions; ++i) {
      std::uint8_t* dst = shadow_.data() + i * kRegion;
      fill_random(rng_, dst, static_cast<std::size_t>(kRegion));
      const Bytes64 n = co_await m.cwrite(cds_[static_cast<std::size_t>(i)],
                                          0, dst, kRegion);
      check(n == kRegion, "hotcold: warm-up cwrite failed");
    }
    co_await read_back(c, "hotcold: warm-up read-back mismatch");
    for (int i = 0; i < kWarmOps; ++i) co_await one_op(c);
    check(c.sim().now() <= kWarmEnd, "hotcold: warm-up overran its window");
    co_await c.sim().sleep_until(kWarmEnd);
  }

  sim::Co<void> measure(cluster::Cluster& c) override {
    t_begin = c.sim().now();
    for (int i = 0; i < kOps; ++i) co_await one_op(c);
    t_end = c.sim().now();
  }

  sim::Co<void> verify(cluster::Cluster& c) override {
    if (corrupt_shadow) shadow_[static_cast<std::size_t>(kDataset / 2)] ^= 0x5a;
    co_await read_back(c, "hotcold: final read-back differs from shadow");
  }

  // An access that misses the local cache pulls its whole 64 KiB region:
  // ~5 ms from remote memory at 12.5 MB/s, ~27 ms from the modeled disk.
  // 10 ms admits a remote fill and rejects a disk wait.
  [[nodiscard]] Duration slo_limit() const override {
    return dodo::millis(10);
  }

 private:
  sim::Co<void> read_back(cluster::Cluster& c, const char* what) {
    auto& m = *c.manager();
    for (int i = 0; i < kRegions; ++i) {
      const Bytes64 n = co_await m.cread(cds_[static_cast<std::size_t>(i)], 0,
                                         buf_.data(), kRegion);
      check(n == kRegion &&
                std::memcmp(buf_.data(), shadow_.data() + i * kRegion,
                            static_cast<std::size_t>(kRegion)) == 0,
            what);
    }
  }

  sim::Co<void> one_op(cluster::Cluster& c) {
    auto& m = *c.manager();
    sim::Simulator& s = c.sim();
    if (dealt_ == kDeck) {
      for (std::size_t i = 0; i < kDeck; ++i) deck_[i] = i < kHotInDeck;
      for (std::size_t i = kDeck; i > 1; --i) {
        std::swap(deck_[i - 1], deck_[rng_.below(i)]);
      }
      dealt_ = 0;
    }
    const bool hot = deck_[dealt_++];
    const std::uint64_t pick =
        hot ? rng_.below(kHotRegions)
            : kHotRegions + rng_.below(kRegions - kHotRegions);
    const int region = order_[pick];
    const int cd = cds_[static_cast<std::size_t>(region)];
    const auto len = static_cast<Bytes64>(
        kMinOp + rng_.below(static_cast<std::uint64_t>(kMaxOp - kMinOp)));
    const auto off = static_cast<Bytes64>(
        rng_.below(static_cast<std::uint64_t>(kRegion - len + 1)));
    const auto n_bytes = static_cast<std::size_t>(len);
    std::uint8_t* shadow = shadow_.data() + region * kRegion + off;
    const bool write = rng_.chance(kWriteFrac);
    begin_op();
    const SimTime t = s.now();
    bool ok = false;
    if (write) {
      fill_random(rng_, buf_.data(), n_bytes);
      const std::size_t sp = span_begin("bench.cwrite");
      const Bytes64 n = co_await m.cwrite(cd, off, buf_.data(), len);
      span_end(sp);
      ok = n == len;
      if (ok) {
        std::memcpy(shadow, buf_.data(), n_bytes);
        sample("manage.cwrite_us", s.now() - t);
      } else if (recording) {
        fail("cwrite");
      }
    } else {
      const std::size_t sp = span_begin("bench.cread");
      const Bytes64 n = co_await m.cread(cd, off, buf_.data(), len);
      span_end(sp);
      ok = n == len;
      if (ok) {
        check(std::memcmp(buf_.data(), shadow, n_bytes) == 0,
              "hotcold: cread returned bytes that differ from shadow");
        sample("manage.cread_us", s.now() - t);
      } else if (recording) {
        fail("cread");
      }
    }
    if (recording && ok) user_bytes += static_cast<std::uint64_t>(len);
    end_op(ok, s.now() - t);
  }

  dodo::core::ScriptedActivity owner_;
  Rng rng_;
  std::vector<int> cds_;
  std::vector<int> order_;  // region indices; the first kHotRegions are hot
  std::array<bool, kDeck> deck_{};
  std::size_t dealt_ = kDeck;
  std::vector<std::uint8_t> shadow_;
  std::vector<std::uint8_t> buf_;
};

// ---------------------------------------------------------------------------
// smallops_ring: kThreads application coroutines share one DodoRing of
// kDepth slots. Each one thinks for a short random time, takes a 4 KiB slot
// that is not in flight, submits a read or write (parking while the ring is
// full), and waits for its completion, so the ring stays full and is the
// throttle. The random think times keep op timings off a fixed lattice. The
// link runs at 10 Gb/s, so the wire does not bind and per-op software cost
// in libdodo, the ring and the imd does. A slot is never in flight twice,
// so every read is checked exactly against the shadow.

class SmallOps final : public Workload {
 public:
  static constexpr int kHosts = 2;
  static constexpr Bytes64 kRegion = 1_MiB;
  static constexpr Bytes64 kOp = 4_KiB;
  static constexpr int kSlots = static_cast<int>(kRegion / kOp);
  static constexpr std::size_t kDepth = 16;
  static constexpr int kThreads = 20;
  static constexpr double kThinkMeanNs = 20'000;
  static constexpr double kWriteFrac = kLuWriteShare;
  static constexpr int kWarmOps = 4000;
  static constexpr int kOps = 14000;
  static constexpr double kLinkBps = 1.25e9;

  [[nodiscard]] cluster::ClusterConfig config(
      std::uint64_t s) const override {
    cluster::ClusterConfig cfg;
    cfg.imd_hosts = kHosts;
    cfg.imd_pool = 8_MiB;
    cfg.local_cache = 1_MiB;
    // The whole backing file fits in the page cache, so the disk half of
    // mwrite's parallel write costs a page-cache copy, not a disk seek.
    cfg.page_cache_dodo = 4_MiB;
    cfg.materialize = true;
    cfg.net.bandwidth_Bps = kLinkBps;
    cfg.seed = s;
    return cfg;
  }

  void build(cluster::Cluster& c) override {
    rng_ = Rng(seed).fork(0x72696e67);  // "ring"
    fd_ = c.create_dataset("ring.dat", kRegion);
    shadow_.assign(static_cast<std::size_t>(kRegion), 0);
    rbuf_.assign(static_cast<std::size_t>(kRegion), 0);
    wbuf_.assign(static_cast<std::size_t>(kRegion), 0);
    known_.assign(static_cast<std::size_t>(kSlots), true);
  }

  sim::Co<void> warmup(cluster::Cluster& c) override {
    auto& d = *c.dodo();
    rd_ = co_await d.mopen(kRegion, fd_, 0);
    check(rd_ >= 0, "smallops: mopen of the ring region failed");
    if (rd_ < 0) co_return;
    fill_random(rng_, shadow_.data(), shadow_.size());
    for (Bytes64 off = 0; off < kRegion; off += 64_KiB) {
      const Bytes64 n = co_await d.mwrite(rd_, off, shadow_.data() + off,
                                          64_KiB);
      check(n == 64_KiB, "smallops: warm-up mwrite failed");
    }
    co_await ring_loop(c, kSlots, false);
    co_await ring_loop(c, kWarmOps, true);
  }

  sim::Co<void> measure(cluster::Cluster& c) override {
    t_begin = c.sim().now();
    if (rd_ >= 0) co_await ring_loop(c, kOps, true);
    t_end = c.sim().now();
  }

  sim::Co<void> verify(cluster::Cluster& c) override {
    if (rd_ < 0) co_return;
    auto& d = *c.dodo();
    if (corrupt_shadow) shadow_[static_cast<std::size_t>(kRegion / 2)] ^= 0x5a;
    const Bytes64 n = co_await d.mread(rd_, 0, rbuf_.data(), kRegion);
    for (int s = 0; s < kSlots; ++s) {
      const auto i = static_cast<std::size_t>(s);
      if (!known_[i]) continue;
      check(n == kRegion && std::memcmp(rbuf_.data() + i * kOp,
                                        shadow_.data() + i * kOp,
                                        static_cast<std::size_t>(kOp)) == 0,
            "smallops: final read-back differs from shadow");
    }
    check(co_await d.mclose(rd_) == 0, "smallops: mclose failed");
  }

  // A random 4 KiB read from the modeled disk takes ~13 ms (6.5 ms seek,
  // half a 5400 RPM turn, transfer); a remote 4 KiB op slower than a sixth
  // of that no longer pays for itself.
  [[nodiscard]] Duration slo_limit() const override {
    return dodo::millis(2);
  }

 private:
  struct Op {
    int slot = 0;
    bool write = false;
    SimTime t_call = 0;
    SimTime t_accept = 0;
    std::size_t span = kNoSpan;
    sim::WaitGroup* done = nullptr;  // released by the reaper
    runtime::Cqe cqe;
  };

  /// State one ring_loop's coroutines share.
  struct Loop {
    runtime::DodoRing& ring;
    bool mixed;
    std::vector<Op> ops;
    std::vector<char> busy;  // per slot: an op on it is in flight
    std::size_t issued = 0;
  };

  /// `mixed` = think times, random free slots and kWriteFrac writes;
  /// otherwise one read of every slot in order.
  sim::Co<void> ring_loop(cluster::Cluster& c, int nops, bool mixed) {
    sim::Simulator& s = c.sim();
    runtime::DodoRing ring(s, *c.dodo(), kDepth);
    Loop loop{ring, mixed, std::vector<Op>(static_cast<std::size_t>(nops)),
              std::vector<char>(static_cast<std::size_t>(kSlots), 0)};
    sim::WaitGroup finished(s);
    finished.add(kThreads + 1);
    s.spawn(reaper(loop, &finished));
    for (int t = 0; t < kThreads; ++t) s.spawn(app_thread(c, loop, &finished));
    co_await finished.wait();
  }

  sim::Co<void> app_thread(cluster::Cluster& c, Loop& loop,
                           sim::WaitGroup* finished) {
    sim::Simulator& s = c.sim();
    while (loop.issued < loop.ops.size()) {
      const std::size_t i = loop.issued++;
      Op& op = loop.ops[i];
      if (loop.mixed) {
        co_await s.sleep(static_cast<Duration>(rng_.exponential(kThinkMeanNs)));
      }
      op.slot = loop.mixed ? -1 : static_cast<int>(i);
      while (op.slot < 0 || loop.busy[static_cast<std::size_t>(op.slot)] != 0) {
        op.slot = static_cast<int>(rng_.below(kSlots));
      }
      const auto slot = static_cast<std::size_t>(op.slot);
      loop.busy[slot] = 1;
      op.write = loop.mixed && rng_.chance(kWriteFrac);
      const std::size_t base = slot * static_cast<std::size_t>(kOp);
      runtime::Sqe sqe;
      sqe.op = op.write ? runtime::RingOp::kWrite : runtime::RingOp::kRead;
      sqe.rd = rd_;
      sqe.offset = static_cast<Bytes64>(base);
      sqe.len = kOp;
      sqe.user_data = i;
      if (op.write) {
        fill_random(rng_, wbuf_.data() + base, static_cast<std::size_t>(kOp));
        sqe.wbuf = wbuf_.data() + base;
      } else {
        sqe.buf = rbuf_.data() + base;
      }
      sim::WaitGroup done(s);
      done.add();
      op.done = &done;
      begin_op();
      op.t_call = s.now();
      op.span = span_begin(op.write ? "bench.ring_write" : "bench.ring_read");
      co_await loop.ring.submit(sqe);
      op.t_accept = s.now();
      co_await done.wait();
      span_end(op.span);
      complete(op, s.now());
      loop.busy[slot] = 0;
    }
    finished->done();
  }

  sim::Co<void> reaper(Loop& loop, sim::WaitGroup* finished) {
    for (std::size_t k = 0; k < loop.ops.size(); ++k) {
      runtime::Cqe cqe = co_await loop.ring.reap();
      Op& op = loop.ops[static_cast<std::size_t>(cqe.user_data)];
      op.cqe = std::move(cqe);
      op.done->done();
    }
    finished->done();
  }

  /// Checks one reaped op against the shadow and records its timings.
  void complete(const Op& op, SimTime now) {
    const auto i = static_cast<std::size_t>(op.slot);
    const std::size_t base = i * static_cast<std::size_t>(kOp);
    const bool ok = op.cqe.n == kOp;
    if (op.write) {
      if (ok) {
        std::memcpy(shadow_.data() + base, wbuf_.data() + base,
                    static_cast<std::size_t>(kOp));
        sample("runtime.mwrite_us", now - op.t_accept);
      } else if (recording) {
        fail("mwrite");
      }
      known_[i] = ok;  // a failed mwrite leaves the slot's bytes unknown
    } else if (ok) {
      check(!known_[i] || std::memcmp(rbuf_.data() + base,
                                      shadow_.data() + base,
                                      static_cast<std::size_t>(kOp)) == 0,
            "smallops: ring read returned bytes that differ from shadow");
      sample("runtime.mread_us", now - op.t_accept);
    } else if (recording) {
      fail("mread");
    }
    sample("ring.op_us", now - op.t_accept);
    sample("ring.submit_wait_us", op.t_accept - op.t_call);
    if (recording && ok) user_bytes += static_cast<std::uint64_t>(kOp);
    end_op(ok, now - op.t_call);
  }

  Rng rng_;
  int fd_ = -1;
  int rd_ = -1;
  std::vector<std::uint8_t> shadow_;
  std::vector<std::uint8_t> rbuf_;  // read landing, one 4 KiB slot per op
  std::vector<std::uint8_t> wbuf_;  // write source, one 4 KiB slot per op
  std::vector<bool> known_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "sessions_nominal") {
    return std::make_unique<Sessions>(4000.0, 20000);
  }
  if (name == "sessions_overload") {
    return std::make_unique<Sessions>(24000.0, 6000);
  }
  if (name == "hotcold_rw") return std::make_unique<HotCold>();
  if (name == "smallops_ring") return std::make_unique<SmallOps>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Counters read at the phase boundaries.

struct ClientTotals {
  std::uint64_t mreads = 0, remote_hits = 0, disk_fallbacks = 0;
  std::uint64_t mopens = 0, mopen_failures = 0;
  std::uint64_t remote_bytes = 0;
  std::uint64_t chunks_sent = 0, chunks_retx = 0;
  std::uint64_t ring_submitted = 0, ring_completed = 0, ring_rejects = 0;
};

struct ImdCounters {
  bool present = false;
  std::uint64_t epoch = 0;
  std::uint64_t reads = 0, retries = 0, chunks_sent = 0, chunks_retx = 0;
};

struct Counters {
  std::uint64_t events = 0;
  dodo::obs::MetricsSnapshot snap;
  ClientTotals clients;
  std::vector<ImdCounters> imds;
  dodo::manage::ManageMetrics manage;
  std::uint64_t lru_hits = 0, lru_misses = 0;
  std::uint64_t disk_reads = 0, page_hits = 0, page_misses = 0;
};

Counters read_counters(cluster::Cluster& c,
                       const std::vector<runtime::DodoClient*>& clients) {
  Counters p;
  p.events = c.sim().events_processed();
  p.snap = c.metrics_snapshot();
  for (const runtime::DodoClient* cl : clients) {
    const auto& m = cl->metrics();
    ClientTotals& t = p.clients;
    t.mreads += m.mreads_total;
    t.remote_hits += m.remote_hits;
    t.disk_fallbacks += m.disk_fallbacks;
    t.mopens += m.mopens;
    t.mopen_failures += m.mopen_failures;
    t.remote_bytes += static_cast<std::uint64_t>(m.remote_read_bytes +
                                                 m.remote_write_bytes);
    t.chunks_sent += cl->bulk_stats().chunks_sent.value();
    t.chunks_retx += cl->bulk_stats().chunks_retransmitted.value();
    t.ring_submitted += m.ring_submitted;
    t.ring_completed += m.ring_completed;
    t.ring_rejects += m.ring_full_rejects;
  }
  for (int h = 0; h < c.config().imd_hosts; ++h) {
    ImdCounters ic;
    if (const dodo::core::IdleMemoryDaemon* imd = c.rmd(h).imd()) {
      const dodo::obs::MetricsSnapshot s = imd->metrics_snapshot();
      ic.present = true;
      ic.epoch = imd->epoch();
      ic.reads = s.counter_value("imd.reads_served");
      ic.retries = s.counter_value("imd.reply_cache_hits") +
                   s.counter_value("imd.dup_requests_dropped");
      ic.chunks_sent = s.counter_value("imd.bulk.chunks_sent");
      ic.chunks_retx = s.counter_value("imd.bulk.chunks_retransmitted");
    }
    p.imds.push_back(ic);
  }
  if (const dodo::manage::RegionManager* m = c.manager()) {
    p.manage = m->metrics();
    p.lru_hits = m->policy_hits(dodo::manage::Policy::kLru);
    p.lru_misses = m->policy_misses(dodo::manage::Policy::kLru);
  }
  p.disk_reads = c.fs().disk().metrics().reads;
  p.page_hits = c.fs().cache().metrics().hit_pages;
  p.page_misses = c.fs().cache().metrics().miss_pages;
  return p;
}

/// Per-host imd delta over the phase. An imd that was replaced (owner
/// return, restart) counts only the work of the instance alive at the end.
ImdCounters imd_delta(const std::vector<ImdCounters>& before,
                      const std::vector<ImdCounters>& after) {
  ImdCounters d;
  for (std::size_t h = 0; h < after.size(); ++h) {
    const ImdCounters& a = after[h];
    if (!a.present) continue;
    const bool same = before[h].present && before[h].epoch == a.epoch;
    const ImdCounters z;
    const ImdCounters& b = same ? before[h] : z;
    d.reads += a.reads - b.reads;
    d.retries += a.retries - b.retries;
    d.chunks_sent += a.chunks_sent - b.chunks_sent;
    d.chunks_retx += a.chunks_retx - b.chunks_retx;
  }
  return d;
}

double us(double ns) { return ns / 1000.0; }

void put(MetricMap& m, const std::string& name, double v, const char* unit) {
  m[name] = Metric{v, unit};
}

void put_quantiles(MetricMap& m, const std::string& stem,
                   const std::vector<Duration>& v, bool with_p50) {
  const Quantiles q = quantiles(v);
  if (with_p50) put(m, stem + ".p50", us(q.p50), "us");
  put(m, stem + ".p99", us(q.tail), "us");
}

}  // namespace

std::size_t SpanLog::begin(std::string name, SimTime now) {
  spans_.push_back(BenchSpan{std::move(name), now, -1, monotonic_ns(), -1});
  return spans_.size() - 1;
}

void SpanLog::end(std::size_t id, SimTime now) {
  BenchSpan& s = spans_.at(id);
  s.sim_end = now;
  s.host_end_ns = monotonic_ns();
}

bool SpanLog::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tsim_start_ns\tsim_end_ns\thost_start_ns\thost_end_ns\n");
  for (const BenchSpan& s : spans_) {
    std::fprintf(f, "%s\t%lld\t%lld\t%lld\t%lld\n", s.name.c_str(),
                 static_cast<long long>(s.sim_start),
                 static_cast<long long>(s.sim_end),
                 static_cast<long long>(s.host_start_ns),
                 static_cast<long long>(s.host_end_ns));
  }
  return std::fclose(f) == 0;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sessions_nominal", "sessions_overload", "hotcold_rw", "smallops_ring"};
  return names;
}

RunResult run_workload(const std::string& name, const RunOptions& opt) {
  std::unique_ptr<Workload> wl = make_workload(name);
  wl->seed = opt.seed;
  wl->spans = opt.spans;
  wl->corrupt_shadow = opt.corrupt_shadow;
  if (opt.spans != nullptr) opt.spans->clear();
  RunResult r;

  const double c0 = cpu_seconds();
  cluster::ClusterConfig cfg = wl->config(opt.seed);
  cfg.record_spans = opt.traced;
  auto c = std::make_unique<cluster::Cluster>(cfg);
  wl->simulator = &c->sim();
  const std::size_t build_span = wl->span_begin("bench.cluster_build");
  wl->build(*c);
  wl->span_end(build_span);
  const double c1 = cpu_seconds();
  const std::size_t warm_span = wl->span_begin("bench.warmup");
  c->run_app([&](cluster::Cluster& cl) { return wl->warmup(cl); });
  wl->span_end(warm_span);
  const double c2 = cpu_seconds();
  const SimTime warm_end = c->sim().now();

  const std::vector<runtime::DodoClient*> clients = wl->app_clients(*c);
  const Counters before = read_counters(*c, clients);
  wl->recording = true;
  const std::size_t run_span = wl->span_begin("bench.run_app");
  const double c3 = cpu_seconds();
  c->run_app([&](cluster::Cluster& cl) { return wl->measure(cl); });
  const double c4 = cpu_seconds();
  wl->span_end(run_span);
  wl->recording = false;
  const Counters after = read_counters(*c, clients);

  c->run_app([&](cluster::Cluster& cl) { return wl->verify(cl); });
  const std::string leaks = dodo::fault::leak_report(*c);
  wl->check(leaks.empty(), "leak_report: " + leaks.substr(0, 200));

  r.build_cpu_s = c1 - c0;
  r.warmup_cpu_s = c2 - c1;
  r.measure_cpu_s = c4 - c3;

  // -- end-to-end, sim clock -------------------------------------------------
  MetricMap& m = r.sim;
  const double secs = dodo::to_seconds(wl->t_end - wl->t_begin);
  const auto completed = static_cast<double>(wl->op_latency.size());
  put(m, "goodput_per_s", ratio(completed, secs), "ops/s");
  const auto slo_ok = within_limit(wl->op_latency, wl->slo_limit());
  put(m, "slo_goodput_per_s", ratio(static_cast<double>(slo_ok), secs),
      "ops/s");
  const Quantiles q = quantiles(wl->op_latency);
  put(m, "p50_us", us(q.p50), "us");
  put(m, "p99_us", us(q.tail), "us");
  put(m, "p99_us.percentile", q.tail_pct, "pct");
  put(m, "latency.samples", static_cast<double>(q.n), "count");
  put(m, "measured_sim_s", secs, "s");
  put(m, "slo_limit_us", us(static_cast<double>(wl->slo_limit())), "us");

  // -- per layer -------------------------------------------------------------
  const double events = static_cast<double>(after.events - before.events);
  put(m, "sim.events", events, "count");
  put(m, "sim.events_per_op", ratio(events, static_cast<double>(wl->attempted)),
      "events/op");
  put(m, "setup.warmup_sim_s", dodo::to_seconds(warm_end), "s");
  put(m, "gen.peak_inflight", static_cast<double>(wl->peak_inflight), "count");
  put(m, "gen.lateness_us.max", us(static_cast<double>(wl->max_lateness)),
      "us");

  auto samples = [&](const char* stem) -> const std::vector<Duration>& {
    static const std::vector<Duration> none;
    const auto it = wl->steps.find(stem);
    return it == wl->steps.end() ? none : it->second;
  };
  put_quantiles(m, "runtime.mopen_us", samples("runtime.mopen_us"), true);
  put_quantiles(m, "runtime.mread_us", samples("runtime.mread_us"), true);
  put_quantiles(m, "runtime.mclose_us", samples("runtime.mclose_us"), true);
  put_quantiles(m, "runtime.mwrite_us", samples("runtime.mwrite_us"), false);
  for (const char* step : {"mopen", "mread", "mwrite", "mclose"}) {
    const auto it = wl->fail_causes.find(step);
    put(m, std::string("runtime.fail.") + step,
        it == wl->fail_causes.end() ? 0.0 : static_cast<double>(it->second),
        "count");
  }
  const ClientTotals& cb = before.clients;
  const ClientTotals& ca = after.clients;
  put(m, "runtime.remote_hit_ratio",
      ratio(static_cast<double>(ca.remote_hits - cb.remote_hits),
            static_cast<double>(ca.mreads - cb.mreads)),
      "ratio");
  put(m, "runtime.disk_fallbacks",
      static_cast<double>(ca.disk_fallbacks - cb.disk_fallbacks), "count");

  put_quantiles(m, "ring.op_us", samples("ring.op_us"), true);
  put_quantiles(m, "ring.submit_wait_us", samples("ring.submit_wait_us"),
                false);
  put(m, "ring.full_rejects",
      static_cast<double>(ca.ring_rejects - cb.ring_rejects), "count");

  auto delta = [&](const char* counter) {
    return static_cast<double>(after.snap.counter_value(counter) -
                               before.snap.counter_value(counter));
  };
  const double cmd_mopens = delta("cmd.mopens");
  const double useful =
      wl->useful_mopens >= 0
          ? static_cast<double>(wl->useful_mopens)
          : static_cast<double>((ca.mopens - ca.mopen_failures) -
                                (cb.mopens - cb.mopen_failures));
  put(m, "cmd.mopens", cmd_mopens, "count");
  put(m, "cmd.useful_ratio", ratio(useful, cmd_mopens), "ratio");
  const ImdCounters imd = imd_delta(before.imds, after.imds);
  put(m, "imd.reads_served", static_cast<double>(imd.reads), "count");
  put(m, "imd.retry_ratio",
      ratio(static_cast<double>(imd.retries), static_cast<double>(imd.reads)),
      "ratio");
  put(m, "rmd.evictions", delta("rmd.evictions"), "count");

  put(m, "net.drop_ratio",
      ratio(delta("net.datagrams_dropped"), delta("net.datagrams_sent")),
      "ratio");
  put(m, "net.wire_bytes_per_user_byte",
      ratio(delta("net.payload_bytes_sent"),
            static_cast<double>(wl->user_bytes)),
      "ratio");
  put(m, "net.bulk_retransmit_ratio",
      ratio(static_cast<double>(ca.chunks_retx - cb.chunks_retx +
                                imd.chunks_retx),
            static_cast<double>(ca.chunks_sent - cb.chunks_sent +
                                imd.chunks_sent)),
      "ratio");
  put(m, "net.app_link_util",
      ratio(static_cast<double>(ca.remote_bytes - cb.remote_bytes),
            secs * cfg.net.bandwidth_Bps),
      "ratio");

  put_quantiles(m, "manage.cread_us", samples("manage.cread_us"), true);
  put_quantiles(m, "manage.cwrite_us", samples("manage.cwrite_us"), false);
  const auto& mb = before.manage;
  const auto& ma = after.manage;
  put(m, "manage.local_hit_ratio",
      ratio(static_cast<double>(after.lru_hits - before.lru_hits),
            static_cast<double>(after.lru_hits - before.lru_hits +
                                after.lru_misses - before.lru_misses)),
      "ratio");
  const double fills =
      static_cast<double>((ma.remote_fills - mb.remote_fills) +
                          (ma.mixed_fills - mb.mixed_fills) +
                          (ma.disk_fills - mb.disk_fills));
  put(m, "manage.remote_fill_ratio",
      ratio(static_cast<double>(ma.remote_fills - mb.remote_fills), fills),
      "ratio");
  put(m, "manage.evictions", static_cast<double>(ma.evictions - mb.evictions),
      "count");
  put(m, "manage.clones", static_cast<double>(ma.clones - mb.clones), "count");

  put(m, "disk.reads", static_cast<double>(after.disk_reads - before.disk_reads),
      "count");
  const double page_hits =
      static_cast<double>(after.page_hits - before.page_hits);
  const double page_misses =
      static_cast<double>(after.page_misses - before.page_misses);
  put(m, "disk.page_cache_hit_ratio", ratio(page_hits, page_hits + page_misses),
      "ratio");

  // -- traced: per-segment self time of the program's own span trees --------
  if (opt.traced) {
    const std::vector<dodo::obs::TraceSummary> traces =
        dodo::obs::analyze_traces(c->merged_spans());
    static constexpr std::array<std::pair<dodo::obs::Segment, const char*>, 5>
        kSegments = {{{dodo::obs::Segment::kClient, "client"},
                      {dodo::obs::Segment::kNetwork, "network"},
                      {dodo::obs::Segment::kDaemon, "daemon"},
                      {dodo::obs::Segment::kBulk, "bulk"},
                      {dodo::obs::Segment::kDisk, "disk"}}};
    std::array<std::vector<Duration>, 5> seg;
    std::size_t roots = 0;
    for (const dodo::obs::TraceSummary& t : traces) {
      if (t.start < wl->t_begin || t.start >= wl->t_end) continue;
      ++roots;
      for (std::size_t i = 0; i < kSegments.size(); ++i) {
        seg[i].push_back(t.segments[kSegments[i].first]);
      }
    }
    for (std::size_t i = 0; i < kSegments.size(); ++i) {
      put_quantiles(m, std::string("trace.") + kSegments[i].second + "_us",
                    seg[i], true);
    }
    put(m, "trace.roots", static_cast<double>(roots), "count");
  }

  // -- accounting checks -----------------------------------------------------
  r.attempted = wl->attempted;
  r.failed = wl->failed;
  r.fail_causes = wl->fail_causes;
  wl->check(wl->attempted == wl->op_latency.size() + wl->failed,
            "offered != completed + failed");
  wl->check(ca.ring_submitted - cb.ring_submitted ==
                ca.ring_completed - cb.ring_completed,
            "ring submitted != completed");
  wl->check(wl->max_lateness == 0, "open-loop generator ran late");
  wl->check(wl->attempted > 0 && secs > 0, "measured phase ran no ops");
  r.check_failures = wl->checks;

  c->sim().destroy_detached();
  wl->release();
  c.reset();
  return r;
}

}  // namespace perfbench
