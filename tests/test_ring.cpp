// The submission/completion ring over libdodo (DESIGN.md §16) and the one
// place reads merge: adjacent reads submitted in the same sim instant share
// one transfer of at most DodoRing::kMaxRunBytes. These tests pin the ring
// contract (FIFO completions within a run, backpressure at depth, clean
// completion around mclose), the merge rule (a write ends a run; a lone
// read costs exactly one direct mread_ex), an idle ring's invisibility on
// the wire, the fragment-boundary degradation rule (only the byte range
// whose host died goes to disk), and the use-after-suspension rule (a run
// copies Entry fields before its first co_await, so an eviction mid-run
// cannot leave a dangling pointer).
// Labeled `ring` (ctest -L ring / the ring test preset).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "core/cmd.hpp"
#include "core/imd.hpp"
#include "disk/filesystem.hpp"
#include "obs/span.hpp"
#include "runtime/dodo_client.hpp"
#include "runtime/ring.hpp"
#include "sim/simulator.hpp"

namespace dodo::runtime {
namespace {

using sim::Co;
using sim::Simulator;

// Node 0: cmd. Node 1: application. Nodes 2..1+hosts: imds.
struct RingFixture {
  Simulator sim{47};
  net::Network net;
  obs::SpanRecorder spans;
  core::CentralManager cmd;
  disk::SimFilesystem fs;
  std::vector<std::unique_ptr<core::IdleMemoryDaemon>> imds;
  DodoClient client;
  int fd = -1;

  explicit RingFixture(int hosts, core::CmdParams cp)
      : net(sim, net::NetParams::unet(),
            static_cast<std::size_t>(hosts) + 2),
        spans(sim),
        cmd(sim, net, 0, cp),
        fs(sim),
        client(sim, net, 1, net::Endpoint{0, core::kCmdPort}, fs,
               with_spans(&spans)) {
    cmd.start();
    for (int i = 0; i < hosts; ++i) {
      core::ImdParams p;
      p.pool_bytes = 16_MiB;
      imds.push_back(std::make_unique<core::IdleMemoryDaemon>(
          sim, net, static_cast<net::NodeId>(i + 2), 1,
          net::Endpoint{0, core::kCmdPort}, p));
      imds.back()->start();
    }
    fs.create("backing", 8_MiB);
    fd = fs.open("backing", disk::OpenMode::kReadWrite);
    client.start();
  }

  static core::CmdParams plain(int width = 1) {
    core::CmdParams p;
    p.stripe_width = width;
    p.stripe_min_fragment = 4_KiB;
    return p;
  }

  static ClientParams with_spans(obs::SpanRecorder* rec) {
    ClientParams p;
    p.spans = rec;
    return p;
  }

  template <typename F>
  void run(F&& body, SimTime limit = 300_s) {
    bool finished = false;
    sim.spawn([](RingFixture& f, F fn, bool& done) -> Co<void> {
      co_await f.sim.sleep(5_ms);  // let daemons register
      co_await fn(f);
      done = true;
    }(*this, std::forward<F>(body), finished));
    sim.run(limit);
    EXPECT_TRUE(finished) << "test body did not complete";
  }
};

net::Buf pattern(std::size_t n, std::uint8_t salt = 0) {
  net::Buf b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xff);
  }
  return b;
}

Sqe read_sqe(int rd, Bytes64 offset, Bytes64 len, std::uint8_t* buf,
             std::uint64_t user_data) {
  Sqe sqe;
  sqe.op = RingOp::kRead;
  sqe.rd = rd;
  sqe.offset = offset;
  sqe.len = len;
  sqe.buf = buf;
  sqe.user_data = user_data;
  return sqe;
}

// FNV-1a over everything that makes a datagram a datagram: endpoints,
// header bytes, logical body size, and any materialized body bytes.
struct WireDigest {
  std::uint64_t h = 1469598103934665603ULL;
  std::uint64_t count = 0;

  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (i * 8)));
  }
  void message(const net::Message& m) {
    ++count;
    u64(m.src.node);
    u64(m.src.port);
    u64(m.dst.node);
    u64(m.dst.port);
    for (std::uint8_t b : m.header) byte(b);
    u64(static_cast<std::uint64_t>(m.body_size));
    for (std::uint8_t b : m.body) byte(b);
  }
};

TEST(Ring, SubmissionCompletionOrdering) {
  // Six adjacent 4 KiB reads submitted in one instant merge into two
  // transfers, 16 KiB (the run cap) and 8 KiB, and complete FIFO: CQE
  // user_data comes back in submission order, each read byte-exact against
  // its own slice.
  RingFixture fx(1, RingFixture::plain());
  std::uint64_t recvs_before = 0;
  fx.run([&recvs_before](RingFixture& f) -> Co<void> {
    const Bytes64 rlen = 64_KiB;
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 3);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);
    recvs_before = f.client.bulk_stats().recvs_started.value();

    DodoRing ring(f.sim, f.client, 16);
    net::Buf got(static_cast<std::size_t>(24_KiB), 0);
    for (std::uint64_t i = 0; i < 6; ++i) {
      EXPECT_TRUE(ring.try_submit(
          read_sqe(rd, static_cast<Bytes64>(i) * 4_KiB, 4_KiB,
                   got.data() + static_cast<std::ptrdiff_t>(i * 4096), i)));
    }
    EXPECT_EQ(ring.in_flight(), 6u);
    co_await ring.drain();
    EXPECT_EQ(ring.in_flight(), 0u);
    for (std::uint64_t i = 0; i < 6; ++i) {
      const auto cqe = ring.try_reap();
      EXPECT_TRUE(cqe.has_value());
      if (!cqe.has_value()) continue;
      EXPECT_EQ(cqe->user_data, i);  // FIFO: each run completes in order
      EXPECT_EQ(cqe->n, 4_KiB);
      EXPECT_TRUE(cqe->filled);
      EXPECT_FALSE(cqe->degraded);
    }
    EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin()));
    EXPECT_EQ(co_await f.client.mclose(rd), 0);
  });
  const auto& m = fx.client.metrics();
  EXPECT_EQ(m.ring_submitted, 6u);
  EXPECT_EQ(m.ring_completed, 6u);
  EXPECT_EQ(m.ring_full_rejects, 0u);
  EXPECT_EQ(m.ring_peak_depth, 6u);
  EXPECT_EQ(m.ring_merged_reads, 6u);
  // Two transfers, each one mread: 16 KiB then 8 KiB.
  EXPECT_EQ(fx.client.bulk_stats().recvs_started.value() - recvs_before, 2u);
  EXPECT_EQ(m.mreads_total, 2u);
  EXPECT_EQ(m.remote_hits, 2u);
  EXPECT_EQ(m.remote_read_bytes, 24_KiB);
  EXPECT_EQ(m.mreads_degraded, 0u);
  const obs::MetricsSnapshot snap = fx.client.metrics_snapshot();
  EXPECT_EQ(snap.counter_value("client.ring_merged_reads"), 6u);
}

TEST(Ring, LoneReadCostsOneDirectMread) {
  // No timer: a lone read through a depth-1 ring completes at the same sim
  // time as the same read issued directly with mread_ex.
  auto elapsed = [](bool through_ring) {
    RingFixture fx(1, RingFixture::plain());
    Duration took = -1;
    fx.run([through_ring, &took](RingFixture& f) -> Co<void> {
      const Bytes64 rlen = 64_KiB;
      const int rd = co_await f.client.mopen(rlen, f.fd, 0);
      EXPECT_GE(rd, 0);
      net::Buf data = pattern(static_cast<std::size_t>(rlen), 5);
      EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);
      net::Buf got(static_cast<std::size_t>(4_KiB), 0);
      DodoRing ring(f.sim, f.client, 1);
      const SimTime t0 = f.sim.now();
      Bytes64 n = -1;
      if (through_ring) {
        EXPECT_TRUE(ring.try_submit(read_sqe(rd, 8_KiB, 4_KiB, got.data(), 0)));
        n = (co_await ring.reap()).n;
      } else {
        n = (co_await f.client.mread_ex(rd, 8_KiB, got.data(), 4_KiB)).n;
      }
      took = f.sim.now() - t0;
      EXPECT_EQ(n, 4_KiB);
      const auto at = static_cast<std::ptrdiff_t>(8_KiB);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin() + at));
      EXPECT_EQ(co_await f.client.mclose(rd), 0);
    });
    EXPECT_EQ(fx.client.metrics().ring_merged_reads, 0u);
    return took;
  };
  const Duration direct = elapsed(false);
  EXPECT_GT(direct, 0);
  EXPECT_EQ(elapsed(true), direct);
}

TEST(Ring, WriteEndsRun) {
  // Two adjacent reads submitted together share a transfer; the same two
  // reads with a write submitted between them do not — a read submitted
  // after a write never joins a run opened before it.
  RingFixture fx(1, RingFixture::plain());
  fx.run([](RingFixture& f) -> Co<void> {
    const Bytes64 rlen = 64_KiB;
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 29);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);

    DodoRing ring(f.sim, f.client, 8);
    net::Buf got(static_cast<std::size_t>(8_KiB), 0);
    EXPECT_TRUE(ring.try_submit(read_sqe(rd, 0, 4_KiB, got.data(), 0)));
    EXPECT_TRUE(ring.try_submit(
        read_sqe(rd, 4_KiB, 4_KiB, got.data() + 4096, 1)));
    co_await ring.drain();
    EXPECT_EQ(f.client.metrics().ring_merged_reads, 2u);

    net::Buf fresh = pattern(static_cast<std::size_t>(4_KiB), 31);
    Sqe write;
    write.op = RingOp::kWrite;
    write.rd = rd;
    write.offset = 32_KiB;  // away from the reads: their bytes stay known
    write.len = 4_KiB;
    write.wbuf = fresh.data();
    write.user_data = 2;
    EXPECT_TRUE(ring.try_submit(read_sqe(rd, 0, 4_KiB, got.data(), 3)));
    EXPECT_TRUE(ring.try_submit(write));
    EXPECT_TRUE(ring.try_submit(
        read_sqe(rd, 4_KiB, 4_KiB, got.data() + 4096, 4)));
    co_await ring.drain();
    EXPECT_EQ(f.client.metrics().ring_merged_reads, 2u);  // no new merge
    for (int i = 0; i < 5; ++i) {
      const auto cqe = ring.try_reap();
      EXPECT_TRUE(cqe.has_value());
      if (cqe.has_value()) {
        EXPECT_EQ(cqe->n, 4_KiB);
      }
    }
    EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin()));
    EXPECT_EQ(co_await f.client.mclose(rd), 0);
  });
  const auto& m = fx.client.metrics();
  EXPECT_EQ(m.ring_submitted, 5u);
  EXPECT_EQ(m.ring_completed, 5u);
  EXPECT_EQ(m.mreads_total, 3u);  // one merged run, then two lone reads
}

TEST(Ring, RingFullBackpressure) {
  // Depth 2: the third try_submit is rejected (counted), while the
  // awaitable submit() parks until a completion frees a slot.
  RingFixture fx(1, RingFixture::plain());
  fx.run([](RingFixture& f) -> Co<void> {
    const Bytes64 rlen = 64_KiB;
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 7);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);

    DodoRing ring(f.sim, f.client, 2);
    net::Buf got(static_cast<std::size_t>(12_KiB), 0);
    auto make = [&](std::uint64_t i) {
      return read_sqe(rd, static_cast<Bytes64>(i) * 4_KiB, 4_KiB,
                      got.data() + static_cast<std::ptrdiff_t>(i * 4096), i);
    };
    EXPECT_TRUE(ring.try_submit(make(0)));
    EXPECT_TRUE(ring.try_submit(make(1)));
    EXPECT_FALSE(ring.try_submit(make(2)));  // full: depth 2
    EXPECT_EQ(f.client.metrics().ring_full_rejects, 1u);
    co_await ring.submit(make(2));  // parks, then lands once a slot frees
    // The parked submit() counts one reject, not one per wake-up.
    EXPECT_EQ(f.client.metrics().ring_full_rejects, 2u);
    co_await ring.drain();
    for (int i = 0; i < 3; ++i) {
      const auto cqe = ring.try_reap();
      EXPECT_TRUE(cqe.has_value());
      if (!cqe.has_value()) continue;
      EXPECT_EQ(cqe->n, 4_KiB);
    }
    EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin()));
    EXPECT_EQ(co_await f.client.mclose(rd), 0);
  });
  EXPECT_EQ(fx.client.metrics().ring_submitted, 3u);
  EXPECT_EQ(fx.client.metrics().ring_completed, 3u);
  EXPECT_LE(fx.client.metrics().ring_peak_depth, 2u);
}

TEST(Ring, ParkedSubmitCountsOneRejectPerCall) {
  // Two submit()s park behind a depth-2 ring of non-adjacent reads, which
  // complete one at a time. Every completion wakes both; the one that finds
  // the ring full again re-parks without counting another reject.
  RingFixture fx(1, RingFixture::plain());
  fx.run([](RingFixture& f) -> Co<void> {
    const Bytes64 rlen = 64_KiB;
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 5);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);

    DodoRing ring(f.sim, f.client, 2);
    net::Buf got(static_cast<std::size_t>(rlen), 0);
    auto make = [&](std::uint64_t i) {
      return read_sqe(rd, static_cast<Bytes64>(i) * 8_KiB, 4_KiB,
                      got.data() + static_cast<std::ptrdiff_t>(i * 8192), i);
    };
    EXPECT_TRUE(ring.try_submit(make(0)));
    EXPECT_TRUE(ring.try_submit(make(1)));  // not adjacent: its own run
    int landed = 0;
    for (std::uint64_t i = 2; i < 4; ++i) {
      f.sim.spawn([](DodoRing& r, Sqe sqe, int& n) -> Co<void> {
        co_await r.submit(sqe);
        ++n;
      }(ring, make(i), landed));
    }
    while (landed < 2) co_await f.sim.sleep(1_ms);
    co_await ring.drain();
    EXPECT_EQ(f.client.metrics().ring_full_rejects, 2u);
    for (std::uint64_t i = 0; i < 4; ++i) {
      const auto cqe = ring.try_reap();
      EXPECT_TRUE(cqe.has_value());
      if (!cqe.has_value()) continue;
      EXPECT_EQ(cqe->n, 4_KiB);
    }
    EXPECT_EQ(co_await f.client.mclose(rd), 0);
  });
  EXPECT_EQ(fx.client.metrics().ring_submitted, 4u);
  EXPECT_EQ(fx.client.metrics().ring_completed, 4u);
}

TEST(Ring, CompletionAfterMcloseIsRetrySafe) {
  // mclose does not wait for ring reads. A merged run already on the wire
  // when the descriptor closes completes from its own copy of the stripe
  // map; a run the close overtakes, and a retry against the closed
  // descriptor, complete cleanly with n < 0 through the ring rather than
  // wedging it.
  RingFixture fx(1, RingFixture::plain());
  fx.run([](RingFixture& f) -> Co<void> {
    const Bytes64 rlen = 64_KiB;
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 11);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);

    DodoRing ring(f.sim, f.client, 8);
    net::Buf got(static_cast<std::size_t>(8_KiB), 0);
    for (std::uint64_t i = 0; i < 2; ++i) {
      EXPECT_TRUE(ring.try_submit(
          read_sqe(rd, static_cast<Bytes64>(i) * 4_KiB, 4_KiB,
                   got.data() + static_cast<std::ptrdiff_t>(i * 4096), i)));
    }
    co_await f.sim.sleep(0);  // the run starts and sends its request
    EXPECT_EQ(ring.in_flight(), 2u);
    EXPECT_EQ(co_await f.client.mclose(rd), 0);
    co_await ring.drain();
    for (std::uint64_t i = 0; i < 2; ++i) {
      const auto cqe = ring.try_reap();
      EXPECT_TRUE(cqe.has_value());
      if (!cqe.has_value()) continue;
      EXPECT_EQ(cqe->user_data, i);
      EXPECT_EQ(cqe->n, 4_KiB);
      EXPECT_TRUE(cqe->filled);
    }
    EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin()));

    // Retry against the closed descriptor: clean ring-level failures, for
    // a merged run and a lone read alike.
    for (std::uint64_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(ring.try_submit(
          read_sqe(rd, static_cast<Bytes64>(i % 2) * 4_KiB, 4_KiB,
                   got.data() + static_cast<std::ptrdiff_t>((i % 2) * 4096),
                   90 + i)));
    }
    co_await ring.drain();
    for (std::uint64_t i = 0; i < 3; ++i) {
      const auto cqe = ring.try_reap();
      EXPECT_TRUE(cqe.has_value());
      if (!cqe.has_value()) continue;
      EXPECT_EQ(cqe->user_data, 90 + i);
      EXPECT_LT(cqe->n, 0);
      EXPECT_TRUE(cqe->degraded);
    }
  });
  const auto& m = fx.client.metrics();
  EXPECT_EQ(m.ring_submitted, m.ring_completed);
  EXPECT_EQ(m.ring_merged_reads, 4u);
  EXPECT_EQ(m.mreads_total, m.remote_hits + m.mreads_degraded);
}

TEST(Ring, IdleRingIsInvisibleOnTheWire) {
  // Attaching a ring changes nothing until it is used: a client with an
  // attached-but-unused ring produces the exact datagram sequence of a
  // client without one, byte for byte.
  auto drive = [](bool attach_ring) {
    RingFixture fx(2, RingFixture::plain(2));
    WireDigest digest;
    fx.net.set_delivery_probe(
        [&digest](const net::Message& m) { digest.message(m); });
    fx.run([attach_ring](RingFixture& f) -> Co<void> {
      std::unique_ptr<DodoRing> ring;
      if (attach_ring) {
        ring = std::make_unique<DodoRing>(f.sim, f.client, 16);
      }
      const Bytes64 rlen = 64_KiB;
      const int rd = co_await f.client.mopen(rlen, f.fd, 0);
      EXPECT_GE(rd, 0);
      net::Buf data = pattern(static_cast<std::size_t>(rlen), 13);
      EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);
      net::Buf back(static_cast<std::size_t>(rlen), 0);
      for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(co_await f.client.mread(rd, 0, back.data(), rlen), rlen);
        EXPECT_EQ(back, data);
        EXPECT_EQ(co_await f.client.mread(rd, 8_KiB, back.data(), 4_KiB),
                  4_KiB);
      }
      EXPECT_EQ(co_await f.client.msync(rd), 0);
      EXPECT_EQ(co_await f.client.mclose(rd), 0);
    });
    fx.net.set_delivery_probe(nullptr);
    return digest;
  };
  const WireDigest base = drive(false);
  const WireDigest ringed = drive(true);
  EXPECT_GT(base.count, 0u);
  EXPECT_EQ(base.count, ringed.count);
  EXPECT_EQ(base.h, ringed.h) << "an idle ring changed the wire";
}

TEST(Ring, FragmentBoundaryDegradationIsRangeExact) {
  // A merged run spanning a stripe-fragment boundary where exactly one
  // fragment's host died: only the read inside the dead fragment degrades
  // to disk (its full op-relative range), the other stays remote, and the
  // mreads == hits + degraded conservation holds.
  RingFixture fx(2, RingFixture::plain(2));
  fx.run([](RingFixture& f) -> Co<void> {
    const Bytes64 rlen = 64_KiB;  // two 32 KiB fragments on two hosts
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 17);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);
    EXPECT_EQ(f.imds[0]->region_count() + f.imds[1]->region_count(), 2);

    // Kill one fragment holder; which half it owned is placement detail.
    f.net.set_node_up(f.imds[1]->node(), false);

    // Two adjacent 8 KiB reads crossing the 32 KiB boundary, one run.
    DodoRing ring(f.sim, f.client, 8);
    net::Buf got(static_cast<std::size_t>(16_KiB), 0);
    for (std::uint64_t i = 0; i < 2; ++i) {
      EXPECT_TRUE(ring.try_submit(
          read_sqe(rd, 24_KiB + static_cast<Bytes64>(i) * 8_KiB, 8_KiB,
                   got.data() + static_cast<std::ptrdiff_t>(i * 8192), i)));
    }
    co_await ring.drain();
    int degraded = 0;
    for (std::uint64_t i = 0; i < 2; ++i) {
      const auto cqe = ring.try_reap();
      EXPECT_TRUE(cqe.has_value());
      if (!cqe.has_value()) continue;
      EXPECT_EQ(cqe->user_data, i);
      EXPECT_EQ(cqe->n, 8_KiB);  // disk fills what the dead host cannot
      EXPECT_TRUE(cqe->filled);
      if (cqe->degraded) {
        ++degraded;
        // The read sits entirely inside the dead fragment: its whole
        // op-relative range — and nothing else — went to disk.
        EXPECT_EQ(cqe->disk_ranges.size(), 1u);
        EXPECT_EQ(cqe->disk_ranges[0].first, 0);
        EXPECT_EQ(cqe->disk_ranges[0].second, 8_KiB);
      } else {
        EXPECT_TRUE(cqe->disk_ranges.empty());
      }
    }
    EXPECT_EQ(degraded, 1);  // exactly the fragment whose host died
    // Both halves byte-exact: the degraded one from the write-through disk
    // image, the healthy one from remote memory.
    EXPECT_TRUE(std::equal(got.begin(), got.end(),
                           data.begin() + static_cast<std::ptrdiff_t>(24_KiB)));
  });
  const auto& m = fx.client.metrics();
  EXPECT_EQ(m.ring_merged_reads, 2u);
  EXPECT_EQ(m.mreads_total, m.remote_hits + m.mreads_degraded);
  EXPECT_EQ(m.mreads_degraded, 1u);  // the one run touched the dead host
  EXPECT_GE(m.disk_fallbacks, m.mreads_degraded);
}

TEST(Ring, EvictionMidBatchIsUseAfterSuspensionSafe) {
  // Use-after-suspension regression, merged edition: a run's mread_ex
  // snapshots its Entry fields before the first co_await. While two runs
  // sit suspended against a dead host, the first to resolve prunes that
  // host and erases the *other* descriptor's Entry mid-flight; the second
  // run must keep working from its copies (ASan-clean) and degrade its
  // reads to disk.
  RingFixture fx(1, RingFixture::plain());
  fx.run([](RingFixture& f) -> Co<void> {
    const Bytes64 rlen = 64_KiB;
    const int rd1 = co_await f.client.mopen(rlen, f.fd, 0);
    const int rd2 = co_await f.client.mopen(rlen, f.fd, rlen);
    EXPECT_GE(rd1, 0);
    EXPECT_GE(rd2, 0);
    net::Buf d1 = pattern(static_cast<std::size_t>(rlen), 19);
    net::Buf d2 = pattern(static_cast<std::size_t>(rlen), 23);
    EXPECT_EQ(co_await f.client.mwrite(rd1, 0, d1.data(), rlen), rlen);
    EXPECT_EQ(co_await f.client.mwrite(rd2, 0, d2.data(), rlen), rlen);

    // Both regions live on the single host; kill it, then submit a merged
    // run on each descriptor. Both runs time out against the dead host;
    // whichever resolves first prunes the host and drops the other Entry
    // out from under its suspended run.
    f.net.set_node_up(f.imds[0]->node(), false);
    DodoRing ring(f.sim, f.client, 8);
    net::Buf got(static_cast<std::size_t>(16_KiB), 0);
    auto sub = [&](int rd, std::uint64_t ud, std::ptrdiff_t at) {
      EXPECT_TRUE(ring.try_submit(read_sqe(
          rd, static_cast<Bytes64>(ud & 1) * 4_KiB, 4_KiB, got.data() + at,
          ud)));
    };
    sub(rd1, 0, 0);
    sub(rd1, 1, 4096);
    sub(rd2, 2, 8192);
    sub(rd2, 3, 12288);
    co_await ring.drain();
    for (int i = 0; i < 4; ++i) {
      const auto cqe = ring.try_reap();
      EXPECT_TRUE(cqe.has_value());
      if (!cqe.has_value()) continue;
      EXPECT_EQ(cqe->n, 4_KiB);  // disk keeps the data available
      EXPECT_TRUE(cqe->filled);
      EXPECT_TRUE(cqe->degraded);
      EXPECT_EQ(cqe->disk_ranges.size(), 1u);
      if (!cqe->disk_ranges.empty()) {
        EXPECT_EQ(cqe->disk_ranges[0].first, 0);
        EXPECT_EQ(cqe->disk_ranges[0].second, 4_KiB);
      }
    }
    // Bytes came back from the write-through disk image of each region.
    EXPECT_TRUE(std::equal(got.begin(),
                           got.begin() + static_cast<std::ptrdiff_t>(8_KiB),
                           d1.begin()));
    EXPECT_TRUE(std::equal(got.begin() + static_cast<std::ptrdiff_t>(8_KiB),
                           got.end(), d2.begin()));
  });
  const auto& m = fx.client.metrics();
  EXPECT_EQ(m.ring_merged_reads, 4u);
  EXPECT_EQ(m.mreads_total, 2u);  // one mread per run
  EXPECT_EQ(m.mreads_degraded, 2u);
  EXPECT_EQ(m.remote_hits, 0u);
  EXPECT_EQ(m.mreads_total, m.remote_hits + m.mreads_degraded);
  EXPECT_GE(m.disk_fallbacks, 2u);
  EXPECT_EQ(m.ring_submitted, m.ring_completed);
}

}  // namespace
}  // namespace dodo::runtime
