// Tests for the region-management library (libmanage): caching states,
// replacement policies, grimReaper migration, write-back, persistence and
// failure degradation.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/units.hpp"
#include "core/cmd.hpp"
#include "core/imd.hpp"
#include "disk/filesystem.hpp"
#include "manage/region_manager.hpp"
#include "runtime/dodo_client.hpp"
#include "sim/simulator.hpp"

namespace dodo::manage {
namespace {

using sim::Co;
using sim::Simulator;

struct Fixture {
  Simulator sim{29};
  net::Network net;
  core::CentralManager cmd;
  disk::SimFilesystem fs;
  std::vector<std::unique_ptr<core::IdleMemoryDaemon>> imds;
  runtime::DodoClient client;
  RegionManager mgr;
  int fd = -1;

  explicit Fixture(ManageParams mp = {}, int hosts = 1,
                   Bytes64 pool = 32_MiB, core::CmdParams cp = {})
      : net(sim, net::NetParams::unet(),
            static_cast<std::size_t>(hosts) + 2),
        cmd(sim, net, 0, cp),
        fs(sim),
        client(sim, net, 1, net::Endpoint{0, core::kCmdPort}, fs, {}),
        mgr(sim, client, fs, mp) {
    cmd.start();
    for (int i = 0; i < hosts; ++i) {
      core::ImdParams p;
      p.pool_bytes = pool;
      imds.push_back(std::make_unique<core::IdleMemoryDaemon>(
          sim, net, static_cast<net::NodeId>(i + 2), 1,
          net::Endpoint{0, core::kCmdPort}, p));
      imds.back()->start();
    }
    fs.create("backing", 32_MiB);
    fd = fs.open("backing", disk::OpenMode::kReadWrite);
    client.start();
  }

  template <typename F>
  void run(F&& body, SimTime limit = 300_s) {
    bool finished = false;
    sim.spawn([](Fixture& f, F fn, bool& done) -> Co<void> {
      co_await f.sim.sleep(5_ms);
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
    b[i] = static_cast<std::uint8_t>((i * 197 + salt) & 0xff);
  }
  return b;
}

TEST(Manage, CopenValidatesArguments) {
  Fixture fx;
  EXPECT_EQ(fx.mgr.copen(0, fx.fd, 0), -1);
  EXPECT_EQ(fx.mgr.copen(100, fx.fd, -5), -1);
  EXPECT_EQ(fx.mgr.copen(100, 777, 0), -1);
  EXPECT_GE(fx.mgr.copen(100, fx.fd, 0), 0);
}

TEST(Manage, WriteThenReadServedFromLocalCache) {
  Fixture fx;
  fx.run([](Fixture& f) -> Co<void> {
    const int cd = f.mgr.copen(64_KiB, f.fd, 0);
    net::Buf data = pattern(64_KiB, 1);
    EXPECT_EQ(co_await f.mgr.cwrite(cd, 0, data.data(), 64_KiB), 64_KiB);
    net::Buf back(64_KiB, 0);
    EXPECT_EQ(co_await f.mgr.cread(cd, 0, back.data(), 64_KiB), 64_KiB);
    EXPECT_EQ(back, data);
    EXPECT_TRUE(f.mgr.resident(cd));
  });
  EXPECT_GE(fx.mgr.metrics().local_hits, 1u);
}

TEST(Manage, DirtyRegionWrittenToDiskOnEviction) {
  ManageParams mp;
  mp.local_cache_bytes = 128_KiB;  // room for exactly one 128 KiB region
  Fixture fx(mp);
  net::Buf data = pattern(128_KiB, 2);
  fx.run([&data](Fixture& f) -> Co<void> {
    const int a = f.mgr.copen(128_KiB, f.fd, 0);
    const int b = f.mgr.copen(128_KiB, f.fd, 128_KiB);
    EXPECT_EQ(co_await f.mgr.cwrite(a, 0, data.data(), 128_KiB), 128_KiB);
    // Faulting b in evicts a (LRU), forcing a's dirty write-back to disk
    // and a clone into remote memory (Figure 5).
    EXPECT_EQ(co_await f.mgr.cread(b, 0, nullptr, 1024), 1024);
    EXPECT_FALSE(f.mgr.resident(a));
    EXPECT_TRUE(f.mgr.resident(b));
    auto* store = f.fs.store_of_inode(f.fs.inode_of(f.fd));
    net::Buf disk_bytes(128_KiB, 0);
    store->read(0, 128_KiB, disk_bytes.data());
    EXPECT_EQ(disk_bytes, data);
    // a is now remote: reading it again must come back from remote memory
    // with the written content.
    net::Buf back(128_KiB, 0);
    EXPECT_EQ(co_await f.mgr.cread(a, 0, back.data(), 128_KiB), 128_KiB);
    EXPECT_EQ(back, data);
  });
  EXPECT_GE(fx.mgr.metrics().dirty_writebacks, 1u);
  EXPECT_GE(fx.mgr.metrics().clones, 1u);
  EXPECT_GE(fx.mgr.metrics().remote_fills, 1u);
}

TEST(Manage, LruEvictsColdestRegion) {
  ManageParams mp;
  mp.local_cache_bytes = 256_KiB;
  Fixture fx(mp);
  fx.run([](Fixture& f) -> Co<void> {
    const int a = f.mgr.copen(128_KiB, f.fd, 0);
    const int b = f.mgr.copen(128_KiB, f.fd, 128_KiB);
    const int c = f.mgr.copen(128_KiB, f.fd, 256_KiB);
    co_await f.mgr.cread(a, 0, nullptr, 64);
    co_await f.mgr.cread(b, 0, nullptr, 64);
    co_await f.mgr.cread(a, 0, nullptr, 64);  // a is now hotter than b
    co_await f.mgr.cread(c, 0, nullptr, 64);  // must evict b
    EXPECT_TRUE(f.mgr.resident(a));
    EXPECT_FALSE(f.mgr.resident(b));
    EXPECT_TRUE(f.mgr.resident(c));
  });
}

TEST(Manage, MruEvictsHottestRegion) {
  ManageParams mp;
  mp.local_cache_bytes = 256_KiB;
  mp.policy = Policy::kMru;
  Fixture fx(mp);
  fx.run([](Fixture& f) -> Co<void> {
    const int a = f.mgr.copen(128_KiB, f.fd, 0);
    const int b = f.mgr.copen(128_KiB, f.fd, 128_KiB);
    const int c = f.mgr.copen(128_KiB, f.fd, 256_KiB);
    co_await f.mgr.cread(a, 0, nullptr, 64);
    co_await f.mgr.cread(b, 0, nullptr, 64);  // b most recently used
    co_await f.mgr.cread(c, 0, nullptr, 64);  // must evict b (MRU)
    EXPECT_TRUE(f.mgr.resident(a));
    EXPECT_FALSE(f.mgr.resident(b));
    EXPECT_TRUE(f.mgr.resident(c));
  });
}

TEST(Manage, FirstInKeepsResidentsAndMigratesOverflowToRemote) {
  ManageParams mp;
  mp.local_cache_bytes = 256_KiB;
  mp.policy = Policy::kFirstIn;
  Fixture fx(mp);
  fx.run([](Fixture& f) -> Co<void> {
    const int a = f.mgr.copen(128_KiB, f.fd, 0);
    const int b = f.mgr.copen(128_KiB, f.fd, 128_KiB);
    const int c = f.mgr.copen(128_KiB, f.fd, 256_KiB);
    co_await f.mgr.cread(a, 0, nullptr, 128_KiB);
    co_await f.mgr.cread(b, 0, nullptr, 128_KiB);
    // Cache full; c must NOT displace a or b ("once a region is cached, it
    // is not replaced") — it flows to the remote tier instead.
    co_await f.mgr.cread(c, 0, nullptr, 128_KiB);
    EXPECT_TRUE(f.mgr.resident(a));
    EXPECT_TRUE(f.mgr.resident(b));
    EXPECT_FALSE(f.mgr.resident(c));
    EXPECT_TRUE(f.mgr.has_remote(c));
    // Second scan: c now served from remote memory, not disk.
    const auto disk_bytes = f.mgr.metrics().bytes_from_disk;
    co_await f.mgr.cread(c, 0, nullptr, 128_KiB);
    EXPECT_EQ(f.mgr.metrics().bytes_from_disk, disk_bytes);
  });
  EXPECT_GE(fx.mgr.metrics().remote_passthrough, 1u);
}

// ---------------------------------------------------------------------------
// grimReaper policy accounting: one identical access sequence per policy,
// with per-policy hit/miss counters asserted against hand-computed values
// and mid-sequence residency checks pinning exactly which victim the reaper
// chose at each eviction. Cache holds 2 x 128 KiB regions.
//
// Sequence: read a, b, a, c, a, b, c.

TEST(Manage, LruAccountsHitsAndVictimOrder) {
  ManageParams mp;
  mp.local_cache_bytes = 256_KiB;
  mp.policy = Policy::kLru;
  Fixture fx(mp);
  fx.run([](Fixture& f) -> Co<void> {
    const int a = f.mgr.copen(128_KiB, f.fd, 0);
    const int b = f.mgr.copen(128_KiB, f.fd, 128_KiB);
    const int c = f.mgr.copen(128_KiB, f.fd, 256_KiB);
    co_await f.mgr.cread(a, 0, nullptr, 64);  // miss -> {a}
    co_await f.mgr.cread(b, 0, nullptr, 64);  // miss -> {a,b}
    co_await f.mgr.cread(a, 0, nullptr, 64);  // hit
    co_await f.mgr.cread(c, 0, nullptr, 64);  // miss, victim = b (coldest)
    EXPECT_TRUE(f.mgr.resident(a));
    EXPECT_FALSE(f.mgr.resident(b));
    co_await f.mgr.cread(a, 0, nullptr, 64);  // hit
    co_await f.mgr.cread(b, 0, nullptr, 64);  // miss, victim = c
    EXPECT_FALSE(f.mgr.resident(c));
    co_await f.mgr.cread(c, 0, nullptr, 64);  // miss, victim = a (coldest)
    EXPECT_FALSE(f.mgr.resident(a));
    EXPECT_TRUE(f.mgr.resident(b));
    EXPECT_TRUE(f.mgr.resident(c));
  });
  EXPECT_EQ(fx.mgr.policy_hits(Policy::kLru), 2u);
  EXPECT_EQ(fx.mgr.policy_misses(Policy::kLru), 5u);
  // Only the active policy's bucket ever ticks.
  EXPECT_EQ(fx.mgr.policy_hits(Policy::kMru), 0u);
  EXPECT_EQ(fx.mgr.policy_misses(Policy::kMru), 0u);
  EXPECT_EQ(fx.mgr.policy_hits(Policy::kFirstIn), 0u);
  EXPECT_EQ(fx.mgr.policy_misses(Policy::kFirstIn), 0u);
  // Three misses-with-full-cache, one 128 KiB victim each.
  EXPECT_EQ(fx.mgr.metrics().reaper_victims, 3u);
  const auto s = fx.mgr.metrics_snapshot();
  EXPECT_EQ(s.counter_value("manage.policy.lru.hits"), 2u);
  EXPECT_EQ(s.counter_value("manage.policy.lru.misses"), 5u);
}

TEST(Manage, ReplicaSafeVictimGoesBeforeColderUnclonedRegion) {
  ManageParams mp;
  mp.local_cache_bytes = 256_KiB;
  mp.policy = Policy::kLru;
  core::CmdParams cp;
  cp.replica_count = 2;
  Fixture fx(mp, /*hosts=*/2, 32_MiB, cp);
  fx.run([](Fixture& f) -> Co<void> {
    const int a = f.mgr.copen(128_KiB, f.fd, 0);
    const int b = f.mgr.copen(128_KiB, f.fd, 128_KiB);
    const int c = f.mgr.copen(128_KiB, f.fd, 256_KiB);
    co_await f.mgr.cread(a, 0, nullptr, 64);  // miss -> {a}
    co_await f.mgr.cread(b, 0, nullptr, 64);  // miss -> {a,b}
    co_await f.mgr.csync(b);  // b: clean and current on both replicas
    co_await f.mgr.cread(b, 0, nullptr, 64);  // hit: a is now the coldest
    // The pre-pass walks past a (never pushed to remote memory) and drops
    // b, which costs no I/O.
    co_await f.mgr.cread(c, 0, nullptr, 64);
    EXPECT_TRUE(f.mgr.resident(a));
    EXPECT_FALSE(f.mgr.resident(b));
    EXPECT_TRUE(f.mgr.resident(c));
  });
  EXPECT_EQ(fx.mgr.metrics().reaper_victims, 1u);
  EXPECT_EQ(fx.mgr.metrics().replica_safe_evictions, 1u);
}

TEST(Manage, MruAccountsHitsAndVictimOrder) {
  ManageParams mp;
  mp.local_cache_bytes = 256_KiB;
  mp.policy = Policy::kMru;
  Fixture fx(mp);
  fx.run([](Fixture& f) -> Co<void> {
    const int a = f.mgr.copen(128_KiB, f.fd, 0);
    const int b = f.mgr.copen(128_KiB, f.fd, 128_KiB);
    const int c = f.mgr.copen(128_KiB, f.fd, 256_KiB);
    co_await f.mgr.cread(a, 0, nullptr, 64);  // miss -> {a}
    co_await f.mgr.cread(b, 0, nullptr, 64);  // miss -> {a,b}
    co_await f.mgr.cread(a, 0, nullptr, 64);  // hit; a is now hottest
    co_await f.mgr.cread(c, 0, nullptr, 64);  // miss, victim = a (hottest)
    EXPECT_FALSE(f.mgr.resident(a));          // opposite of the LRU run
    EXPECT_TRUE(f.mgr.resident(b));
    co_await f.mgr.cread(a, 0, nullptr, 64);  // miss, victim = c
    EXPECT_FALSE(f.mgr.resident(c));
    co_await f.mgr.cread(b, 0, nullptr, 64);  // hit
    co_await f.mgr.cread(c, 0, nullptr, 64);  // miss, victim = b (hottest)
    EXPECT_FALSE(f.mgr.resident(b));
    EXPECT_TRUE(f.mgr.resident(a));
    EXPECT_TRUE(f.mgr.resident(c));
  });
  EXPECT_EQ(fx.mgr.policy_hits(Policy::kMru), 2u);
  EXPECT_EQ(fx.mgr.policy_misses(Policy::kMru), 5u);
  EXPECT_EQ(fx.mgr.policy_hits(Policy::kLru), 0u);
  EXPECT_EQ(fx.mgr.metrics().reaper_victims, 3u);
}

TEST(Manage, FirstInAccountsHitsAndNeverReaps) {
  ManageParams mp;
  mp.local_cache_bytes = 256_KiB;
  mp.policy = Policy::kFirstIn;
  Fixture fx(mp);
  fx.run([](Fixture& f) -> Co<void> {
    const int a = f.mgr.copen(128_KiB, f.fd, 0);
    const int b = f.mgr.copen(128_KiB, f.fd, 128_KiB);
    const int c = f.mgr.copen(128_KiB, f.fd, 256_KiB);
    co_await f.mgr.cread(a, 0, nullptr, 64);  // miss -> {a}
    co_await f.mgr.cread(b, 0, nullptr, 64);  // miss -> {a,b}
    co_await f.mgr.cread(a, 0, nullptr, 64);  // hit
    co_await f.mgr.cread(c, 0, nullptr, 64);  // miss; c flows remote, no evict
    co_await f.mgr.cread(a, 0, nullptr, 64);  // hit (a never displaced)
    co_await f.mgr.cread(b, 0, nullptr, 64);  // hit
    co_await f.mgr.cread(c, 0, nullptr, 64);  // miss (c stays non-resident)
    EXPECT_TRUE(f.mgr.resident(a));
    EXPECT_TRUE(f.mgr.resident(b));
    EXPECT_FALSE(f.mgr.resident(c));
  });
  EXPECT_EQ(fx.mgr.policy_hits(Policy::kFirstIn), 3u);
  EXPECT_EQ(fx.mgr.policy_misses(Policy::kFirstIn), 4u);
  // "Once a region is cached, it is not replaced": the reaper never fires.
  EXPECT_EQ(fx.mgr.metrics().reaper_victims, 0u);
}

TEST(Manage, CsyncPushesToRemoteAndDisk) {
  Fixture fx;
  fx.run([](Fixture& f) -> Co<void> {
    const int cd = f.mgr.copen(64_KiB, f.fd, 0);
    net::Buf data = pattern(64_KiB, 9);
    co_await f.mgr.cwrite(cd, 0, data.data(), 64_KiB);
    EXPECT_FALSE(f.mgr.has_remote(cd) &&
                 false);  // placeholder: remote state checked after csync
    EXPECT_EQ(co_await f.mgr.csync(cd), 0);
    EXPECT_TRUE(f.mgr.has_remote(cd));
    auto* store = f.fs.store_of_inode(f.fs.inode_of(f.fd));
    net::Buf disk_bytes(64_KiB, 0);
    store->read(0, 64_KiB, disk_bytes.data());
    EXPECT_EQ(disk_bytes, data);
  });
  EXPECT_GE(fx.mgr.metrics().clones, 1u);
}

TEST(Manage, CcloseFlushesAndForgets) {
  Fixture fx;
  net::Buf data = pattern(32_KiB, 5);
  fx.run([&data](Fixture& f) -> Co<void> {
    const int cd = f.mgr.copen(32_KiB, f.fd, 64_KiB);
    co_await f.mgr.cwrite(cd, 0, data.data(), 32_KiB);
    EXPECT_EQ(co_await f.mgr.cclose(cd), 0);
    auto* store = f.fs.store_of_inode(f.fs.inode_of(f.fd));
    net::Buf disk_bytes(32_KiB, 0);
    store->read(64_KiB, 32_KiB, disk_bytes.data());
    EXPECT_EQ(disk_bytes, data);
    // Closed descriptor is invalid.
    EXPECT_EQ(co_await f.mgr.cread(cd, 0, nullptr, 16), -1);
    EXPECT_EQ(dodo_errno(), kDodoEINVAL);
  });
  EXPECT_EQ(fx.mgr.resident_bytes(), 0);
}

TEST(Manage, RemoteFailureDegradesToDisk) {
  ManageParams mp;
  mp.local_cache_bytes = 128_KiB;
  Fixture fx(mp);
  net::Buf data = pattern(128_KiB, 6);
  fx.run([&data](Fixture& f) -> Co<void> {
    const int a = f.mgr.copen(128_KiB, f.fd, 0);
    const int b = f.mgr.copen(128_KiB, f.fd, 128_KiB);
    co_await f.mgr.cwrite(a, 0, data.data(), 128_KiB);
    co_await f.mgr.cread(b, 0, nullptr, 64);  // evict + clone a to remote
    EXPECT_TRUE(f.mgr.has_remote(a));
    // The imd host dies. Reading a must fall back to disk and still return
    // the right bytes (they were written back on eviction).
    f.net.set_node_up(2, false);
    net::Buf back(128_KiB, 0);
    EXPECT_EQ(co_await f.mgr.cread(a, 0, back.data(), 128_KiB), 128_KiB);
    EXPECT_EQ(back, data);
  });
  EXPECT_GE(fx.mgr.metrics().disk_fills, 2u);
}

TEST(Manage, PersistentDatasetServedFromRemoteOnSecondRun) {
  ManageParams mp;
  mp.local_cache_bytes = 128_KiB;
  mp.policy = Policy::kFirstIn;
  Fixture fx(mp);
  net::Buf d0 = pattern(128_KiB, 10);
  net::Buf d1 = pattern(128_KiB, 11);
  // Run 1: stream two regions (one cached locally, one migrated to remote),
  // then close keeping remote copies and detach.
  fx.run([&](Fixture& f) -> Co<void> {
    const int a = f.mgr.copen(128_KiB, f.fd, 0);
    const int b = f.mgr.copen(128_KiB, f.fd, 128_KiB);
    co_await f.mgr.cwrite(a, 0, d0.data(), 128_KiB);
    co_await f.mgr.csync(a);
    co_await f.mgr.cwrite(b, 0, d1.data(), 128_KiB);
    co_await f.mgr.csync(b);
    co_await f.mgr.close_all(/*keep_remote=*/true);
    co_await f.client.detach();
  });
  EXPECT_EQ(fx.cmd.region_count(), 2u);

  // Run 2: fresh client + manager, same client id. Reads must be served
  // from remote memory (no disk fills).
  runtime::DodoClient client2(fx.sim, fx.net, 1,
                              net::Endpoint{0, core::kCmdPort}, fx.fs, {});
  client2.start();
  RegionManager mgr2(fx.sim, client2, fx.fs, mp);
  bool finished = false;
  fx.sim.spawn([](Fixture& f, RegionManager& m, net::Buf& e0, net::Buf& e1,
                  bool& done) -> Co<void> {
    const int a = m.copen(128_KiB, f.fd, 0);
    const int b = m.copen(128_KiB, f.fd, 128_KiB);
    net::Buf back(128_KiB, 0);
    EXPECT_EQ(co_await m.cread(a, 0, back.data(), 128_KiB), 128_KiB);
    EXPECT_EQ(back, e0);
    EXPECT_EQ(co_await m.cread(b, 0, back.data(), 128_KiB), 128_KiB);
    EXPECT_EQ(back, e1);
    EXPECT_EQ(m.metrics().disk_fills + m.metrics().disk_passthrough, 0u);
    done = true;
  }(fx, mgr2, d0, d1, finished));
  fx.sim.run(600_s);  // run() limits are absolute; run 1 consumed 300 s
  EXPECT_TRUE(finished);
}

TEST(Manage, RegionLargerThanCacheBypasses) {
  ManageParams mp;
  mp.local_cache_bytes = 64_KiB;
  Fixture fx(mp);
  fx.run([](Fixture& f) -> Co<void> {
    const int cd = f.mgr.copen(256_KiB, f.fd, 0);
    EXPECT_EQ(co_await f.mgr.cread(cd, 1000, nullptr, 500), 500);
    EXPECT_FALSE(f.mgr.resident(cd));
  });
  EXPECT_EQ(fx.mgr.resident_bytes(), 0);
}

}  // namespace
}  // namespace dodo::manage
