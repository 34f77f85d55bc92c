// Measures the read/write mix of the repository's two applications, lu and
// dmine (src/apps), by counting the requests each one issues through its
// BlockIo. The workloads take their write share from this measurement
// (README.md, "Write share").
//
//   cmake --build .bench_build/perfbench --target perfbench_rwmix
//   .bench_build/perfbench/perfbench_rwmix
//
// The modeled runs use the paper's scale (lu: 8192 x 8192 doubles in
// 64-column slabs over 8 files; dmine: one scan of 1 GiB in 128 KiB reads)
// over a BlockIo that completes at once: their request stream does not
// depend on what the I/O returns. The real runs use the sizes of
// examples/out_of_core_lu.cpp and examples/persistent_mining.cpp over the
// simulated filesystem, with the arithmetic done for real.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "apps/block_io.hpp"
#include "apps/dmine.hpp"
#include "apps/lu.hpp"
#include "cluster/cluster.hpp"

namespace {

using dodo::Bytes64;
using dodo::operator""_GiB;
using dodo::operator""_KiB;
namespace apps = dodo::apps;
namespace cluster = dodo::cluster;
namespace sim = dodo::sim;

/// Forwards to `inner` (or completes at once when it is null) and counts.
class CountingIo final : public apps::BlockIo {
 public:
  explicit CountingIo(apps::BlockIo* inner) : inner_(inner) {}

  sim::Co<Bytes64> read(Bytes64 off, std::uint8_t* buf, Bytes64 len) override {
    ++reads;
    read_bytes += static_cast<std::uint64_t>(len);
    if (inner_ == nullptr) co_return len;
    co_return co_await inner_->read(off, buf, len);
  }
  sim::Co<Bytes64> write(Bytes64 off, const std::uint8_t* buf,
                         Bytes64 len) override {
    ++writes;
    write_bytes += static_cast<std::uint64_t>(len);
    if (inner_ == nullptr) co_return len;
    co_return co_await inner_->write(off, buf, len);
  }
  sim::Co<void> finish(bool keep_cached) override {
    if (inner_ != nullptr) co_await inner_->finish(keep_cached);
  }

  std::uint64_t reads = 0, writes = 0, read_bytes = 0, write_bytes = 0;

 private:
  apps::BlockIo* inner_;
};

void report(const char* run, const CountingIo& io) {
  const auto ops = static_cast<double>(io.reads + io.writes);
  const auto bytes = static_cast<double>(io.read_bytes + io.write_bytes);
  std::printf("%-40s %6llu reads %7llu writes  write share %.4f of requests, "
              "%.4f of bytes\n",
              run, static_cast<unsigned long long>(io.reads),
              static_cast<unsigned long long>(io.writes),
              ops > 0 ? static_cast<double>(io.writes) / ops : 0.0,
              bytes > 0 ? static_cast<double>(io.write_bytes) / bytes : 0.0);
}

cluster::ClusterConfig small_config() {
  cluster::ClusterConfig cfg;
  cfg.imd_hosts = 1;
  cfg.materialize = false;
  return cfg;
}

void lu_modeled() {
  cluster::Cluster c(small_config());
  CountingIo io(nullptr);
  apps::RunStats stats;
  c.run_app([&](cluster::Cluster& cl) -> sim::Co<void> {
    co_await apps::run_lu_modeled(cl, io, apps::LuConfig{}, &stats);
  });
  report("lu, modeled, paper scale", io);
}

void lu_real() {
  apps::LuConfig lu;
  lu.n = 128;
  lu.slab_cols = 16;
  lu.files = 4;
  cluster::ClusterConfig cfg = small_config();
  cfg.materialize = true;
  cluster::Cluster c(cfg);
  const int fd = c.create_dataset("matrix.dat", lu.total_bytes());
  apps::lu_store_matrix(*c.fs().store_of_inode(c.fs().inode_of(fd)), lu,
                        apps::lu_make_matrix(lu));
  apps::FsBlockIo fs(c.fs(), fd);
  CountingIo io(&fs);
  apps::RunStats stats;
  c.run_app([&](cluster::Cluster& cl) -> sim::Co<void> {
    co_await apps::run_lu_real(cl, io, lu, &stats);
  });
  report("lu, real, examples/out_of_core_lu", io);
}

void dmine_modeled() {
  cluster::Cluster c(small_config());
  CountingIo io(nullptr);
  apps::RunStats stats;
  c.run_app([&](cluster::Cluster& cl) -> sim::Co<void> {
    co_await apps::run_dmine_modeled(cl, io, 1_GiB, 128_KiB, dodo::millis(3),
                                     1, &stats);
  });
  report("dmine, modeled, paper scale", io);
}

void dmine_real() {
  apps::DmineConfig mine;
  mine.num_transactions = 4000;
  mine.num_items = 100;
  mine.avg_items = 8;
  mine.num_patterns = 5;
  mine.pattern_prob = 0.5;
  mine.min_support = 0.08;
  mine.block = 16_KiB;
  const std::vector<std::uint8_t> bytes =
      apps::encode_transactions(apps::generate_transactions(mine), mine.block);
  const auto dataset = static_cast<Bytes64>(bytes.size());
  cluster::ClusterConfig cfg = small_config();
  cfg.materialize = true;
  cluster::Cluster c(cfg);
  const int fd = c.create_dataset("transactions.dat", dataset);
  c.fs().store_of_inode(c.fs().inode_of(fd))->write(0, dataset, bytes.data());
  apps::FsBlockIo fs(c.fs(), fd);
  CountingIo io(&fs);
  apps::RunStats stats;
  std::vector<std::vector<apps::ItemSet>> levels;
  c.run_app([&](cluster::Cluster& cl) -> sim::Co<void> {
    co_await apps::run_dmine_real(cl, io, mine, dataset, &stats, &levels);
  });
  report("dmine, real, examples/persistent_mining", io);
}

}  // namespace

int main() {
  lu_modeled();
  lu_real();
  dmine_modeled();
  dmine_real();
  return 0;
}
