// One repetition of one benchmark workload on a fresh simulated cluster:
// build, sim-time warm-up, the measured phase, then (untimed) verification,
// leak audit and metric computation. main.cpp repeats it and takes medians.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// The benchmark's own spans around each call into a layer (traced runs
/// only): sim-clock and host-clock (CLOCK_MONOTONIC ns) start and end.
struct BenchSpan {
  std::string name;
  dodo::SimTime sim_start = 0;
  dodo::SimTime sim_end = 0;
  std::int64_t host_start_ns = 0;
  std::int64_t host_end_ns = 0;
};

class SpanLog {
 public:
  std::size_t begin(std::string name, dodo::SimTime now);
  void end(std::size_t id, dodo::SimTime now);
  void clear() { spans_.clear(); }
  /// "name\tsim_start_ns\tsim_end_ns\thost_start_ns\thost_end_ns" rows.
  [[nodiscard]] bool write_tsv(const std::string& path) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  std::vector<BenchSpan> spans_;
};

struct RunOptions {
  std::uint64_t seed = 1;
  /// record_spans = true plus the benchmark's own spans into `spans`.
  bool traced = false;
  SpanLog* spans = nullptr;
  /// Self-test hook: flips one byte of the shadow copy before the final
  /// read-back, which must then fail its check.
  bool corrupt_shadow = false;
};

struct RunResult {
  /// Sim-clock metrics (end-to-end and per-layer): exact per seed.
  MetricMap sim;
  /// Host-clock process CPU seconds of each phase.
  double build_cpu_s = 0;
  double warmup_cpu_s = 0;
  double measure_cpu_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failed ops by the step that failed ("mopen", "mread", ...).
  std::map<std::string, std::uint64_t> fail_causes;
  std::vector<std::string> check_failures;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one repetition. Unknown names are rejected by main before this.
[[nodiscard]] RunResult run_workload(const std::string& name,
                                     const RunOptions& opt);

}  // namespace perfbench
