// Exact order statistics, SLO counting and ratios over the benchmark's own
// per-op samples. Header-only so the self-test checks the same code the
// benchmark runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `sorted` (ascending): the value at rank
/// ceil(pct/100 * n). 0 for an empty sample.
template <typename T>
[[nodiscard]] T nearest_rank(const std::vector<T>& sorted, double pct) {
  if (sorted.empty()) return T{};
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Number of samples strictly beyond the nearest-rank position of `pct`.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double pct) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  return rank >= n ? 0 : n - rank;
}

/// The tail percentile reported as "p99": 99 when at least ten samples lie
/// beyond it, else the highest whole percentile that still has ten beyond
/// it, else the median (fewer than twenty samples).
[[nodiscard]] inline int tail_percentile(std::size_t n) {
  for (int p = 99; p > 50; --p) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return 50;
}

/// Summary of one latency sample set, in the sample's own unit.
struct Quantiles {
  std::size_t n = 0;
  double p50 = 0;
  double tail = 0;    // value at tail_pct
  int tail_pct = 50;  // the percentile `tail` was taken at
};

template <typename T>
[[nodiscard]] Quantiles quantiles(std::vector<T> v) {
  Quantiles q;
  q.n = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  q.p50 = static_cast<double>(nearest_rank(v, 50));
  q.tail_pct = tail_percentile(v.size());
  q.tail = static_cast<double>(nearest_rank(v, q.tail_pct));
  return q;
}

/// Ops that met the latency limit: completed ops with latency <= limit.
/// Failed ops are never passed in, so they always count as misses.
template <typename T>
[[nodiscard]] std::uint64_t within_limit(const std::vector<T>& latencies,
                                         T limit) {
  return static_cast<std::uint64_t>(
      std::count_if(latencies.begin(), latencies.end(),
                    [limit](T v) { return v <= limit; }));
}

/// a / b, and 0 when b is 0 (a layer that did no work reports a 0 ratio).
[[nodiscard]] inline double ratio(double a, double b) {
  return b == 0 ? 0.0 : a / b;
}

/// Median of host-clock repetitions (mean of the middle pair when even).
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

}  // namespace perfbench
