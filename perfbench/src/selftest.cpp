// Self-test of the benchmark's percentile, SLO and ratio arithmetic.
// Exit code 0 when every check holds. The shadow-copy check is exercised
// separately by `python3 perfbench/run.py --selftest`, which runs the
// benchmark with a corrupted shadow byte and expects it to fail.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

std::vector<std::int64_t> one_to(std::int64_t n) {
  std::vector<std::int64_t> v;
  for (std::int64_t i = n; i >= 1; --i) v.push_back(i);  // unsorted input
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Nearest rank: the value at rank ceil(p/100 * n).
  std::vector<std::int64_t> s = one_to(100);
  std::sort(s.begin(), s.end());
  expect(nearest_rank(s, 50) == 50, "p50 of 1..100 is 50");
  expect(nearest_rank(s, 99) == 99, "p99 of 1..100 is 99");
  expect(nearest_rank(s, 100) == 100, "p100 of 1..100 is 100");
  expect(nearest_rank(s, 0.5) == 1, "a tiny percentile is the minimum");
  std::vector<std::int64_t> ten = one_to(10);
  std::sort(ten.begin(), ten.end());
  expect(nearest_rank(ten, 50) == 5, "p50 of 1..10 is the 5th value");
  expect(nearest_rank(ten, 55) == 6, "p55 of 1..10 rounds the rank up");

  // The tail percentile keeps at least ten samples beyond it.
  expect(samples_beyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  expect(samples_beyond(999, 99) == 9, "999 samples leave 9 beyond p99");
  expect(tail_percentile(1000) == 99, "1000 samples report p99");
  expect(tail_percentile(100000) == 99, "more samples still report p99");
  expect(tail_percentile(999) == 98, "999 samples fall back to p98");
  expect(tail_percentile(100) == 90, "100 samples fall back to p90");
  expect(tail_percentile(19) == 50, "under 20 samples report the median");

  const Quantiles q = quantiles(one_to(1000));
  expect(q.n == 1000 && q.p50 == 500 && q.tail == 990 && q.tail_pct == 99,
         "quantiles of 1..1000: p50 500, p99 990");
  const Quantiles e = quantiles(std::vector<std::int64_t>{});
  expect(e.n == 0 && e.p50 == 0 && e.tail == 0, "empty sample reports zeros");

  // SLO: completed ops at or under the limit; failed ops are never in the
  // latency sample, so 2 completed within the limit out of 3 completed and
  // 2 failed gives an SLO count of 2 against 5 attempted.
  const std::vector<std::int64_t> lat = {10, 20, 30};
  expect(within_limit<std::int64_t>(lat, 20) == 2, "limit is inclusive");
  expect(within_limit<std::int64_t>(lat, 9) == 0, "all over the limit");
  expect(within_limit<std::int64_t>({}, 100) == 0, "no completed ops");
  expect(ratio(static_cast<double>(within_limit<std::int64_t>(lat, 20)), 0.5) ==
             4.0,
         "2 ops within the limit over 0.5 s is 4 ops/s");

  expect(ratio(1, 4) == 0.25, "ratio 1/4");
  expect(ratio(3, 0) == 0.0, "ratio over zero work is 0");
  expect(median({3, 1, 2}) == 2, "odd median");
  expect(median({4, 1, 2, 3}) == 2.5, "even median is the middle mean");
  expect(median({}) == 0, "empty median");

  if (g_failures == 0) std::printf("arithmetic self-test: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
