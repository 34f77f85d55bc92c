// The repository benchmark: one workload per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>] [--corrupt-shadow]
//
// Each invocation runs the workload on fresh simulated clusters, in process
// and single-threaded: one priming repetition (its first-touch host cost is
// kept out of every reported number; peak RSS is read right after it), then
// rounds of timed repetitions for --seconds of wall time (at least
// kMinRounds). A round runs one repetition pinned to each CPU the process
// may use, in turn. Sim-clock metrics are exact per seed and must repeat
// bit-for-bit in every repetition. Host-clock metrics are process CPU
// seconds, each repetition scaled to the reference machine speed by the
// host-speed probe run on either side of it, on the same CPU (probe.hpp;
// never inside a repetition). A host metric is the mean over the CPUs of
// its median on each CPU; the raw (unscaled) values are printed beside.
//
// --trace 1 runs the untraced repetitions and then traced ones (record_spans
// on, plus the benchmark's own spans, written to --spans-out at exit), which
// add the per-segment trace metrics and obs.trace_overhead_ratio. The last
// stdout line is one JSON object with every metric; run.py keeps the ones
// BENCHMARK.json lists for the mode. The exit code is 0 only when every
// correctness check passed.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "probe.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::MetricMap;
using perfbench::RunResult;

constexpr std::size_t kMinRounds = 2;
constexpr std::size_t kMinTracedRounds = 1;
constexpr std::size_t kMaxRounds = 40;
constexpr std::size_t kMaxCpus = 4;  // CPUs a round visits

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt_shadow = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <file>] "
               "[--corrupt-shadow]\nworkloads:",
               why);
  for (const std::string& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool parse_number(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0' && std::isfinite(*out);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-shadow") {
      a.corrupt_shadow = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    double num = 0;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_number(v, &num) || num < 0 || num != std::floor(num)) {
        usage("--seed must be a non-negative integer");
      }
      a.seed = static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
    } else if (flag == "--seconds") {
      if (!parse_number(v, &num) || num <= 0 || num > 600) {
        usage("--seconds must be in (0, 600]");
      }
      a.seconds = num;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace must be 0 or 1");
      }
      a.trace = v[0] == '1';
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) {
    known = known || w == a.workload;
  }
  if (!known) usage(("unknown workload " + a.workload).c_str());
  return a;
}

double wall_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// First metric whose value or unit differs between `a` and the same name
/// in `b` (names missing from `b` count as differing); empty when none.
std::string first_difference(const MetricMap& a, const MetricMap& b) {
  for (const auto& [name, m] : a) {
    const auto it = b.find(name);
    if (it == b.end() || it->second.value != m.value ||
        it->second.unit != m.unit) {
      return name;
    }
  }
  return {};
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double measure_cpu_s(const RunResult& r) { return r.measure_cpu_s; }
double build_cpu_s(const RunResult& r) { return r.build_cpu_s; }
double warmup_cpu_s(const RunResult& r) { return r.warmup_cpu_s; }
double setup_cpu_s(const RunResult& r) { return r.build_cpu_s + r.warmup_cpu_s; }

/// Every CPU the process may run on (empty when unknown).
cpu_set_t affinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
  return set;
}

/// At most kMaxCpus of the CPUs in `allowed`, spread evenly over them, or
/// {-1} (leave placement alone) when the set is unknown.
std::vector<int> round_cpus(const cpu_set_t& allowed) {
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.empty()) return {-1};
  if (cpus.size() <= kMaxCpus) return cpus;
  std::vector<int> picked;
  for (std::size_t i = 0; i < kMaxCpus; ++i) {
    picked.push_back(cpus[i * cpus.size() / kMaxCpus]);
  }
  return picked;
}

void pin_to(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

struct Phase {
  RunResult prime;
  std::vector<RunResult> reps;   // timed repetitions (prime excluded)
  std::vector<double> probe_s;   // mean of the probes on either side of each rep
  std::size_t ncpus = 1;         // rep i ran on the (i % ncpus)-th CPU
  double peak_rss_mb = 0;        // right after the priming repetition

  /// `f` over the timed repetitions, scaled to the reference machine speed
  /// (`scaled`) or raw: the mean over CPUs of the median on each CPU.
  [[nodiscard]] double host_value(double (*f)(const RunResult&),
                                  bool scaled = true) const {
    double sum = 0;
    for (std::size_t cpu = 0; cpu < ncpus; ++cpu) {
      std::vector<double> v;
      for (std::size_t i = cpu; i < reps.size(); i += ncpus) {
        v.push_back(f(reps[i]) *
                    (scaled ? perfbench::kProbeReferenceS / probe_s[i] : 1.0));
      }
      sum += perfbench::median(v);
    }
    return sum / static_cast<double>(ncpus);
  }
};

Phase run_phase(const Args& a, bool traced, double budget_s,
                std::size_t min_rounds, perfbench::SpanLog* spans,
                std::vector<std::string>* failures) {
  perfbench::RunOptions opt;
  opt.seed = a.seed;
  opt.traced = traced;
  opt.spans = spans;
  opt.corrupt_shadow = a.corrupt_shadow;
  Phase p;
  p.prime = perfbench::run_workload(a.workload, opt);
  p.peak_rss_mb = peak_rss_mib();  // before the probe's table exists
  (void)perfbench::host_probe_seconds();  // first touch of the probe's memory
  const cpu_set_t allowed = affinity();
  const std::vector<int> cpus = round_cpus(allowed);
  p.ncpus = cpus.size();
  const double start = wall_seconds();
  for (std::size_t round = 0;
       round < min_rounds ||
       (wall_seconds() - start < budget_s && round < kMaxRounds);
       ++round) {
    for (const int cpu : cpus) {
      pin_to(cpu);
      const double before = perfbench::host_probe_seconds();
      p.reps.push_back(perfbench::run_workload(a.workload, opt));
      const double after = perfbench::host_probe_seconds();
      p.probe_s.push_back((before + after) / 2);
    }
  }
  if (cpus.front() >= 0) (void)sched_setaffinity(0, sizeof(allowed), &allowed);
  const char* label = traced ? "traced" : "untraced";
  std::vector<const RunResult*> all{&p.prime};
  for (const RunResult& r : p.reps) all.push_back(&r);
  for (const RunResult* r : all) {
    for (const std::string& f : r->check_failures) failures->push_back(f);
    const std::string diff = first_difference(p.prime.sim, r->sim);
    if (!diff.empty()) {
      failures->push_back(std::string(label) +
                          " repetitions differ on sim-clock metric " + diff);
    }
  }
  return p;
}

void print_json_metric(bool* first, const std::string& name, const Metric& m) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              *first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
  *first = false;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  // Keep freed heap mapped between repetitions, so page first-touch is paid
  // once by the priming repetition instead of inside every measured phase.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);

  std::vector<std::string> failures;
  const double untraced_budget = a.trace ? a.seconds / 2 : a.seconds;
  const Phase plain =
      run_phase(a, false, untraced_budget, kMinRounds, nullptr, &failures);

  MetricMap all = plain.prime.sim;
  const double host_cpu = plain.host_value(measure_cpu_s);
  all["host_cpu_s"] = {host_cpu, "s"};
  all["setup_s"] = {plain.host_value(setup_cpu_s), "s"};
  all["setup.build_s"] = {plain.host_value(build_cpu_s), "s"};
  all["setup.warmup_s"] = {plain.host_value(warmup_cpu_s), "s"};
  all["sim.host_ns_per_event"] = {
      perfbench::ratio(host_cpu * 1e9, all["sim.events"].value), "ns/event"};
  all["peak_rss_mb"] = {plain.peak_rss_mb, "MiB"};
  all["host.reps"] = {static_cast<double>(plain.reps.size()), "count"};
  all["host.raw_cpu_s"] = {plain.host_value(measure_cpu_s, false), "s"};
  all["host.raw_setup_s"] = {plain.host_value(setup_cpu_s, false), "s"};
  all["host.probe_s"] = {perfbench::median(plain.probe_s), "s"};

  perfbench::SpanLog spans;
  if (a.trace) {
    const Phase traced = run_phase(a, true, a.seconds / 2, kMinTracedRounds,
                                   &spans, &failures);
    const std::string diff = first_difference(plain.prime.sim, traced.prime.sim);
    if (!diff.empty()) {
      failures.push_back("traced run differs from untraced on sim-clock metric " +
                         diff);
    }
    for (const auto& [name, m] : traced.prime.sim) {
      if (name.rfind("trace.", 0) == 0) all[name] = m;
    }
    all["obs.trace_overhead_ratio"] = {
        perfbench::ratio(traced.host_value(measure_cpu_s), host_cpu), "ratio"};
    if (!a.spans_out.empty() && !spans.write_tsv(a.spans_out)) {
      failures.push_back("could not write spans to " + a.spans_out);
    }
  }

  for (const auto& [name, m] : all) {
    std::printf("metric %-32s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [step, n] : plain.prime.fail_causes) {
    std::printf("failed ops at %s: %llu\n", step.c_str(),
                static_cast<unsigned long long>(n));
  }
  std::set<std::string> unique(failures.begin(), failures.end());
  for (const std::string& f : unique) std::printf("CHECK FAILED: %s\n", f.c_str());
  if (unique.empty()) std::printf("checks: all passed\n");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              unique.empty() ? "true" : "false",
              static_cast<unsigned long long>(plain.prime.attempted),
              static_cast<unsigned long long>(plain.prime.failed));
  bool first = true;
  for (const auto& [name, m] : all) print_json_metric(&first, name, m);
  std::printf("}}\n");
  return unique.empty() ? 0 : 1;
}
