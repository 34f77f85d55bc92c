// Host-speed probe. The machines this benchmark runs on are shared: the same
// simulation can take 1.6x longer in a contended stretch than in a quiet
// one, and a compute-only loop does not see most of that slowdown. The
// probe mixes the simulator's host-side operations (a binary heap of
// events dispatched through function pointers, hash-table updates) with
// dependent loads over a 16 MiB table. It runs only between repetitions,
// never calls Dodo code, and touches only memory of its own, allocated on
// its first call and flushed from the caches before each timing, so its CPU
// time moves with the machine and not with the program.
#pragma once

namespace perfbench {

/// Probe CPU seconds on the reference machine; host metrics are scaled to
/// it (raw CPU seconds x kProbeReferenceS / probe CPU seconds).
inline constexpr double kProbeReferenceS = 0.07;

/// CPU seconds of one probe run (process CPU clock).
[[nodiscard]] double host_probe_seconds();

/// The process CPU clock every host metric is read from, in seconds.
[[nodiscard]] double cpu_seconds();

}  // namespace perfbench
