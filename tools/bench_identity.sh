#!/bin/sh
# Byte-identity check of the bench outputs of two builds: runs every bench
# binary of <base-build> and of <change-build> at DODO_BENCH_SCALE=0.1, each
# into its own DODO_BENCH_JSON_DIR, and cmp's every BENCH_/TELEM_/TRACE_ file
# the two runs wrote. A host-only change (the event loop, a hash table, an
# index) must leave every one of them identical.
#
# Usage:
#   tools/bench_identity.sh <base-build> <change-build>
#
#   Both are build directories of this repo (e.g. a RelWithDebInfo build of
#   the base commit in a separate checkout, and build/) with the bench
#   targets built. The benches run in the order of <base-build>/bench/.
#   Each bench's host wall time per build goes to stdout.
#
# Exit status: 0 = all outputs identical, 1 = a file differs, is missing on
# one side, or a bench failed, 2 = setup failure.
set -eu

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <base-build> <change-build>" >&2
  exit 2
fi
base="$(cd "$1" && pwd)" || exit 2
change="$(cd "$2" && pwd)" || exit 2
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

now() { date +%s.%N; }

status=0
found=0
for bin in "$base"/bench/bench_*; do
  [ -f "$bin" ] && [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  found=$((found + 1))
  if [ ! -x "$change/bench/$name" ]; then
    echo "bench_identity: $name missing from $change" >&2
    status=1
    continue
  fi
  for side in base change; do
    if [ "$side" = base ]; then build="$base"; else build="$change"; fi
    mkdir -p "$out/$side/$name"
    t0="$(now)"
    if ! DODO_BENCH_SCALE=0.1 DODO_BENCH_JSON_DIR="$out/$side/$name" \
        "$build/bench/$name" >/dev/null 2>&1; then
      echo "bench_identity: $name failed in $build" >&2
      status=1
    fi
    t1="$(now)"
    awk -v n="$name" -v s="$side" -v a="$t0" -v b="$t1" \
      'BEGIN { printf "%-34s %-6s %8.1f s\n", n, s, b - a }'
  done
  for f in $( (ls "$out/base/$name"; ls "$out/change/$name") | sort -u); do
    case "$f" in BENCH_* | TELEM_* | TRACE_*) ;; *) continue ;; esac
    if cmp -s "$out/base/$name/$f" "$out/change/$name/$f"; then
      echo "bench_identity: $f identical"
    else
      echo "bench_identity: $f DIFFERS (or is missing on one side)" >&2
      status=1
    fi
  done
done

if [ "$found" -eq 0 ]; then
  echo "bench_identity: no bench binaries under $base/bench" >&2
  exit 2
fi
exit "$status"
