#!/usr/bin/env bash
# Unified sanitizer matrix leg: builds the repo twice
# (CLUSTAGG_SANITIZE=address, =thread) and runs one `ctest -L` pass per
# label argument. `-L` matches a regex, so a single argument can cover
# several labels at once, and listing a label again on its own pins it
# against silently falling out of a combined pass. --no-tests=error
# keeps a labeling regression from passing a leg vacuously.
#
# The per-subsystem fast gates wired to every push:
#   ci/sanitize.sh 'stream|differential' differential   # streaming
#   ci/sanitize.sh shard                                # shard pipeline
#   ci/sanitize.sh durability                           # crash safety
#   ci/sanitize.sh native                               # packed kernel
#   ci/sanitize.sh undefined                            # UBSan
#   ci/sanitize.sh local                                # membership oracle
#
# `native` is a special leg, not a label regex: it builds once with
# CLUSTAGG_NATIVE=ON (compiling the AVX2 packed-label kernel) under
# ASan and runs the backend-equivalence and property suites plus the
# tier-forcing CLI smoke — every dispatch tier (portable, swar, and
# avx2 where the CPU has it) answers under sanitizer instrumentation,
# and the bit-identity checks diff their costs against each other.
#
# `undefined` is a special leg too: one CLUSTAGG_SANITIZE=undefined
# build (GCC's -fsanitize=undefined, every report fatal) running the
# backend-equivalence, property and local-oracle suites. The packed
# label kernels are all shifts, lane masks and multiplies — exactly
# where undefined behaviour hides — and those suites drive them through
# every lane width, missing-aware and mismatch-only layouts alike.
#
# The local leg runs the membership-oracle suites (labels `local` and
# `differential`): many threads share one oracle and race its LRU memo,
# so the TSan pass is what certifies the concurrent-query contract of
# docs/local_queries.md.
#
# The shard leg is the library's widest parallel surface (worker threads
# run whole Aggregate pipelines concurrently), so its TSan pass in
# particular must stay clean. The durability leg replays the kill-point
# crash matrix under both sanitizers: recovery code paths are exactly
# the ones that only run after something already went wrong, so they
# get the least organic coverage. The full suite still runs sanitized
# in the heavyweight job; these legs are the fast ones.
#
# On top of the label legs, every invocation runs a fixed eviction pin
# (`ctest -R 'Window|Evict|Removal|window_smoke'`): the
# windowed-forgetting surface — FIFO eviction, removal decrements,
# recovery of journals that carry removals — touches the counter
# triangle with both adds and decrements, so it must stay clean under
# ASan and TSan no matter how a label regex above is narrowed.
#
# Usage: ci/sanitize.sh [-j jobs] LABEL_REGEX [LABEL_REGEX...]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc)"

while getopts 'j:' opt; do
  case "$opt" in
    j) JOBS="$OPTARG" ;;
    *) echo "usage: ci/sanitize.sh [-j jobs] LABEL_REGEX..." >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))

if [ "$#" -eq 0 ]; then
  echo "usage: ci/sanitize.sh [-j jobs] LABEL_REGEX..." >&2
  exit 2
fi

if [ "$1" = "native" ]; then
  # AVX2 packed-kernel leg: one ASan build with the native kernel
  # compiled in, running the backend-equivalence + property suites and
  # the CLUSTAGG_KERNEL tier-forcing smoke. Forcing each tier through
  # the environment exercises the runtime dispatch itself; the suites'
  # EXPECT_EQ bit-identity checks are the cost diff.
  BUILD="$ROOT/build-sanitize-native"
  echo "=== CLUSTAGG_SANITIZE=address CLUSTAGG_NATIVE=ON ==="
  cmake -B "$BUILD" -S "$ROOT" -DCLUSTAGG_SANITIZE=address \
        -DCLUSTAGG_NATIVE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$BUILD" -j"$JOBS"
  for TIER in portable swar avx2; do
    echo "--- CLUSTAGG_KERNEL=$TIER ---"
    (cd "$BUILD" && CLUSTAGG_KERNEL="$TIER" \
         ctest -L 'backend|property' --no-tests=error \
         --output-on-failure -j"$JOBS")
  done
  echo "sanitize: native leg passed"
  exit 0
fi

if [ "$1" = "undefined" ]; then
  BUILD="$ROOT/build-sanitize-undefined"
  echo "=== CLUSTAGG_SANITIZE=undefined ==="
  cmake -B "$BUILD" -S "$ROOT" -DCLUSTAGG_SANITIZE=undefined \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$BUILD" -j"$JOBS"
  (cd "$BUILD" && ctest -L 'backend|property|local' --no-tests=error \
       --output-on-failure -j"$JOBS")
  echo "sanitize: undefined leg passed"
  exit 0
fi

for SAN in address thread; do
  BUILD="$ROOT/build-sanitize-$SAN"
  echo "=== CLUSTAGG_SANITIZE=$SAN ==="
  cmake -B "$BUILD" -S "$ROOT" -DCLUSTAGG_SANITIZE="$SAN" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$BUILD" -j"$JOBS"
  for LABEL in "$@"; do
    (cd "$BUILD" && ctest -L "$LABEL" --no-tests=error \
         --output-on-failure -j"$JOBS")
  done
  (cd "$BUILD" && ctest -R 'Window|Evict|Removal|window_smoke' --no-tests=error \
       --output-on-failure -j"$JOBS")
done
echo "sanitize: all legs passed"
