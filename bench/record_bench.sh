#!/usr/bin/env bash
# record_bench.sh - build and run a recorded benchmark, then validate and
# install its BENCH_*.json record at the repo root.
#
# Usage:
#   bench/record_bench.sh                      # sweep lattice, scale 0.1
#   bench/record_bench.sh --scale=0.02         # quicker sweep smoke
#   bench/record_bench.sh --pressures=2        # hit-dominated slice
#   bench/record_bench.sh adversarial          # degradation, scale 0.25
#   bench/record_bench.sh adversarial --seed=7 # custom adversarial run
#   bench/record_bench.sh service              # runShared at K=1..8
#   bench/record_bench.sh service --accesses=100000 # quicker smoke
#   bench/record_bench.sh sharing              # cross-tenant sharing study
#   bench/record_bench.sh sharing --scale=0.5  # quicker sharing smoke
#
# The first argument selects the benchmark ("sweep", the default,
# "adversarial", "service", or "sharing"); every other flag is forwarded
# to the binary. The build tree defaults to ./build (override with
# BUILD_DIR). A record is only installed if its binary exits 0 AND its
# validator passes: sweep gates bit-identity of the one-pass results,
# adversarial gates the 5x degradation floor, service gates the
# shared-engine conservation/audit/K=1-identity/accounting invariants,
# sharing gates the refcount-conservation and footprint-dedup claims. Schema
# validation happens in the record_*.cmake scripts so CI can reuse them
# without a shell.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"

MODE=sweep
if [[ $# -gt 0 && $1 != --* ]]; then
  MODE="$1"
  shift
fi

case "$MODE" in
sweep)
  SCALE_ARGS=("$@")
  if [[ $# -eq 0 ]]; then
    SCALE_ARGS=(--scale=0.1)
  fi
  cmake -B "$BUILD" -S "$ROOT" >/dev/null
  cmake --build "$BUILD" --target sweep_onepass -j "$(nproc)"
  ARGS_LIST="$(IFS=';'; echo "${SCALE_ARGS[*]}")"
  cmake -DSWEEP_ONEPASS="$BUILD/bench/sweep_onepass" \
        -DSWEEP_JSON="$ROOT/BENCH_sweep.json" \
        -DSWEEP_ARGS="$ARGS_LIST" \
        -P "$ROOT/bench/record_bench.cmake"
  echo "recorded $ROOT/BENCH_sweep.json"
  ;;
adversarial)
  SCALE_ARGS=("$@")
  if [[ $# -eq 0 ]]; then
    SCALE_ARGS=(--scale=0.25)
  fi
  cmake -B "$BUILD" -S "$ROOT" >/dev/null
  cmake --build "$BUILD" --target adversarial_degradation -j "$(nproc)"
  ARGS_LIST="$(IFS=';'; echo "${SCALE_ARGS[*]}")"
  cmake -DADVERSARIAL_BIN="$BUILD/bench/adversarial_degradation" \
        -DADVERSARIAL_JSON="$ROOT/BENCH_adversarial.json" \
        -DADVERSARIAL_ARGS="$ARGS_LIST" \
        -P "$ROOT/bench/record_adversarial.cmake"
  echo "recorded $ROOT/BENCH_adversarial.json"
  ;;
service)
  SCALE_ARGS=("$@")
  cmake -B "$BUILD" -S "$ROOT" >/dev/null
  cmake --build "$BUILD" --target service_stress -j "$(nproc)"
  ARGS_LIST="$(IFS=';'; echo "${SCALE_ARGS[*]}")"
  cmake -DSERVICE_BIN="$BUILD/bench/service_stress" \
        -DSERVICE_JSON="$ROOT/BENCH_service.json" \
        -DSERVICE_ARGS="$ARGS_LIST" \
        -P "$ROOT/bench/record_service.cmake"
  echo "recorded $ROOT/BENCH_service.json"
  ;;
sharing)
  SCALE_ARGS=("$@")
  cmake -B "$BUILD" -S "$ROOT" >/dev/null
  cmake --build "$BUILD" --target tenant_sharing -j "$(nproc)"
  ARGS_LIST="$(IFS=';'; echo "${SCALE_ARGS[*]}")"
  cmake -DSHARING_BIN="$BUILD/bench/tenant_sharing" \
        -DSHARING_JSON="$ROOT/BENCH_sharing.json" \
        -DSHARING_ARGS="$ARGS_LIST" \
        -P "$ROOT/bench/record_sharing.cmake"
  echo "recorded $ROOT/BENCH_sharing.json"
  ;;
*)
  echo "unknown benchmark '$MODE' (sweep | adversarial | service | sharing)" >&2
  exit 1
  ;;
esac
