#!/usr/bin/env bash
# The benchmark's one command. Builds kge_bench and kge_serve from this
# checkout, runs kge_bench's unit test, then the workload(s):
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is its result object
#   benchmark/run.sh --seed=N [--trace] [--seconds=S]
#       all four workloads in a fixed order, each in a fresh process
#
# Without --seconds, kge_bench measures for BENCHMARK.json's run_seconds.
# Everything it writes stays under benchmark/build and benchmark/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
workloads=(serve-small serve-xl-hot serve-swap train)

workload="" seed="" seconds="" trace=0
while (($#)); do
  case "$1" in
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace=$2; shift; else trace=1; fi
      shift ;;
    --workload|--seed|--seconds)
      (($# >= 2)) || { echo "run.sh: $1 needs a value" >&2; exit 2; }
      declare "${1#--}=$2"; shift 2 ;;
    --workload=*|--seed=*|--seconds=*|--trace=*)
      arg="${1#--}"; declare "${arg%%=*}=${arg#*=}"; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
[[ -n "$seed" ]] || { echo "run.sh: --seed is required" >&2; exit 2; }

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no repository source next to $here" >&2
  exit 2
fi

build="$here/build"
out="$here/out"
mkdir -p "$build" "$out"
log="$build/build.log"
jobs="$(nproc 2>/dev/null || echo 4)"
((jobs <= 4)) || jobs=4
if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j "$jobs"; } >"$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run.sh: build failed; full log in $log" >&2
  exit 3
fi
"$build/bench_stats_test" --gtest_brief=1 >"$out/bench_stats_test.log" 2>&1 || {
  cat "$out/bench_stats_test.log" >&2
  echo "run.sh: bench_stats_test failed" >&2
  exit 4
}

rev=unknown
if [[ -e "$root/.git" ]]; then
  rev="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
run_one() {
  "$build/kge_bench" --workload "$1" --seed "$seed" ${seconds:+--seconds "$seconds"} \
    --trace "$trace" --out-dir "$out" --git-rev "$rev"
}

if [[ -n "$workload" ]]; then
  run_one "$workload" || exit $?
else
  status=0
  for w in "${workloads[@]}"; do
    run_one "$w" || status=$?
  done
  exit "$status"
fi
