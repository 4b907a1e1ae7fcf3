#!/usr/bin/env bash
# Full verification sweep: lint, configure, build, run the test suite, and
# smoke-run every bench and example at tiny scale. This is the command a
# CI job would run.
#
# Environment knobs:
#   CMAKE_BUILD_TYPE   build type (default Release), propagated to CMake so
#                      sanitizer builds can reuse this script, e.g.
#                      CMAKE_BUILD_TYPE=RelWithDebInfo KGE_SANITIZE=thread \
#                        BUILD_DIR=build-tsan scripts/check.sh
#   KGE_SANITIZE       sanitizer list passed to -DKGE_SANITIZE (default none)
#   KGE_FAILPOINTS     "ON" compiles in the fault-injection failpoints
#                      (-DKGE_FAILPOINTS=ON), which un-skips the crash-site
#                      test matrix and runs the kill-and-resume smoke
#   BUILD_DIR          build directory (default "build")
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"

# Consume the failpoints knob and drop it from the environment: the
# same variable name doubles as the runtime site-arming spec, and the
# armed binaries would otherwise warn about the malformed value "ON".
FAILPOINTS="${KGE_FAILPOINTS:-}"
unset KGE_FAILPOINTS

scripts/lint.sh --no-tidy

# Prefer Ninja when installed, but fall back to CMake's default generator
# (typically Unix Makefiles) instead of hard-failing without it. Only pick a
# generator on first configure: an existing build directory keeps whatever
# generator it was created with (CMake rejects a mismatch).
generator_args=()
if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]] \
    && command -v ninja >/dev/null 2>&1; then
  generator_args+=(-G Ninja)
fi

cmake -B "${BUILD_DIR}" "${generator_args[@]}" \
    -DCMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-Release}" \
    ${KGE_SANITIZE:+-DKGE_SANITIZE="${KGE_SANITIZE}"} \
    ${FAILPOINTS:+-DKGE_FAILPOINTS="${FAILPOINTS}"}
cmake --build "${BUILD_DIR}"
ctest --test-dir "${BUILD_DIR}" --output-on-failure

if [[ "${FAILPOINTS}" == "ON" ]]; then
  echo "== kill-and-resume smoke =="
  scripts/kill_resume_smoke.sh "${BUILD_DIR}"
fi

echo "== bench smoke runs (--quick) =="
"./${BUILD_DIR}/bench/table1_equivalence" --trials=20
for bench in table2_derived_weights table3_auto_weights table4_quaternion \
             ablation_negatives ablation_quaternion_order \
             ablation_regularization ablation_dim ablation_optimizer \
             ablation_leakage ablation_training_regime \
             extension_hypercomplex relation_breakdown model_zoo \
             seed_variance; do
  echo "--- ${bench} ---"
  "./${BUILD_DIR}/bench/${bench}" --quick > /dev/null
done
"./${BUILD_DIR}/bench/micro_score" --benchmark_min_time=0.01 > /dev/null
"./${BUILD_DIR}/bench/micro_train" --benchmark_min_time=0.01 > /dev/null

echo "== example smoke runs =="
"./${BUILD_DIR}/examples/quickstart" > /dev/null
"./${BUILD_DIR}/examples/recommender" --users=60 --items=80 --epochs=20 > /dev/null
"./${BUILD_DIR}/examples/embedding_analysis" --entities=300 --epochs=30 > /dev/null
"./${BUILD_DIR}/examples/weight_search" --candidates=200 --train-top=1 \
    --entities=200 --epochs=20 > /dev/null
"./${BUILD_DIR}/examples/cph_two_ways" --entities=200 --epochs=30 > /dev/null

echo "== tool smoke runs =="
"./${BUILD_DIR}/tools/kge_datagen" --family=wordnet --entities=300 > /dev/null
"./${BUILD_DIR}/tools/kge_train" --model=complex --entities=300 --dim-budget=32 \
    --max-epochs=20 --checkpoint=/tmp/kge_check.ckpt > /dev/null
"./${BUILD_DIR}/tools/kge_eval" --model=complex --entities=300 --dim-budget=32 \
    --checkpoint=/tmp/kge_check.ckpt > /dev/null
# One walk per query and batched, pruned, multi-threaded walks rank the
# same: the filtered metric lines must be identical.
for eval_flags in "--eval-batch=1" "--eval-batch=32 --prune --threads=4"; do
  # shellcheck disable=SC2086  # eval_flags is a flag list
  "./${BUILD_DIR}/tools/kge_eval" --model=complex --entities=300 \
      --dim-budget=32 --checkpoint=/tmp/kge_check.ckpt ${eval_flags} \
      | grep '(filtered)'
done > /tmp/kge_check_ranks.txt
if [[ "$(wc -l < /tmp/kge_check_ranks.txt)" != 2 ]] ||
   [[ "$(sort -u /tmp/kge_check_ranks.txt | wc -l)" != 1 ]]; then
  echo "kge_eval metrics differ across --eval-batch/--prune/--threads:" >&2
  cat /tmp/kge_check_ranks.txt >&2
  exit 1
fi
rm -f /tmp/kge_check_ranks.txt
# An unknown --generate, too few --entities, an --eval-batch outside
# [0, INT32_MAX] and fewer than one --threads are usage errors (exit 2),
# in both tools for the flags they share.
for flag in --generate=bogus --entities=50 --eval-batch=-7 \
            --eval-batch=4294967297 --threads=-3 --threads=0; do
  status=0
  "./${BUILD_DIR}/tools/kge_eval" --checkpoint=/tmp/kge_check.ckpt "${flag}" \
      > /dev/null 2>&1 || status=$?
  if [[ "${status}" != 2 ]]; then
    echo "kge_eval ${flag} exited ${status}, want a usage error (2)" >&2
    exit 1
  fi
done
for flag in --eval-batch=-7 --eval-batch=4294967297 --threads=-3 --threads=0; do
  status=0
  "./${BUILD_DIR}/tools/kge_train" --entities=300 --max-epochs=1 "${flag}" \
      > /dev/null 2>&1 || status=$?
  if [[ "${status}" != 2 ]]; then
    echo "kge_train ${flag} exited ${status}, want a usage error (2)" >&2
    exit 1
  fi
done
rm -f /tmp/kge_check.ckpt

echo "ALL CHECKS PASSED"
