#!/usr/bin/env bash
# End-to-end smoke test for the serving layer (kge_serve + kge_query).
#
# The script
#   0. checks that zero-sized --workers/--max-queue/--max-batch/--shards,
#      an unknown --generate and an --entities below the generator's
#      minimum are usage errors (exit 2), not aborts,
#   1. trains a small model with durable checkpoints (ckpt_*.kge2 +
#      LATEST pointer),
#   2. serves an older checkpoint and answers a query over TCP,
#   3. repoints LATEST at a newer checkpoint and waits for the watcher
#      to hot-swap (snapshot_version bumps in responses),
#   4. repoints LATEST at a corrupt checkpoint (one byte flipped past
#      the first CRC chunk) and checks it is quarantined (renamed to
#      *.quarantine) while queries keep being answered from the last
#      good snapshot,
#   5. kills the server with SIGKILL and restarts it against the same
#      directory, checking it resumes from the newest CRC-valid
#      checkpoint even though LATEST still names the quarantined file,
#   6. checks that a vocabulary one entity larger than the checkpoint's
#      is refused at load (exit 1): kge_serve sizes a generated wordnet
#      vocabulary from --entities without generating it, so the
#      checkpoint's shape check is what keeps a mismatched table out.
#
# Legs 2-5 serve with --shards=4 --prune, so every adoption (start-up,
# hot swap, the quarantined file, the restart) checksums the ~4.6 MB
# training checkpoints in 1 MiB chunks and builds the tile bounds on the
# scan lanes' pool.
#
# Usage: scripts/serve_smoke.sh [BUILD_DIR]
#   BUILD_DIR  build tree with kge_train/kge_serve/kge_query (default build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-${BUILD_DIR:-build}}"
TRAIN="./${BUILD_DIR}/tools/kge_train"
SERVE="./${BUILD_DIR}/tools/kge_serve"
QUERY="./${BUILD_DIR}/tools/kge_query"
for bin in "${TRAIN}" "${SERVE}" "${QUERY}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "serve_smoke: ${bin} not found; build the tools first" >&2
    exit 2
  fi
done

WORK_DIR="$(mktemp -d /tmp/kge_serve_smoke.XXXXXX)"
SERVER_PID=""
cleanup() {
  if [[ -n "${SERVER_PID}" ]]; then kill "${SERVER_PID}" 2>/dev/null || true; fi
  rm -rf "${WORK_DIR}"
}
trap cleanup EXIT

# expect_usage_error MESSAGE FLAG...: kge_serve with the flags must exit
# 2 and print MESSAGE.
expect_usage_error() {
  local message="$1" status=0
  shift
  "${SERVE}" --checkpoint="${WORK_DIR}/none.kge2" "$@" \
      > /dev/null 2> "${WORK_DIR}/usage.log" || status=$?
  if [[ "${status}" != 2 ]] || ! grep -q -- "${message}" "${WORK_DIR}/usage.log"; then
    echo "serve_smoke: kge_serve $* exited ${status}, want a usage error (2)" >&2
    cat "${WORK_DIR}/usage.log" >&2
    exit 1
  fi
}

echo "== bad flags are usage errors =="
for flag in --workers=0 --max-queue=0 --max-batch=0 --shards=0; do
  expect_usage_error "must be >= 1" "${flag}"
done
expect_usage_error "unknown --generate=bogus" --generate=bogus
expect_usage_error "--entities must be between 100" --entities=50
expect_usage_error "--entities must be between 200" --generate=freebase \
    --entities=150

CKPTS="${WORK_DIR}/ckpts"
MODEL_ARGS=(--model=complex --generate=wordnet --entities=3000
            --dim-budget=128 --seed=7)

echo "== training checkpoints =="
"${TRAIN}" "${MODEL_ARGS[@]}" --max-epochs=4 --eval-every=100 \
    --checkpoint-dir="${CKPTS}" --checkpoint-every=1 --keep-last=10 \
    > /dev/null
if [[ ! -f "${CKPTS}/ckpt_2.kge2" || ! -f "${CKPTS}/ckpt_4.kge2" ]]; then
  echo "serve_smoke: expected ckpt_2/ckpt_4 after training" >&2
  ls "${CKPTS}" >&2
  exit 1
fi

start_server() {
  : > "${WORK_DIR}/serve.log"
  "${SERVE}" "${MODEL_ARGS[@]}" --checkpoint-dir="${CKPTS}" \
      --shards=4 --prune --watch-latest --poll-ms=50 --port=0 \
      --deadline-ms=5000 >> "${WORK_DIR}/serve.log" 2>&1 &
  SERVER_PID=$!
  disown "${SERVER_PID}"  # silence bash's job notice on the SIGKILL leg
  PORT=""
  for _ in $(seq 1 300); do
    PORT="$(sed -n 's/.* port=\([0-9][0-9]*\).*/\1/p' \
        "${WORK_DIR}/serve.log" | head -n 1)"
    if [[ -n "${PORT}" ]]; then return 0; fi
    if ! kill -0 "${SERVER_PID}" 2>/dev/null; then
      echo "serve_smoke: server exited during startup" >&2
      cat "${WORK_DIR}/serve.log" >&2
      return 1
    fi
    sleep 0.1
  done
  echo "serve_smoke: server never reported its port" >&2
  return 1
}

# Answers the snapshot_version of one successful query, or "".
query_snapshot() {
  "${QUERY}" --port="${PORT}" --entity=1 --relation=0 --topk=5 \
      | sed -n 's/.*snapshot=\([0-9][0-9]*\).*/\1/p' | head -n 1
}

# Polls until a query reports the wanted snapshot version.
await_snapshot() {
  local want="$1"
  for _ in $(seq 1 100); do
    if [[ "$(query_snapshot)" == "${want}" ]]; then return 0; fi
    sleep 0.1
  done
  echo "serve_smoke: never observed snapshot_version=${want}" >&2
  cat "${WORK_DIR}/serve.log" >&2
  return 1
}

echo "== serving ckpt_2, querying =="
printf 'ckpt_2.kge2\n' > "${CKPTS}/LATEST"
start_server
await_snapshot 1

echo "== hot swap to ckpt_4 =="
printf 'ckpt_4.kge2\n' > "${CKPTS}/LATEST"
await_snapshot 2

echo "== corrupt checkpoint is quarantined, serving continues =="
# A copy of ckpt_4 with one byte flipped in its second 1 MiB CRC chunk,
# which a pool thread checksums.
FLIP_AT=1100000
if (( $(stat -c %s "${CKPTS}/ckpt_4.kge2") <= FLIP_AT )); then
  echo "serve_smoke: ckpt_4 is too small to corrupt past its first chunk" >&2
  exit 1
fi
cp "${CKPTS}/ckpt_4.kge2" "${CKPTS}/ckpt_9.kge2"
byte="$(od -An -tu1 -j "${FLIP_AT}" -N1 "${CKPTS}/ckpt_9.kge2" | tr -d ' ')"
printf "\\$(printf '%03o' $(( byte ^ 1 )))" |
  dd of="${CKPTS}/ckpt_9.kge2" bs=1 seek="${FLIP_AT}" conv=notrunc status=none
if cmp -s "${CKPTS}/ckpt_4.kge2" "${CKPTS}/ckpt_9.kge2"; then
  echo "serve_smoke: failed to corrupt the checkpoint copy" >&2
  exit 1
fi
printf 'ckpt_9.kge2\n' > "${CKPTS}/LATEST"
for _ in $(seq 1 100); do
  if [[ -f "${CKPTS}/ckpt_9.kge2.quarantine" ]]; then break; fi
  sleep 0.1
done
if [[ ! -f "${CKPTS}/ckpt_9.kge2.quarantine" ]]; then
  echo "serve_smoke: corrupt checkpoint was never quarantined" >&2
  cat "${WORK_DIR}/serve.log" >&2
  exit 1
fi
if [[ "$(query_snapshot)" != "2" ]]; then
  echo "serve_smoke: quarantine changed the served snapshot" >&2
  exit 1
fi

echo "== SIGKILL, restart, resume from last CRC-valid checkpoint =="
kill -9 "${SERVER_PID}"
wait "${SERVER_PID}" 2>/dev/null || true
SERVER_PID=""
# LATEST still names the quarantined file; startup must fall back to
# the newest checkpoint that passes CRC verification (ckpt_4).
start_server
await_snapshot 1
"${QUERY}" --port="${PORT}" --entity=1 --relation=0 --topk=5 \
    --expect-status=ok --quiet

echo "== a vocabulary that does not match the checkpoint is refused =="
status=0
"${SERVE}" "${MODEL_ARGS[@]}" --entities=3001 \
    --checkpoint="${CKPTS}/ckpt_4.kge2" --port=0 \
    > "${WORK_DIR}/mismatch.log" 2>&1 || status=$?
if [[ "${status}" != 1 ]] ||
    ! grep -q "cannot load a serving checkpoint" "${WORK_DIR}/mismatch.log"; then
  echo "serve_smoke: --entities=3001 on a 3000-entity checkpoint exited ${status}, want 1" >&2
  cat "${WORK_DIR}/mismatch.log" >&2
  exit 1
fi

echo "== medium scale: 100k-entity snapshot, 4-lane pruned top-10 =="
kill "${SERVER_PID}" 2>/dev/null || true
wait "${SERVER_PID}" 2>/dev/null || true
SERVER_PID=""
MEDIUM_CKPTS="${WORK_DIR}/ckpts_medium"
# One cheap epoch is enough: the leg tests the serving data path at
# vocabulary scale, not model quality. --scale=medium on the serve side
# must resolve to the same 100k-entity vocabulary the trainer saw.
"${TRAIN}" --model=complex --generate=wordnet --entities=100000 \
    --dim-budget=32 --seed=11 --max-epochs=1 --eval-every=100 \
    --checkpoint-dir="${MEDIUM_CKPTS}" --checkpoint-every=1 --keep-last=2 \
    > /dev/null
: > "${WORK_DIR}/serve_medium.log"
"${SERVE}" --model=complex --generate=wordnet --scale=medium \
    --dim-budget=32 --seed=11 --checkpoint-dir="${MEDIUM_CKPTS}" \
    --shards=4 --prune --port=0 --deadline-ms=2000 \
    >> "${WORK_DIR}/serve_medium.log" 2>&1 &
SERVER_PID=$!
PORT=""
for _ in $(seq 1 300); do
  PORT="$(sed -n 's/.* port=\([0-9][0-9]*\).*/\1/p' \
      "${WORK_DIR}/serve_medium.log" | head -n 1)"
  if [[ -n "${PORT}" ]]; then break; fi
  if ! kill -0 "${SERVER_PID}" 2>/dev/null; then
    echo "serve_smoke: medium-scale server exited during startup" >&2
    cat "${WORK_DIR}/serve_medium.log" >&2
    exit 1
  fi
  sleep 0.1
done
if [[ -z "${PORT}" ]]; then
  echo "serve_smoke: medium-scale server never reported its port" >&2
  exit 1
fi
# A single client must get top-10 answers back with OK status — no SHED
# (admission control never binds at 1 client) and no DEADLINE (the
# 4-lane pruned walk keeps a 100k-entity scan well inside the 2 s
# budget).
"${QUERY}" --port="${PORT}" --entity=17 --relation=0 --topk=10 \
    --count=20 --expect-status=ok --quiet
# Graceful stop prints the batcher counters; the 4-lane pruned walk
# must have processed tiles through the full server stack.
# (tiles_SKIPPED is not gated here: a one-epoch model has near-uniform
# row norms, so bounds rarely prove a tile dead — skip effectiveness on
# skewed models is gated by bench-smoke and the property tests.)
kill "${SERVER_PID}"
wait "${SERVER_PID}" 2>/dev/null || true
SERVER_PID=""
TILES_TOTAL="$(sed -n 's/.*tiles_skipped=[0-9][0-9]*\/\([0-9][0-9]*\).*/\1/p' \
    "${WORK_DIR}/serve_medium.log" | head -n 1)"
if [[ -z "${TILES_TOTAL}" || "${TILES_TOTAL}" == "0" ]]; then
  echo "serve_smoke: the 4-lane pruned walk never scanned a tile" >&2
  cat "${WORK_DIR}/serve_medium.log" >&2
  exit 1
fi
# The same line ends with the server's connection counters: the client
# above was accepted, and no connection was turned away at the cap.
ACCEPTED="$(sed -n 's/.* accepted=\([0-9][0-9]*\) .*/\1/p' \
    "${WORK_DIR}/serve_medium.log" | head -n 1)"
REJECTED="$(sed -n 's/.* rejected=\([0-9][0-9]*\) .*/\1/p' \
    "${WORK_DIR}/serve_medium.log" | head -n 1)"
if [[ -z "${ACCEPTED}" || "${ACCEPTED}" == "0" || "${REJECTED}" != "0" ]]; then
  echo "serve_smoke: expected accepted>=1 and rejected=0 on the drain line" >&2
  cat "${WORK_DIR}/serve_medium.log" >&2
  exit 1
fi

echo "SERVE SMOKE PASSED (swap, quarantine, crash-restart, and medium-scale pruned serving verified)"
