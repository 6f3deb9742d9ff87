#!/usr/bin/env bash
# Distributed-search smoke test: the merged multi-process ranking must
# be byte-identical to the single-process one.
#
# Four legs, all compared with cmp(1) against a serial reference
# ranking dump (hexfloat, so "identical" means bit-identical doubles):
#
#  1. 4 forked workers — the plain fan-out path.
#  2. 2 workers with --dist-test-crash 2: the first worker SIGKILLs
#     itself after streaming two records, mid CNR shard; the
#     coordinator must reissue the shard remainder to a fresh worker
#     and still merge the same bytes.
#  3. A --checkpoint run re-run at a different worker count, with the
#     journal's final record torn as a crash mid-append would tear it:
#     must resume from the journal to the same bytes, warn once about
#     the torn record and truncate it, so a third run loads the journal
#     with no warning. Then an in-process run (no --workers) given the
#     same --checkpoint must resume from it to the same bytes: in-process
#     and distributed runs write one journal.
#  4. One `elivagar_worker --serve` peer attached over TCP (--attach):
#     the socket transport must merge the same bytes, and the idle
#     worker must exit cleanly within 5 s of SIGTERM.
#
# Usage: ci/dist_smoke.sh [BUILD_DIR] (default: build)
set -euo pipefail

BUILD=${1:-build}
CLI="$BUILD/examples/elivagar_cli"
WORKER="$BUILD/examples/elivagar_worker"
WORK=$(mktemp -d)
SERVE_PID=""

cleanup() {
    [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

SPEC=(--benchmark moons --candidates 24 --seed 11 --scale 0.1
      --threads 1 --search-only)

echo "== serial reference =="
"$CLI" "${SPEC[@]}" --dump-ranking "$WORK/serial.txt"

echo "== 4 forked workers =="
"$CLI" "${SPEC[@]}" --workers 4 --worker-bin "$WORKER" \
    --dump-ranking "$WORK/w4.txt"
cmp "$WORK/serial.txt" "$WORK/w4.txt" || {
    echo "FAIL: 4-worker ranking differs from serial" >&2
    exit 1
}

echo "== worker SIGKILLed mid-shard, shard reissued =="
"$CLI" "${SPEC[@]}" --workers 2 --worker-bin "$WORKER" \
    --dist-test-crash 2 --dump-ranking "$WORK/crash.txt" \
    | tee "$WORK/crash.log"
cmp "$WORK/serial.txt" "$WORK/crash.txt" || {
    echo "FAIL: ranking differs after a mid-shard worker crash" >&2
    exit 1
}
grep -q "1 reissue" "$WORK/crash.log" || {
    echo "FAIL: the crashed shard was not reported as reissued" >&2
    exit 1
}

echo "== torn journal resumed at a different worker count =="
JOURNAL="$WORK/search.journal"
"$CLI" "${SPEC[@]}" --workers 2 --worker-bin "$WORKER" \
    --checkpoint "$JOURNAL" --dump-ranking /dev/null
truncate -s -6 "$JOURNAL"
"$CLI" "${SPEC[@]}" --workers 3 --worker-bin "$WORKER" \
    --checkpoint "$JOURNAL" --dump-ranking "$WORK/resume.txt" \
    2>&1 | tee "$WORK/resume.log"
cmp "$WORK/serial.txt" "$WORK/resume.txt" || {
    echo "FAIL: ranking differs after a journal resume" >&2
    exit 1
}
grep -q "resumed from checkpoint" "$WORK/resume.log" || {
    echo "FAIL: the second run did not resume from the search journal" >&2
    exit 1
}
DROPS=$(grep -c "dropping" "$WORK/resume.log" || true)
[ "$DROPS" -eq 1 ] || {
    echo "FAIL: expected one torn-record warning on resume, got $DROPS" >&2
    exit 1
}
"$CLI" "${SPEC[@]}" --workers 3 --worker-bin "$WORKER" \
    --checkpoint "$JOURNAL" --dump-ranking "$WORK/third.txt" \
    2>&1 | tee "$WORK/third.log"
cmp "$WORK/serial.txt" "$WORK/third.txt" || {
    echo "FAIL: ranking differs on the third journal run" >&2
    exit 1
}
if grep -q "dropping" "$WORK/third.log"; then
    echo "FAIL: the torn journal record was not truncated away" >&2
    exit 1
fi
"$CLI" "${SPEC[@]}" --checkpoint "$JOURNAL" \
    --dump-ranking "$WORK/in_process.txt" | tee "$WORK/in_process.log"
cmp "$WORK/serial.txt" "$WORK/in_process.txt" || {
    echo "FAIL: in-process resume from the dist journal differs" >&2
    exit 1
}
grep -q "resumed from checkpoint" "$WORK/in_process.log" || {
    echo "FAIL: the in-process run did not resume from the dist journal" >&2
    exit 1
}

echo "== socket-attached --serve worker =="
"$WORKER" --serve --port 0 > "$WORK/serve.out" &
SERVE_PID=$!
PORT=""
for _ in $(seq 1 100); do
    PORT=$(sed -n 's/.*"port":\([0-9][0-9]*\).*/\1/p' "$WORK/serve.out")
    [ -n "$PORT" ] && break
    sleep 0.1
done
[ -n "$PORT" ] || {
    echo "FAIL: the --serve worker never announced its port" >&2
    exit 1
}
"$CLI" "${SPEC[@]}" --attach "127.0.0.1:$PORT" \
    --dump-ranking "$WORK/attach.txt"
cmp "$WORK/serial.txt" "$WORK/attach.txt" || {
    echo "FAIL: ranking differs through a socket-attached worker" >&2
    exit 1
}
kill -TERM "$SERVE_PID"
for _ in $(seq 1 50); do
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "FAIL: the --serve worker still runs 5 s after SIGTERM" >&2
    exit 1
fi
STATUS=0
wait "$SERVE_PID" || STATUS=$?
SERVE_PID=""
if [ "$STATUS" -ne 0 ]; then
    echo "FAIL: the --serve worker exited with status $STATUS" >&2
    exit 1
fi

echo "PASS: distributed rankings are byte-identical to serial"
