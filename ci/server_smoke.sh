#!/usr/bin/env bash
# Crash-recovery smoke test for the search daemon.
#
# Runs the same job twice: once on an undisturbed server, and once on a
# server that is killed with SIGKILL mid-job and restarted. The daemon
# must re-queue the interrupted job from its manifest, resume it from
# its checkpoint journal, and produce a result whose best_score_hex and
# circuit are byte-identical to the uninterrupted run's.
#
# The clean reference run also serves as the telemetry smoke: it is
# started with --metrics-port, its GET /metrics scrape must return a
# non-empty Prometheus exposition, and the scraped server.queue.depth
# gauge must agree with the JSON {"op":"metrics"} verb.
#
# The one-shot CLI then runs the same spec with --search-only
# --dump-ranking: its dumped best score must equal the clean job's
# best_score_hex, so the CLI's flag mapping and the server's spec mapping
# cannot drift apart.
#
# Usage: ci/server_smoke.sh [BUILD_DIR] (default: build)
set -euo pipefail

BUILD=${1:-build}
CLI="$BUILD/examples/elivagar_cli"
SRV="$BUILD/examples/elivagar_server"
PORT=${SMOKE_PORT:-7461}
MPORT=${SMOKE_METRICS_PORT:-$((PORT + 1))}
WORK=$(mktemp -d)
SRV_PID=""

cleanup() {
    [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

SPEC=(--benchmark moons --candidates 48 --scale 0.1 --seed 55)

wait_up() {
    for _ in $(seq 1 100); do
        if "$CLI" health --port "$PORT" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "FAIL: server never came up" >&2
    return 1
}

json_field() { # file field -> value
    python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
print(doc["result"][sys.argv[2]])' "$1" "$2"
}

echo "== clean reference run (with telemetry port) =="
"$SRV" --port "$PORT" --data-dir "$WORK/clean" --drain-sec 10 \
    --metrics-port "$MPORT" \
    > "$WORK/clean.log" 2>&1 &
SRV_PID=$!
wait_up
"$CLI" submit --port "$PORT" "${SPEC[@]}" --watch > /dev/null
"$CLI" result --port "$PORT" --id job-1 > "$WORK/clean_result.json"

echo "== telemetry: /metrics scrape agrees with the metrics verb =="
curl -fsS "http://127.0.0.1:$MPORT/metrics" > "$WORK/scrape.txt"
if ! [ -s "$WORK/scrape.txt" ]; then
    echo "FAIL: GET /metrics returned an empty exposition" >&2
    exit 1
fi
if ! grep -q '^elv_server_queue_depth ' "$WORK/scrape.txt"; then
    echo "FAIL: exposition lacks elv_server_queue_depth" >&2
    exit 1
fi
scrape_depth=$(awk '$1 == "elv_server_queue_depth" {print $2}' \
    "$WORK/scrape.txt")
verb_depth=$("$CLI" metrics --port "$PORT" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
print(int(doc["metrics"]["metrics"]["gauges"]["server.queue.depth"]["value"]))')
echo "queue depth: scrape=$scrape_depth verb=$verb_depth"
if [ "$scrape_depth" != "$verb_depth" ]; then
    echo "FAIL: /metrics and the metrics verb disagree on queue depth" >&2
    exit 1
fi
kill -TERM "$SRV_PID"
wait "$SRV_PID"
SRV_PID=""

echo "== interrupted run: SIGKILL mid-job =="
"$SRV" --port "$PORT" --data-dir "$WORK/crash" --drain-sec 10 \
    > "$WORK/crash1.log" 2>&1 &
SRV_PID=$!
wait_up
"$CLI" submit --port "$PORT" "${SPEC[@]}" > /dev/null
# Wait until the job has journaled CNR progress, then pull the plug.
for _ in $(seq 1 400); do
    if "$CLI" status --port "$PORT" --id job-1 \
            | grep -Eq '"phase": "cnr", "done": [1-9]'; then
        break
    fi
    sleep 0.02
done
"$CLI" status --port "$PORT" --id job-1
kill -9 "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""

echo "== restart: the job must resume and complete =="
"$SRV" --port "$PORT" --data-dir "$WORK/crash" --drain-sec 10 \
    > "$WORK/crash2.log" 2>&1 &
SRV_PID=$!
wait_up
"$CLI" watch --port "$PORT" --id job-1 > "$WORK/crash_watch.txt"
"$CLI" result --port "$PORT" --id job-1 > "$WORK/crash_result.json"
kill -TERM "$SRV_PID"
wait "$SRV_PID"
SRV_PID=""

echo "== one-shot CLI on the same spec =="
"$CLI" "${SPEC[@]}" --search-only --dump-ranking "$WORK/cli_ranking.txt" \
    > "$WORK/cli.log"
cli_hex=$(awk '$1 == "best" {print $2}' "$WORK/cli_ranking.txt")

echo "== compare =="
clean_hex=$(json_field "$WORK/clean_result.json" best_score_hex)
crash_hex=$(json_field "$WORK/crash_result.json" best_score_hex)
clean_circuit=$(json_field "$WORK/clean_result.json" circuit)
crash_circuit=$(json_field "$WORK/crash_result.json" circuit)
resumed=$(json_field "$WORK/crash_result.json" resumed)

echo "clean best_score_hex:   $clean_hex"
echo "resumed best_score_hex: $crash_hex (resumed=$resumed)"
echo "one-shot CLI best:      $cli_hex"

if [ "$clean_hex" != "$crash_hex" ]; then
    echo "FAIL: best_score_hex differs after crash recovery" >&2
    exit 1
fi
if [ "$clean_circuit" != "$crash_circuit" ]; then
    echo "FAIL: selected circuit differs after crash recovery" >&2
    exit 1
fi
if [ "$resumed" != "True" ] && [ "$resumed" != "true" ]; then
    echo "FAIL: recovered run did not resume from the journal" >&2
    exit 1
fi
if [ "$cli_hex" != "$clean_hex" ]; then
    echo "FAIL: the one-shot CLI and the server disagree on the best score" >&2
    exit 1
fi
echo "PASS: crash recovery is bit-identical and resumed; the CLI agrees"
