#!/usr/bin/env bash
# Crash-recovery smoke test for the search daemon.
#
# Runs the same job twice: once on an undisturbed server, and once on a
# server that is killed with SIGKILL mid-job and restarted. The daemon
# must re-queue the interrupted job from its manifest, resume it from
# its checkpoint journal, and produce a result whose best_score_hex and
# circuit are byte-identical to the uninterrupted run's. The kill must
# land while the job runs, so the interrupted server runs it on one
# thread (a CNR phase several status polls long; rankings do not depend
# on the thread count). When the job still left CNR between two polls,
# or finished before the kill, its manifest holds a terminal record,
# and the kill is retried on a fresh data dir (at most 5 times).
#
# The clean reference run also serves as the telemetry smoke: it is
# started with --metrics-port, its GET /metrics scrape must return a
# non-empty Prometheus exposition, and the scraped server.queue.depth
# gauge must agree with the JSON {"op":"metrics"} verb.
#
# The protocol soak then runs the same job on a --threads 1 daemon while
# a python3 client abuses both ports: 500 seeded invalid request lines
# (each must get an {"ok": false} answer), a line over the 64 KiB cap,
# a half-written line held open until the job ends, 70 idle
# connections (the ones past the 64-connection cap must get "too many
# connections"), and on the metrics port a 9 KiB head and a head that
# never ends. The client first checks that job-1 is not yet terminal
# (else the leg retries on a fresh data dir, at most 5 times); the
# job's best_score_hex and circuit must then equal the clean run's, and
# health must still answer.
#
# The one-shot CLI then runs the same spec with --search-only
# --dump-ranking: its dumped best score must equal the clean job's
# best_score_hex, and every candidate's cnr, repcap, score and CNR
# rejection in the clean job's report.json (%.17g doubles, exact) must
# equal the dump's hexfloats, so the CLI and the server run one
# spec-to-config mapping.
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

echo "== protocol soak: hostile clients while job-1 runs =="
SOAK=""
for attempt in 1 2 3 4 5; do
    DATA="$WORK/soak$attempt"
    "$SRV" --port "$PORT" --data-dir "$DATA" --drain-sec 10 --threads 1 \
        --metrics-port "$MPORT" > "$WORK/soak.log" 2>&1 &
    SRV_PID=$!
    wait_up
    status=0
    python3 - "$PORT" "$MPORT" "$CLI" "${SPEC[@]}" <<'PY' || status=$?
import json, random, socket, subprocess, sys, time

port, mport, cli, spec = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3], sys.argv[4:]


def connect(p):
    return socket.create_connection(("127.0.0.1", p), timeout=10)


def ask(conn, reader, line):
    conn.sendall(line.encode() + b"\n")
    return json.loads(reader.readline())


def fail(why):
    sys.exit("FAIL: " + why)


subprocess.run([cli, "submit", "--port", str(port)] + spec, check=True,
               stdout=subprocess.DEVNULL)
main = connect(port)
reader = main.makefile("r")
state = ask(main, reader, '{"op": "status", "id": "job-1"}')["job"]["state"]
print("job-1 at the start of the abuse:", state)
if state not in ("queued", "running"):
    sys.exit(3)  # too late to abuse a live job: retry

# 500 seeded, non-blank, invalid lines: truncated requests, unknown
# ops, wrong field types, unknown ids and printable garbage.
rng = random.Random(1234)
valid = ['{"op": "status", "id": "job-1"}', '{"op": "jobs"}',
         '{"op": "events", "since": 0, "limit": 8}',
         '{"op": "submit", "spec": {"benchmark": "moons"}}']
for n in range(500):
    kind = n % 5
    if kind == 0:
        base = rng.choice(valid)
        line = base[:rng.randrange(1, len(base))]
    elif kind == 1:
        line = '{"op": "nope-%d"}' % rng.randrange(10**6)
    elif kind == 2:
        line = rng.choice(['{"op": "status", "id": %d}',
                           '{"op": "events", "limit": -%d}',
                           '{"op": "submit", "spec": {"candidates": -%d}}'
                           ]) % rng.randrange(1, 10**6)
    elif kind == 3:
        line = '{"op": "%s", "id": "job-%d"}' % (
            rng.choice(["status", "cancel", "result", "watch"]),
            rng.randrange(100, 10**6))
    else:
        line = "x" + "".join(chr(rng.randrange(33, 127))
                             for _ in range(rng.randrange(1, 200)))
    answer = ask(main, reader, line)
    if answer.get("ok") is not False or not answer.get("error"):
        fail("invalid line %r got %r" % (line, answer))
print("500 invalid lines answered ok:false")
reader.close()  # the socket stays open while its file object does
main.close()

# A line over the 64 KiB cap: the connection closes without an answer.
big = connect(port)
big.sendall(b'{"op": "' + b"x" * (70 * 1024) + b'"}\n')
try:
    reply = big.recv(4096)
except ConnectionResetError:
    reply = b""
if reply:
    fail("over-cap line was answered: %r" % reply[:200])
big.close()
print("over-cap line dropped")

# A half-written line, held open until the job ends.
held = connect(port)
held.sendall(b'{"op": "hea')

# Metrics port: a 9 KiB head is dropped; a head that never ends is cut
# at the server's deadline.
m = connect(mport)
m.sendall(b"GET /metrics HTTP/1.1\r\n" + b"X-Pad: " + b"a" * (9 * 1024) +
          b"\r\n\r\n")
try:
    reply = m.recv(4096)
except ConnectionResetError:
    reply = b""
if reply:
    fail("9 KiB head was answered: %r" % reply[:200])
m.close()
m = connect(mport)
m.sendall(b"GET /metrics HTTP/1.1\r\nX-Slow: 1\r\n")
start = time.monotonic()
try:
    reply = m.recv(4096)
except ConnectionResetError:
    reply = b""
if reply or time.monotonic() - start > 8:
    fail("endless head: %r after %.1f s" % (reply[:200],
                                            time.monotonic() - start))
m.close()
print("metrics port dropped both heads")

# 70 idle connections on top of the held one: past the 64-connection
# cap, each must be told "too many connections".
time.sleep(0.3)  # let the closed connections' threads exit
idle = []
for _ in range(70):
    idle.append(connect(port))
time.sleep(0.5)
refused = 0
for s in idle:
    s.setblocking(False)
    try:
        data = s.recv(4096)
    except BlockingIOError:
        continue
    if json.loads(data.decode().splitlines()[0]) != {
            "ok": False, "error": "too many connections"}:
        fail("idle connection got %r" % data)
    refused += 1
for s in idle:
    s.close()
print("idle connections: %d refused of 70" % refused)
if refused < 70 + 1 - 64:
    fail("only %d idle connections refused past the cap" % refused)

# Wait for the job to end, then finish the held line.
poll = connect(port)
poll_reader = poll.makefile("r")
for _ in range(600):
    job = ask(poll, poll_reader, '{"op": "status", "id": "job-1"}')["job"]
    if job["state"] not in ("queued", "running"):
        break
    time.sleep(0.05)
if job["state"] != "completed":
    fail("job-1 ended %r" % job)
poll_reader.close()
poll.close()
held.sendall(b'lth"}\n')
answer = json.loads(held.makefile("r").readline())
if answer.get("ok") is not True:
    fail("held line completed to %r" % answer)
held.close()
print("held line answered after the job ended")

with connect(mport) as h:
    h.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
    reply = h.recv(4096)
if not reply.startswith(b"HTTP/1.0 200 OK\r\n"):
    fail("metrics port stopped serving: %r" % reply[:200])
PY
    if [ "$status" -eq 0 ]; then
        SOAK="$DATA"
        break
    fi
    kill -9 "$SRV_PID"
    wait "$SRV_PID" 2>/dev/null || true
    SRV_PID=""
    if [ "$status" -ne 3 ]; then
        echo "FAIL: protocol soak (see above)" >&2
        exit 1
    fi
    echo "attempt $attempt: job-1 was terminal before the abuse;" \
        "retrying on a fresh data dir"
done
[ -n "$SOAK" ] || {
    echo "FAIL: job-1 was terminal before the abuse in all 5 attempts" >&2
    exit 1
}
"$CLI" health --port "$PORT" > /dev/null
"$CLI" result --port "$PORT" --id job-1 > "$WORK/soak_result.json"
kill -TERM "$SRV_PID"
wait "$SRV_PID"
SRV_PID=""
for field in best_score_hex circuit; do
    if [ "$(json_field "$WORK/clean_result.json" "$field")" != \
            "$(json_field "$WORK/soak_result.json" "$field")" ]; then
        echo "FAIL: the soaked job's $field differs from the clean run's" >&2
        exit 1
    fi
done
echo "soaked job-1 matches the clean run"

echo "== interrupted run: SIGKILL mid-job =="
CRASH=""
for attempt in 1 2 3 4 5; do
    DATA="$WORK/crash$attempt"
    "$SRV" --port "$PORT" --data-dir "$DATA" --drain-sec 10 --threads 1 \
        > "$WORK/crash1.log" 2>&1 &
    SRV_PID=$!
    wait_up
    "$CLI" submit --port "$PORT" "${SPEC[@]}" > /dev/null
    # Wait until the running job has journaled CNR progress, then pull
    # the plug.
    STATUS=""
    for _ in $(seq 1 1000); do
        STATUS=$("$CLI" status --port "$PORT" --id job-1 || true)
        if grep -q '"state": "running"' <<<"$STATUS" &&
                grep -Eq '"phase": "cnr", "done": [1-9]' <<<"$STATUS"; then
            break
        fi
        sleep 0.005
    done
    echo "$STATUS"
    kill -9 "$SRV_PID"
    wait "$SRV_PID" 2>/dev/null || true
    SRV_PID=""
    if ! grep -Eq '^state job-1 (completed|failed|cancelled|rejected) ' \
            "$DATA/jobs.manifest"; then
        CRASH="$DATA"
        break
    fi
    echo "attempt $attempt: job-1 was terminal before the kill;" \
        "retrying on a fresh data dir"
done
[ -n "$CRASH" ] || {
    echo "FAIL: job-1 was terminal before the kill in all 5 attempts" >&2
    exit 1
}

echo "== restart: the job must resume and complete =="
"$SRV" --port "$PORT" --data-dir "$CRASH" --drain-sec 10 \
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
python3 - "$WORK/clean/job-1.report.json" "$WORK/cli_ranking.txt" <<'PY' || {
import json, sys
with open(sys.argv[1]) as f:
    report = [(c["cnr"], c["repcap"], c["score"], c["rejected_by_cnr"])
              for c in json.load(f)["candidates"]]
dump = []
with open(sys.argv[2]) as f:
    for line in f:
        w = line.split()
        if w and w[0] == "cand":
            dump.append((float.fromhex(w[3]), float.fromhex(w[4]),
                         float.fromhex(w[2]), w[5] == "1"))
if not dump or report != dump:
    sys.exit("ranking: %d report vs %d dump candidates, first difference "
             "%s" % (len(report), len(dump), next(
                 (i for i, (a, b) in enumerate(zip(report, dump)) if a != b),
                 None)))
print("ranking: %d candidates identical" % len(dump))
PY
    echo "FAIL: the one-shot CLI and the server rank the spec differently" >&2
    exit 1
}
echo "PASS: crash recovery is bit-identical and resumed; the CLI agrees"
