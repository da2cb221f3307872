#!/usr/bin/env bash
# Serve observability gate: proves each request is explained by its one
# qlog record and that the observability costs ~nothing:
#  - two-way differential over an 8-client soak with qlog + traces on,
#    responses vs qlog: every response carries a unique server request
#    id; the qlog has exactly one record per query request, with
#    monotonic stage timestamps, and its id set equals the responses';
#    kept tail traces are named by request id;
#  - `mio top --once` renders a live stats snapshot; `mio qlog report`
#    shows the server queue-wait/execute/e2e split;
#  - the OpenMetrics scrape declares the server latency histograms
#    (validate_openmetrics.py --require);
#  - SIGTERM mid-burst with forced refusals: every response has exactly
#    one record and its outcome (a refused record for an Overloaded
#    response, with a retry hint and no enqueued stage), and the server
#    log carries the drain begin/end markers exactly once each;
#  - overhead A/B: a qlog-only server run vs the full observability
#    stack (traces + metrics) on the canonical 30-query workload, gated
#    by compare_bench.py.
# Usage: scripts/check_obs_serve.sh [build-dir]
#   build-dir  reused if it already contains tools/mio, else configured
#              and built (default build-obs-serve)
# Environment:
#   MIO_OBS_SERVE_OVERHEAD_THRESHOLD  compare_bench.py threshold for the
#                                     observability A/B (default 0.5;
#                                     loose because quick-scale queries
#                                     on a shared core are noisy)
set -eu

BUILD=${1:-build-obs-serve}
SRC=$(cd "$(dirname "$0")/.." && pwd)
JOBS=$(nproc 2>/dev/null || echo 2)
OVERHEAD_THRESHOLD=${MIO_OBS_SERVE_OVERHEAD_THRESHOLD:-0.5}

if [ ! -x "$BUILD/tools/mio" ]; then
  echo "== build: mio CLI ($BUILD) =="
  cmake -B "$BUILD" -S "$SRC" -DCMAKE_BUILD_TYPE=Release \
    -DMIO_BUILD_BENCHMARKS=OFF -DMIO_BUILD_EXAMPLES=OFF \
    -DMIO_BUILD_TESTS=OFF \
    > "$BUILD.cmake.log" 2>&1 || { cat "$BUILD.cmake.log"; exit 1; }
  cmake --build "$BUILD" --target mio_cli -j "$JOBS" \
    > "$BUILD.build.log" 2>&1 || { tail -50 "$BUILD.build.log"; exit 1; }
fi
CLI=$BUILD/tools/mio

WORK=$(mktemp -d)
SERVER_PID=
cleanup() {
  if [ -n "$SERVER_PID" ]; then kill -9 "$SERVER_PID" 2> /dev/null || true; fi
  rm -rf "$WORK"
}
trap cleanup EXIT

"$CLI" generate --preset=bird2 --scale=quick --seed=11 \
  --out="$WORK/data.bin" > /dev/null

# Raw-protocol soak client: N threads, each sending its queries on fresh
# connections with distinct correlation ids, recording every response
# line verbatim. Transport failures (raced the drain) are tolerated —
# the differential only reasons about responses that made it back.
cat > "$WORK/soak.py" <<'PYEOF'
import json
import socket
import sys
import threading

sock_path, out_path = sys.argv[1], sys.argv[2]
n_clients, n_queries = int(sys.argv[3]), int(sys.argv[4])
lock = threading.Lock()
responses = []


def run(c):
    for i in range(n_queries):
        req = {"schema": "mio-serve-v1", "id": f"c{c}-q{i}", "op": "query",
               "r": 3.0 + (i % 3) * 1.5, "k": 2, "threads": 1,
               "no_coalesce": i % 4 == 0}
        try:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.settimeout(30)
            s.connect(sock_path)
            s.sendall((json.dumps(req) + "\n").encode())
            buf = b""
            while b"\n" not in buf:
                chunk = s.recv(4096)
                if not chunk:
                    break
                buf += chunk
            s.close()
        except OSError:
            continue
        line = buf.split(b"\n", 1)[0].decode()
        if line:
            with lock:
                responses.append(json.loads(line))


threads = [threading.Thread(target=run, args=(c,)) for c in range(n_clients)]
for t in threads:
    t.start()
for t in threads:
    t.join()
with open(out_path, "w") as f:
    for doc in responses:
        f.write(json.dumps(doc) + "\n")
print(f"soak: {len(responses)} responses")
PYEOF

# Two-way differential validator: responses vs qlog, plus the server
# log for the drain markers.
#   validate_obs.py RESPONSES QLOG SERVER_LOG EXPECTED
# EXPECTED > 0 additionally requires that many responses, none refused,
# and a qlog holding exactly the responded requests (the clean-soak
# case); 0 skips that (the drain case, where transport races and
# refusals are legitimate).
cat > "$WORK/validate_obs.py" <<'PYEOF'
import json
import sys

resp_path, qlog_path, log_path, expected = (
    sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]))
fails = 0


def fail(msg):
    global fails
    print(f"FAILED: {msg}", file=sys.stderr)
    fails += 1


def load_jsonl(path):
    docs = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                docs.append(json.loads(line))
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: not JSON: {e}")
    return docs


responses = load_jsonl(resp_path)
qlog = load_jsonl(qlog_path)

ROLES = {"solo", "leader", "follower", "cached", "refused"}
STAGE_ORDER = ["accepted", "enqueued", "dequeued", "executed", "responded"]

# --- qlog: one record per query request, monotonic stages -------------------
records = {}  # request_id -> record
for rec in qlog:
    if rec.get("schema") != "mio-qlog-v1":
        fail(f"qlog schema {rec.get('schema')!r}")
    server = rec.get("server")
    if not server:
        fail(f"qlog record without a server section: {rec}")
        continue
    rid = server.get("request_id", "")
    if not rid:
        fail(f"qlog record without a request_id: {rec}")
        continue
    if rid in records:
        fail(f"{rid}: two qlog records (want exactly one per request)")
    records[rid] = rec
    role = server.get("role")
    if role not in ROLES:
        fail(f"{rid}: bad role {role!r}")
    if server.get("queue_wait_seconds", 0) < 0:
        fail(f"{rid}: negative queue wait")
    stages = server.get("stages", {})
    for s in ("accepted", "responded"):
        if s not in stages:
            fail(f"{rid}: no {s} stage")
    stamped = [stages[s] for s in STAGE_ORDER if s in stages]
    if any(b < a for a, b in zip(stamped, stamped[1:])):
        fail(f"{rid}: non-monotonic stages {stages}")
    if role == "refused":
        if "enqueued" in stages:
            fail(f"{rid}: refusal has an enqueued stage")
        if rec.get("outcome", {}).get("status") != "Overloaded":
            fail(f"{rid}: refused record is not Overloaded")
        if not server.get("retry_after_ms", 0) > 0:
            fail(f"{rid}: refusal without retry hint")
    elif not server.get("e2e_seconds", 0) > 0:
        fail(f"{rid}: non-positive e2e")

# --- responses: unique ids, each matched by its one record -------------------
seen_ids = set()
refused = 0
for res in responses:
    rid = res.get("request_id", "")
    if not rid:
        fail(f"response without request_id: {res}")
        continue
    if rid in seen_ids:
        fail(f"duplicate request_id across responses: {rid}")
    seen_ids.add(rid)
    rec = records.get(rid)
    if rec is None:
        fail(f"{rid}: response status {res.get('status')!r} has no qlog "
             f"record")
        continue
    is_refusal = res.get("status") == "Overloaded"
    refused += is_refusal
    if is_refusal != (rec["server"].get("role") == "refused"):
        fail(f"{rid}: response status {res.get('status')!r} vs record role "
             f"{rec['server'].get('role')!r}")
    if rec["outcome"].get("status") != res.get("status"):
        fail(f"{rid}: status mismatch (qlog "
             f"{rec['outcome'].get('status')!r}, response "
             f"{res.get('status')!r})")
    if rec["server"].get("correlation_id", "") != res.get("id", ""):
        fail(f"{rid}: correlation id mismatch "
             f"(qlog {rec['server'].get('correlation_id')!r}, "
             f"response {res.get('id')!r})")

# --- server log: each drain marker exactly once ------------------------------
with open(log_path) as f:
    log = f.read().splitlines()
begin = sum(line.startswith("serve: drain begin") for line in log)
end = sum(line.startswith("serve: drained") for line in log)
if begin != 1 or end != 1:
    fail(f"drain markers begin={begin} end={end} (want 1/1)")

if expected > 0:
    if len(responses) != expected:
        fail(f"{len(responses)} responses (want {expected})")
    if set(records) != seen_ids:
        fail(f"qlog ids != response ids "
             f"(qlog-only {sorted(set(records) - seen_ids)[:5]}, "
             f"response-only {sorted(seen_ids - set(records))[:5]})")
    if refused:
        fail(f"{refused} unexpected refusals in a clean soak")

if fails:
    sys.exit(1)
print(f"differential: {len(responses)} responses ({refused} refused), "
      f"{len(records)} qlog records — consistent")
PYEOF

# start_server SOCKET FAULTSPEC [serve args...]; sets SERVER_PID and
# waits for the socket to appear.
start_server() {
  local sock=$1 fault=$2
  shift 2
  rm -f "$sock"
  if [ -n "$fault" ]; then
    MIO_FAULT="$fault" MIO_FAULT_SEED=13 \
      "$CLI" serve --in="$WORK/data.bin" --socket="$sock" "$@" \
      > "$sock.log" 2>&1 &
  else
    "$CLI" serve --in="$WORK/data.bin" --socket="$sock" "$@" \
      > "$sock.log" 2>&1 &
  fi
  SERVER_PID=$!
  local tries=0
  while [ ! -S "$sock" ]; do
    sleep 0.05
    tries=$((tries + 1))
    if [ "$tries" -gt 200 ] || ! kill -0 "$SERVER_PID" 2> /dev/null; then
      echo "FAILED: server never bound $sock" >&2
      cat "$sock.log" >&2
      exit 1
    fi
  done
}

# stop_server SOCKET "rc rc..." — SIGTERM, wait, require one of the
# allowed exit codes.
stop_server() {
  local sock=$1 allowed=$2 rc ok=0 a
  kill -TERM "$SERVER_PID" 2> /dev/null || true
  set +e
  wait "$SERVER_PID"
  rc=$?
  set -e
  SERVER_PID=
  for a in $allowed; do [ "$rc" -eq "$a" ] && ok=1; done
  if [ "$ok" -ne 1 ]; then
    echo "FAILED: server exit rc=$rc (want one of: $allowed)" >&2
    cat "$sock.log" >&2
    exit 1
  fi
}

# --- 1. Clean 8-client soak: full observability + differential --------------
echo "== soak: 8 clients x 6 queries, qlog+traces on =="
mkdir -p "$WORK/traces"
start_server "$WORK/mio.sock" "" --workers=2 --max-queue=16 --cache=8 \
  --qlog="$WORK/serve.jsonl" \
  --trace-dir="$WORK/traces" --tail-slowest=3 \
  --metrics-out="$WORK/serve.prom" --telemetry-interval-ms=100
python3 "$WORK/soak.py" "$WORK/mio.sock" "$WORK/responses.jsonl" 8 6

echo "== mio top --once against the live server =="
"$CLI" top --connect="$WORK/mio.sock" --once > "$WORK/top.out"
grep -q 'mio serve' "$WORK/top.out" \
  || { echo "FAILED: top missing header" >&2; cat "$WORK/top.out"; exit 1; }
grep -q 'end-to-end' "$WORK/top.out" \
  || { echo "FAILED: top missing latency lines" >&2; exit 1; }
grep -q '^client' "$WORK/top.out" \
  || { echo "FAILED: top missing per-client table" >&2; exit 1; }

stop_server "$WORK/mio.sock" "0"

echo "== differential: responses vs qlog =="
python3 "$WORK/validate_obs.py" "$WORK/responses.jsonl" \
  "$WORK/serve.jsonl" "$WORK/mio.sock.log" 48

echo "== qlog report shows the server split =="
"$CLI" qlog report --in="$WORK/serve.jsonl" > "$WORK/report.out"
grep -q 'server: 48 requests' "$WORK/report.out" \
  || { echo "FAILED: report missing server split" >&2
       cat "$WORK/report.out" >&2; exit 1; }
grep -q 'queue wait' "$WORK/report.out" \
  || { echo "FAILED: report missing queue-wait line" >&2; exit 1; }

echo "== tail traces named by request id =="
find "$WORK/traces" -name 'r[0-9][0-9][0-9][0-9][0-9][0-9].trace.json' \
  | grep -q . \
  || { echo "FAILED: no request-id-named tail traces kept" >&2
       ls "$WORK/traces" >&2; exit 1; }

echo "== OpenMetrics scrape declares the server histograms =="
python3 "$SRC/scripts/validate_openmetrics.py" \
  --require=mio_server_queue_wait_us,mio_server_e2e_us \
  "$WORK/serve.prom"

# --- 2. SIGTERM mid-burst with forced refusals ------------------------------
echo "== drain accounting: refusal storm + SIGTERM mid-burst =="
start_server "$WORK/drain.sock" 'server.enqueue:p=0.5' \
  --workers=1 --max-queue=2 --qlog="$WORK/drain.jsonl"
python3 "$WORK/soak.py" "$WORK/drain.sock" "$WORK/drain-responses.jsonl" \
  8 6 > "$WORK/drain-soak.out" &
SOAK_PID=$!
sleep 0.3 # let the burst get in flight before the signal lands
kill -TERM "$SERVER_PID" 2> /dev/null || true
wait "$SOAK_PID" \
  || { echo "FAILED: drain soak client crashed" >&2; exit 1; }
set +e
wait "$SERVER_PID"
RC=$?
set -e
SERVER_PID=
if [ "$RC" -ne 0 ] && [ "$RC" -ne 9 ]; then
  echo "FAILED: drained server exit rc=$RC (want 0 clean or 9 forced)" >&2
  cat "$WORK/drain.sock.log" >&2
  exit 1
fi
python3 "$WORK/validate_obs.py" "$WORK/drain-responses.jsonl" \
  "$WORK/drain.jsonl" "$WORK/drain.sock.log" 0

# --- 3. Observability overhead within noise ---------------------------------
echo "== observability overhead A/B (threshold $OVERHEAD_THRESHOLD) =="
cat > "$WORK/canonical.spec" <<'SPEC'
name bench-canonical
defaults k=1 threads=1 labels=off
repeat 30 r=3,4.5,9
SPEC
# A: qlog only (the comparison needs per-query records on both sides);
# cache off so every request is a real execution with an engine wall.
start_server "$WORK/ab.sock" "" --workers=2 --cache=0 \
  --qlog="$WORK/ab-base.jsonl"
"$CLI" run-workload --spec="$WORK/canonical.spec" \
  --connect="$WORK/ab.sock" > /dev/null
stop_server "$WORK/ab.sock" "0"
# B: the full stack — tail traces, live metrics.
mkdir -p "$WORK/ab-traces"
start_server "$WORK/ab.sock" "" --workers=2 --cache=0 \
  --qlog="$WORK/ab-full.jsonl" \
  --trace-dir="$WORK/ab-traces" --tail-slowest=3 \
  --metrics-out="$WORK/ab.prom" --telemetry-interval-ms=100
"$CLI" run-workload --spec="$WORK/canonical.spec" \
  --connect="$WORK/ab.sock" > /dev/null
stop_server "$WORK/ab.sock" "0"
python3 "$SRC/scripts/compare_bench.py" "$WORK/ab-base.jsonl" \
  "$WORK/ab-full.jsonl" --threshold="$OVERHEAD_THRESHOLD"

echo "check_obs_serve: all passes clean"
