#!/usr/bin/env bash
# 30-second soak of the `ofence serve` daemon: four concurrent clients
# issue a continuous mix of analyze / explain / status requests while an
# editor keeps rewriting corpus files (atomic replace, like a save in an
# IDE). Gates, in order:
#
#   1. zero error responses over the whole soak (`serve_errors` == 0 and
#      every client saw only ok:true),
#   2. request coalescing actually exercised (`serve_coalesced` > 0),
#   3. every soak response carries a non-empty `request_id`,
#   4. `/metrics` publishes a per-method p99 quantile after the soak,
#   5. `/debug/requests` retains at least one captured trace whose span
#      tree is balanced (node count == span_count),
#   6. the disk cache survives: a fresh single-shot run over the soaked
#      cache dir reloads the shards instead of discarding them,
#   7. the daemon (run with `--missing`) keeps its missing-barrier reader
#      summaries: once the edits stop, an `analyze` request builds none
#      (`missing_reader_files_built` == 0) yet still matches readers.
#
# Environment: OFENCE (binary path), SOAK_SECONDS (default 30).
set -euo pipefail

BIN=${OFENCE:-./target/release/ofence}
DURATION=${SOAK_SECONDS:-30}
WORK=$(mktemp -d)
SERVE=""
cleanup() {
  [ -n "$SERVE" ] && kill "$SERVE" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

"$BIN" gen --out "$WORK/corpus" --files 20 --seed 17 --bugs

"$BIN" serve "$WORK/corpus" --addr 127.0.0.1:0 --metrics 127.0.0.1:0 --missing \
  --cache-dir "$WORK/cache" --history-dir "$WORK/history" \
  > "$WORK/serve.log" 2>&1 &
SERVE=$!

ADDR=""
for _ in $(seq 50); do
  ADDR=$(sed -n 's|^serve: listening on ||p' "$WORK/serve.log" | head -1)
  [ -n "$ADDR" ] && break
  sleep 0.2
done
test -n "$ADDR" || { echo "daemon never bound" >&2; cat "$WORK/serve.log"; exit 1; }
METRICS_ADDR=$(sed -n 's|^serve: serving /metrics and /health on http://||p' "$WORK/serve.log" | head -1)
test -n "$METRICS_ADDR" || { echo "daemon never bound its metrics endpoint" >&2; cat "$WORK/serve.log"; exit 1; }

python3 - "$ADDR" "$WORK/corpus" "$DURATION" "$METRICS_ADDR" <<'EOF'
import json, os, socket, sys, threading, time
import urllib.request

addr, corpus_dir, duration = sys.argv[1], sys.argv[2], float(sys.argv[3])
metrics_addr = sys.argv[4]
host, port = addr.rsplit(":", 1)
deadline = time.monotonic() + duration
errors = []
missing_request_ids = []

def connect():
    sock = socket.create_connection((host, int(port)), timeout=120)
    return sock, sock.makefile("rwb")

def call(io, request):
    io.write((json.dumps(request) + "\n").encode())
    io.flush()
    line = io.readline()
    assert line, "daemon closed the connection"
    return json.loads(line)

# One warmup analyze to find a real barrier site for the explain mix.
sock, io = connect()
doc = call(io, {"id": "warm", "method": "analyze"})
assert doc["ok"], doc
site = doc["result"]["sites"][0]["site"]
target = {"file": site["file_name"], "line": site["line"]}
sock.close()

def client(n):
    sock, io = connect()
    requests = [
        {"id": 0, "method": "analyze"},
        {"id": 0, "method": "explain", "params": target},
        {"id": 0, "method": "status"},
    ]
    i = 0
    while time.monotonic() < deadline:
        req = dict(requests[(n + i) % len(requests)])
        req["id"] = f"c{n}-{i}"
        resp = call(io, req)
        if not resp.get("ok"):
            errors.append(resp)
        if not resp.get("request_id"):
            missing_request_ids.append(resp)
        i += 1
    sock.close()

def editor():
    files = sorted(
        os.path.join(dirpath, f)
        for dirpath, _, names in os.walk(corpus_dir)
        for f in names if f.endswith(".c")
    )
    i = 0
    while time.monotonic() < deadline:
        path = files[i % len(files)]
        with open(path) as f:
            content = f.read()
        content += f"\nint soak_edit_{i}(void) {{ return {i}; }}\n"
        tmp = path + ".tmp-swap"
        with open(tmp, "w") as f:
            f.write(content)
        os.replace(tmp, path)
        i += 1
        time.sleep(0.3)

threads = [threading.Thread(target=client, args=(n,)) for n in range(4)]
threads.append(threading.Thread(target=editor))
for t in threads:
    t.start()
for t in threads:
    t.join()

def http_get(path):
    with urllib.request.urlopen(f"http://{metrics_addr}{path}", timeout=30) as r:
        return r.read().decode()

def tree_nodes(nodes):
    return sum(1 + tree_nodes(n.get("children", [])) for n in nodes)

# Gate 4: the post-soak scrape publishes a per-method p99.
metrics = http_get("/metrics")
assert 'quantile="0.99"' in metrics and 'method="analyze"' in metrics, (
    "no per-method p99 in /metrics:\n" + metrics
)

# Gate 5: at least one captured trace reconstructs into a balanced tree.
listing = json.loads(http_get("/debug/requests"))
summaries = listing["recent"] + listing["slowest"]
assert summaries, "no captured traces in /debug/requests"
balanced = 0
for summary in summaries:
    trace = json.loads(http_get(f"/debug/trace/{summary['request_id']}"))
    if tree_nodes(trace["spans"]) == trace["span_count"]:
        balanced += 1
assert balanced >= 1, f"no balanced trace among {len(summaries)} captured"

sock, io = connect()
status = call(io, {"id": "final", "method": "status"})["result"]
counters = status["counters"]
# Gate 7: the first request absorbs the editor's last save; the next one,
# over an unchanged corpus, must reuse every reader summary.
call(io, {"id": "settle", "method": "analyze"})
reuse = call(io, {"id": "reuse", "method": "analyze"})
assert reuse["ok"], reuse
reuse_counters = reuse["result"]["observability"]["counters"]
assert reuse_counters["missing_reader_files_built"] == 0, reuse_counters
assert reuse_counters["missing_readers_summarized"] > 0, reuse_counters
call(io, {"id": "bye", "method": "shutdown"})
sock.close()

assert not errors, f"{len(errors)} error responses, first: {errors[0]}"
assert counters["serve_errors"] == 0, counters
assert counters["serve_coalesced"] > 0, f"soak never coalesced: {counters}"
assert counters["serve_runs"] > 0, counters
# Gate 3: request ids everywhere.
assert not missing_request_ids, (
    f"{len(missing_request_ids)} responses without a request_id, "
    f"first: {missing_request_ids[0]}"
)
print(
    f"soak OK: {counters['serve_requests']} requests, "
    f"{counters['serve_runs']} runs, "
    f"{counters['serve_coalesced']} coalesced, 0 errors, "
    f"{balanced} balanced traces, "
    f"{reuse_counters['missing_readers_summarized']} reader summaries reused"
)
EOF

wait "$SERVE"
SERVE=""

# Gate 6: the soaked cache dir must reload cleanly under the daemon's
# configuration (`--missing` is part of the cache's config fingerprint).
# `cache_discarded` is only emitted when shards fail validation, so its
# absence is the pass.
"$BIN" analyze "$WORK/corpus" --missing --cache-dir "$WORK/cache" --no-history \
  --fail-on none --metrics-out "$WORK/verify-metrics.txt" > /dev/null
if grep -q "ofence_cache_discarded_total" "$WORK/verify-metrics.txt"; then
  echo "cache shards were discarded after the soak" >&2
  exit 1
fi
grep -q "ofence_cache_loads_total" "$WORK/verify-metrics.txt"
echo "serve soak gate OK"
