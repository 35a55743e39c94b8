#!/usr/bin/env bash
# metric_smoke.sh — end-to-end smoke of the multi-metric engine:
#
#   - examples/textdedup: shingled documents → Jaccard SearchPairs,
#     asserts ≥ 95% of planted near-duplicate pairs are recovered,
#   - `pmlsh build -metric cosine` → PLS6 index file, `pmlsh info`
#     reports the metric, serve it and check /v1/info + the
#     pmlsh_index_metric gauge on /metrics,
#   - pmlshload against the cosine server: the recall oracle
#     auto-detects the server metric and scores against native cosine
#     brute force,
#   - `pmlsh build -metric ip` round-trips through info as a
#     serialization sanity check for the MIP envelope.
#
# Usage: scripts/metric_smoke.sh [workdir]
#   RATE     pmlshload arrival rate  (default: 60/s)
#   DURATION pmlshload run length    (default: 4s)
set -euo pipefail
cd "$(dirname "$0")/.."

work="${1:-$(mktemp -d)}"
rate="${RATE:-60}"
duration="${DURATION:-4s}"
addr="127.0.0.1:18933"
base="http://$addr"

cleanup() {
  [[ -n "${server_pid:-}" ]] && kill "$server_pid" 2>/dev/null || true
}
trap cleanup EXIT

echo "== jaccard: text near-duplicate detection (examples/textdedup)"
go run ./examples/textdedup

go build -o "$work/pmlsh" ./cmd/pmlsh
go build -o "$work/pmlshload" ./cmd/pmlshload
go run ./cmd/datagen -dataset Audio -maxn 2000 -out "$work/data.f64" >/dev/null

echo "== cosine: build persists the metric"
"$work/pmlsh" build -data "$work/data.f64" -index "$work/cosine.pmlsh" \
  -metric cosine -shards 4
"$work/pmlsh" info -index "$work/cosine.pmlsh" | tee "$work/info.txt"
grep -q "metric:     cosine" "$work/info.txt"

echo "== cosine: serve the loaded index"
"$work/pmlsh" serve -load "$work/cosine.pmlsh" -addr "$addr" 2>"$work/serve.log" &
server_pid=$!
for _ in $(seq 1 100); do
  curl -sf "$base/readyz" >/dev/null 2>&1 && break
  kill -0 "$server_pid" 2>/dev/null || { echo "server died:"; cat "$work/serve.log"; exit 1; }
  sleep 0.2
done

curl -sf "$base/v1/info" | grep -q '"metric":"cosine"'
curl -sf "$base/metrics" | grep 'pmlsh_index_metric'
curl -sf "$base/metrics" | grep 'pmlsh_index_metric{metric="cosine"} 1' >/dev/null # not -q: see serve_smoke.sh

echo "== cosine: metric-matched recall oracle ($rate/s for $duration)"
"$work/pmlshload" -url "$base" -data "$work/data.f64" \
  -rate "$rate" -duration "$duration" -read 0.85 | tee "$work/load.txt"
grep -q "server metric: cosine" "$work/load.txt"

kill -TERM "$server_pid"
wait "$server_pid"
server_pid=""

echo "== inner product: PLS6 envelope round-trips through build/info"
"$work/pmlsh" build -data "$work/data.f64" -index "$work/mip.pmlsh" -metric ip
"$work/pmlsh" info -index "$work/mip.pmlsh" | grep -q "metric:     ip"

echo "metric smoke OK ($work)"
