#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the network serving layer:
# generate a dataset dump, start `pmlsh serve`, wait for readiness,
# exercise every serving concern (search, mutation, compaction, info,
# metrics), run a short burst of pmlshload traffic with the recall
# oracle, then SIGTERM the server and verify it drains cleanly and
# writes a loadable final checkpoint.
#
# Usage: scripts/serve_smoke.sh [workdir]
#   RATE     pmlshload arrival rate        (default: 80/s)
#   DURATION pmlshload run length          (default: 5s)
set -euo pipefail
cd "$(dirname "$0")/.."

work="${1:-$(mktemp -d)}"
rate="${RATE:-80}"
duration="${DURATION:-5s}"
addr="127.0.0.1:18931"
base="http://$addr"

cleanup() {
  [[ -n "${server_pid:-}" ]] && kill "$server_pid" 2>/dev/null || true
}
trap cleanup EXIT

go build -o "$work/pmlsh" ./cmd/pmlsh
go build -o "$work/pmlshload" ./cmd/pmlshload
go run ./cmd/datagen -dataset Audio -maxn 2000 -out "$work/data.f64" >/dev/null

"$work/pmlsh" serve -data "$work/data.f64" -shards 4 -addr "$addr" \
  -save "$work/final.pmlsh" 2>"$work/serve.log" &
server_pid=$!

for _ in $(seq 1 100); do
  curl -sf "$base/readyz" >/dev/null 2>&1 && break
  kill -0 "$server_pid" 2>/dev/null || { echo "server died:"; cat "$work/serve.log"; exit 1; }
  sleep 0.2
done
curl -sf "$base/readyz" | grep -q ready

echo "== info"
curl -sf "$base/v1/info"; echo
dim=$(curl -sf "$base/v1/info" | sed 's/.*"dim":\([0-9]*\).*/\1/')

# One of each request family, built from a real query vector.
q=$(python3 -c "print('[' + ','.join(['0.01']*$dim) + ']')" 2>/dev/null \
  || awk -v d="$dim" 'BEGIN{s="[";for(i=0;i<d;i++)s=s (i?",":"") "0.01";print s "]"}')
echo "== search";  curl -sf "$base/v1/search" -d "{\"q\":$q,\"k\":3}" | head -c 200; echo
echo "== insert";  id=$(curl -sf "$base/v1/insert" -d "{\"p\":$q}" | sed 's/[^0-9]*//g'); echo "id=$id"
echo "== delete";  curl -sf "$base/v1/delete" -d "{\"id\":$id}"; echo
echo "== compact"; curl -sf -X POST "$base/v1/compact"; echo
echo "== bad request is 400, not 5xx"
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/search" -d '{"q":[1],"k":3}')
[[ "$code" == 400 ]] || { echo "expected 400, got $code"; exit 1; }

echo "== load burst ($rate/s for $duration)"
"$work/pmlshload" -url "$base" -data "$work/data.f64" \
  -rate "$rate" -duration "$duration" -read 0.85 -compact-every 2s

echo "== metrics account for traffic"
curl -sf "$base/metrics" | grep -E 'pmlsh_http_requests_total\{route="/v1/search"' | head -3
# not grep -q: it exits at the match, and curl then fails the pipeline
# writing the rest of a page longer than one pipe write
curl -sf "$base/metrics" | grep 'pmlsh_index_live_points' >/dev/null

echo "== graceful drain"
kill -TERM "$server_pid"
wait "$server_pid"
server_pid=""
grep -q "drain started" "$work/serve.log"
grep -q "checkpoint written" "$work/serve.log"
"$work/pmlsh" info -index "$work/final.pmlsh"

echo "serve smoke OK ($work)"
