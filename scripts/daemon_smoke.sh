#!/usr/bin/env bash
# daemon_smoke.sh: boot gpuschedd, run one workload over HTTP, check the
# metrics count that simulation, then send SIGTERM and assert the daemon
# drains cleanly. `make ci` and CI run it.
set -euo pipefail

BIN=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; wait; rm -rf "$BIN"' EXIT

go build -o "$BIN/gpuschedd" ./cmd/gpuschedd
"$BIN/gpuschedd" -addr 127.0.0.1:8099 -cache off > "$BIN/gpuschedd.log" &
PID=$!
for _ in $(seq 1 50); do
  curl -sf http://127.0.0.1:8099/readyz >/dev/null && break
  sleep 0.2
done
curl -sf http://127.0.0.1:8099/v1/simulate \
  -d '{"workloads":["vadd"],"sched":"lcs","scale":"tiny","cores":4}' \
  | jq -e '.outcome.Result.Cycles > 0'
curl -sf http://127.0.0.1:8099/metrics | grep -q '^gpuschedd_sim_simulated_total 1$'
kill -TERM "$PID"
wait "$PID"
grep -q 'drained cleanly' "$BIN/gpuschedd.log"
echo "daemon smoke OK"
