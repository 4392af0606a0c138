#!/usr/bin/env bash
# fleet_smoke.sh: boot a 2-shard gpuschedd fleet behind a gpurouter, drive
# it with loadgen, and assert the fleet deduplicated (nonzero dedup hit
# rate, zero request errors). This is the end-to-end check that the
# consistent-hash routing, the peer-cache protocol, and the shard
# simulate endpoint actually compose — `make fleet-smoke` and CI run it.
set -euo pipefail

BIN=$(mktemp -d)
CACHE=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null; wait 2>/dev/null; rm -rf "$BIN" "$CACHE"' EXIT

go build -o "$BIN/gpuschedd" ./cmd/gpuschedd
go build -o "$BIN/gpurouter" ./cmd/gpurouter
go build -o "$BIN/loadgen" ./cmd/loadgen

ADDR_A=127.0.0.1:8191
ADDR_B=127.0.0.1:8192
ADDR_R=127.0.0.1:8190

# Each shard gets its own cache dir and the other shard as a cache peer,
# so results migrate instead of resimulating if placement ever shifts.
"$BIN/gpuschedd" -addr "$ADDR_A" -cache "$CACHE/a" -peers "http://$ADDR_B" &
"$BIN/gpuschedd" -addr "$ADDR_B" -cache "$CACHE/b" -peers "http://$ADDR_A" &

for addr in "$ADDR_A" "$ADDR_B"; do
  for _ in $(seq 1 50); do
    curl -sf "http://$addr/readyz" >/dev/null && break
    sleep 0.2
  done
  curl -sf "http://$addr/readyz" >/dev/null || { echo "shard $addr never became ready" >&2; exit 1; }
done

"$BIN/gpurouter" -addr "$ADDR_R" \
  -shards "a=http://$ADDR_A,b=http://$ADDR_B" -probe-interval 250ms &
for _ in $(seq 1 50); do
  curl -sf "http://$ADDR_R/readyz" >/dev/null && break
  sleep 0.2
done
curl -sf "http://$ADDR_R/readyz" >/dev/null || { echo "router never became ready" >&2; exit 1; }

# 120 requests over 16 unique keys: at least 104 must be answered from a
# cache somewhere in the fleet. -min-dedup fails the run if the measured
# rate (delta of the fleet sim counters) comes in below 0.5, and any
# request error is fatal inside loadgen itself.
"$BIN/loadgen" -target "http://$ADDR_R" \
  -requests 120 -unique 16 -concurrency 8 -scale tiny -min-dedup 0.5

echo "fleet smoke OK"
