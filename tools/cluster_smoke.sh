#!/usr/bin/env bash
# Kill-a-node smoke for the distributed expert pool (docs/CLUSTER.md).
#
# Two real `poectl cluster serve` processes share one pool at
# replication=1, so every composite query needs a cross-process expert
# fetch. Each node has one port: clients, peers and the admin commands
# all reach it there. The script then walks the whole lifecycle:
#
#   1. SIGKILL node 1 before node 0 ever fetched from it, and drive load
#      at node 0: every request must RESOLVE inside the status whitelist
#      {OK, Unavailable, DeadlineExceeded, ResourceExhausted} — a hang or
#      a foreign status fails `poectl net-load`.
#   2. Gossip failure detection marks the dead node OFFLINE (epoch bump).
#   3. A restarted node 1 reintegrates through self-defense gossip
#      (OFFLINE -> REINTEGRATING -> ONLINE) with no operator help.
#   4. A clean load across the healed pool serves with zero failures.
#   5. `cluster drain` / `cluster join` drive the admin transitions.
#   6. SIGTERM both; the shutdown counters must reconcile.
#
# Usage: tools/cluster_smoke.sh [build-dir]   (default: build)
set -euo pipefail

BIN="${1:-build}"
WORK="$(mktemp -d)"
PIDS=""
cleanup() {
  # shellcheck disable=SC2086
  [ -n "$PIDS" ] && kill $PIDS 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

POOL="$WORK/pool.poe"
ALLOW='unavailable,deadline_exceeded,resource_exhausted'
# Ports below the kernel's ephemeral range (32768-60999 on Linux by
# default), so an outgoing connection's local port can never take one
# between picking it and binding it.
BASE=$((10000 + RANDOM % 19999))
P0=$BASE; P1=$((BASE + 1))
NODES="0:$P0,1:$P1"

"$BIN/poectl" build "$POOL" 3 2 2 > /dev/null

serve_node() { # id logfile -> sets SERVE_PID
  "$BIN/poectl" cluster serve "$POOL" --id="$1" --nodes="$NODES" \
    --replication=1 --gossip-ms=100 > "$2" 2>&1 &
  SERVE_PID=$!
  PIDS="$PIDS $SERVE_PID"
}

wait_for() { # pattern file
  for _ in $(seq 1 100); do
    grep -Eq "$1" "$2" 2>/dev/null && return 0
    sleep 0.1
  done
  echo "timeout waiting for '$1' in $2" >&2
  cat "$2" >&2
  return 1
}

wait_for_state() { # node_id state
  for _ in $(seq 1 100); do
    "$BIN/poectl" cluster status "$P0" > "$WORK/status.log" 2>&1 || true
    grep -Eq "node $1 [^,}]+ $2" "$WORK/status.log" && return 0
    sleep 0.1
  done
  echo "timeout waiting for node $1 to be $2" >&2
  cat "$WORK/status.log" >&2
  return 1
}

echo "== start 2 nodes (replication=1: every composite needs a peer fetch)"
serve_node 0 "$WORK/node0.log"; N0=$SERVE_PID
serve_node 1 "$WORK/node1.log"; N1=$SERVE_PID
wait_for 'cluster node 0' "$WORK/node0.log"
wait_for 'cluster node 1' "$WORK/node1.log"
"$BIN/poectl" cluster status "$P0"

echo "== SIGKILL node 1 before node 0 ever fetched from it"
"$BIN/poectl" cluster kill "$N1"
wait "$N1" 2> /dev/null || true

echo "== load at node 0: every future must resolve inside the whitelist"
"$BIN/poectl" net-load "127.0.0.1:$P0" --seconds=1.0 --allow="$ALLOW" \
  | tee "$WORK/killload.log"
grep -q 'net-load ok:' "$WORK/killload.log"

echo "== gossip failure detection marks the dead node OFFLINE"
wait_for_state 1 OFFLINE
cat "$WORK/status.log"

echo "== restart node 1: self-defense gossip reintegrates it"
serve_node 1 "$WORK/node1b.log"; N1=$SERVE_PID
wait_for 'cluster node 1' "$WORK/node1b.log"
wait_for_state 1 ONLINE
cat "$WORK/status.log"

echo "== clean load across the healed pool: zero failures tolerated"
"$BIN/poectl" net-load "127.0.0.1:$P0" --seconds=1.0 | tee "$WORK/cleanload.log"
grep -q 'net-load ok:' "$WORK/cleanload.log"

echo "== admin transitions: drain, then join back"
"$BIN/poectl" cluster drain "$P0" 1
wait_for_state 1 DRAINING
"$BIN/poectl" cluster join "$P0" 1
wait_for_state 1 ONLINE

echo "== SIGTERM both: shutdown counters must reconcile"
kill -TERM "$N0" "$N1"
wait "$N0" 2> /dev/null || true
wait "$N1" 2> /dev/null || true
PIDS=""
cat "$WORK/node0.log" "$WORK/node1b.log"
grep -Eq 'cluster shutdown node 0: [0-9]+ submitted = ' "$WORK/node0.log"
grep -Eq 'cluster fetches node 0: [0-9]+ requests = ' "$WORK/node0.log"
grep -Eq 'cluster membership node 0: epoch [0-9]+' "$WORK/node0.log"
grep -Eq 'cluster shutdown node 1: [0-9]+ submitted = ' "$WORK/node1b.log"
echo "cluster smoke OK"
