#!/usr/bin/env bash
# Serving-path smoke check: factorize → serve the checkpoint → export →
# serve → scripted query session → oracle agreement → graceful drain, all
# through the real CLI on a real TCP socket. The oracle-check step is the agreement gate: a
# seeded query sweep answered by the live server must match the oracle's
# cell-by-cell CP reconstruction bit for bit.
#
# Usage: scripts/serve_smoke.sh [work-dir]   (default: target/serve_smoke)
set -euo pipefail
cd "$(dirname "$0")/.."

dir="${1:-target/serve_smoke}"
rm -rf "$dir"
mkdir -p "$dir"
dbtf="cargo run --release -q -p dbtf-cli --bin dbtf --"

cleanup() {
  if [ -n "${server_pid:-}" ] && kill -0 "$server_pid" 2>/dev/null; then
    kill "$server_pid" 2>/dev/null || true
  fi
}
trap cleanup EXIT

echo "serve_smoke: generating a planted tensor..."
$dbtf generate planted --dims 32,28,24 --rank 4 --factor-density 0.4 \
  --additive 0.05 --seed 11 --output "$dir/x.txt"

echo "serve_smoke: factorizing with checkpointing on..."
$dbtf factorize --input "$dir/x.txt" --rank 4 --iters 3 --workers 3 \
  --seed 7 --output "$dir/run" --checkpoint "$dir/run.ckpt" > "$dir/factorize.out"

echo "serve_smoke: exporting the checkpoint to a binary factor store..."
$dbtf export-factors --checkpoint "$dir/run.ckpt" --output "$dir/factors.dbtfs" \
  | tee "$dir/export.out"
grep -q "exported factor set" "$dir/export.out"

echo "serve_smoke: stats must recognize the checkpoint and the store..."
$dbtf stats --input "$dir/run.ckpt" > "$dir/stats_ckpt.out"
grep -q "factor store (DBTFFSET v2)" "$dir/stats_ckpt.out"
grep -qx "iteration: 3" "$dir/stats_ckpt.out"
$dbtf stats --input "$dir/factors.dbtfs" > "$dir/stats_store.out"
grep -q "factor store (DBTFFSET v2)" "$dir/stats_store.out"

# Starts `dbtf serve --addr 127.0.0.1:0 ARGS...` in the background with
# its stdout in $dir/$log, and sets server_pid and addr.
start_server() {
  local log="$1"
  shift
  # Created before the server starts, so the address poll below never
  # reads a file the background redirect has not opened yet.
  : > "$dir/$log"
  $dbtf serve --addr 127.0.0.1:0 "$@" > "$dir/$log" &
  server_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$dir/$log")
    [ -n "$addr" ] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
      echo "serve_smoke: FAIL — server exited before listening:" >&2
      cat "$dir/$log" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "serve_smoke: FAIL — server never printed its address" >&2
    exit 1
  fi
  echo "serve_smoke: server is listening on $addr"
}

echo "serve_smoke: serving the checkpoint itself from a map..."
start_server serve_ckpt.out --store "$dir/run.ckpt" --source mmap
$dbtf query --connect "$addr" --info | tee "$dir/info_ckpt.out"
# The set version of a checkpoint is its iteration count (--iters 3).
grep -q "factor set v3 32 × 28 × 24 rank 4 (mmap)" "$dir/info_ckpt.out"
$dbtf query --connect "$addr" --shutdown-server > /dev/null
wait "$server_pid"
server_pid=""

echo "serve_smoke: starting dbtf serve on the store (mmap source)..."
start_server serve.out --store "$dir/factors.dbtfs" --source mmap

echo "serve_smoke: scripted query session..."
$dbtf query --connect "$addr" --ping > "$dir/ping.out"
grep -qx "pong" "$dir/ping.out"
$dbtf query --connect "$addr" --info | tee "$dir/info.out"
grep -q "32 × 28 × 24 rank 4 (mmap)" "$dir/info.out"
$dbtf query --connect "$addr" --point 0,0,0 > "$dir/point.out"
grep -Eqx "true|false" "$dir/point.out"
$dbtf query --connect "$addr" --slice 3:1,2 > "$dir/slice.out"
$dbtf query --connect "$addr" --topk 1:0:3 > "$dir/topk.out"
$dbtf query --connect "$addr" --stats > "$dir/stats.out"
grep -q "serve.point.queries 1" "$dir/stats.out"

echo "serve_smoke: oracle agreement sweep (seeded, 300 queries)..."
$dbtf query --connect "$addr" --oracle-check "$dir/factors.dbtfs" \
  --seed 42 --count 300 | tee "$dir/oracle.out"
grep -q "oracle-check: 300 queries agree (seed 42)" "$dir/oracle.out"

echo "serve_smoke: shutting the server down..."
$dbtf query --connect "$addr" --shutdown-server > "$dir/shutdown.out"
grep -qx "server draining" "$dir/shutdown.out"
wait "$server_pid"
server_pid=""
grep -q "drained cleanly" "$dir/serve.out"

echo "serve_smoke: OK"
