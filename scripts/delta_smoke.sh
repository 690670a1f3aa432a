#!/usr/bin/env bash
# Incremental-update smoke check: factorize → export → serve → apply a
# delta with `dbtf update` → live `reload` hot-swap → oracle agreement
# against the *new* factors, all through the real CLI on a real TCP
# socket. The final oracle-check is the gate: after the hot-swap, a
# seeded query sweep answered by the live server must match the oracle's
# cell-by-cell reconstruction of the re-swept factors bit for bit.
# `dbtf update` runs in another working directory than `dbtf serve` and
# writes a relative --output, so the reload only works if the path it
# sends resolves on the server's side too. The update runs on mmap storage
# (it spills the updated tensor) and again on ram storage (it cuts the
# updated tensor in memory); both must write the same store.
#
# Usage: scripts/delta_smoke.sh [work-dir]   (default: target/delta_smoke)
set -euo pipefail
cd "$(dirname "$0")/.."

dir="${1:-target/delta_smoke}"
rm -rf "$dir"
mkdir -p "$dir/update"
dbtf="cargo run --release -q --manifest-path $PWD/Cargo.toml -p dbtf-cli --bin dbtf --"

cleanup() {
  if [ -n "${server_pid:-}" ] && kill -0 "$server_pid" 2>/dev/null; then
    kill "$server_pid" 2>/dev/null || true
  fi
}
trap cleanup EXIT

echo "delta_smoke: generating a planted tensor..."
$dbtf generate planted --dims 32,28,24 --rank 4 --factor-density 0.4 \
  --additive 0.05 --seed 11 --output "$dir/x.txt"

echo "delta_smoke: factorizing the pre-delta tensor..."
$dbtf factorize --input "$dir/x.txt" --rank 4 --iters 3 --workers 3 \
  --seed 7 --checkpoint "$dir/run.ckpt" > "$dir/factorize.out"

echo "delta_smoke: exporting the checkpoint to a binary factor store..."
$dbtf export-factors --checkpoint "$dir/run.ckpt" --output "$dir/factors.dbtfs" \
  > "$dir/export.out"
grep -q "exported factor set" "$dir/export.out"

echo "delta_smoke: starting dbtf serve on an ephemeral port..."
# Created before the server starts, so the address poll below never
# reads a file the background redirect has not opened yet.
: > "$dir/serve.out"
$dbtf serve --store "$dir/factors.dbtfs" --addr 127.0.0.1:0 \
  > "$dir/serve.out" &
server_pid=$!

addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/^listening on //p' "$dir/serve.out")
  [ -n "$addr" ] && break
  if ! kill -0 "$server_pid" 2>/dev/null; then
    echo "delta_smoke: FAIL — server exited before listening:" >&2
    cat "$dir/serve.out" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "delta_smoke: FAIL — server never printed its address" >&2
  exit 1
fi
echo "delta_smoke: server is listening on $addr"

# Queries against the first generation, before the reload.
$dbtf query --connect "$addr" --slice 3:1,2 > /dev/null
$dbtf query --connect "$addr" --slice 1:0,0 > /dev/null

echo "delta_smoke: writing a tensor delta (clears + sets)..."
cat > "$dir/delta.txt" <<'EOF'
# delta_smoke edits: clear two cells, set three
- 0 0 0
- 1 2 3
+ 5 5 1
+ 31 27 23
+ 10 0 7
EOF

echo "delta_smoke: bounded re-sweep through dbtf update (mmap storage) + live reload,"
echo "delta_smoke: run from $dir/update with a relative --output..."
(cd "$dir/update" && $dbtf update --input ../x.txt --delta ../delta.txt \
  --factors ../factors.dbtfs --output factors_v2.dbtfs \
  --workers 3 --storage mmap --reload "$addr") | tee "$dir/update.out"
grep -q "re-swept" "$dir/update.out"
version=$(sed -n 's/^wrote factor set v\([0-9]*\) to .*/\1/p' "$dir/update.out")
grep -q "reloaded $addr: serving v$version " "$dir/update.out"

echo "delta_smoke: the same update on ram storage writes the same store..."
(cd "$dir/update" && $dbtf update --input ../x.txt --delta ../delta.txt \
  --factors ../factors.dbtfs --output factors_v2_ram.dbtfs \
  --workers 3 --storage ram) > "$dir/update_ram.out"
cmp "$dir/update/factors_v2.dbtfs" "$dir/update/factors_v2_ram.dbtfs"

echo "delta_smoke: the server now serves the new generation (v$version)..."
$dbtf query --connect "$addr" --info | tee "$dir/info.out"
grep -q "factor set v$version 32 × 28 × 24 rank 4" "$dir/info.out"
$dbtf query --connect "$addr" --stats > "$dir/stats.out"
grep -q "serve.reload.requests 1" "$dir/stats.out"
grep -q "serve.reload.errors 0" "$dir/stats.out"

echo "delta_smoke: oracle agreement sweep against the re-swept factors..."
$dbtf query --connect "$addr" --oracle-check "$dir/update/factors_v2.dbtfs" \
  --seed 42 --count 300 | tee "$dir/oracle.out"
grep -q "oracle-check: 300 queries agree (seed 42)" "$dir/oracle.out"

echo "delta_smoke: shutting the server down..."
$dbtf query --connect "$addr" --shutdown-server > "$dir/shutdown.out"
wait "$server_pid"
server_pid=""
grep -q "drained cleanly" "$dir/serve.out"

echo "delta_smoke: OK"
