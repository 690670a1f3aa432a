#!/usr/bin/env bash
# Out-of-core smoke check: the `--storage mmap` path must be observably
# identical to the default heap path through the CLI — same factors, same
# error, same Lemma 6/7 meters — while actually spilling its unfoldings to
# disk and cleaning them up afterwards. Also exercises streaming generation
# (the tensor is written without ever being materialized), `dbtf stats` on
# both a streamed tensor file and a spilled `DBTFUNFD` columnar unfolding,
# and the scaling_memory RSS-bound bench at a smoke-sized workload. The
# benchmark's cp-ooc-net configuration (net backend, two worker processes)
# runs three ways — ram, mmap, and mmap under seeded worker kills whose
# lost partitions are rebuilt from the spilled files — and must write the
# same factors every time.
#
# Usage: scripts/ooc_smoke.sh [work-dir]   (default: target/ooc_smoke)
set -euo pipefail
cd "$(dirname "$0")/.."

dir="${1:-target/ooc_smoke}"
rm -rf "$dir"
mkdir -p "$dir"
dbtf="cargo run --release -q -p dbtf-cli --bin dbtf --"

echo "ooc_smoke: streaming-generating input tensor (binary)..."
$dbtf generate random --dims 32,28,24 --density 0.08 --seed 11 \
  --binary --output "$dir/x.dbtf"

echo "ooc_smoke: stats on the streamed tensor..."
$dbtf stats --input "$dir/x.dbtf" | tee "$dir/stats_tensor.out"
grep -q "non-zeros" "$dir/stats_tensor.out"

echo "ooc_smoke: factorizing with storage = ram..."
$dbtf factorize --input "$dir/x.dbtf" --rank 4 --iters 3 --workers 3 \
  --seed 7 --storage ram > "$dir/ram.out"

echo "ooc_smoke: factorizing with storage = mmap..."
$dbtf factorize --input "$dir/x.dbtf" --rank 4 --iters 3 --workers 3 \
  --seed 7 --storage mmap --spill-dir "$dir/spill" > "$dir/mmap.out"

echo "ooc_smoke: comparing outputs (must be identical minus the storage line)..."
grep -v "^storage: mmap" "$dir/mmap.out" > "$dir/mmap_clean.out"
diff "$dir/ram.out" "$dir/mmap_clean.out"

echo "ooc_smoke: checking the spill dir was cleaned up..."
if [ -d "$dir/spill" ] && [ -n "$(ls -A "$dir/spill")" ]; then
  echo "ooc_smoke: FAIL — spill files left behind:" >&2
  ls -R "$dir/spill" >&2
  exit 1
fi

echo "ooc_smoke: net backend (cp-ooc-net configuration): ram, mmap, mmap under kills..."
$dbtf generate planted --dims 96,80,48 --rank 4 --factor-density 0.4 \
  --additive 0.02 --destructive 0.05 --seed 13 --binary --output "$dir/xn.dbtf"
net=(factorize --input "$dir/xn.dbtf" --rank 4 --iters 2 --workers 2
  --backend net --seed 5)
$dbtf "${net[@]}" --storage ram --output "$dir/net_ram" > "$dir/net_ram.out"
$dbtf "${net[@]}" --storage mmap --spill-dir "$dir/spill" \
  --output "$dir/net_mmap" > "$dir/net_mmap.out"
# Seeded SIGKILLs of the worker processes: each lost partition is rebuilt
# by re-opening its mode's spilled file (on this input: 1 respawn, 24
# partitions recomputed). The run must really recompute partitions.
$dbtf "${net[@]}" --storage mmap --spill-dir "$dir/spill" \
  --fault-kill-rate 0.02 --fault-seed 3 \
  --output "$dir/net_kill" > "$dir/net_kill.out"
recomputed=$(sed -n 's/^recovery: .*, \([0-9]*\) partitions recomputed,.*/\1/p' "$dir/net_kill.out")
if [ -z "$recomputed" ] || [ "$recomputed" -eq 0 ]; then
  echo "ooc_smoke: FAIL — the kill run recomputed no partition:" >&2
  cat "$dir/net_kill.out" >&2
  exit 1
fi
# Factors and the `factorized …` line must match; the `wire:` line is not
# compared, since its framing-overhead figure varies from run to run.
for run in ram mmap kill; do
  grep "^factorized" "$dir/net_$run.out" > "$dir/net_$run.factorized"
done
for run in mmap kill; do
  for m in A B C; do cmp "$dir/net_ram.$m.txt" "$dir/net_$run.$m.txt"; done
  cmp "$dir/net_ram.factorized" "$dir/net_$run.factorized"
done

echo "ooc_smoke: checking the spill dir was cleaned up..."
if [ -d "$dir/spill" ] && [ -n "$(ls -A "$dir/spill")" ]; then
  echo "ooc_smoke: FAIL — spill files left behind:" >&2
  ls -R "$dir/spill" >&2
  exit 1
fi

echo "ooc_smoke: scaling_memory bench (smoke size, scratch kept for stats)..."
cargo run --release -q -p dbtf-bench --bin scaling_memory -- \
  --dim 64 --density 0.05 --budget-mb 1 --partitions 8 \
  --scratch "$dir/memscale" --keep --json "$dir/ooc.json" \
  | tee "$dir/memscale.out"
grep -q '"bench": "scaling_memory"' "$dir/ooc.json"

echo "ooc_smoke: stats on a spilled columnar unfolding..."
$dbtf stats --input "$dir/memscale/unfold_1.dbtfu" | tee "$dir/stats_unfold.out"
grep -q "columnar unfolding (DBTFUNFD v1)" "$dir/stats_unfold.out"
grep -q "non-zeros" "$dir/stats_unfold.out"

echo "ooc_smoke: OK"
