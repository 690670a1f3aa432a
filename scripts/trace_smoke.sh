#!/usr/bin/env bash
# Telemetry smoke check: run a small factorization with --trace-out,
# validate the emitted Chrome trace-event JSON against the schema
# (`dbtf stats --trace` exits non-zero on a malformed trace), validate a
# multi-MB trace under a 20 s timeout (the parser must stay linear), and
# assert the disabled-telemetry factor-update path is within noise of the
# plain one — the zero-overhead-when-disabled contract of DESIGN.md §1.2.4.
#
# Usage: scripts/trace_smoke.sh [work-dir]   (default: target/trace_smoke)
set -euo pipefail
cd "$(dirname "$0")/.."

dir="${1:-target/trace_smoke}"
mkdir -p "$dir"
dbtf="cargo run --release -q -p dbtf-cli --bin dbtf --"

echo "trace_smoke: generating input tensor..."
$dbtf generate random --dims 24,24,24 --density 0.08 --seed 7 \
  --output "$dir/x.txt"

echo "trace_smoke: factorizing with --trace-out..."
$dbtf factorize --input "$dir/x.txt" --rank 4 --iters 3 --workers 4 \
  --trace-out "$dir/trace.json" > "$dir/factorize.out"

echo "trace_smoke: validating the trace..."
$dbtf stats --trace "$dir/trace.json" | tee "$dir/stats.out"
grep -q "complete events" "$dir/stats.out"
grep -q "cp.update.sweep" "$dir/stats.out"

# A corrupted trace must be rejected (exit 1, no usage banner).
head -c 200 "$dir/trace.json" > "$dir/torn.json"
if $dbtf stats --trace "$dir/torn.json" 2> "$dir/torn.err"; then
  echo "trace_smoke: FAIL — torn trace accepted" >&2
  exit 1
fi
grep -q "invalid trace" "$dir/torn.err"

echo "trace_smoke: validating a multi-MB trace within 20 s..."
# A 96³ rank-8 run over three factor sets on 8 workers writes a trace of
# about 4 MB. Validation must stay linear in its size: with a quadratic
# JSON string parser, `stats --trace` takes minutes on it.
$dbtf generate random --dims 96,96,96 --density 0.05 --seed 7 \
  --output "$dir/big.txt"
$dbtf factorize --input "$dir/big.txt" --rank 8 --iters 3 --sets 3 --workers 8 \
  --trace-out "$dir/big.json" > "$dir/big.out"
size=$(wc -c < "$dir/big.json")
if (( size < 2000000 )); then
  echo "trace_smoke: FAIL — the large trace is only $size bytes" >&2
  exit 1
fi
timeout 20 $dbtf stats --trace "$dir/big.json" > "$dir/big_stats.out"
grep -q "cp.update.sweep" "$dir/big_stats.out"

echo "trace_smoke: checking disabled-telemetry bench overhead..."
# Criterion (vendored harness) prints "name time: [lo mid hi]"; compare
# the midpoints of the plain vs disabled-tracer end-to-end benches and
# fail if the disabled path is more than 1.5x the plain one — far outside
# measurement noise for a single extra branch per kernel charge.
cargo bench -p dbtf-bench --bench factor_update -- factorize_local \
  | tee "$dir/bench.out"
python3 - "$dir/bench.out" <<'EOF'
import re, sys

units = {"ns": 1e-9, "µs": 1e-6, "us": 1e-6, "ms": 1e-3, "s": 1.0}
mid = {}
for line in open(sys.argv[1]):
    m = re.match(
        r"update/(factorize_local_\w+)\s+time:\s*\[\s*[\d.]+ \S+ ([\d.]+) (\S+)",
        line,
    )
    if m:
        mid[m.group(1)] = float(m.group(2)) * units[m.group(3)]
plain = mid.get("factorize_local_plain")
disabled = mid.get("factorize_local_telemetry_disabled")
if plain is None or disabled is None:
    sys.exit("trace_smoke: FAIL — bench output missing the telemetry cases")
ratio = disabled / plain
print(f"trace_smoke: disabled-telemetry overhead ratio {ratio:.3f}")
if ratio > 1.5:
    sys.exit(f"trace_smoke: FAIL — disabled telemetry is {ratio:.2f}x plain")
EOF

echo "trace_smoke: OK"
