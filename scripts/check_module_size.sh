#!/usr/bin/env bash
# Guard against crates re-congealing into monoliths: the dataflow-plan
# refactor split engine.rs (once ~1,750 lines) into focused modules, and
# the out-of-core refactor kept the tensor crate's storage layer similarly
# decomposed. CI fails if any Rust file under crates/*/src creeps past the
# limit.
set -euo pipefail

LIMIT=900
cd "$(dirname "$0")/.."

status=0
while IFS= read -r -d '' f; do
    lines=$(wc -l <"$f")
    if [ "$lines" -gt "$LIMIT" ]; then
        echo "FAIL: $f has $lines lines (limit $LIMIT) — split it instead" >&2
        status=1
    fi
done < <(find crates/*/src -name '*.rs' -print0)

if [ "$status" -eq 0 ]; then
    echo "module size check passed: no Rust file under crates/*/src exceeds $LIMIT lines"
fi
exit "$status"
