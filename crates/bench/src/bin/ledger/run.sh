#!/usr/bin/env bash
# Builds the `dbtf` CLI and the ledger (release, one shared target
# directory), then runs the ledger with the given arguments from the
# repository root. Run it from anywhere:
#
#   bash crates/bench/src/bin/ledger/run.sh --seed 1
#   bash crates/bench/src/bin/ledger/run.sh --workload serve-hot --seed 3 --seconds 25 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/cli ]]; then
    echo "run.sh: $root is not a dbtf checkout (no Cargo.toml or crates/cli)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

cargo build --release --quiet -p dbtf-cli
cargo build --release --quiet --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/ledger" "$@"
