#!/usr/bin/env bash
# Alternating A/B runs of the benchmark's ledger (crates/bench/src/bin/ledger):
# a parent revision against the working tree.
#
#   scripts/ledger_ab.sh PARENT_REV PAIRS [ledger args…]
#   scripts/ledger_ab.sh HEAD 10 --workload cp-ooc-net --seed 1 --seconds 20
#
# Builds PARENT_REV in a git worktree under target/ledger_ab/ (with a target
# directory of its own) and the working tree into target/, then runs PAIRS
# pairs of `ledger --trace 0 [ledger args…]`, the parent first in odd pairs
# and the working tree first in even ones. Each side's passes are merged into
# one ledger file (target/ledger_ab/{parent,change}.json). The script prints
# every pair's op_p50_ms per workload, then exits with the status of
# `ledger --compare parent.json change.json`, run from the repository root.
# The worktree is removed on exit; the builds stay for the next run.
set -euo pipefail

if (($# < 2)) || ! [[ $2 =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: scripts/ledger_ab.sh PARENT_REV PAIRS [ledger args…]" >&2
    exit 2
fi
rev=$1 pairs=$2
shift 2
args=("$@")

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
work="$root/target/ledger_ab"
tree="$work/parent"
sha=$(git rev-parse --verify "$rev^{commit}")
mkdir -p "$work"
rm -f "$work"/parent-*.json "$work"/change-*.json
git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
git worktree prune
git worktree add --detach --quiet "$tree" "$sha"
trap 'git -C "$root" worktree remove --force "$tree" 2>/dev/null || true' EXIT

# build ROOT TARGET: the CLI and the ledger, as the ledger's run.sh builds them.
build() {
    CARGO_TARGET_DIR="$2" cargo build --release --quiet --manifest-path "$1/Cargo.toml" -p dbtf-cli
    CARGO_TARGET_DIR="$2" cargo build --release --quiet \
        --manifest-path "$1/crates/bench/src/bin/ledger/Cargo.toml"
}
echo "ledger_ab: building parent ${sha:0:12} and the working tree" >&2
build "$tree" "$work/parent-target"
build "$root" "$root/target"

# pass SIDE PAIR: one ledger run of SIDE from its own root, into SIDE-PAIR.json.
pass() {
    local dir=$root target=$root/target
    if [[ $1 == parent ]]; then
        dir=$tree target=$work/parent-target
    fi
    echo "ledger_ab: pair $2, $1" >&2
    (cd "$dir" && CARGO_TARGET_DIR="$target" "$target/release/ledger" --trace 0 \
        "${args[@]}" --out "$work/$1-$2.json" >/dev/null) ||
        echo "ledger_ab: pair $2, $1: ledger exited $?" >&2
}
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        pass parent "$i" && pass change "$i"
    else
        pass change "$i" && pass parent "$i"
    fi
done

# merge FILE…: one ledger with the host line of the first file and every run
# line of every file (the ledger writes one run per line).
merge() {
    awk 'NR == FNR && !open { print; if (/"runs": \[/) open = 1; next }
         /^    \{"workload"/ { sub(/,$/, ""); runs[n++] = $0 }
         END { for (i = 0; i < n; i++) print runs[i] (i < n - 1 ? "," : "")
               print "  ]"; print "}" }' "$@"
}
# p50 FILE: "workload op_p50_ms" for every run in a pass file.
p50() {
    awk 'match($0, /"workload": "[^"]*"/) {
             w = substr($0, RSTART + 13, RLENGTH - 14)
             if (match($0, /"op_p50_ms": \{"value": [^,}]*/))
                 print w, substr($0, RSTART + 23, RLENGTH - 23)
         }' "$1"
}

parent_files=() change_files=()
printf '%-5s %-14s %14s %14s  %s\n' pair workload parent_p50_ms change_p50_ms lower \
    >"$work/pairs.txt"
for ((i = 1; i <= pairs; i++)); do
    p=$work/parent-$i.json c=$work/change-$i.json
    [[ -f $p && -f $c ]] || continue
    parent_files+=("$p") change_files+=("$c")
    paste -d ' ' <(p50 "$p") <(p50 "$c") |
        awk -v i="$i" '{ lower = $4 < $2 ? "change" : $4 > $2 ? "parent" : "tie"
                         printf "%-5s %-14s %14.4g %14.4g  %s\n", i, $1, $2, $4, lower }' \
            >>"$work/pairs.txt"
done
cat "$work/pairs.txt"
awk 'NR > 1 { n[$2]++; won[$2] += $5 == "change" }
     END { for (w in n) printf "%s: change lower in %d of %d pairs\n", w, won[w], n[w] }' \
    "$work/pairs.txt"
if ((${#parent_files[@]} == 0)); then
    echo "ledger_ab: no pair completed" >&2
    exit 1
fi
merge "${parent_files[@]}" >"$work/parent.json"
merge "${change_files[@]}" >"$work/change.json"
"$root/target/release/ledger" --compare "$work/parent.json" "$work/change.json"
