#!/usr/bin/env bash
# The one command: builds the benchmark against the crates of this checkout
# and runs it. Run from anywhere; see README.md.
#
#   benchmark/run.sh                         every workload, untraced then traced
#   benchmark/run.sh --workload explain --seed 7 --seconds 10 --trace 0
#   benchmark/run.sh --runs 3 --trace 0      a result set for compare.sh
#
# Prints every metric by name with its unit and sample count, writes
# benchmark/out/results.json (and out/trace-<workload>.jsonl on a traced
# pass), ends with one JSON line, and exits non-zero if a correctness check
# failed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Engine toggles that change what is measured stay at the library defaults.
unset QPE_AP_THREADS QPE_MORSEL_ROWS QPE_MVCC_READS

# One target directory with the root workspace unless the caller names one.
# A relative name is taken from the checkout's root.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
cd "$root"
exec "$target/release/qpe_benchmark" \
    --out-dir "$here/out" --commit "$commit" --rustc "$(rustc --version)" "$@"
