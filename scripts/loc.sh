#!/usr/bin/env bash
# Lines of tracked Rust and shell outside benchmark/, as a total and split
# into test code (files under a tests/ directory) and the rest.
#
#   bash scripts/loc.sh            # tracked files as they are in the working tree
#   bash scripts/loc.sh <commit>   # the files of a commit
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-}"
if [ -n "$rev" ]; then
    all=$(git ls-tree -r --name-only "$rev")
else
    all=$(git ls-files)
fi
sources=$(grep -E '\.(rs|sh)$' <<<"$all" | grep -v '^benchmark/' || true)

# Lines in the sources whose path matches the regex $1.
count() {
    grep -E "$1" <<<"$sources" | while read -r f; do
        if [ -n "$rev" ]; then git show "$rev:$f"; else cat "$f"; fi
    done | wc -l
}

total=$(count '.')
tests=$(count '(^|/)tests/')
echo "total    $total"
echo "tests    $tests"
echo "non-test $((total - tests))"
