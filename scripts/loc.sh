#!/usr/bin/env bash
# Lines of tracked Rust and shell outside benchmark/, as a total and split
# into test code and the rest. Test code is every file under a tests/
# directory, plus each in-file `#[cfg(test)] mod tests { ... }` block: from
# the attribute to the `}` at column 0 that closes the module.
#
#   bash scripts/loc.sh            # tracked files as they are in the working tree
#   bash scripts/loc.sh <commit>   # the files of a commit
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-}"
# Every line as `path:text`, prefixed with `<commit>:` for a commit.
git grep -I --no-color -e '' ${rev:+"$rev"} -- '*.rs' '*.sh' ':!benchmark/' |
    awk -v skip="${#rev}" '
        { if (skip) $0 = substr($0, skip + 2)
          f = substr($0, 1, index($0, ":") - 1); line = substr($0, length(f) + 2) }
        f != file { file = f; in_mod = 0; prev = "" }
        { total++ }
        f ~ /(^|\/)tests\// { tests++; next }
        in_mod { tests++; if (line == "}") in_mod = 0; next }
        line ~ /^mod tests \{/ && prev == "#[cfg(test)]" { in_mod = 1; tests += 2 }
        { prev = line }
        END { printf "total    %d\ntests    %d\nnon-test %d\n", total, tests, total - tests }'
