#!/usr/bin/env bash
# Lines of tracked Rust and shell outside benchmark/, as a total and split
# into test code and the rest. Test code is every file under a tests/
# directory, each file declared as a test-only module (`#[cfg(test)]` on the
# line before, or the line of, `mod name;`), plus each in-file
# `#[cfg(test)] mod tests { ... }` block: from the attribute to the `}` at
# column 0 that closes the module.
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
        { lines[f]++ }
        in_mod { tests[f]++; if (line == "}") in_mod = 0; next }
        line ~ /^mod tests \{/ && prev == "#[cfg(test)]" { in_mod = 1; tests[f] += 2 }
        # A test-only module in its own file: name.rs (or name/mod.rs) beside
        # a mod.rs, lib.rs or main.rs, else in the directory named after f.
        (prev == "#[cfg(test)]" && line ~ /^mod [a-z0-9_]+;/) || line ~ /^#\[cfg\(test\)\] mod [a-z0-9_]+;/ {
            name = line; sub(/^.*mod /, "", name); sub(/;.*/, "", name)
            dir = f; sub(/[^\/]*$/, "", dir)
            if (f !~ /(^|\/)(mod|lib|main)\.rs$/) { stem = f; sub(/\.rs$/, "", stem); dir = stem "/" }
            test_file[dir name ".rs"] = 1; test_file[dir name "/mod.rs"] = 1
        }
        { prev = line }
        END {
            for (f in lines) {
                total += lines[f]
                n += (f ~ /(^|\/)tests\// || f in test_file) ? lines[f] : tests[f]
            }
            printf "total    %d\ntests    %d\nnon-test %d\n", total, n, total - n
        }'
