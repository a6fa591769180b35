#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json — applies the bounds of BENCHMARK.json
# to two result sets (results.json files of `run.sh --runs 3 --trace 0` or
# more runs each). A is the base. Exits non-zero on a regression.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec "$here/run.sh" --compare "$1" "$2"
