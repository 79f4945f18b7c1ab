#!/usr/bin/env bash
# Line counts per package: the non-test count, the figure the quality
# aim asks each change to keep flat or lower, and beside it the test
# count, so a deletion shows the tests it removes next to the code it
# removes. Every .rs file under crates/*/src and src counts as code up
# to (not including) its first line that starts with #[cfg(test)], and
# as tests from that line on; every .rs file under crates/*/tests and
# tests counts as tests. Blank and comment lines count. Prints one row
# per package (`src` is the root package, whose tests are tests/) and
# the totals. Run from the repo root: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "code tests" for the .rs files under the given directories.
count() {
  find "$@" -name '*.rs' -exec awk '
    FNR == 1 { test = FILENAME ~ /(^|\/)tests\// }
    /^#\[cfg\(test\)\]/ { test = 1 }
    { if (test) t++; else c++ }
    END { print c + 0, t + 0 }' {} + | awk '{ c += $1; t += $2 } END { print c + 0, t + 0 }'
}

total=0
total_tests=0
printf '%-16s %7s %7s\n' package code tests
for dir in crates/*/src src; do
  dirs=("$dir")
  tests="$(dirname "$dir")/tests"
  [ -d "$tests" ] && dirs+=("$tests")
  read -r n t < <(count "${dirs[@]}")
  name=${dir%/src}
  printf '%-16s %7d %7d\n' "${name#crates/}" "$n" "$t"
  total=$((total + n))
  total_tests=$((total_tests + t))
done
printf '%-16s %7d %7d\n' total "$total" "$total_tests"
