#!/usr/bin/env bash
# Non-test line count, the figure the quality aim asks each change to
# keep flat or lower. Every .rs file under crates/*/src and src counts
# up to (not including) its first line that starts with #[cfg(test)];
# blank and comment lines count. Prints one row per crate (`src` is the
# root package) and the total. Run from the repo root: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find "$1" -name '*.rs' -exec awk '
    FNR == 1 { if (NR > 1) print n; n = 0; stop = 0 }
    /^#\[cfg\(test\)\]/ { stop = 1 }
    !stop { n++ }
    END { print n }' {} + | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src src; do
  n=$(count "$dir")
  name=${dir%/src}
  printf '%-16s %7d\n' "${name#crates/}" "$n"
  total=$((total + n))
done
printf '%-16s %7d\n' total "$total"
