#!/usr/bin/env bash
# Non-blank non-test lines of the Rust sources, per crate and in total.
#
# A file's non-test code is every line before the first line that starts
# with `#[cfg(test)]` (the whole file when there is none); a mention of
# the attribute further into a line does not cut. Blank lines do not
# count. Covers `crates/*/src` and the facade's `src`.
#
# Usage: scripts/nontest_lines.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk '
            FNR == 1 { cut = 0 }
            /^#\[cfg\(test\)\]/ { cut = 1 }
            !cut && NF { n++ }
            END { print n + 0 }'
}

total=0
for dir in crates/*/src src; do
    n=$(count "$dir")
    total=$((total + n))
    printf '%-24s %7d\n' "${dir%/src}" "$n"
done
printf '%-24s %7d\n' total "$total"
