#!/usr/bin/env bash
# Prints the non-blank, non-test Rust line count of every workspace crate
# and the total:
#
#   scripts/loc.sh
#
# Counts every `.rs` file under the root package's `src/` and each
# `crates/<name>/src/`, up to the file's test module (a top-level
# `#[cfg(test)]` attribute followed by a `mod` line). `tests/` and
# `benches/` directories are not counted, nor is the separate
# `perfbench` workspace.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { held = 0 }
        held && /^mod / { held = 0; nextfile }
        held { n++; held = 0 }
        /^#\[cfg\(test\)\]/ { held = 1; next }
        NF { n++ }
        END { print n + 0 }'
}

total=0
for src in src crates/*/src; do
    name=$(dirname "$src")
    [ "$name" = . ] && name=uucs
    lines=$(count "$src")
    total=$((total + lines))
    printf '%-22s %7d\n' "${name#crates/}" "$lines"
done
printf '%-22s %7d\n' total "$total"
