#!/usr/bin/env bash
# Prints the non-blank, non-test Rust line count of every workspace crate
# and the total:
#
#   scripts/loc.sh          # the working tree
#   scripts/loc.sh REV      # before (git revision REV), after (the
#                           # working tree) and delta, per crate
#
# Counts every `.rs` file under the root package's `src/` and each
# `crates/<name>/src/`, up to the file's test module (a top-level
# `#[cfg(test)]` attribute followed by a `mod` line). `tests/` and
# `benches/` directories are not counted, nor is the separate
# `perfbench` workspace. REV is read with `git archive REV src crates`
# into a temporary directory.
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

# Prints "<crate> <lines>" for every crate of the tree rooted at $1.
counts() {
    local src name
    for src in "$1"/src "$1"/crates/*/src; do
        [ -d "$src" ] || continue
        name=$(dirname "${src#"$1"/}")
        [ "$name" = . ] && name=uucs
        echo "${name#crates/} $(count "$src")"
    done
}

if [ $# -eq 0 ]; then
    total=0
    while read -r name lines; do
        total=$((total + lines))
        printf '%-22s %7d\n' "$name" "$lines"
    done < <(counts .)
    printf '%-22s %7d\n' total "$total"
    exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$1" src crates | tar -x -C "$tmp"
declare -A before
while read -r name lines; do
    before[$name]=$lines
done < <(counts "$tmp")

row() {
    printf '%-22s %7d %7d %+7d\n' "$1" "$2" "$3" $(($3 - $2))
}
printf '%-22s %7s %7s %7s\n' crate before after delta
total_before=0 total_after=0
while read -r name lines; do
    was=${before[$name]:-0}
    unset "before[$name]"
    total_before=$((total_before + was))
    total_after=$((total_after + lines))
    row "$name" "$was" "$lines"
done < <(counts .)
# Crates that exist only at REV.
for name in "${!before[@]}"; do
    total_before=$((total_before + before[$name]))
    row "$name" "${before[$name]}" 0
done
row total "$total_before" "$total_after"
