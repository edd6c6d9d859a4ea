#!/usr/bin/env bash
# Non-test Rust lines, per crate and in total: for every `.rs` file under
# src/ and crates/*/src, and each of those crates' build.rs (crates/shims
# and the bench/ harness excluded),
# the lines before its top-level test module — a column-0 `#[cfg(test)]`
# directly followed by a `mod` line — or the whole file when it has none.
# A `#[cfg(test)]` on an indented item or on a single hook function does
# not end the count, so test-only helpers in the middle of a file do not
# hide the production code after them. Print-only: always exits 0.
#
#   scripts/nontest_lines.sh                 (run from anywhere)
#   scripts/nontest_lines.sh --against REV   before (REV), after (the
#                                            working tree) and delta
#
# `--against` counts REV's committed files, unpacked with `git archive`
# into a temporary directory; the working tree is counted as it stands.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '
        FNR == 1 { found = 0; prev = "" }
        found { next }
        prev == "#[cfg(test)]" && /^(pub(\([a-z]+\))? )?mod / {
            found = 1; kept[FILENAME] = FNR - 2; next
        }
        { kept[FILENAME] = FNR; prev = $0 }
        END { for (f in kept) total += kept[f]; print total + 0 }
    ' "$@"
}

# Prints one `name count` line per crate of the tree rooted at $1.
measure() {
    local root=$1 tree name n
    for tree in "$root"/src "$root"/crates/*/src; do
        [ -d "$tree" ] || continue
        name=${tree#"$root"/}
        name=${name%/src}
        case "$name" in crates/shims/*) continue ;; esac
        [ "$name" = src ] && name="edist (src/)"
        mapfile -t files < <(find "$tree" -name '*.rs' | sort)
        [ -f "${tree%/src}/build.rs" ] && files+=("${tree%/src}/build.rs")
        [ "${#files[@]}" -eq 0 ] && continue
        n=$(count "${files[@]}")
        printf '%s\t%d\n' "$name" "$n"
    done
}

if [ "${1:-}" = --against ]; then
    rev=${2:?usage: nontest_lines.sh --against REV}
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    git archive "$rev" | tar -x -C "$tmp"
    measure "$tmp" > "$tmp/.before"
    measure . > "$tmp/.after"
    printf '%-22s %7s %7s %7s\n' crate before after delta
    awk -F '\t' '
        !($1 in seen) { seen[$1] = 1; order[++n] = $1 }
        NR == FNR { before[$1] = $2; next }
        { after[$1] = $2 }
        END {
            for (i = 1; i <= n; i++) {
                k = order[i]; b = before[k] + 0; a = after[k] + 0
                printf "%-22s %7d %7d %+7d\n", k, b, a, a - b
                tb += b; ta += a
            }
            printf "%-22s %7d %7d %+7d\n", "total", tb, ta, ta - tb
        }
    ' "$tmp/.before" "$tmp/.after"
    exit 0
fi

total=0
while IFS=$'\t' read -r name n; do
    printf '%-22s %6d\n' "$name" "$n"
    total=$((total + n))
done < <(measure .)
printf '%-22s %6d\n' total "$total"
