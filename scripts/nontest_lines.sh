#!/usr/bin/env bash
# Non-test Rust lines, per crate and in total: for every `.rs` file under
# src/ and crates/*/src (crates/shims and the bench/ harness excluded),
# the lines before its top-level test module — a column-0 `#[cfg(test)]`
# directly followed by a `mod` line — or the whole file when it has none.
# A `#[cfg(test)]` on an indented item or on a single hook function does
# not end the count, so test-only helpers in the middle of a file do not
# hide the production code after them. Print-only: always exits 0.
#
#   scripts/nontest_lines.sh        (run from anywhere)
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

total=0
for tree in src crates/*/src; do
    case "$tree" in crates/shims/*) continue ;; esac
    name=${tree%/src}
    [ "$name" = src ] && name="edist (src/)"
    mapfile -t files < <(find "$tree" -name '*.rs' | sort)
    [ "${#files[@]}" -eq 0 ] && continue
    n=$(count "${files[@]}")
    printf '%-22s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-22s %6d\n' total "$total"
