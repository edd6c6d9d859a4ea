#!/usr/bin/env bash
# The process-global environment knobs are an allow-list, not a habit:
# the set of SBP_* names that appear under src/ and crates/*/src (shims
# included) must equal the list below, and each must be documented in
# README.md. Adding a knob means editing this list in the same diff, where
# a reviewer sees it; removing one means deleting it here too.
#
#   scripts/check_env_knobs.sh        (run from anywhere; exits 1 on drift)
set -euo pipefail
cd "$(dirname "$0")/.."

allowed="SBP_METRICS SBP_THREADS"

want=$(tr ' ' '\n' <<<"$allowed" | sort -u)
found=$(grep -rhoE 'SBP_[A-Z_]+' src crates/*/src crates/shims/*/src | sort -u)

status=0
if [ "$found" != "$want" ]; then
    echo "SBP_* names in the sources differ from the allow-list:" >&2
    comm -23 <(echo "$want") <(echo "$found") | sed 's/^/  allowed only:    /' >&2
    comm -13 <(echo "$want") <(echo "$found") | sed 's/^/  in sources only: /' >&2
    status=1
fi
for knob in $want; do
    if ! grep -q "$knob" README.md; then
        echo "$knob is not documented in README.md" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "env knobs: $allowed — all in the sources and in README.md"
exit "$status"
