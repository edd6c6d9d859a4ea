#!/usr/bin/env bash
# Scale ladder: wall time and peak RSS of a sharded EDiSt run at several
# graph sizes and rank counts, for one binary or two alternated.
#
#   scripts/ladder.sh [--family scaling|challenge] [--mcmc mh|batch]
#                     [--scales "S ..."] [--vertices "N ..."]
#                     [--ranks "R ..."] [--runs N] BIN [BIN2]
#
# BIN (and BIN2) are `edist-cli` binaries. One rung per graph size:
#
# * `--family scaling` (the default): `generate --family scaling --id 1M`
#   at each of `--scales` (default 0.004 / 0.016 / 0.064, which give
#   V = 4 205 / 16 819 / 67 278).
# * `--family challenge`: `generate --family challenge --difficulty hard`
#   at each of `--vertices` (default 12000). Its mean degree (2E/V ≈ 47)
#   is more than twice the scaling family's (≈ 20), so the graph's
#   adjacency is a larger share of the peak.
#
# `--mcmc` picks the sweep schedule; the default is `batch` on the scaling
# family and `mh` on the challenge family.
#
# Every rung generates with seed 42 and, for each of `--ranks` (default
# 2), shards R-way with `--strategy balanced` and runs `partition
# --sharded … --backend edist --ranks R --mcmc M --seed 43` under
# SBP_THREADS=1, N times per binary (default 3). With two binaries BIN
# runs first on odd runs and BIN2 first on even ones, so neither always
# takes the warmer box. Every assignment must equal its binary's first
# one at that rung and rank count (`cmp`) — and under `--mcmc batch`,
# whose trajectory does not depend on the rank count, its binary's first
# one at the first rank count; the script prints DIFFERENT and exits 1 at
# the first difference. One line per run: rung, V, E, ranks, binary, run,
# wall seconds, peak RSS, blocks found. After each rung and rank count,
# one `median` line per binary: median wall and median peak over its
# runs and, on BIN2's line, each median over BIN's (change / parent) and
# whether BIN2's assignment is BIN's. A BIN2 that differs from BIN is
# reported there and makes the script exit 1 once every rung has run, so
# a change that moves a trajectory on purpose is still measured.
#
# Peak RSS is the child's own `VmHWM`, polled from /proc/PID/status while
# it runs: `getrusage` of a child forked from a large parent reports the
# parent's pages instead (a `/bin/true` reads 13 MiB that way).
set -euo pipefail

family=scaling
mcmc=
scales="0.004 0.016 0.064"
vertices_list="12000"
ranks_list=2
runs=3
while [[ $# -gt 0 && $1 == --* ]]; do
    case $1 in
        --family) family=$2; shift 2 ;;
        --mcmc) mcmc=$2; shift 2 ;;
        --scales) scales=$2; shift 2 ;;
        --vertices) vertices_list=$2; shift 2 ;;
        --ranks) ranks_list=$2; shift 2 ;;
        --runs) runs=$2; shift 2 ;;
        *) echo "unknown option $1" >&2; exit 2 ;;
    esac
done
case $family in
    scaling) rungs=$scales; mcmc=${mcmc:-batch} ;;
    challenge) rungs=$vertices_list; mcmc=${mcmc:-mh} ;;
    *) echo "unknown family $family (scaling or challenge)" >&2; exit 2 ;;
esac
case $mcmc in
    mh | batch) ;;
    *) echo "unknown --mcmc $mcmc (mh or batch)" >&2; exit 2 ;;
esac
if [[ $# -lt 1 || $# -gt 2 ]]; then
    echo "usage: $0 [--family scaling|challenge] [--mcmc mh|batch] [--scales \"S ...\"] [--vertices \"N ...\"] [--ranks \"R ...\"] [--runs N] BIN [BIN2]" >&2
    exit 2
fi
bins=("$@")
export SBP_THREADS=1

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Runs "$@" in the background; prints "<wall s> <peak RSS MiB>" once it
# exits, or prints its stderr and fails with its exit status.
measure() {
    local start end pid hwm=0 kib status
    start=$(date +%s.%N)
    "$@" 2>"$work/stderr.log" &
    pid=$!
    while kill -0 "$pid" 2>/dev/null; do
        kib=$(awk '/^VmHWM:/ {print $2}' "/proc/$pid/status" 2>/dev/null || true)
        if [[ -n $kib && $kib -gt $hwm ]]; then
            hwm=$kib
        fi
        sleep 0.02
    done
    status=0
    wait "$pid" || status=$?
    end=$(date +%s.%N)
    if [[ $status -ne 0 ]]; then
        cat "$work/stderr.log" >&2
        echo "command failed with status $status: $*" >&2
        return "$status"
    fi
    awk -v s="$start" -v e="$end" -v k="$hwm" 'BEGIN { printf "%.3f %.1f\n", e - s, k / 1024 }'
}

# Median of column $1 of the "<wall s> <peak MiB>" lines in file $2,
# printed with printf format $3.
median() {
    cut -d' ' -f"$1" "$2" | sort -g | awk -v f="$3" \
        '{ v[NR] = $1 } END { printf f "\n", NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

read -r first_ranks _ <<<"$ranks_list"
binaries_differ=0
printf '%-6s %-8s %-9s %-5s %-4s %-5s %9s %10s %7s\n' rung V E ranks bin run wall_s peak_mib blocks
for rung_arg in $rungs; do
    rung="$work/$rung_arg"
    mkdir -p "$rung"
    if [[ $family == scaling ]]; then
        "${bins[0]}" generate --family scaling --id 1M --scale "$rung_arg" --seed 42 \
            --out "$rung/g.mtx" 2>"$rung/gen.log"
    else
        "${bins[0]}" generate --family challenge --vertices "$rung_arg" --difficulty hard \
            --seed 42 --out "$rung/g.mtx" 2>"$rung/gen.log"
    fi
    vertices=$(sed -n 's/.* V=\([0-9]*\).*/\1/p' "$rung/gen.log")
    edges=$(sed -n 's/.* E=\([0-9]*\).*/\1/p' "$rung/gen.log")
    for ranks in $ranks_list; do
        "${bins[0]}" shard --graph "$rung/g.mtx" --ranks "$ranks" --strategy balanced \
            --out "$rung/shards_$ranks" 2>/dev/null
        reference_ranks=$ranks
        if [[ $mcmc == batch ]]; then
            reference_ranks=$first_ranks
        fi
        for run in $(seq 1 "$runs"); do
            order=("${!bins[@]}")
            if [[ ${#bins[@]} -eq 2 && $((run % 2)) -eq 0 ]]; then
                order=(1 0)
            fi
            for i in "${order[@]}"; do
                out="$rung/pred_${ranks}_${i}_${run}.txt"
                reading=$(measure "${bins[$i]}" partition --sharded "$rung/shards_$ranks" \
                    --backend edist --ranks "$ranks" --mcmc "$mcmc" --seed 43 --out "$out")
                blocks=$(sed -n 's/.*blocks: \([0-9]*\).*/\1/p' "$work/stderr.log")
                echo "$reading" >>"$rung/readings_${ranks}_$i"
                printf '%-6s %-8s %-9s %-5s %-4s %-5s %9s %10s %7s\n' \
                    "$rung_arg" "$vertices" "$edges" "$ranks" "$i" "$run" $reading "$blocks"
                if ! cmp -s "$out" "$rung/pred_${reference_ranks}_${i}_1.txt"; then
                    echo "DIFFERENT: rung $rung_arg, ranks $ranks, binary $i, run $run" >&2
                    exit 1
                fi
            done
        done
        for i in "${!bins[@]}"; do
            wall=$(median 1 "$rung/readings_${ranks}_$i" %.3f)
            peak=$(median 2 "$rung/readings_${ranks}_$i" %.2f)
            ratio=""
            if [[ $i -eq 0 ]]; then
                wall0=$wall peak0=$peak
            else
                ratio=$(awk -v w="$wall" -v p="$peak" -v w0="$wall0" -v p0="$peak0" \
                    'BEGIN { printf "change/parent wall %.3f peak %.3f", w / w0, p / p0 }')
                if cmp -s "$rung/pred_${ranks}_0_1.txt" "$rung/pred_${ranks}_1_1.txt"; then
                    ratio="$ratio, same assignment"
                else
                    ratio="$ratio, DIFFERENT assignment"
                    binaries_differ=1
                fi
            fi
            printf '%-6s %-8s %-9s %-5s %-4s %-5s %9s %10s  %s\n' \
                "$rung_arg" "$vertices" "$edges" "$ranks" "$i" median "$wall" "$peak" "$ratio"
        done
    done
done
if [[ $binaries_differ -ne 0 ]]; then
    echo "DIFFERENT: BIN2's assignments are not BIN's (see the median lines)" >&2
    exit 1
fi
