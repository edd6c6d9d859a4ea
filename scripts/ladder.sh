#!/usr/bin/env bash
# Scale ladder: wall time and peak RSS of a sharded EDiSt run at several
# graph sizes and rank counts, for one binary or two alternated.
#
#   scripts/ladder.sh [--family scaling|challenge] [--scales "S ..."]
#                     [--vertices "N ..."] [--ranks "R ..."] [--runs N]
#                     BIN [BIN2]
#
# BIN (and BIN2) are `edist-cli` binaries. One rung per graph size:
#
# * `--family scaling` (the default): `generate --family scaling --id 1M`
#   at each of `--scales` (default 0.004 / 0.016 / 0.064, which give
#   V = 4 205 / 16 819 / 67 278), partitioned with `--mcmc batch`.
# * `--family challenge`: `generate --family challenge --difficulty hard`
#   at each of `--vertices` (default 12000), partitioned with the CLI's
#   default `--mcmc mh`: `batch` stalls on this family. Its mean degree
#   (2E/V ≈ 47) is more than twice the scaling family's (≈ 20), so the
#   graph's adjacency is a larger share of the peak.
#
# Every rung generates with seed 42 and, for each of `--ranks` (default
# 2), shards R-way with `--strategy balanced` and runs `partition
# --sharded … --backend edist --ranks R --seed 43` under SBP_THREADS=1,
# N times per binary (default 3). With two binaries BIN runs first on odd
# runs and BIN2 first on even ones, so neither always takes the warmer
# box. Every assignment must equal BIN's first one at that rung and rank
# count (`cmp`) — and on the scaling family, whose `--mcmc batch`
# trajectory does not depend on the rank count, BIN's first one at the
# first rank count. The script prints DIFFERENT and exits 1 at the first
# difference. One line per run: rung, V, E, ranks, binary, run, wall
# seconds, peak RSS. After each rung and rank count, one `median` line per
# binary: median wall and median peak over its runs and, on BIN2's line,
# each median over BIN's (change / parent).
#
# Peak RSS is the child's own `VmHWM`, polled from /proc/PID/status while
# it runs: `getrusage` of a child forked from a large parent reports the
# parent's pages instead (a `/bin/true` reads 13 MiB that way).
set -euo pipefail

family=scaling
scales="0.004 0.016 0.064"
vertices_list="12000"
ranks_list=2
runs=3
while [[ $# -gt 0 && $1 == --* ]]; do
    case $1 in
        --family) family=$2; shift 2 ;;
        --scales) scales=$2; shift 2 ;;
        --vertices) vertices_list=$2; shift 2 ;;
        --ranks) ranks_list=$2; shift 2 ;;
        --runs) runs=$2; shift 2 ;;
        *) echo "unknown option $1" >&2; exit 2 ;;
    esac
done
case $family in
    scaling) rungs=$scales; mcmc=(--mcmc batch) ;;
    challenge) rungs=$vertices_list; mcmc=() ;;
    *) echo "unknown family $family (scaling or challenge)" >&2; exit 2 ;;
esac
if [[ $# -lt 1 || $# -gt 2 ]]; then
    echo "usage: $0 [--family scaling|challenge] [--scales \"S ...\"] [--vertices \"N ...\"] [--ranks \"R ...\"] [--runs N] BIN [BIN2]" >&2
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
printf '%-6s %-8s %-9s %-5s %-4s %-5s %9s %10s\n' rung V E ranks bin run wall_s peak_mib
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
        reference="$rung/pred_${ranks}_0_1.txt"
        if [[ $family == scaling ]]; then
            reference="$rung/pred_${first_ranks}_0_1.txt"
        fi
        for run in $(seq 1 "$runs"); do
            order=("${!bins[@]}")
            if [[ ${#bins[@]} -eq 2 && $((run % 2)) -eq 0 ]]; then
                order=(1 0)
            fi
            for i in "${order[@]}"; do
                out="$rung/pred_${ranks}_${i}_${run}.txt"
                reading=$(measure "${bins[$i]}" partition --sharded "$rung/shards_$ranks" \
                    --backend edist --ranks "$ranks" "${mcmc[@]}" --seed 43 --out "$out")
                echo "$reading" >>"$rung/readings_${ranks}_$i"
                printf '%-6s %-8s %-9s %-5s %-4s %-5s %9s %10s\n' \
                    "$rung_arg" "$vertices" "$edges" "$ranks" "$i" "$run" $reading
                if ! cmp -s "$out" "$reference"; then
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
            fi
            printf '%-6s %-8s %-9s %-5s %-4s %-5s %9s %10s  %s\n' \
                "$rung_arg" "$vertices" "$edges" "$ranks" "$i" median "$wall" "$peak" "$ratio"
        done
    done
done
