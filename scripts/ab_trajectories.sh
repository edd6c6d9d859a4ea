#!/usr/bin/env bash
# Byte-identity A/B of two edist-cli builds: the same inputs and seeds
# through every backend, assignment and --trajectory-out files compared
# with cmp. A change that keeps "the same bits" must report 60/60.
#
#   scripts/ab_trajectories.sh <parent-bin> <change-bin> [workdir]
#
# Cells: {sequential, hybrid, batch, edist thread x {graph, shards,
# shards under --mcmc batch (what the two EDiSt benchmark workloads time),
# 3 shards (the smallest rank count with more than one peer)},
# edist tcp-local x {graph, shards}, dcsbp} x seeds 1-3 x
# {graph_challenge(3000, hard), scaling_graph(1M, 0.004)} — the graphs of
# the BENCHMARK.json workloads, 2 ranks wherever ranks apply and nothing
# else is said. Inputs are written once, by the parent binary; both
# builds read the same files.
# Exit status: 0 when every cell is identical, 1 otherwise.
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 <parent-bin> <change-bin> [workdir]" >&2
    exit 2
fi
parent=$(realpath "$1")
change=$(realpath "$2")
work=${3:-$(mktemp -d)}
mkdir -p "$work"
cd "$work"

"$parent" generate --family challenge --vertices 3000 --difficulty hard \
    --seed 42 --out challenge.mtx --truth challenge.truth >/dev/null 2>&1
"$parent" generate --family scaling --id 1M --scale 0.004 \
    --seed 42 --out scaling.mtx --truth scaling.truth >/dev/null 2>&1
for g in challenge scaling; do
    "$parent" shard --graph $g.mtx --ranks 2 --out $g.shards >/dev/null 2>&1
    "$parent" shard --graph $g.mtx --ranks 3 --out $g.shards3 >/dev/null 2>&1
done

# name | arguments after `partition` ({g} = graph stem)
cells=(
    "sequential|--graph {g}.mtx --backend sequential"
    "hybrid|--graph {g}.mtx --backend hybrid"
    "batch|--graph {g}.mtx --backend batch"
    "edist-thread-graph|--graph {g}.mtx --backend edist --ranks 2"
    "edist-thread-shards|--sharded {g}.shards --backend edist --ranks 2"
    "edist-thread-shards-batch|--sharded {g}.shards --backend edist --ranks 2 --mcmc batch"
    "edist-thread-shards-r3|--sharded {g}.shards3 --backend edist --ranks 3"
    "edist-tcp-graph|--graph {g}.mtx --cluster tcp-local --ranks 2"
    "edist-tcp-shards|--sharded {g}.shards --cluster tcp-local --ranks 2"
    "dcsbp|--graph {g}.mtx --backend dcsbp --ranks 2"
)

total=0
same=0
for g in challenge scaling; do
    for cell in "${cells[@]}"; do
        name=${cell%%|*}
        args=${cell#*|}
        args=${args//\{g\}/$g}
        for seed in 1 2 3; do
            total=$((total + 1))
            for side in parent change; do
                # shellcheck disable=SC2086
                if ! "${!side}" partition $args --seed $seed \
                    --out $side.out --trajectory-out $side.traj >$side.log 2>&1; then
                    echo "FAILED    $g $name seed $seed ($side build, see $work/$side.log)"
                    continue 2
                fi
            done
            if cmp -s parent.out change.out && cmp -s parent.traj change.traj; then
                same=$((same + 1))
                echo "identical $g $name seed $seed"
            else
                echo "DIFFERENT $g $name seed $seed"
            fi
        done
    done
done
echo "$same/$total cells byte-identical (assignment + trajectory)"
[ "$same" -eq "$total" ]
