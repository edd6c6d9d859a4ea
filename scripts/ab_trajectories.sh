#!/usr/bin/env bash
# Byte-identity A/B of two edist-cli builds: the same inputs and seeds
# through every backend, assignment and --trajectory-out files compared
# with cmp, and a resident daemon's warm rounds, snapshot and stats
# compared. A change that keeps "the same bits" must report 106/106.
#
#   scripts/ab_trajectories.sh <parent-bin> <change-bin> [workdir]
#
# Given one build on both sides it checks that a rerun in a fresh process
# repeats itself, cell for cell (what CI runs).
#
# Cells: {sequential, hybrid, batch, edist thread x {graph, shards,
# shards under --mcmc batch (what the two EDiSt benchmark workloads time),
# 3 shards (the smallest rank count with more than one peer)},
# edist tcp-local x {graph, shards, shards under --mcmc batch (what
# edist_tcp_sparse times), 3 shards (a mesh exchange with two peers)},
# dcsbp} x seeds 1-3 x
# {graph_challenge(3000, hard), scaling_graph(1M, 0.004)} — the graphs of
# the BENCHMARK.json workloads, 2 ranks wherever ranks apply and nothing
# else is said. Inputs are written once, by the parent binary; both
# builds read the same files.
# Shard cells, first: the change binary shards both graphs into 2 and 3
# shards as well, and its .sbps files must equal the parent's byte for
# byte — the one place the change's shard writer is compared.
# Resume cells, after the `sequential` and `edist-thread-shards-batch`
# cells (a single-node and a sharded search): the same run again with
# `--checkpoint`, thinned by `--checkpoint-every` to the one snapshot just
# past the middle of the uninterrupted trajectory, then `--resume` from
# it in a fresh process. The resumed assignment and trajectory must equal
# the uninterrupted cell's on each side, and the two sides' .sbpc bytes
# each other's — a resumed search is the one start that holds no
# blockmodel from an earlier iteration.
# Width-1 cells, after each `sequential` and `serve-warm` cell: the change
# binary again under SBP_THREADS=1, where the golden search runs no probe
# ahead on the pool, must write exactly what its default-width run wrote —
# overlap off == on (sbp_core::sbp, "Overlapped probes").
# Daemon cells (the serve_warm workload's path): `serve --seed S` on each
# graph, then four rounds of `--ingest` + `--repartition warm` —
# dirty-set-filtered sweeps, where most proposals are skipped — then
# `--checkpoint`, `--stats true --json true`, `--shutdown`. Rounds 1, 2
# and 4 ingest one fixed batch (a self-loop in it; round 1 inserts its
# arcs, the later ones re-weight them), round 3 twenty heavy new arcs
# (weight 30). A warm round runs its first probe beside its refine pass
# and keeps it only if the refine moved no vertex: on the challenge graph
# rounds 1, 2 and 4 take that commit path and round 3, whose refine moves
# vertices, the drop path; on the scaling graph every round's refine
# moves vertices, so every round drops it. Compared: the replies of the
# four rounds, the .sbpc bytes (a snapshot carries nothing run-dependent)
# and the stats without `uptime_seconds` (DL and trajectory tail to the
# last digit).
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
    "edist-tcp-shards-batch|--sharded {g}.shards --cluster tcp-local --ranks 2 --mcmc batch"
    "edist-tcp-shards-r3|--sharded {g}.shards3 --cluster tcp-local --ranks 3"
    "dcsbp|--graph {g}.mtx --backend dcsbp --ranks 2"
)

# resume_cell <partition arguments> <seed>: leaves <side>.sbpc and the
# resumed <side>.res.out / <side>.res.traj next to the uninterrupted
# cell's <side>.out / <side>.traj; fails when a run does.
resume_cell() {
    local args=$1 seed=$2 side every
    every=$((($(wc -l <parent.traj) - 1) / 2 + 1))
    for side in parent change; do
        rm -f $side.sbpc
        # shellcheck disable=SC2086
        "${!side}" partition $args --seed $seed --checkpoint $side.sbpc \
            --checkpoint-every $every --out $side.ck.out >$side.log 2>&1 &&
            "${!side}" partition $args --seed $seed --resume $side.sbpc \
                --out $side.res.out --trajectory-out $side.res.traj >$side.log 2>&1 ||
            return 1
    done
}

total=0
same=0
for g in challenge scaling; do
    for dir in $g.shards $g.shards3; do
        case $dir in *3) ranks=3 ;; *) ranks=2 ;; esac
        total=$((total + 1))
        rm -rf "change.$dir"
        if ! "$change" shard --graph $g.mtx --ranks $ranks --out "change.$dir" >change.log 2>&1; then
            echo "FAILED    $g shard-$ranks (change build, see $work/change.log)"
        elif diff -rq "$dir" "change.$dir" >/dev/null; then
            same=$((same + 1))
            echo "identical $g shard-$ranks"
        else
            echo "DIFFERENT $g shard-$ranks"
        fi
    done
done
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
            if [ "$name" = sequential ]; then
                total=$((total + 1))
                # shellcheck disable=SC2086
                if ! SBP_THREADS=1 "$change" partition $args --seed $seed \
                    --out width1.out --trajectory-out width1.traj >width1.log 2>&1; then
                    echo "FAILED    $g $name-width1 seed $seed (see $work/width1.log)"
                elif cmp -s change.out width1.out && cmp -s change.traj width1.traj; then
                    same=$((same + 1))
                    echo "identical $g $name-width1 seed $seed"
                else
                    echo "DIFFERENT $g $name-width1 seed $seed"
                fi
            fi
            case $name in sequential | edist-thread-shards-batch) ;; *) continue ;; esac
            total=$((total + 1))
            if ! resume_cell "$args" $seed; then
                echo "FAILED    $g $name-resume seed $seed (see $work/parent.log, $work/change.log)"
            elif cmp -s parent.sbpc change.sbpc &&
                cmp -s parent.out parent.res.out && cmp -s parent.traj parent.res.traj &&
                cmp -s change.out change.res.out && cmp -s change.traj change.res.traj; then
                same=$((same + 1))
                echo "identical $g $name-resume seed $seed"
            else
                echo "DIFFERENT $g $name-resume seed $seed"
            fi
        done
    done
done

batch="0,1,2;5,9,1;17,3,1;100,200,1;300,1500,2;2999,0,3;1200,7,1;42,42,1"
heavy="2166,1462,30;2399,113,30;939,122,30;1593,1493,30;264,1737,30;1254,1397,30;\
387,2392,30;2095,634,30;395,1123,30;1421,2500,30;6,634,30;2145,353,30;250,1512,30;\
1045,2260,30;2887,244,30;1584,683,30;2411,2607,30;1269,1195,30;1563,1285,30;871,843,30"
# daemon_rounds <bin> <side> <address>: the client's half of a session;
# leaves <side>.rounds, <side>.sbpc and <side>.stats.
daemon_rounds() {
    local bin=$1 side=$2 to=$3
    for round in "$batch" "$batch" "$heavy" "$batch"; do
        "$bin" connect --to "$to" --ingest "$round" || return 1
        "$bin" connect --to "$to" --repartition warm || return 1
    done >"$side.rounds"
    "$bin" connect --to "$to" --checkpoint "$work/$side.sbpc" >/dev/null || return 1
    "$bin" connect --to "$to" --stats true --json true |
        sed 's/"uptime_seconds":[^,}]*,\{0,1\}//' >"$side.stats"
}
# daemon_session <bin> <side> <graph stem> <seed>: boots the daemon, runs
# the rounds against it and takes it down again, whatever they came to.
daemon_session() {
    local bin=$1 side=$2 g=$3 seed=$4 to="unix:$work/$2.sock" daemon ok=0
    rm -f "$side.sock" "$side.sbpc"
    "$bin" serve --graph "$g.mtx" --listen "$to" --seed "$seed" >"$side.log" 2>&1 &
    daemon=$!
    for _ in $(seq 600); do
        grep -q "listening on" "$side.log" && break
        kill -0 $daemon 2>/dev/null || return 1
        sleep 0.1
    done
    daemon_rounds "$bin" "$side" "$to" 2>>"$side.log" || ok=1
    "$bin" connect --to "$to" --shutdown true >/dev/null 2>&1 || kill $daemon 2>/dev/null
    wait $daemon 2>/dev/null || ok=1
    return $ok
}
for g in challenge scaling; do
    for seed in 1 2 3; do
        total=$((total + 1))
        for side in parent change; do
            if ! daemon_session "${!side}" $side $g $seed; then
                # Kept under its own name: the next cell overwrites $side.log.
                cp "$side.log" "failed.$g.$seed.$side.log"
                echo "FAILED    $g serve-warm seed $seed ($side build, see $work/failed.$g.$seed.$side.log)"
                continue 2
            fi
        done
        if cmp -s parent.sbpc change.sbpc && cmp -s parent.stats change.stats &&
            cmp -s parent.rounds change.rounds; then
            same=$((same + 1))
            echo "identical $g serve-warm seed $seed"
        else
            echo "DIFFERENT $g serve-warm seed $seed"
        fi
        total=$((total + 1))
        if ! SBP_THREADS=1 daemon_session "$change" width1 $g $seed; then
            cp width1.log "failed.$g.$seed.width1.log"
            echo "FAILED    $g serve-warm-width1 seed $seed (see $work/failed.$g.$seed.width1.log)"
        elif cmp -s change.sbpc width1.sbpc && cmp -s change.stats width1.stats &&
            cmp -s change.rounds width1.rounds; then
            same=$((same + 1))
            echo "identical $g serve-warm-width1 seed $seed"
        else
            echo "DIFFERENT $g serve-warm-width1 seed $seed"
        fi
    done
done
echo "$same/$total cells byte-identical (shards; assignment + trajectory; resume; snapshot + stats; width 1)"
[ "$same" -eq "$total" ]
