#!/bin/sh
# Drives every production surface of drhw_sched once: the built-in
# campaign (both event-queue backends), generated and committed .dwl
# workloads, the `online` flag matrix, both trace encodings through
# info/verify/render, and the graph flow (demo, info, schedule, dot).
#
# Usage: tools/production_surfaces.sh BUILD_DIR OUT_DIR
#
# Reports, traces and rendered charts land in OUT_DIR; console output is
# discarded. Run on a --coverage build, it measures what production
# reaches: tools/unexecuted_lines.sh then lists the src/ lines it never
# ran. Any failing command stops the script.
set -eu

sched=$(cd "$1" && pwd)/drhw_sched
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$2"
cd "$2"

run() { "$sched" "$@" > /dev/null; }

# Campaigns: every built-in scenario, generated and committed workloads.
run campaign --iterations 30 --quiet --json campaign.json --csv campaign.csv
run campaign --iterations 30 --queue heap --quiet --json campaign-heap.json
run genwork --out genwork --count 6
run campaign --workload-dir genwork --quiet --json genwork.json
run campaign --workload "$root/examples/workloads/multimedia_mix.dwl" \
  --quiet --json mix.json

# The online flag matrix.
busy="--tiles 12 --rate 120 --iterations 150"
run online $busy --defrag
run online $busy --defrag --admission backfill_bypass
run online $busy --defrag --admission window_reorder
run online $busy --ports 2 --discipline priority
run online $busy --ports 4 --discipline priority
run online $busy --isp 2 --isp-discipline priority
for policy in edf llf edf_hybrid; do
  run online --tiles 12 --rate 140 --deadline-scale 2 --crit-fraction 0.3 \
    --preempt --approach "$policy" --iterations 150
done
run online $busy --lookahead 3
for arrivals in poisson bursty closed_loop periodic sporadic; do
  run online --arrivals "$arrivals" --period-us 5000 --rate 40 \
    --deadline-scale 2 --iterations 100
done
for replacement in lru weight critical-first random oracle; do
  run online $busy --replacement "$replacement"
done
run online $busy --sched-cost-us paper
run online $busy --sched-cost-us 200
run online $busy --perf
run online --workload pocket_gl --iterations 40

# Traces: a contended run in both encodings, read back every way.
contended="--approach hybrid --arrivals bursty --rate 120 --tiles 8 --defrag
  --isp 2 --deadline-scale 1.2 --preempt --iterations 200"
run online $contended --trace contended.jsonl
run online $contended --trace contended.bin --trace-format binary
for trace in contended.jsonl contended.bin; do
  run trace info "$trace"
  run trace verify "$trace"
  run trace render "$trace" --width 120 --out "$trace.txt"
  run trace render "$trace" --format svg --out "$trace.svg"
done

# The graph flow.
"$sched" demo > graph.json
run info graph.json
run schedule graph.json --tiles 4
run dot graph.json
