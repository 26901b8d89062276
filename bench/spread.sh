#!/usr/bin/env bash
# Runs each workload N times, seeds FIRST_SEED..FIRST_SEED+N-1 (FIRST_SEED
# defaults to 1), and prints per end-to-end
# metric the median, the interquartile range (Python's
# statistics.quantiles(values, n=4)) and (max-min)/median, each spread
# as a share of the median.  Run from the repository root:
#
#   bash bench/spread.sh [N] [SECONDS] [WORKLOAD...]
#
# N defaults to 5, SECONDS to run_seconds of BENCHMARK.json and the
# workloads to those it lists.
set -euo pipefail

n=${1:-5}
seconds=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
shift $(($# < 2 ? $# : 2))
workloads=("$@")
((${#workloads[@]})) || read -ra workloads <<<"$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

for w in "${workloads[@]}"; do
	first=${FIRST_SEED:-1}
	for ((seed = first; seed < first + n; seed++)); do
		bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1
	done | python3 -c '
import json, statistics, sys
runs = [json.loads(line) for line in sys.stdin]
name = sys.argv[1]
bad = [r for r in runs if not r["correct"] or r["failed"]]
print(f"{name}: {len(runs)} runs, {len(bad)} incorrect")
for m in sorted(runs[0]["metrics"]):
    xs = [r["metrics"][m]["value"] for r in runs]
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4)
    unit = runs[0]["metrics"][m]["unit"]
    print(f"  {m:14} median {med:12.6g} {unit:5}  iqr/median {(q3 - q1) / med:7.2%}  (max-min)/median {(max(xs) - min(xs)) / med:7.2%}")
    print("    runs: " + " ".join(f"{x:.4g}" for x in xs))
' "$w"
done
