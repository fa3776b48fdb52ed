#!/usr/bin/env bash
# Prints every end-to-end metric, with its unit, for each workload: one
# untraced run per workload of run_seconds (BENCHMARK.json) at the given
# seed (default 2017).
#
#   bash emviabench/report.sh [seed]
#
# Run from the root of the checkout. A workload whose output checks fail is
# reported with correct=false and makes the script exit non-zero.
set -uo pipefail
seed="${1:-2017}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
status=0
for w in table2 grid_ir_mc serve_mix; do
	line="$(bash emviabench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)"
	[ "${PIPESTATUS[0]}" -eq 0 ] || status=1
	if [ -z "$line" ]; then
		echo "$w: no result"
		status=1
		continue
	fi
	python3 - "$w" "$seed" "$seconds" "$line" <<'PY'
import json
import sys

workload, seed, seconds, res = sys.argv[1], sys.argv[2], sys.argv[3], json.loads(sys.argv[4])
print(f"{workload} seed={seed} seconds={seconds}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
for name, m in sorted(res["metrics"].items()):
    print(f"  {name:14s} {m['value']:14.6g} {m['unit']}")
PY
done
exit "$status"
