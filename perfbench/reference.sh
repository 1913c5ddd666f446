#!/usr/bin/env bash
# Print every end-to-end and per-layer metric of every workload for one
# seed: an untraced run (--trace 0) and a traced run (--trace 1) each.
#   bash perfbench/reference.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="${2:-30}"
for workload in crowd churn aligned; do
    for trace in 0 1; do
        echo "== $workload seed $seed trace $trace"
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" | grep -v '^{'
    done
done
