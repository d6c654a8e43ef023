#!/usr/bin/env bash
# Checks that regenerated artifacts are value-identical to the committed
# ones, seed for seed:
#   * every BENCH_exp_*.json equals its HEAD version once the wall-clock
#     fields (wall_secs, runs_per_sec, threads) are removed;
#   * TRACE_exp_e1.jsonl, TRACE_exp_w3.jsonl and HEALTH_exp_h1.jsonl are
#     byte-identical to HEAD.
# Run it after the sweeps, trace_gen and health_gen have rewritten the
# artifacts at the workspace root. Exits nonzero on any difference.
#
# Usage:
#   scripts/check_artifacts.sh
set -euo pipefail
cd "$(dirname "$0")/.."

strip='walk(if type == "object" then del(.wall_secs, .runs_per_sec, .threads) else . end)'
status=0
for f in BENCH_exp_*.json; do
    if ! git cat-file -e "HEAD:$f" 2>/dev/null; then
        echo "not committed: $f" >&2
        status=1
        continue
    fi
    if ! d=$(diff -u <(git show "HEAD:$f" | jq -S "$strip") <(jq -S "$strip" "$f")); then
        echo "values differ from HEAD: $f" >&2
        printf '%s\n' "$d" | head -40 >&2 || true
        status=1
    fi
done
if ! git diff --exit-code --stat -- TRACE_exp_e1.jsonl TRACE_exp_w3.jsonl HEALTH_exp_h1.jsonl; then
    echo "trace or health artifact differs from HEAD" >&2
    status=1
fi
if [ "$status" -eq 0 ]; then
    echo "artifacts value-identical to HEAD"
fi
exit "$status"
