#!/usr/bin/env bash
# Byte-parity gate: answer the perfbench `rank` and `explain` workloads
# (seed 1) in process and compare each answer digest with the value
# committed below. The run must also end correct, with no failed
# operation. A change that alters a response body on purpose updates the
# digest here and says in CHANGES.md which bytes changed and why.
#
# Usage: scripts/digest_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# workload, expected digest
EXPECTED=(
    "rank 02934152dba752ea"
    "explain ea0a45d2d0a202d9"
)

status=0
for row in "${EXPECTED[@]}"; do
    read -r workload expected <<<"$row"
    out=$(bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 1 --trace 0)
    digest=$(sed -n 's/^dry run: .* digest \([0-9a-f]*\)$/\1/p' <<<"$out")
    last=$(tail -n 1 <<<"$out")
    if [[ "$digest" != "$expected" ]]; then
        echo "digest_check: $workload digest ${digest:-missing}, expected $expected" >&2
        status=1
    elif [[ "$last" != *'"correct":true'* ]] || ! grep -q '"failed":0[,}]' <<<"$last"; then
        echo "digest_check: $workload run not correct or had failures: $last" >&2
        status=1
    else
        echo "digest_check: $workload digest $digest ok"
    fi
done
exit "$status"
