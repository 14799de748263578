#!/usr/bin/env bash
# Proc data-plane regression guard: reads a BENCH_proc.json report
# (dynobench -exp procbench, the 2-worker TPC-H workload at the default
# scale) and fails if the data plane has lost what binary frames,
# wave-batched dispatch and worker-to-worker shuffle bought it:
#
#   - dispatch bytes <= 925 B/task (a third of the 2,775 B/task JSON
#     per-task dispatch measured before it was deleted);
#   - >= 2 tasks per RPC (per-task dispatch sent one);
#   - <= 2,678 B of shuffle through the controller (a fifth of the
#     13,391 B the controller-side shuffle carried);
#   - a nonzero number of shuffle bytes moved worker-to-worker.
#
# Exact RPC and byte counts are not pinned: batch conflation depends on
# timing, so they move between runs.
#
# Usage: scripts/check_procbytes.sh [BENCH_proc.json]
set -euo pipefail
cd "$(dirname "$0")/.."

report="${1:-BENCH_proc.json}"
max_bytes_per_task=925
min_tasks_per_rpc=2
max_ctl_shuffle_bytes=2678

if [[ ! -f "$report" ]]; then
    echo "check_procbytes: $report not found (run: go run ./cmd/dynobench -exp procbench -procbenchout $report)" >&2
    exit 1
fi

bytes_per_task=$(jq -r '.bytesPerTask' "$report")
tasks_per_rpc=$(jq -r '.tasksPerRpc' "$report")
ctl_shuffle=$(jq -r '.ctlShuffleBytes' "$report")
peer_bytes=$(jq -r '.peerShuffleBytes' "$report")

fail=0
check() { # name value op bound
    if awk -v got="$2" -v bound="$4" "BEGIN { exit !(got $3 bound) }"; then
        echo "check_procbytes: $1 $2 ($3 $4) ok"
    else
        echo "check_procbytes: $1 $2 violates $3 $4" >&2
        fail=1
    fi
}
check "dispatch B/task" "$bytes_per_task" "<=" "$max_bytes_per_task"
check "tasks/RPC" "$tasks_per_rpc" ">=" "$min_tasks_per_rpc"
check "controller shuffle bytes" "$ctl_shuffle" "<=" "$max_ctl_shuffle_bytes"
check "peer shuffle bytes" "$peer_bytes" ">" 0

jq -r '"check_procbytes: \(.rpcs) rpcs, \(.tasks) tasks, \(.bytesOut + .bytesIn) dispatch bytes, \(.ctlShuffleBytes) B ctl-shuffle, \(.peerShuffleBytes) B peer-shuffle, \(.jobs) jobs, \(.virtualSec)s virtual"' "$report"
exit $fail
