#!/usr/bin/env bash
# Hot-path regression gate and recorder — the `bench_check` binary, the one runner of the
# one suite (`aivc_bench::hotpath_suite`): re-measures every tracked hot path — the
# per-stage entries, the warm networked turn (`conversation_turn_warm`) and the multi-session
# `conversation_fleet_throughput_256` — and fails if any median regressed more than the
# tolerance versus the committed BENCH_hotpaths.json.
# The throughput entry is re-measured at the committed file's recorded
# `pool_lanes` (override with AIVC_POOL_SIZE) so comparisons are lane-for-lane.
#
#   ./scripts/bench-check.sh                     # 5 % tolerance (the ROADMAP rule)
#   BENCH_CHECK_TOLERANCE=0.10 ./scripts/bench-check.sh   # relaxed (noisy CI runners)
#   AIVC_POOL_SIZE=8 ./scripts/bench-check.sh    # force a pool size for the throughput entry
#   ./scripts/bench-check.sh path/to/other.json  # compare against a different baseline
#   ./scripts/bench-check.sh --only <name>       # gate just the named entries
#
# Re-recording (when a median legitimately shifted) follows the documented max-of-3
# rule — three full measurement runs, each entry keeping its slowest median, so the
# committed bar is conservative against measurement noise:
#
#   ./scripts/bench-check.sh --record                 # re-record the whole baseline
#   ./scripts/bench-check.sh --record --only <name>   # surgically re-record one entry
set -euo pipefail
cd "$(dirname "$0")/.."
if [ "${1:-}" = "--record" ]; then
  exec cargo run --release -p aivc-bench --bin bench_check -- --max-of 3 "$@"
fi
# The default baseline goes first so an explicitly passed path (a later positional
# argument) overrides it.
exec cargo run --release -p aivc-bench --bin bench_check -- BENCH_hotpaths.json "$@"
