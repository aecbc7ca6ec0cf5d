#!/usr/bin/env bash
# `cargo test` with a name filter, failing when the filter matches nothing.
#
# A filtered `cargo test` that selects no test still exits 0 ("0 passed; N filtered out"),
# so a CI step pinned to a test by name passes vacuously once that test is renamed or
# deleted. This wrapper runs `cargo test "$@"` and additionally requires at least one
# test binary to report at least one passed test.
#
#   ./scripts/test-filtered.sh -q -p aivc-videocodec rate_plan::
#   AIVC_POOL_SIZE=4 ./scripts/test-filtered.sh -q --test model_properties parallel
set -uo pipefail
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
cargo test "$@" 2>&1 | tee "$out"
status=${PIPESTATUS[0]}
if [ "$status" -ne 0 ]; then
  exit "$status"
fi
if ! grep -Eq '^test result: ok\. [1-9][0-9]* passed' "$out"; then
  echo "error: \`cargo test $*\` ran no test — the name filter matches nothing" >&2
  exit 1
fi
