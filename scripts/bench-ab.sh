#!/usr/bin/env bash
# Paired A/B of the end-to-end benchmark (BENCHMARK.json): a git revision against the
# working tree, the way a perf claim is judged.
#
#   ./scripts/bench-ab.sh REV [WORKLOAD] [PAIRS] [SECONDS]
#   ./scripts/bench-ab.sh HEAD~1                         # ai_chat_warm, 10 pairs of 5 s
#   ./scripts/bench-ab.sh main fleet64_ai_warm 6 8
#
# Builds the benchmark's own manifest twice, each side into its own CARGO_TARGET_DIR under
# target/bench-ab/: REV from a `git archive` export (so no worktree is registered), the
# working tree in place, uncommitted edits included. Then runs PAIRS pairs of WORKLOAD for
# SECONDS each, alternating which side runs first, and prints every pair's turn_host_us,
# setup_s, peak_heap_mb and report_digest, then each side's median and quartiles and how
# many pairs the working tree won (lower is better for all three). A pure speed-up keeps
# every report_digest equal; setup_s shows when the machine is in one of its slow phases
# (every side and metric moves together).
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: $0 REV [WORKLOAD] [PAIRS] [SECONDS]" >&2
  exit 2
}
[ $# -ge 1 ] && [ $# -le 4 ] || usage
rev=$1 workload=${2:-ai_chat_warm} pairs=${3:-10} seconds=${4:-5}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
[[ $seconds =~ ^[1-9][0-9]*$ ]] || usage
commit=$(git rev-parse --verify "$rev^{commit}") || usage

root=$PWD/target/bench-ab
manifest=crates/bench/src/bin/benchmark/Cargo.toml
mkdir -p "$root/base/run" "$root/new/run"
# Re-export only for another revision, so a repeated A/B reuses the base build.
if [ "$(cat "$root/base/rev" 2>/dev/null)" != "$commit" ]; then
  rm -rf "$root/base/src" "$root/base/rev"
  mkdir -p "$root/base/src"
  git archive "$commit" | tar -x -C "$root/base/src"
  echo "$commit" >"$root/base/rev"
fi

build() { # side, checkout
  echo "building $1 ($2)" >&2
  CARGO_TARGET_DIR=$root/$1/target cargo build --release --quiet --offline \
    --manifest-path "$2/$manifest"
}
build base "$root/base/src"
build new "$PWD"

# One run of a side: "turn_host_us setup_s peak_heap_mb report_digest".
run() {
  local out
  out=$(cd "$root/$1/run" && "$root/$1/target/release/benchmark" --workload "$workload" --seconds "$seconds")
  local digest
  digest=$(grep -o 'report_digest [0-9a-f]*' <<<"$out" | tail -1 | cut -d' ' -f2)
  tail -1 <<<"$out" | jq -r --arg digest "$digest" \
    '.metrics | "\(.turn_host_us.value) \(.setup_s.value) \(.peak_heap_mb.value) \($digest)"'
}

results=$root/pairs.txt
: >"$results"
printf '%-4s %-5s %12s %12s %10s %10s %11s %11s  %s\n' pair first base_us new_us \
  base_setup new_setup base_heapmb new_heapmb "digests (base / new)"
for pair in $(seq 1 "$pairs"); do
  if [ $((pair % 2)) -eq 1 ]; then
    first=base
    base=$(run base)
    new=$(run new)
  else
    first=new
    new=$(run new)
    base=$(run base)
  fi
  read -r b_us b_setup b_heap b_digest <<<"$base"
  read -r n_us n_setup n_heap n_digest <<<"$new"
  echo "$b_us $n_us $b_setup $n_setup $b_heap $n_heap $b_digest $n_digest" >>"$results"
  printf '%-4s %-5s %12.2f %12.2f %10.4f %10.4f %11.5f %11.5f  %s / %s\n' "$pair" "$first" \
    "$b_us" "$n_us" "$b_setup" "$n_setup" "$b_heap" "$n_heap" "$b_digest" "$n_digest"
done

python3 - "$results" <<'EOF'
import statistics, sys

rows = [line.split() for line in open(sys.argv[1])]
def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3
print()
print(f"{'metric':14} {'base q1 / median / q3':>30} {'new q1 / median / q3':>30} {'new wins':>9}")
for name, column in [("turn_host_us", 0), ("setup_s", 2), ("peak_heap_mb", 4)]:
    base = [float(row[column]) for row in rows]
    new = [float(row[column + 1]) for row in rows]
    wins = sum(n < b for b, n in zip(base, new))
    fmt = lambda q: " / ".join(f"{v:.4g}" for v in q)
    print(f"{name:14} {fmt(quartiles(base)):>30} {fmt(quartiles(new)):>30} {wins:>5} / {len(rows)}")
digests = {(row[6], row[7]) for row in rows}
same = all(base == new for base, new in digests)
print(f"report_digest: {'identical' if same else 'DIFFERENT'} ({', '.join(sorted({d for pair in digests for d in pair}))})")
EOF
