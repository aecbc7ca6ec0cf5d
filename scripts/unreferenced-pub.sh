#!/usr/bin/env bash
# Public items that nothing outside their own file reaches.
#
# A candidate is every `pub [const|async|unsafe ]*(fn|struct|enum|trait|const|static|type)
# NAME` line under crates/, src/, tests/ and examples/ (`pub(crate)` and `mod` items are not
# candidates, and neither are the definitions of the benchmark package under
# crates/bench/src/bin/benchmark/). It is referenced when NAME appears as a whole word in some
# *other* `*.rs` file once `//` comments and `pub use …;` statements are removed: a re-export
# is not a caller. The benchmark's files do count as referrers.
#
# Every unreferenced candidate must be listed in scripts/unreferenced-pub.allow as
# `path NAME  # reason`. The script exits 1, naming the item, when a candidate is not listed,
# when a listed entry is no longer a candidate (another file names it now) or when a listed
# entry is no longer defined. So the list can only shrink. Only bash, find, grep and sed run;
# nothing is written to disk.
#
#   ./scripts/unreferenced-pub.sh
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/unreferenced-pub.allow
bench_dir=crates/bench/src/bin/benchmark/

mapfile -t files < <(find crates src tests examples -name '*.rs' -not -path '*/target/*')

# `path NAME` for every public definition outside the benchmark package.
declare -A defined=()
order=()
while read -r path name; do
  [[ $path == "$bench_dir"* || -n ${defined["$path $name"]:-} ]] && continue
  defined["$path $name"]=1
  order+=("$path $name")
done < <(grep -nE '^[[:space:]]*pub ((const|async|unsafe) )*(fn|struct|enum|trait|const|static|type) [A-Za-z_]' "${files[@]}" |
  sed -nE 's/^([^:]*):[0-9]+:[[:space:]]*pub ((const|async|unsafe) )*(fn|struct|enum|trait|const|static|type) ([A-Za-z_][A-Za-z0-9_]*).*/\1 \5/p')

# For each defined NAME, the number of files that name it as a whole word once their `//`
# comments and `pub use …;` statements (one line or several) are removed.
names=$(for key in "${order[@]}"; do echo "${key#* }"; done)
declare -A seen=() files_naming=()
for f in "${files[@]}"; do
  while IFS= read -r name; do
    [[ -n ${seen[$f:$name]:-} ]] && continue
    seen[$f:$name]=1
    files_naming[$name]=$((${files_naming[$name]:-0} + 1))
  done < <(sed -E -e 's://.*$::' -e '/^[[:space:]]*pub use /{:more' -e '/;/!{N;b more' -e '};d}' "$f" |
    grep -owF -f <(echo "$names"))
done

# Unreferenced: no file but the defining one names it.
declare -A unreferenced=()
for key in "${order[@]}"; do
  path=${key% *} name=${key#* }
  own=0
  [[ -n ${seen[$path:$name]:-} ]] && own=1
  ((${files_naming[$name]:-0} - own > 0)) || unreferenced[$key]=1
done

failed=0
declare -A allowed=()
while IFS= read -r line; do
  [[ $line =~ ^[[:space:]]*(#|$) ]] && continue
  if ! [[ $line =~ ^([^[:space:]]+)[[:space:]]+([A-Za-z_][A-Za-z0-9_]*)[[:space:]]+#[[:space:]]*[^[:space:]] ]]; then
    echo "$allow: \`$line\` is not \`path NAME  # reason\`"
    failed=1
    continue
  fi
  key="${BASH_REMATCH[1]} ${BASH_REMATCH[2]}"
  allowed[$key]=1
  if [[ -z ${defined[$key]:-} ]]; then
    echo "$allow: $key is no longer defined; delete the entry"
    failed=1
  elif [[ -z ${unreferenced[$key]:-} ]]; then
    echo "$allow: $key is named by another file now; delete the entry"
    failed=1
  fi
done <"$allow"

for key in "${order[@]}"; do
  if [[ -n ${unreferenced[$key]:-} && -z ${allowed[$key]:-} ]]; then
    echo "$key: pub item that no other file names; use it, make it private, or allowlist it with a reason"
    failed=1
  fi
done

echo "${#unreferenced[@]} unreferenced pub items, ${#allowed[@]} allowlisted"
exit "$failed"
