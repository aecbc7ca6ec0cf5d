#!/usr/bin/env bash
# Public items that production code does not run, or that nothing outside their own file
# names.
#
# Production code is every `*.rs` file under crates/*/src (the benchmark package and the
# figure binaries included), src/ and examples/, less each `#[cfg(test)]` item (a test
# module or a single test-only function). tests/, crates/*/tests/ and the unit tests are
# not production: they may call only what runs.
#
# A candidate is every `pub [const|async|unsafe ]*(fn|struct|enum|trait|const|static|type)
# NAME` in production code (`pub(crate)` and `mod` items are not candidates, and neither are
# the definitions of the benchmark package under crates/bench/src/bin/benchmark/). It is
# referenced when
#   (a) production code names NAME outside its definition (in any file): the item runs; and
#   (b) some other file, production or test, names NAME: the item needs to be `pub`.
# Names are whole words once comments, string and character literals and `pub use …;`
# statements are removed: a re-export is not a caller, and neither is a name inside a
# string (an attribute keeps its strings: `skip_serializing_if = "…"` names a function). So
# a twin of an engine entry point that only tests call fails (a), wherever its tests are.
#
# Every unreferenced candidate must be listed in scripts/unreferenced-pub.allow as
# `path NAME  # (reason) …`, the reason one of the four that file's header defines. The
# script exits 1, naming the item, when a candidate is not listed, when a listed entry is no
# longer a candidate (it is referenced now) or when a listed entry is no longer defined. So
# the list can only shrink. Only bash, find, sort and awk run; nothing is written to disk.
#
#   ./scripts/unreferenced-pub.sh
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/unreferenced-pub.allow

# One line `path NAME referenced` (referenced: 1 or 0) per public definition in production
# code outside the benchmark package.
scan() {
  local files
  mapfile -t files < <(find crates src tests examples -name '*.rs' -not -path '*/target/*' | LC_ALL=C sort)
  LC_ALL=C awk -v bench=crates/bench/src/bin/benchmark/ '
    # The line with comments, strings and char literals blanked. `blk` (block comment
    # depth), `str` (inside a string) and `closer` / `raw` (how it ends) carry across lines.
    function code(s,    out, i, n, c, j) {
      out = ""; n = length(s); i = 1
      while (i <= n) {
        c = substr(s, i, 1)
        if (blk) {
          if (substr(s, i, 2) == "*/") { blk--; i += 2 } else if (substr(s, i, 2) == "/*") { blk++; i += 2 } else i++
        } else if (str) {
          if (!raw && c == "\\") i += 2
          else if (substr(s, i, length(closer)) == closer) { str = 0; out = out " "; i += length(closer) }
          else i++
        } else if (substr(s, i, 2) == "//") {
          break
        } else if (substr(s, i, 2) == "/*") {
          blk = 1; i += 2
        } else if (c == "\"") {
          str = 1; raw = 0; closer = "\""; i++
        } else if (c == "r" && match(substr(s, i), /^r#*"/) && (i == 1 || substr(s, i - 1, 1) !~ /[A-Za-z0-9_]/)) {
          str = 1; raw = 1; closer = "\"" substr(s, i + 1, RLENGTH - 2); i += RLENGTH
        } else if (c == "'\''" && substr(s, i + 1, 1) == "\\") {
          j = index(substr(s, i + 2), "'\''"); out = out " "; i += 2 + j
        } else if (c == "'\''" && substr(s, i + 2, 1) == "'\''") {
          out = out " "; i += 3
        } else {
          out = out c; i++
        }
      }
      return out
    }
    FNR == 1 {
      files[++nfiles] = FILENAME; blk = str = pending = cut = reexport = 0
      production = FILENAME ~ /^(crates\/[^\/]+\/src|src|examples)\//
    }
    {
      # An attribute keeps its strings: `skip_serializing_if = "…"` names a function.
      line = $0 ~ /^[ \t]*#\[.*\][ \t]*$/ ? $0 : code($0)
      # A `#[cfg(test)]` item is test code: from its attributes to the end of its braces
      # (or its `;`).
      if (line ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/) { pending = 1; next }
      if (pending && line ~ /^[ \t]*(#\[.*)?$/) next
      if (pending) { pending = 0; cut = 1; depth = opened = 0 }
      test = cut || !production
      if (cut) {
        opens = gsub(/\{/, "{", line); depth += opens - gsub(/\}/, "}", line)
        if (opens) opened = 1
        if ((opened && depth <= 0) || (!opened && line ~ /;/)) cut = 0
      }
      # A re-export, which may span lines.
      if (line ~ /^[ \t]*pub use /) reexport = 1
      if (reexport) { if (line ~ /;/) reexport = 0; next }
      own = ""
      if (!test && index(FILENAME, bench) != 1 && match(line, /^[ \t]*pub ((const|async|unsafe) )*(fn|struct|enum|trait|const|static|type) [A-Za-z_][A-Za-z0-9_]*/)) {
        own = substr(line, RSTART, RLENGTH); sub(/.* /, "", own)
        if (!((FILENAME, own) in defined)) { defined[FILENAME, own] = 1; order[++ndefs] = FILENAME " " own }
      }
      n = split(line, word, /[^A-Za-z0-9_]+/)
      for (k = 1; k <= n; k++) {
        if (word[k] == "") continue
        named[FILENAME, word[k]] = 1
        # The definition does not run its own name.
        if (word[k] == own) own = ""
        else if (!test) runs[word[k]] = 1
      }
    }
    END {
      for (d = 1; d <= ndefs; d++) {
        split(order[d], key, " "); elsewhere = 0
        for (f = 1; f <= nfiles && !elsewhere; f++) elsewhere = files[f] != key[1] && (files[f], key[2]) in named
        print order[d], (elsewhere && key[2] in runs) ? 1 : 0
      }
    }' "${files[@]}"
}

declare -A defined=() unreferenced=()
order=()
while read -r path name referenced; do
  defined["$path $name"]=1
  order+=("$path $name")
  ((referenced)) || unreferenced["$path $name"]=1
done < <(scan)

failed=0
declare -A allowed=()
while IFS= read -r line; do
  [[ $line =~ ^[[:space:]]*(#|$) ]] && continue
  if ! [[ $line =~ ^([^[:space:]]+)[[:space:]]+([A-Za-z_][A-Za-z0-9_]*)[[:space:]]+#[[:space:]]*\((i|ii|iii|iv)\)[[:space:]]+[^[:space:]] ]]; then
    echo "$allow: \`$line\` is not \`path NAME  # (i|ii|iii|iv) reason\`"
    failed=1
    continue
  fi
  key="${BASH_REMATCH[1]} ${BASH_REMATCH[2]}"
  allowed[$key]=1
  if [[ -z ${defined[$key]:-} ]]; then
    echo "$allow: $key is no longer defined in production code; delete the entry"
    failed=1
  elif [[ -z ${unreferenced[$key]:-} ]]; then
    echo "$allow: $key is referenced now; delete the entry"
    failed=1
  fi
done <"$allow"

for key in "${order[@]}"; do
  if [[ -n ${unreferenced[$key]:-} && -z ${allowed[$key]:-} ]]; then
    echo "$key: pub item that production code does not run or no other file names; use it, delete it, make it private or test-only, or allowlist it with a reason"
    failed=1
  fi
done

echo "${#unreferenced[@]} unreferenced pub items, ${#allowed[@]} allowlisted"
exit "$failed"
