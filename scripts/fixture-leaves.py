#!/usr/bin/env python3
"""Proves that a re-layout of the golden fixtures moved no value.

Usage: scripts/fixture-leaves.py OLD_DIR NEW_DIR

Every JSON file of OLD_DIR is paired with its file in NEW_DIR and both are flattened into
leaves (`traditional.tenants[0].conversation.turns[0].goodput_bps` -> its JSON text, numbers
compared as written, not as parsed floats). A file of the old per-family layout,
`<family>_<name>.json`, pairs with `<name>.json`, and its leg paths move as the one-report
layout nests them:

  scenario_*      <leg>.X -> <leg>.tenants[0].conversation.turns[0].X
  conversation_*  <leg>.X -> <leg>.tenants[0].conversation.X
  contention_*    <leg>.X -> <leg>.X

Any other file pairs with the same name and keeps its paths. The script prints, per pair,
every removed key and every added key (array indices folded to `[*]`, with the number of
leaves under each), and every value that differs. It exits 1 on a value difference or a
file without a partner, 0 otherwise: added and removed keys are the shape change to review.
"""

import json
import os
import re
import sys

LEGS = ("traditional", "ai_oriented")
NESTING = {
    "scenario": ".tenants[0].conversation.turns[0]",
    "conversation": ".tenants[0].conversation",
    "contention": "",
}


class Number(str):
    """A JSON number kept as the text the file holds."""


def text(value):
    """A scalar's JSON text: a number as written, anything else re-encoded."""
    return str(value) if isinstance(value, Number) else json.dumps(value)


def leaves(value, path, out):
    """Flattens `value` into `out`: path -> JSON text of each scalar (or empty container)."""
    if isinstance(value, dict) and value:
        for key, child in value.items():
            leaves(child, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list) and value:
        for i, child in enumerate(value):
            leaves(child, f"{path}[{i}]", out)
    else:
        out[path] = text(value)
    return out


def load(path):
    """The leaves of one fixture."""
    with open(path) as f:
        return leaves(json.load(f, parse_float=Number, parse_int=Number), "", {})


def moved(path, nesting):
    """Where an old leaf path lives in the one-report layout."""
    for leg in LEGS:
        if path == leg or path.startswith(leg + ".") or path.startswith(leg + "["):
            return leg + nesting + path[len(leg):]
    return path


def folded(paths):
    """Paths with array indices folded to `[*]`, each with how many leaves it stands for."""
    counts = {}
    for path in paths:
        key = re.sub(r"\[\d+\]", "[*]", path)
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


def main(old_dir, new_dir):
    failed = False
    paired = set()
    for name in sorted(f for f in os.listdir(old_dir) if f.endswith(".json")):
        family, _, rest = name.partition("_")
        nesting = NESTING.get(family)
        new_name = rest if nesting is not None else name
        new_path = os.path.join(new_dir, new_name)
        if not os.path.exists(new_path):
            print(f"{name}: no {new_name} in {new_dir}")
            failed = True
            continue
        paired.add(new_name)
        old = {moved(path, nesting or ""): value for path, value in load(os.path.join(old_dir, name)).items()}
        new = load(new_path)
        removed = sorted(set(old) - set(new))
        added = sorted(set(new) - set(old))
        differing = sorted(p for p in set(old) & set(new) if old[p] != new[p])
        print(
            f"{name} -> {new_name}: {len(set(old) & set(new))} leaves kept, {len(differing)} differ, "
            f"{len(removed)} removed, {len(added)} added"
        )
        for path in removed:
            print(f"  removed {path}")
        for key, count in folded(added):
            print(f"  added   {key} ({count})")
        for path in differing:
            print(f"  DIFFERS {path}: {old[path]} -> {new[path]}")
        failed |= bool(differing)
    for name in sorted(f for f in os.listdir(new_dir) if f.endswith(".json") and f not in paired):
        print(f"{name}: no partner in {old_dir}")
        failed = True
    print("FAIL: values moved or files unpaired" if failed else "OK: zero value differences")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2])
    sys.exit(main(sys.argv[1], sys.argv[2]))
