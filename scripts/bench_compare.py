#!/usr/bin/env python3
"""Diff two BENCH_<name>.json files (bench/bench_json.hpp format).

Usage: bench_compare.py BASELINE.json CURRENT.json

Rows are matched by their identity fields (every string field plus small
integer knobs like `threads` / `r` / `versions_kept`); numeric fields are
printed side by side with a percentage delta. The exit code is 0 whenever
both files parse — the comparison is informational (CI runs it non-gating;
perf deltas on shared runners are noisy), 2 on unreadable/unmatched input.
"""

import json
import sys

# String fields (e.g. `system`, `section`) are identity automatically;
# these small integer knobs join them.
ID_INT_FIELDS = {"threads", "r", "versions_kept", "batch", "shards"}


def row_key(row):
    key = []
    for k, v in row.items():
        if isinstance(v, str) or k in ID_INT_FIELDS:
            key.append((k, v))
    return tuple(key)


def load(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for row in doc.get("rows", []):
        rows[row_key(row)] = row
    return doc, rows


def fmt(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        base_doc, base_rows = load(sys.argv[1])
        cur_doc, cur_rows = load(sys.argv[2])
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2

    name = cur_doc.get("bench", "?")
    base_host = base_doc.get("host", {})
    cur_host = cur_doc.get("host", {})
    print(f"bench_compare: {name}  ({sys.argv[1]} -> {sys.argv[2]})")
    if base_host != cur_host:
        print(f"  note: hosts differ: {base_host} vs {cur_host}")

    # Values each identity field takes across the current rows: lets us
    # distinguish "this run dropped a row" from "the baseline knows a
    # variant this binary doesn't have" (older binaries vs a baseline that
    # gained rows for a new variant — tolerated, reported informationally).
    cur_field_values = {}
    for key in cur_rows:
        for k, v in key:
            cur_field_values.setdefault(k, set()).add(v)

    matched = 0
    for key, base in base_rows.items():
        cur = cur_rows.get(key)
        label = " ".join(f"{k}={v}" for k, v in key) or "(row)"
        if cur is None:
            unknown = [f"{k}={v}" for k, v in key
                       if k in cur_field_values and v not in cur_field_values[k]]
            if unknown:
                print(f"  {label}: baseline-only variant "
                      f"({', '.join(unknown)} absent from current run)")
            else:
                print(f"  {label}: missing from current run")
            continue
        matched += 1
        deltas = []
        for field, bv in base.items():
            if (field, bv) in key or not isinstance(bv, (int, float)):
                continue
            cv = cur.get(field)
            if not isinstance(cv, (int, float)):
                continue
            if bv:
                pct = 100.0 * (cv - bv) / bv
                deltas.append(f"{field} {fmt(bv)} -> {fmt(cv)} ({pct:+.1f}%)")
            elif cv != bv:
                deltas.append(f"{field} {fmt(bv)} -> {fmt(cv)}")
        print(f"  {label}:")
        for d in deltas:
            print(f"    {d}")
    for key in cur_rows:
        if key not in base_rows:
            label = " ".join(f"{k}={v}" for k, v in key)
            print(f"  {label}: new row (not in baseline)")

    if matched == 0:
        print("bench_compare: no rows matched between the two files",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
