#!/usr/bin/env python3
"""Reduce a kvbench trace to a per-layer self-time table.

The traced run (kvbench --trace 1) writes PREFIX.spans (fixed 40-byte span
records, see trace.hpp) and PREFIX.json (variant and span names, the byte
order, the latency phase's HDR-histogram p50 and sample count per variant,
and the summed traced and untraced capacities).

A span's self time is its duration minus the part of that interval its
children cover. The table gives, per variant, phase and span name, the span
count and the mean and median of duration and self time.

Reconciliation, per variant, on the latency phase's `request` spans:
  * their count equals the histogram's sample count (no span lost);
  * their exact median is within the histogram's bucket error (1/16) below
    the histogram's p50;
  * mean duration = mean self time + mean child coverage, to within 1/16.

Usage: reduce.py PREFIX   (prints the table, the derived metrics as JSON,
and exits 1 if reconciliation fails)
"""
import json
import struct
import sys
from collections import defaultdict

HIST_ERR = 1.0 / 16  # LatencyHistogram: 16 linear sub-buckets per octave
PHASES = ["capacity", "latency", "probe", "ping"]


def exact_quantile(sorted_vals, q):
    """Same rank rule as LatencyHistogram::quantile and kvbench.cpp."""
    n = len(sorted_vals)
    if n == 0:
        return 0.0
    target = min(max(int(q * n + 0.5), 1), n)
    return float(sorted_vals[target - 1])


def load(prefix):
    with open(prefix + ".json") as f:
        side = json.load(f)
    order = "<" if side["endian"] == "little" else ">"
    rec = struct.Struct(order + "QQQQHHI")
    with open(prefix + ".spans", "rb") as f:
        data = f.read()
    if len(data) % rec.size:
        raise ValueError("truncated span file")
    return side, list(rec.iter_unpack(data))


def reduce(prefix):
    """Returns (table_lines, metrics, ok, problems)."""
    side, spans = load(prefix)
    variants, names = side["variants"], side["names"]

    # Child coverage of every parent, clipped to the parent's interval.
    interval = {}
    for start, end, sid, parent, _n, _v, _p in spans:
        interval[sid] = (start, end)
    covered = defaultdict(int)
    for start, end, _sid, parent, _n, _v, _p in spans:
        if parent and parent in interval:
            ps, pe = interval[parent]
            covered[parent] += max(0, min(end, pe) - max(start, ps))

    groups = defaultdict(lambda: ([], []))  # (v, phase, name) -> (dur, self)
    for start, end, sid, _parent, n, v, p in spans:
        dur = end - start if end > start else 0
        d, s = groups[(v, p, n)]
        d.append(dur)
        s.append(dur - min(dur, covered.get(sid, 0)))

    lines = ["%-6s %-9s %-16s %8s %11s %11s %11s %11s" % (
        "var", "phase", "span", "count", "dur_mean", "dur_p50", "self_mean",
        "self_p50") + "   (us)"]
    for (v, p, n) in sorted(groups):
        d, s = groups[(v, p, n)]
        ds, ss = sorted(d), sorted(s)
        lines.append("%-6s %-9s %-16s %8d %11.3f %11.3f %11.3f %11.3f" % (
            variants[v], PHASES[p], names[n], len(d),
            sum(d) / len(d) / 1e3, exact_quantile(ds, 0.5) / 1e3,
            sum(s) / len(s) / 1e3, exact_quantile(ss, 0.5) / 1e3))

    def mean(vals):
        return sum(vals) / len(vals) if vals else 0.0

    request = names.index("request")
    attempt = names.index("stm.attempt")
    store = [i for i, nm in enumerate(names) if nm.startswith("store.")]
    metrics, problems, worst = {}, [], 0.0
    for vi, v in enumerate(variants):
        dur, self_t = groups.get((vi, PHASES.index("latency"), request),
                                 ([], []))
        want = side["latency"][v]
        if len(dur) != want["requests"]:
            problems.append("%s: %d request spans, histogram has %d" % (
                v, len(dur), want["requests"]))
        exact = exact_quantile(sorted(dur), 0.5)
        hist = float(want["hist_p50_ns"])
        err = (hist - exact) / exact if exact > 0 else 0.0
        worst = max(worst, abs(err))
        if not -1e-9 <= err <= HIST_ERR:
            problems.append("%s: span p50 %.0f ns vs histogram p50 %.0f ns" % (
                v, exact, hist))
        if dur:
            total, own = mean(dur), mean(self_t)
            # own + children == total exactly unless a child escaped its
            # parent (clipped); the gap must stay within histogram error.
            children = mean([x - y for x, y in zip(dur, self_t)])
            if total > 0 and abs(total - own - children) / total > HIST_ERR:
                problems.append("%s: request self+children != duration" % v)
        probe = PHASES.index("probe")
        store_self = [x for n in store
                      for x in groups.get((vi, probe, n), ([], []))[1]]
        metrics[v + ".self.request_us"] = mean(self_t) / 1e3
        metrics[v + ".self.store_us"] = mean(store_self) / 1e3
        metrics[v + ".self.attempt_us"] = mean(
            groups.get((vi, probe, attempt), ([], []))[0]) / 1e3

    plain = side["capacity_untraced_ops_s"]
    traced = side["capacity_traced_ops_s"]
    metrics["trace.overhead_pct"] = (
        (plain - traced) / plain * 100.0 if plain > 0 else 0.0)
    metrics["trace.reconcile_err_pct"] = worst * 100.0
    return lines, metrics, not problems, problems


UNITS = {"trace.overhead_pct": "%", "trace.reconcile_err_pct": "%"}


def unit_of(name):
    return UNITS.get(name, "us")


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines, metrics, ok, problems = reduce(argv[1])
    print("\n".join(lines))
    for p in problems:
        print("reconcile: " + p)
    print(json.dumps({k: {"value": v, "unit": unit_of(k)}
                      for k, v in metrics.items()}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
