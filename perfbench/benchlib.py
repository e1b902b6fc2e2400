"""Statistics, rules and result checks of the repository benchmark.

Pure functions over the raw JSON the C++ workload program writes; run.py calls them
and test_benchlib.py covers them.
"""

import math
import statistics


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    s = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(s)))
    return s[min(rank, len(s)) - 1]


def quartiles(values):
    """(q1, median, q3), interpolated between samples (never outside them)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def backlog_grows(latency_ms, makespan_s, last_arrival_s, limit_ms):
    """True when a trace's queue did not drain at its arrival rate.

    Either the server finished more than the latency limit after the last
    arrival, or the latest quarter of requests (arrival order) waited at
    least half a limit longer than the first quarter.
    """
    if (makespan_s - last_arrival_s) * 1e3 > limit_ms:
        return True
    q = len(latency_ms) // 4
    if q == 0:
        return False
    first = statistics.median(latency_ms[:q])
    last = statistics.median(latency_ms[-q:])
    return last > first + limit_ms / 2.0


def rate_passes(trace, limit_ms):
    """A ladder rate passes with no failed request, p99 within the limit
    and no growing backlog."""
    lat = trace["latency_ms"]
    if trace["failed"] or not lat:
        return False
    if percentile(lat, 99) > limit_ms:
        return False
    return not backlog_grows(lat, trace["makespan_s"], trace["last_arrival_s"],
                             limit_ms)


def goodput(traces, limit_ms):
    """Highest ladder rate at which at least half of the trials pass (0 if
    no rate does). A passing rate above a failing one means the failures
    below met transient stalls of the host, not saturation, because past
    saturation the backlog grows in every trial."""
    trials = {}
    for t in traces:
        trials.setdefault(t["rate"], []).append(rate_passes(t, limit_ms))
    passing = [r for r, ok in trials.items() if 2 * sum(ok) >= len(ok)]
    return max(passing, default=0.0)


def union_length(intervals):
    """Total length covered by a set of [start, end] intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Per-layer self time: each span's duration minus the union of its
    children's intervals (clipped to the span), summed by layer, the span
    name's first dotted component. Spans are [name, start, end, parent, id]
    with parent an index into the list or -1."""
    children = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        kids = [(max(s, start), min(e, end)) for s, e in children.get(i, [])]
        covered = union_length([k for k in kids if k[1] > k[0]])
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - covered
    return out


RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result(result, bench, trace):
    """Problems with one printed result line against BENCHMARK.json: exact
    keys, whole counts, and exactly the declared metrics with their units."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"keys {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a bool")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool):
            problems.append(f"{k} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    declared = bench["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        problems.append("metrics differ from BENCHMARK.json: "
                        f"extra {sorted(set(metrics) - set(units))}, "
                        f"missing {sorted(set(units) - set(metrics))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"}:
            problems.append(f"{name}: keys {sorted(m)}")
            continue
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r}")
        if name in units and m["unit"] != units[name]:
            problems.append(f"{name}: unit {m['unit']} != {units[name]}")
    return problems
