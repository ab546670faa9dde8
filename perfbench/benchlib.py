"""Pure helpers of the rangerpp benchmark: percentiles, the tail rule,
trace-span self time and the per-layer ratios.  No I/O, so
test_benchlib.py exercises them directly."""

import math

# Percentiles the tail rule picks from, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 97.5, 99.0, 99.9)


def median(values):
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return 0.0
    mid = n // 2
    return vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    vals = sorted(values)
    if not vals:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(vals)))
    return vals[rank - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n, ladder=TAIL_LADDER):
    """The highest ladder percentile with at least ten of n samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in ladder:
        if samples_beyond(n, p) >= 10:
            best = p
    return best


def nested_spans(events):
    """Yields (span, child_time) for every Chrome trace-event "X" event,
    where child_time is the part of the span's interval covered by its
    child spans (spans on the same thread that lie inside it)."""
    by_tid = {}
    for e in events:
        if e.get("ph") == "X":
            by_tid.setdefault((e.get("pid"), e.get("tid")), []).append(e)
    for spans in by_tid.values():
        # Parents before their children: earlier start, then longer span.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        children = {id(e): [] for e in spans}
        stack = []
        for e in spans:
            end = e["ts"] + e["dur"]
            while stack and stack[-1]["ts"] + stack[-1]["dur"] < end:
                stack.pop()
            if stack:
                children[id(stack[-1])].append((e["ts"], end))
            stack.append(e)
        for e in spans:
            yield e, union_length(children[id(e)])


def self_times(events):
    """Total self time per span name, in microseconds: a span's duration
    minus the part of its interval covered by its child spans."""
    totals = {}
    for e, covered in nested_spans(events):
        totals[e["name"]] = totals.get(e["name"], 0.0) + e["dur"] - covered
    return totals


def child_time(events, parents):
    """Microseconds the spans named in `parents` spend inside their child
    spans: their duration minus their own self time."""
    return sum(covered for e, covered in nested_spans(events)
               if e["name"] in parents)


def union_length(intervals):
    """Length of the union of [start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_totals(events, names):
    """Summed duration (microseconds) of the "X" spans named in `names`."""
    return sum(e["dur"] for e in events
               if e.get("ph") == "X" and e.get("name") in names)


def ratio(num, den):
    return num / den if den else 0.0


def counter_delta(end, begin, name):
    """A registry counter's growth between two snapshots (either may be
    None, read as all zeros)."""
    def read(snap):
        return ((snap or {}).get("counters") or {}).get(name, 0)
    return read(end) - read(begin)


def kernel_counters(end, begin=None):
    """kernel.<backend> dispatch counts between two registry snapshots."""
    names = set(((end or {}).get("counters") or {}))
    return {n: counter_delta(end, begin, n)
            for n in names if n.startswith("kernel.")}


def executor_layers(end, begin=None):
    """Per-trial executor and kernel ratios from registry snapshots."""
    trials = counter_delta(end, begin, "campaign.trials")
    runs = (counter_delta(end, begin, "exec.partial_runs") +
            counter_delta(end, begin, "exec.full_runs"))
    kernels = kernel_counters(end, begin)
    dispatches = sum(kernels.values())
    hits = counter_delta(end, begin, "cache.workload.hit")
    builds = counter_delta(end, begin, "cache.workload.build")
    return {
        "exec.elements_touched_per_trial":
            ratio(counter_delta(end, begin, "exec.elements_touched"), trials),
        "exec.nodes_pruned_per_run":
            ratio(counter_delta(end, begin, "exec.nodes_pruned"), runs),
        "exec.sparse_nodes_per_run":
            ratio(counter_delta(end, begin, "exec.sparse_nodes"), runs),
        "kernel.dispatch_per_trial": ratio(dispatches, trials),
        "kernel.scalar_fallback_share":
            ratio(kernels.get("kernel.scalar", 0), dispatches),
        "cache.workload_hit_ratio": ratio(hits, hits + builds),
    }


def busy_delta(begin, end):
    """Worker busy fraction over the interval between two scheduler
    `stats` snapshots, from each snapshot's uptime and per-worker
    lifetime busy fractions.  Returns (fraction, busy worker-seconds)."""
    up0, up1 = begin["uptime_s"], end["uptime_s"]
    busy0 = sum(begin["worker_busy_fraction"]) * up0
    busy1 = sum(end["worker_busy_fraction"]) * up1
    span = (up1 - up0) * end["workers"]
    return ratio(busy1 - busy0, span), busy1 - busy0
