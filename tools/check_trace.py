#!/usr/bin/env python3
"""Validate a rangerpp trace file (and optionally a metrics snapshot).

The trace layer (src/util/trace.*) flushes scoped spans as Chrome
trace-event JSON — loadable in chrome://tracing or Perfetto.  CI runs
this checker on the traces its smoke jobs produce, so a formatting
regression in the hand-rolled JSON writer fails the build instead of
producing a file the viewers silently reject.

Checks:
  * the file parses as JSON with a "traceEvents" list;
  * every event has string "name"/"ph" and integer "pid"/"tid";
  * complete events (ph == "X") carry numeric "ts" and "dur" >= 0;
  * metadata events (ph == "M") are thread_name records;
  * the "otherData" metadata lists every thread's ring with integer
    "recorded"/"overwritten" counts, and no ring overwrote an event (a
    wrapped ring lost its oldest spans, so the trace is incomplete).

Optional assertions (repeatable):
  --require NAME        at least one complete span named exactly NAME
  --require-prefix P    at least one complete span whose name starts
                        with P
  --metrics FILE        also parse FILE as a metrics snapshot
                        (util::metrics::write_snapshot output)
  --nonzero KEY         with --metrics: KEY must exist among counters or
                        gauges with value > 0.  A trailing '*' matches
                        any key with that prefix (e.g. 'kernel.*').

Usage: tools/check_trace.py TRACE.json [options]
Exit status: 0 = valid, 1 = at least one violation.
"""

import argparse
import json
import sys


def fail(msg):
    print("check_trace: %s" % msg, file=sys.stderr)
    return 1


def check_trace(path, require, require_prefix):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return fail("%s: %s" % (path, e))
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return fail("%s: no traceEvents list" % path)

    spans = []
    for i, ev in enumerate(events):
        where = "%s: traceEvents[%d]" % (path, i)
        if not isinstance(ev, dict):
            return fail("%s: not an object" % where)
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            return fail("%s: missing name" % where)
        if not isinstance(ev.get("pid"), int) or not isinstance(
                ev.get("tid"), int):
            return fail("%s: missing pid/tid" % where)
        ph = ev.get("ph")
        if ph == "X":
            ts, dur = ev.get("ts"), ev.get("dur")
            if not isinstance(ts, (int, float)) or ts < 0:
                return fail("%s: bad ts %r" % (where, ts))
            if not isinstance(dur, (int, float)) or dur < 0:
                return fail("%s: bad dur %r" % (where, dur))
            args = ev.get("args", {})
            if not isinstance(args, dict):
                return fail("%s: args is not an object" % where)
            spans.append(ev["name"])
        elif ph == "M":
            if ev["name"] != "thread_name":
                return fail("%s: unknown metadata event %r"
                            % (where, ev["name"]))
        else:
            return fail("%s: unknown phase %r" % (where, ph))

    rc = check_rings(path, doc.get("otherData"))
    if rc:
        return rc

    names = set(spans)
    for want in require:
        if want not in names:
            return fail("%s: no span named %r (have %d distinct names)"
                        % (path, want, len(names)))
    for prefix in require_prefix:
        if not any(n.startswith(prefix) for n in names):
            return fail("%s: no span with prefix %r" % (path, prefix))
    print("check_trace: %s ok (%d complete spans, %d distinct names)"
          % (path, len(spans), len(names)))
    return 0


def check_rings(path, meta):
    threads = meta.get("threads") if isinstance(meta, dict) else None
    if not isinstance(threads, list):
        return fail("%s: no otherData.threads ring metadata" % path)
    lost = []
    for i, t in enumerate(threads):
        if not isinstance(t, dict) or not all(
                isinstance(t.get(k), int)
                for k in ("tid", "recorded", "overwritten")):
            return fail("%s: otherData.threads[%d] malformed" % (path, i))
        if t["overwritten"] > 0:
            lost.append("tid %d lost %d of %d"
                        % (t["tid"], t["overwritten"], t["recorded"]))
    if lost:
        return fail("%s: trace ring overwrote events (%s); raise "
                    "events_per_thread (%s) or trace a shorter run"
                    % (path, "; ".join(lost),
                       meta.get("events_per_thread")))
    return 0


def check_metrics(path, nonzero):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return fail("%s: %s" % (path, e))
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            return fail("%s: missing %s section" % (path, section))
    values = {}
    values.update(doc["counters"])
    values.update(doc["gauges"])
    for key in nonzero:
        if key.endswith("*"):
            prefix = key[:-1]
            total = sum(v for k, v in values.items()
                        if k.startswith(prefix))
            if total <= 0:
                return fail("%s: no nonzero metric with prefix %r"
                            % (path, prefix))
        elif values.get(key, 0) <= 0:
            return fail("%s: metric %r is zero or absent" % (path, key))
    print("check_trace: %s ok (%d counters, %d gauges)"
          % (path, len(doc["counters"]), len(doc["gauges"])))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace")
    ap.add_argument("--require", action="append", default=[])
    ap.add_argument("--require-prefix", action="append", default=[])
    ap.add_argument("--metrics")
    ap.add_argument("--nonzero", action="append", default=[])
    args = ap.parse_args()
    if args.nonzero and not args.metrics:
        return fail("--nonzero requires --metrics")
    rc = check_trace(args.trace, args.require, args.require_prefix)
    if rc == 0 and args.metrics:
        rc = check_metrics(args.metrics, args.nonzero)
    return rc


if __name__ == "__main__":
    sys.exit(main())
