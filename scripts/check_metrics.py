#!/usr/bin/env python3
"""Validate an `edist-cli partition --metrics-out` JSONL stream.

Usage:
    python3 scripts/check_metrics.py run.jsonl

Checks (schema 1, stdlib only — this script is CI's independent reader
of the stream, so it deliberately shares no code with the Rust writer):

* every line parses as one JSON object with a string `type`;
* the first line is the `meta` header (`schema` == 1, a `backend`
  string, numeric `seed` and `vertices`);
* `sweep` lines carry numeric `iteration`, `sweep`, `dl`, `proposed`,
  `accepted` (no cross-field check: on distributed backends `proposed`
  is rank 0's local share while `accepted` is the global move total,
  so `accepted > proposed` is legitimate);
* `iteration` lines carry numeric `iteration`, `blocks`, `dl`, and
  may carry `peak_rss_kib` (the process's `VmHWM` at the event, absent
  where there is no procfs): numeric and non-decreasing within the run;
* exactly one `summary` (numeric `dl`, `blocks`, `wall_seconds`,
  `virtual_seconds`) and exactly one `snapshot`;
* the snapshot's metrics decode: counters/gauges have a numeric
  `value`; histograms have `bounds`/`counts` arrays with
  `len(counts) == len(bounds) + 1` and a cumulative `count` equal to
  the sum of `counts`;
* every rank that reports `sbp_wire_syncs_total` also reports the
  counters `sbp_wire_sync_ns_total` (whole sync points) and
  `sbp_wire_sync_wait_ns_total` (the allgather inside them), and the
  second never exceeds the first;
* unknown line types are allowed (forward compatibility) but counted
  and reported.

Exit status is 0 on a valid stream, 1 otherwise.
"""

import json
import sys

KNOWN_TYPES = {"meta", "sweep", "iteration", "summary", "snapshot"}


def num(obj, key):
    v = obj.get(key)
    return v if isinstance(v, (int, float)) and not isinstance(v, bool) else None


def fail(errors, lineno, msg):
    errors.append(f"line {lineno}: {msg}")


def check_snapshot(metrics, lineno, errors):
    if not isinstance(metrics, dict):
        fail(errors, lineno, "snapshot 'metrics' must be an object")
        return
    for name, m in metrics.items():
        if not isinstance(m, dict):
            fail(errors, lineno, f"metric {name!r} must be an object")
            continue
        kind = m.get("type")
        if kind in ("counter", "gauge"):
            if num(m, "value") is None:
                fail(errors, lineno, f"{kind} {name!r} lacks a numeric 'value'")
        elif kind == "histogram":
            bounds, counts = m.get("bounds"), m.get("counts")
            if not isinstance(bounds, list) or not isinstance(counts, list):
                fail(errors, lineno, f"histogram {name!r} lacks bounds/counts arrays")
                continue
            if len(counts) != len(bounds) + 1:
                fail(
                    errors,
                    lineno,
                    f"histogram {name!r}: {len(counts)} counts for {len(bounds)} bounds",
                )
            if num(m, "sum") is None or num(m, "count") is None:
                fail(errors, lineno, f"histogram {name!r} lacks numeric sum/count")
            elif sum(counts) != m["count"]:
                fail(
                    errors,
                    lineno,
                    f"histogram {name!r}: count {m['count']} != bucket sum {sum(counts)}",
                )
        else:
            fail(errors, lineno, f"metric {name!r} has unknown type {kind!r}")
    check_wire_sync_times(metrics, lineno, errors)


def check_wire_sync_times(metrics, lineno, errors):
    syncs = "sbp_wire_syncs_total"
    for name in metrics:
        if not name.startswith(syncs + "{"):
            continue
        rank = name[len(syncs):]
        times = []
        for base in ("sbp_wire_sync_ns_total", "sbp_wire_sync_wait_ns_total"):
            m = metrics.get(base + rank)
            if not isinstance(m, dict) or m.get("type") != "counter" or num(m, "value") is None:
                fail(errors, lineno, f"{name!r} has no counter {base + rank!r} beside it")
            else:
                times.append(m["value"])
        if len(times) == 2 and times[1] > times[0]:
            fail(
                errors,
                lineno,
                f"{name!r}: {times[1]} ns waiting exceeds the {times[0]} ns of its syncs",
            )


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[0])
        print(f"usage: {sys.argv[0]} run.jsonl")
        return 1
    path = sys.argv[1]
    errors = []
    counts = {t: 0 for t in KNOWN_TYPES}
    unknown = 0
    last_peak = 0
    with open(path, encoding="utf-8") as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    if not lines:
        print(f"{path}: empty stream")
        return 1

    for lineno, line in enumerate(lines, 1):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            fail(errors, lineno, f"not valid JSON: {e}")
            continue
        if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
            fail(errors, lineno, "line must be an object with a string 'type'")
            continue
        kind = obj["type"]
        if kind not in KNOWN_TYPES:
            unknown += 1
            continue
        counts[kind] += 1

        if kind == "meta":
            if lineno != 1:
                fail(errors, lineno, "meta header must be the first line")
            if obj.get("schema") != 1:
                fail(errors, lineno, f"unsupported schema {obj.get('schema')!r}")
            if not isinstance(obj.get("backend"), str):
                fail(errors, lineno, "meta lacks a 'backend' string")
            for field in ("seed", "vertices"):
                if num(obj, field) is None:
                    fail(errors, lineno, f"meta lacks numeric {field!r}")
        elif kind == "sweep":
            for field in ("iteration", "sweep", "dl", "proposed", "accepted"):
                if num(obj, field) is None:
                    fail(errors, lineno, f"sweep lacks numeric {field!r}")
        elif kind == "iteration":
            for field in ("iteration", "blocks", "dl"):
                if num(obj, field) is None:
                    fail(errors, lineno, f"iteration lacks numeric {field!r}")
            if "peak_rss_kib" in obj:
                peak = num(obj, "peak_rss_kib")
                if peak is None:
                    fail(errors, lineno, "iteration 'peak_rss_kib' is not numeric")
                elif peak < last_peak:
                    fail(
                        errors,
                        lineno,
                        f"peak_rss_kib fell from {last_peak} to {peak}",
                    )
                else:
                    last_peak = peak
        elif kind == "summary":
            for field in ("dl", "blocks", "wall_seconds", "virtual_seconds"):
                if num(obj, field) is None:
                    fail(errors, lineno, f"summary lacks numeric {field!r}")
        elif kind == "snapshot":
            check_snapshot(obj.get("metrics"), lineno, errors)

    if counts["meta"] != 1:
        errors.append(f"expected exactly one meta header, found {counts['meta']}")
    if counts["summary"] != 1:
        errors.append(f"expected exactly one summary, found {counts['summary']}")
    if counts["snapshot"] != 1:
        errors.append(f"expected exactly one snapshot, found {counts['snapshot']}")
    if counts["sweep"] == 0:
        errors.append("stream has no sweep lines")
    if counts["iteration"] == 0:
        errors.append("stream has no iteration lines")

    print(
        f"{path}: {len(lines)} lines — "
        + ", ".join(f"{counts[t]} {t}" for t in ("sweep", "iteration", "summary", "snapshot"))
        + (f", {unknown} unknown (ignored)" if unknown else "")
    )
    if errors:
        print("metrics stream INVALID:")
        for e in errors:
            print(f"  - {e}")
        return 1
    print("metrics stream valid.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
