"""Turns the driver's raw measurements into the named metrics of
BENCHMARK.json.

The driver (driver.cc) prints one JSON document: setup timings, one or
two measurement windows of raw samples, counters, and per-query records.
A traced run also leaves a spans file, one JSON object per line. Nothing
here measures; it only reduces.
"""

import json
import math
import statistics

# Percentiles the tail may be reported at. The tail is the highest of
# these with at least TAIL_MIN_BEYOND samples beyond it. The ladder stops
# at p99: on a shared virtual machine p99.9 measures the host's stalls of
# a few milliseconds, not the system (see README.md, Noise).
TAIL_LADDER = (50.0, 90.0, 99.0)
TAIL_MIN_BEYOND = 10


def tail(samples):
    """Returns (percentile, value, beyond): the highest ladder percentile
    with at least TAIL_MIN_BEYOND samples strictly beyond it, by nearest
    rank, and how many samples lie beyond. With too few samples for any
    rung, the maximum at 100."""
    ordered = sorted(samples)
    n = len(ordered)
    best = (100.0, ordered[-1] if ordered else 0.0, 0)
    for p in TAIL_LADDER:
        # Nearest rank; the epsilon keeps float error (99.9 / 100 * 10000
        # is 9990.000000000002) from pushing the rank one too high.
        rank = max(1, math.ceil(p * n / 100.0 - 1e-9))
        value = ordered[rank - 1] if n else 0.0
        beyond = sum(1 for s in ordered if s > value)
        if beyond >= TAIL_MIN_BEYOND:
            best = (p, value, beyond)
    return best


def covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans):
    """Maps span id to its self time: its duration minus the part of its
    interval that its child spans cover."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(
                (s["start_ns"], s["end_ns"]))
    return {
        s["id"]: (s["end_ns"] - s["start_ns"]) -
        covered(children.get(s["id"], []), s["start_ns"], s["end_ns"])
        for s in spans
    }


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(raw):
    """The user-visible metrics of an untraced run, name -> (value, unit)."""
    w = raw["windows"][0]
    lat = w["latency_ms"]
    return {
        "setup_s": (median(raw["setup"]["total_s"]), "s"),
        "throughput_qps": (ratio(len(lat), w["wall_s"]), "1/s"),
        "latency_p50_ms": (median(lat), "ms"),
        "latency_tail_ms": (tail(lat)[1], "ms"),
        "peak_rss_mb": (w["peak_rss_mb"], "MB"),
    }


def speedups(queries):
    """Per-query baseline/rewritten execution-time ratios."""
    return [q["baseline_ms"] / q["rewritten_ms"] for q in queries
            if q["baseline_ms"] > 0 and q["rewritten_ms"] > 0]


def geomean(values):
    return math.exp(mean([math.log(v) for v in values])) if values else 0.0


def per_layer(raw, spans):
    """The per-layer metrics of a traced run, name -> (value, unit)."""
    untraced, traced = raw["windows"][0], raw["windows"][1]
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def durations(name, scale):
        return [(s["end_ns"] - s["start_ns"]) / scale
                for s in by_name.get(name, [])]

    def self_of(name, scale):
        return [selfs[s["id"]] / scale for s in by_name.get(name, [])]

    cache = untraced["cache"]
    server = untraced["server"]
    profile = raw["profile"]
    is_server = server["admitted"] > 0
    non_exec = [l - e for l, e in zip(untraced["latency_ms"],
                                      untraced["exec_ms"])]
    if is_server:
        execute_ms = mean(traced["exec_ms"])
        cpu_per_wall = ratio(untraced["cpu_s"], untraced["wall_s"])
    else:
        execute_ms = mean(self_of("api.execute", 1e6))
        cpu_per_wall = ratio(traced["exec_cpu_s"], traced["exec_wall_s"])
    return {
        "datasets.generate_s": (median(raw["setup"]["generate_s"]), "s"),
        "api.snapshot_build_ms": (median(self_of("api.snapshot", 1e6)), "ms"),
        "stats.collect_ms": (median(self_of("stats.collect", 1e6)), "ms"),
        "query.parse_us": (median(durations("query.parse", 1e3)), "us"),
        "core.rewrite_us": (median(durations("core.rewrite", 1e3)), "us"),
        "ra.translate_us": (median(durations("ra.translate", 1e3)), "us"),
        "ra.optimize_us": (median(durations("ra.optimize", 1e3)), "us"),
        "api.prepare_hit_us": (median(durations("api.prepare_hit", 1e3)),
                               "us"),
        "api.prepare_miss_us": (median(durations("api.prepare_miss", 1e3)),
                                "us"),
        "api.plan_cache_hit_ratio": (
            ratio(cache["hits"], cache["hits"] + cache["misses"]), "ratio"),
        "api.plan_cache_evictions": (cache["evictions"], "count"),
        "api.plan_cache_invalidations": (cache["invalidations"], "count"),
        "api.write_us": (median(durations("api.write", 1e3)), "us"),
        "server.non_exec_us": (median(non_exec) * 1e3, "us"),
        "server.shed_ratio": (
            ratio(server["shed"], server["admitted"] + server["shed"]),
            "ratio"),
        "server.degraded_ratio": (ratio(server["degraded"],
                                        server["admitted"]), "ratio"),
        "ra.execute_ms": (execute_ms, "ms"),
        "ra.cpu_per_wall": (cpu_per_wall, "ratio"),
        "ra.closure_rows": (profile["closure_rows"], "count"),
        "ra.join_rows": (profile["join_rows"], "count"),
        "ra.rows_per_result": (ratio(untraced["rows_processed"],
                                     untraced["result_rows"]), "ratio"),
        "ra.mem_peak_mb": (untraced["mem_peak_bytes"] / 2**20, "MB"),
        "inc.pending_rows": (raw["delta"]["pending_rows"], "count"),
        "inc.compactions": (raw["delta"]["compactions"], "count"),
        "core.closures_removed": (profile["closures_removed"], "count"),
        "core.reverted_ratio": (ratio(profile["reverted"], profile["texts"]),
                                "ratio"),
        "core.rewrite_speedup_geomean": (geomean(speedups(raw["queries"])),
                                         "x"),
        "bench.trace_overhead_pct": (
            (ratio(median(traced["latency_ms"]),
                   median(untraced["latency_ms"])) - 1.0) * 100.0, "%"),
    }


def check_pins(raw, pins):
    """Row-count mismatches against the per-seed pins (empty when this
    seed is not pinned). `pins` maps query id to its row count."""
    return [f'{q["id"]}: {q["rows"]} rows, pinned {pins[q["id"]]}'
            for q in raw["queries"]
            if q["id"] in pins and q["rows"] != pins[q["id"]]]
