#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark of the api facade.

    python3 perfbench/run.py --workload yago-paper --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/driver.cc against the
repository's library (Release, into .bench_build/), runs one workload,
checks its answers, prints a readable report and, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1
the per_layer ones (plus the paper comparison table). See
perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("yago-paper", "ldbc-paper", "serve-topk", "mixed-write")
PAPER_SPEEDUP = 6.1  # Fig 12, average over the YAGO queries

sys.path.insert(0, HERE)
import metrics  # noqa: E402


class BenchError(Exception):
    pass


def run(cmd, timeout, capture=False):
    """Runs `cmd` in its own process group; on timeout the whole group is
    killed and reaped, so nothing outlives the benchmark."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{cmd[0]} timed out after {timeout}s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "database.h")):
        raise BenchError("the repository sources (src/) are missing")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            timeout=300)
    run(["cmake", "--build", BUILD, "--target", "perfbench_driver", "-j",
         str(os.cpu_count() or 1)], timeout=850)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def pins_for(workload, seed):
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(args, raw, computed, pin_note):
    ctx = raw["context"]
    print(f"== perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} scale={args.scale} ==")
    print(f"context: nproc={ctx['nproc']} compiler={ctx['compiler']} "
          f"build={ctx['build_type']} default_dop={ctx['default_dop']} "
          f"plan_fingerprint='{ctx['plan_fingerprint']}' "
          f"timeout_ms={ctx['timeout_ms']} server_workers="
          f"{ctx['server_workers']} server_queue={ctx['server_queue']}")
    print(f"dataset: {ctx['nodes']} nodes, {ctx['edges']} edges "
          f"(persons={ctx['persons']}, generator seed={args.seed})")
    print(f"checks: attempted={raw['attempted']} failed={raw['failed']} "
          f"wrong={raw['wrong']} failed_ratio="
          f"{fmt(metrics.ratio(raw['failed'], raw['attempted']))} "
          f"pins={pin_note}")
    for message in raw["failures"]:
        print(f"  failure: {message}")
    window = raw["windows"][0]
    for name, (value, unit) in computed.items():
        line = f"{name:30s} {fmt(value):>14s} {unit}"
        if name == "latency_tail_ms":
            p, _, beyond = metrics.tail(window["latency_ms"])
            line += (f"  (p{p:g}, {beyond} samples beyond, "
                     f"n={len(window['latency_ms'])})")
        print(line)
    if args.trace == 0 and window["write_ms"]:
        writes = window["write_ms"]
        p, value, beyond = metrics.tail(writes)
        print(f"{'write_latency_p50_ms':30s} "
              f"{fmt(metrics.median(writes)):>14s} ms")
        print(f"{'write_latency_tail_ms':30s} {fmt(value):>14s} ms  "
              f"(p{p:g}, {beyond} samples beyond, n={len(writes)})")
    if args.trace == 1 and args.workload.endswith("-paper"):
        print("per query (execution ms, one untimed run each):")
        print(f"  {'query':8s} {'baseline':>10s} {'rewritten':>10s} "
              f"{'speedup':>8s} {'rows':>9s}")
        for q in raw["queries"]:
            speedup = metrics.speedups([q])
            print(f"  {q['id']:8s} {q['baseline_ms']:10.2f} "
                  f"{q['rewritten_ms']:10.2f} "
                  f"{(speedup[0] if speedup else 0):7.2f}x {q['rows']:9d}"
                  f"{'  reverted' if q['reverted'] else ''}")
        geo = computed["core.rewrite_speedup_geomean"][0]
        print(f"  geomean speedup {geo:.2f}x (paper: {PAPER_SPEEDUP}x)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs toy datasets (self-tests only)")
    args = parser.parse_args()

    try:
        names = spec()["per_layer" if args.trace else "end_to_end"]
        build()
        spans_path = os.path.join(
            BUILD, f"spans-{args.workload}-{args.seed}.jsonl")
        out = run([DRIVER, "--workload", args.workload, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace",
                   str(args.trace), "--scale", args.scale, "--spans",
                   spans_path], timeout=170, capture=True)
        raw = json.loads(out)
        if args.trace:
            computed = metrics.per_layer(raw, metrics.load_spans(spans_path))
        else:
            computed = metrics.end_to_end(raw)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    failed = raw["failed"]
    wrong = raw["wrong"]
    pins = pins_for(args.workload, args.seed) if args.scale == "full" else None
    pin_note = "not pinned"
    if pins is not None:
        mismatches = metrics.check_pins(raw, pins)
        raw["failures"] += mismatches
        failed += len(mismatches)
        wrong += len(mismatches)
        pin_note = "mismatch" if mismatches else "matched"
    raw["failed"], raw["wrong"] = failed, wrong

    wanted = {m["name"]: m["unit"] for m in names}
    got = {name: unit for name, (_, unit) in computed.items()}
    if got != wanted:
        print(f"perfbench: computed metrics {got} differ from "
              f"BENCHMARK.json {wanted}", file=sys.stderr)
        return 1
    computed = {name: computed[name] for name in wanted}
    report(args, raw, computed, pin_note)
    result = {
        "correct": wrong == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in computed.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
