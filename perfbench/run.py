#!/usr/bin/env python3
"""Benchmark of record for the ARTEMIS reproduction; see perfbench/README.md.

Run from the repository root:

  python3 perfbench/run.py --workload faultsim-health-d1 --seed 42 --seconds 10 --trace 0
  python3 perfbench/run.py --workload fleet-mix --trace 1     # per-layer split
  python3 perfbench/run.py                                     # every workload, every metric
  python3 perfbench/run.py --record-reference                  # re-record reference digests

It builds perfbench/perfbench.exe from the repository's sources with dune,
starts it once per measurement, prints every metric by name with its unit,
and prints as its last line one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end ones, with
--trace 1 its per_layer ones.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["faultsim-health-d1", "faultsim-quick-d2", "fleet-mix"]

# Reference digests cover input seeds 0..REFERENCE_SEEDS-1; --seed s runs
# input seed s % REFERENCE_SEEDS, so every seed has a reference.  Seed 17
# is held out of tuning (README.md).
REFERENCE_SEEDS = 64
DEFAULT_SEED = 42

# setup_s is the median over this many set-up-only processes, started
# right after the measured run, plus the measured run itself.  They
# follow the run so that every one starts on a busy host: on an idle
# 2-vCPU VM, fleet-mix's warm-up, which starts a worker domain, took
# 24-27 ms against 11 ms right after a run, so the order of a driver's
# runs would otherwise decide the figure.
SETUP_PROBES = 30
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no dune project at %s: the benchmark builds the repository's own "
             "sources and must run from a checkout of it" % ROOT)
    # No shared dune cache: the build reads and writes only inside ROOT.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/perfbench.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("dune build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail("dune build failed")


def start(args):
    """Run perfbench.exe once; return (its JSON result, spawn wall time,
    its peak RSS in KiB)."""
    t_spawn = time.time()
    p = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("perfbench.exe %s exited with %d" % (" ".join(args), p.returncode))
    return json.loads(lines[-1]), t_spawn, usage.ru_maxrss


def load_reference():
    if not os.path.isfile(REFERENCE):
        return {}
    with open(REFERENCE) as f:
        return json.load(f)["digests"]


def measure(workload, seed, seconds, trace, size, expect):
    """One benchmark run: the measured process, then set-up probes."""
    input_seed = seed % REFERENCE_SEEDS
    problems = []
    if expect is None:
        expect = {}
        if size == "full":
            expect = load_reference().get(workload, {}).get(str(input_seed), {})
            if not expect:
                problems.append("no reference digests for %s input seed %d"
                                % (workload, input_seed))
    base = ["--workload", workload, "--seed", str(input_seed), "--size", size]
    for key, hex_digest in sorted(expect.items()):
        base += ["--expect", "%s=%s" % (key, hex_digest)]
    mode = "trace" if trace else "run"
    res, t_spawn, maxrss_kib = start(
        base + ["--mode", mode, "--seconds", repr(float(seconds))])
    setups = [res["t_first_op"] - t_spawn]
    for _ in range(SETUP_PROBES):
        probe, t_spawn, _ = start(base + ["--mode", "setup"])
        setups.append(probe["t_first_op"] - t_spawn)
    res["input_seed"] = input_seed
    res["metrics"]["setup_s"] = statistics.median(setups)
    res["metrics"]["peak_rss_mb"] = maxrss_kib / 1024.0
    res["problems"] = problems + res["problems"]
    return res


def show(res, bench, trace):
    """Print every metric by name with its unit, then the layer table."""
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    m = res["metrics"]
    print("perfbench %s: seed input %d, nproc %d, %s" % (
        res["workload"], res["input_seed"], res["nproc"],
        "traced" if trace else "untraced"))
    names = [x["name"] for x in bench["end_to_end"]]
    if trace:
        names += [x["name"] for x in bench["per_layer"]]
        print("  (end-to-end figures of a traced run come from its untraced "
              "pass; peak_rss_mb covers both passes)")
    for name in names:
        if name in m:
            print("  %-26s %16.6g %s" % (name, m[name], units[name]))
    if not trace:
        print("  %-26s %16.6g %s" % (
            "error_rate", res["failed"] / max(1, res["attempted"]), "ratio"))
    if res["iteration_rates"]:
        print("  iteration rates: %s 1/s" % " ".join(
            "%.0f" % r for r in res["iteration_rates"]))
    print("  operations: %d attempted, %d failed" % (res["attempted"], res["failed"]))
    for key, hex_digest in sorted(res["digests"].items()):
        print("  report digest %s %s" % (key, hex_digest))
    layers = res["layers_ns"]
    if layers:
        work = sum(v for k, v in layers.items() if k != "apparatus")
        print("  layer self time in the traced pass (share of its own work):")
        for name, ns in layers.items():
            if name != "apparatus":
                print("    %-20s %10.1f ms %6.1f%%" % (
                    name, ns / 1e6, 100.0 * ns / work if work else 0.0))
        print("    %-20s %10.1f ms  (measurement-only calls, not in shares)"
              % ("apparatus", layers["apparatus"] / 1e6))
    for p in res["problems"]:
        print("  PROBLEM: %s" % p)


def result_line(res, bench, trace):
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for spec in wanted:
        if spec["name"] not in res["metrics"]:
            fail("perfbench.exe did not report %s" % spec["name"])
        metrics[spec["name"]] = {"value": res["metrics"][spec["name"]],
                                 "unit": spec["unit"]}
    return json.dumps({"correct": not res["problems"],
                       "attempted": max(1, res["attempted"]),
                       "failed": res["failed"],
                       "metrics": metrics})


def record_reference():
    """Digest every workload's reports at every input seed; run this only
    at a commit whose simulated outputs are the reference."""
    tasks = [(w, s) for w in WORKLOADS for s in range(REFERENCE_SEEDS)]

    def one(task):
        w, s = task
        res, _, _ = start(["--workload", w, "--seed", str(s), "--mode", "run",
                           "--seconds", "0"])
        if res["problems"]:
            fail("%s seed %d: %s" % (w, s, res["problems"]))
        return w, s, res["digests"]

    digests = {w: {} for w in WORKLOADS}
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        for w, s, d in pool.map(one, tasks):
            digests[w][str(s)] = d
    with open(REFERENCE, "w") as f:
        json.dump({"input_seeds": REFERENCE_SEEDS, "digests": digests}, f,
                  indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %s" % REFERENCE)


def parse_expect(items):
    if items is None:
        return None
    out = {}
    for item in items:
        key, sep, hex_digest = item.partition("=")
        if not sep:
            fail("--expect wants KEY=HEX, got %r" % item)
        out[key] = hex_digest
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics "
                         "(default 1 for --workload all, else 0)")
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: the self-test's small inputs (no reference)")
    ap.add_argument("--expect", action="append", metavar="KEY=HEX",
                    help="judge reports against these digests instead of "
                         "reference.json")
    ap.add_argument("--record-reference", action="store_true",
                    help="re-record reference.json (one process per core)")
    args = ap.parse_args()
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("no BENCHMARK.json at %s" % ROOT)
    with open(bench_path) as f:
        bench = json.load(f)
    build()
    if args.record_reference:
        record_reference()
        return
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    expect = parse_expect(args.expect)
    if args.workload == "all":
        trace = 1 if args.trace is None else args.trace
        results = {}
        for w in WORKLOADS:
            res = measure(w, args.seed, seconds, trace, args.size, expect)
            show(res, bench, trace)
            results[w] = json.loads(result_line(res, bench, trace))
        print(json.dumps(results))
        return
    trace = args.trace or 0
    res = measure(args.workload, args.seed, seconds, trace, args.size, expect)
    show(res, bench, trace)
    print(result_line(res, bench, trace))


if __name__ == "__main__":
    main()
