#!/usr/bin/env python3
"""Self-test of the benchmark of record; run from the repository root:

  python3 perfbench/selftest.py

Runs every workload at the tiny size and checks that
  1. every BENCHMARK.json metric is printed by name with its unit, in the
     result line and in the human-readable table, in both modes;
  2. the exact per-run counts repeat bit-for-bit across two traced runs;
  3. the right reference digests pass, and a wrong one shows up as a
     failed operation and an incorrect run.
Exits 1 on the first workload that fails a check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["faultsim-health-d1", "faultsim-quick-d2", "fleet-mix"]
EXACT = ["faultsim.runs", "runtime.events", "monitor.steps", "nvm.commits"]


def run(*args):
    r = subprocess.run([sys.executable, RUN] + list(args), cwd=ROOT,
                       capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        sys.exit("run.py %s exited with %d:\n%s" % (" ".join(args),
                                                      r.returncode, r.stderr))
    lines = r.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in WORKLOADS:
        errors = []
        common = ["--workload", w, "--size", "tiny", "--seed", "5",
                  "--seconds", "0"]
        traced = []
        for trace, group in ((0, "end_to_end"), (1, "per_layer"), (1, None)):
            text, res = run(*(common + ["--trace", str(trace)]))
            if not res["correct"] or res["failed"]:
                errors.append("trace %d run failed: %s" % (trace, res))
            for spec in bench[group] if group else []:
                name, unit = spec["name"], spec["unit"]
                got = res["metrics"].get(name)
                if got is None or got["unit"] != unit:
                    errors.append("result line lacks %s [%s]" % (name, unit))
                row = re.compile(r"^\s+%s\s+\S+ %s$" % (re.escape(name),
                                                        re.escape(unit)))
                if not any(row.match(line) for line in text):
                    errors.append("table lacks %s [%s]" % (name, unit))
            if trace:
                traced.append(res["metrics"])
            else:
                digests = [line.split()[2:] for line in text
                           if line.strip().startswith("report digest ")]
        for name in EXACT:
            a, b = (m[name]["value"] for m in traced)
            if a != b:
                errors.append("%s differs across runs: %r vs %r" % (name, a, b))
        if not digests:
            errors.append("no report digests printed")
        right = []
        for key, hex_digest in digests:
            right += ["--expect", "%s=%s" % (key, hex_digest)]
        _, res = run(*(common + ["--trace", "0"] + right))
        if not res["correct"] or res["failed"]:
            errors.append("the run's own digests were not accepted: %s" % res)
        wrong = right[:-1] + [right[-1].split("=")[0] + "=" + "0" * 32]
        _, res = run(*(common + ["--trace", "0"] + wrong))
        if res["correct"] or res["failed"] < 1:
            errors.append("a wrong reference digest went unnoticed: %s" % res)
        if errors:
            print("FAIL %s" % w)
            for e in errors:
                print("  " + e)
            sys.exit(1)
        print("ok   %s" % w)


if __name__ == "__main__":
    main()
