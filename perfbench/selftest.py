#!/usr/bin/env python3
"""Self-tests of the ccsim benchmark program (ccsim_perfbench).

Usage (from the repository root):

    python3 perfbench/selftest.py

Builds ccsim_perfbench the way run.py does, then checks:

  1. the program's metric catalog (--list-metrics) matches BENCHMARK.json:
     every name, unit and direction, split into end-to-end and per-layer;
  2. a tiny-scale smoke of every workload, untraced and traced: the last
     stdout line is the result object, it reports no failed check, and it
     carries exactly the metrics BENCHMARK.json lists for that mode;
  3. the exact simulated metrics (miss_rate, overhead_insns_per_access)
     repeat across two same-seed runs, change with the seed, and match
     between the traced and the untraced run.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SMOKE = ["--scale", "0.05", "--seconds", "0.5"]
# Runnable with the same command but not in BENCHMARK.json (see RATIONALE.md).
EXTRA_WORKLOADS = ["sweep-lattice"]
EXACT = ("miss_rate", "overhead_insns_per_access")
DETERMINISTIC = ("replay-miss", "sweep-lattice", "service-hot")

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def drive(exe, workload, seed, trace):
    args = [exe, "--workload", workload, "--seed", str(seed),
            "--trace", str(trace)] + SMOKE
    proc = subprocess.run(args, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    exact = {}
    for line in lines:
        if line.startswith("exact: "):
            exact = dict(kv.split("=") for kv in line[len("exact: "):].split())
    return proc.returncode, result, exact


def main():
    out = run.build_dir()
    if not run.build(out):
        print("build failed")
        return 1
    exe = os.path.join(out, "ccsim_perfbench")
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    # 1. Catalog against BENCHMARK.json.
    catalog = json.loads(subprocess.run([exe, "--list-metrics"], check=True,
                                        capture_output=True, text=True).stdout)
    declared = {m["name"]: (m["unit"], m["better"], True) for m in bench["end_to_end"]}
    declared.update({m["name"]: (m["unit"], m["better"], False) for m in bench["per_layer"]})
    emitted = {m["name"]: (m["unit"], m["better"], m["end_to_end"]) for m in catalog}
    expect(declared == emitted, "metric catalog matches BENCHMARK.json")
    for name in sorted(set(declared) ^ set(emitted)):
        print("      only in %s: %s" % ("BENCHMARK.json" if name in declared else "ccsim_perfbench", name))
    for name in sorted(set(declared) & set(emitted)):
        if declared[name] != emitted[name]:
            print("      %s: BENCHMARK.json %s, ccsim_perfbench %s" % (name, declared[name], emitted[name]))

    # 2. Smoke of every workload in both modes.
    exact_by_mode = {}
    for w in [x["name"] for x in bench["workloads"]] + EXTRA_WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, exact = drive(exe, w, 7, trace)
            tag = "%s --trace %d" % (w, trace)
            expect(code == 0 and result is not None, tag + ": exits 0 with a result")
            if result is None:
                continue
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   tag + ": result keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, tag + ": no failed check")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            expect(got == want, tag + ": metrics and units match BENCHMARK.json")
            expect(all(isinstance(v.get("value"), (int, float))
                       and math.isfinite(v["value"])
                       for v in result["metrics"].values()),
                   tag + ": every value is a finite number")
            exact_by_mode[(w, trace)] = exact

    # 3. Exact metrics: repeat per seed, change with it, traced == untraced.
    for w in DETERMINISTIC:
        _, again, exact_again = drive(exe, w, 7, 0)
        _, other, exact_other = drive(exe, w, 8, 0)
        first = exact_by_mode.get((w, 0), {})
        expect(bool(first) and exact_again == first,
               w + ": exact metrics repeat for the same seed")
        expect(bool(first) and all(exact_other.get(k) != first.get(k) for k in EXACT),
               w + ": exact metrics change with the seed")
        expect(bool(first) and exact_by_mode.get((w, 1)) == first,
               w + ": traced and untraced runs agree on the exact metrics")
        if again is not None and first:
            expect(all(repr(again["metrics"][k]["value"]) == repr(float(first[k]))
                       for k in EXACT),
                   w + ": result object carries the exact metrics")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
