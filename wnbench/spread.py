#!/usr/bin/env python3
"""Spread report: run workloads repeatedly, interleaved, and print each
end-to-end metric's median, quartiles and spread (IQR over median) next to
its bound in BENCHMARK.json.

    python3 wnbench/spread.py [--runs 10] [--seconds 10] [--first-seed 1]
                              [--workloads a,b] [--out FILE.json]

Run from the root of the checkout. Run k uses seed first-seed + k on every
workload; the workloads alternate within each round, so slow drift of the
machine lands on all of them alike.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {} for w in workloads}
    failed = {w: [] for w in workloads}
    for k in range(a.runs):
        seed = a.first_seed + k
        for w in workloads:
            cmd = [*bench["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
            if r.returncode != 0 or not last.startswith("{"):
                print(f"run {w} seed {seed} failed (exit {r.returncode})", file=sys.stderr)
                sys.exit(1)
            res = json.loads(last)
            failed[w].append((res["failed"], res["attempted"]))
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"run {k + 1}/{a.runs} {w} seed {seed}: "
                  + ", ".join(f"{n}={v['value']:.6g}" for n, v in res["metrics"].items()),
                  file=sys.stderr)

    report = {}
    print(f"{'workload':14} {'metric':20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for w in workloads:
        report[w] = {}
        for name, vs in values[w].items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            report[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "values": vs}
            print(f"{w:14} {name:20} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bounds.get(name, 0):6.2f}")
        shares = {f / att for f, att in failed[w]}
        print(f"{w:14} failed share per run: {sorted(shares)}")
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"seconds": seconds, "runs": a.runs, "first_seed": a.first_seed,
                       "workloads": report}, f, indent=1)


if __name__ == "__main__":
    main()
