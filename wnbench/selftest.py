#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of the checkout:

    python3 wnbench/selftest.py

- BENCHMARK.json names exactly the metrics run.py prints;
- a small size of every workload runs with every check on and passes;
- a seeded wrong verdict (one dropped match) and a seeded wrong repair
  (cost off by one) make their runs fail;
- a traced run prints every per-layer metric;
- outside a checkout (only BENCHMARK.json and wnbench/) the command exits
  nonzero without a result line.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

FAILURES = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def bench(workload, *extra, cwd=None):
    cmd = [sys.executable, os.path.join("wnbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", *extra]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                       cwd=cwd, timeout=300)
    lines = r.stdout.strip().splitlines()
    res = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return r.returncode, res, r.stderr


def main():
    with open("BENCHMARK.json") as f:
        b = json.load(f)
    check([(m["name"], m["unit"]) for m in b["end_to_end"]] == run.END_TO_END,
          "BENCHMARK.json end_to_end matches run.py")
    check([(m["name"], m["unit"]) for m in b["per_layer"]] == run.PER_LAYER,
          "BENCHMARK.json per_layer matches run.py")
    check([w["name"] for w in b["workloads"]] == run.WORKLOADS,
          "BENCHMARK.json workloads match run.py")

    e2e = {n for n, _ in run.END_TO_END}
    for w in run.WORKLOADS:
        code, res, err = bench(w, "--small")
        check(code == 0 and res is not None and res["correct"] and res["failed"] == 0
              and res["attempted"] >= 1 and set(res["metrics"]) == e2e
              and all(m["value"] > 0 for m in res["metrics"].values()),
              f"{w}: small run passes its checks")
        if code != 0:
            print(err[-2000:])

    code, res, _ = bench("ingest_dense", "--small", "--inject", "drop-match")
    check(code != 0 and res is not None and not res["correct"],
          "ingest_dense: a dropped match fails the run")
    code, res, _ = bench("explain_rtfm", "--small", "--inject", "cost-off-by-one")
    check(code != 0 and res is not None and not res["correct"],
          "explain_rtfm: a repair cost off by one fails the run")

    layer = {n for n, _ in run.PER_LAYER}
    for w in ["ingest_dense", "explain_and"]:
        code, res, _ = bench(w, "--small", "--trace", "1")
        check(code == 0 and res is not None and set(res["metrics"]) == layer,
              f"{w}: traced run prints every per-layer metric")

    bare = os.path.join(".wnbench_run", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("wnbench", os.path.join(bare, "wnbench"))
    code, res, _ = bench("ingest_dense", cwd=bare)
    check(code != 0 and res is None, "outside a checkout: nonzero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(FAILURES)} failure(s)")
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
