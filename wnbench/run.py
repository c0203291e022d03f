#!/usr/bin/env python3
"""The benchmark's one command.

    python3 wnbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. Builds `whynot` and the
benchmark's own executables with dune, makes the workload's inputs from the
seed, runs it, and prints as its last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Exits nonzero when any
output was wrong or any operation failed. See wnbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["ingest_dense", "explain_rtfm", "explain_and"]

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("alloc_words_per_op", "words"),
    ("peak_rss_mb", "MB"),
]

# Every per-layer metric, in BENCHMARK.json order. A workload that does
# not pass through a layer reports that layer's metrics as 0.
PER_LAYER = [
    ("http.read_syscalls_per_req", "count"),
    ("http.write_syscalls_per_req", "count"),
    ("http.ctx_switches_per_req", "count"),
    ("http.read_us_p50", "us"),
    ("http.write_us_p50", "us"),
    ("http.response_bytes_per_op", "bytes"),
    ("ingest.parse_ns_per_line", "ns"),
    ("ingest.parse_words_per_line", "words"),
    ("shard.submit_us_per_batch", "us"),
    ("shard.service_us_p50", "us"),
    ("detector.feed_us_per_event", "us"),
    ("detector.feed_words_per_event", "words"),
    ("detector.partials_peak", "count"),
    ("detector.matches_per_event", "count"),
    ("detector.template_ms", "ms"),
    ("render.us_per_match", "us"),
    ("render.words_per_match", "words"),
    ("render.bytes_per_match", "bytes"),
    ("service.handle_us_per_event", "us"),
    ("service.handle_words_per_event", "words"),
    ("obs.trace_overhead_pct", "%"),
    ("client.cpu_us_per_op", "us"),
    ("server.cpu_us_per_op", "us"),
    ("pipeline.overhead_us_per_tuple", "us"),
    ("consistency.check_us", "us"),
    ("encode.us", "us"),
    ("bnb.nodes_per_tuple", "count"),
    ("bnb.leaves_per_tuple", "count"),
    ("bnb.pruned_bound_per_tuple", "count"),
    ("bnb.self_us_per_tuple", "us"),
    ("stn_inc.pushes_per_tuple", "count"),
    ("solver.solves_per_tuple", "count"),
    ("solver.us_per_solve", "us"),
    ("solver.share", "ratio"),
    ("simplex.pivots_per_tuple", "count"),
    ("simplex.phase1_iters_per_tuple", "count"),
    ("simplex.infeasible_per_tuple", "count"),
    ("explain.words_per_tuple", "words"),
]

BUILD = "_build/default"
EXE = {
    "server": BUILD + "/bin/whynot_cli.exe",
    "drive": BUILD + "/wnbench/drive.exe",
    "explain": BUILD + "/wnbench/explain_run.exe",
    "layers": BUILD + "/wnbench/layers.exe",
}
TIMEOUT_S = 170


def fail(msg, code=2):
    print("wnbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(names):
    """Build the named executables from source; output goes to stderr."""
    if not (os.path.isdir("lib") and os.path.isdir("bin") and os.path.isfile("dune-project")):
        fail("run from the root of a checkout of the repository (no lib/, bin/ or dune-project here)")
    targets = ["./" + EXE[n][len(BUILD) + 1:] for n in names]
    r = subprocess.run(["dune", "build", "--root", ".", "--profile", "release", *targets],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def run(argv):
    """Run one step; its last stdout line is a JSON result object. The
    step runs in a process group of its own, so a step that overruns is
    stopped together with any server it started."""
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("timed out: " + " ".join(argv))
    lines = [l for l in out.splitlines() if l.strip()]
    for l in lines[:-1]:
        print(l, file=sys.stderr)
    if not lines or not lines[-1].startswith("{"):
        fail("no result from: " + " ".join(argv))
    return json.loads(lines[-1]), p.returncode


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # for the benchmark's own tests: fewer inputs, and seeded wrong outputs
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--inject", default="none",
                    choices=["none", "drop-match", "cost-off-by-one"])
    a = ap.parse_args()

    ingest = a.workload == "ingest_dense"
    steps = ["server", "drive"] if ingest else ["explain"]
    if a.trace:
        steps.append("layers")
    build(steps)

    rundir = os.path.join(".wnbench_run", a.workload)
    os.makedirs(rundir, exist_ok=True)
    common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    small = ["--warmup", "0.3"] if a.small else []
    results = []
    if ingest:
        results.append(run([EXE["drive"], "ingest", "--seed", str(a.seed), "--seconds", str(a.seconds),
                            "--trace", str(a.trace),
                            "--server", os.path.abspath(EXE["server"]), "--dir", rundir,
                            "--inject", a.inject, *small]))
        if a.trace:
            results.append(run([EXE["layers"], *common]))
    else:
        csv, query = os.path.join(rundir, "trace.csv"), os.path.join(rundir, "query.txt")
        tuples = ["--tuples", "40" if a.workload == "explain_rtfm" else "8"] if a.small else []
        gen = subprocess.run([EXE["explain"], "gen", "--workload", a.workload,
                              "--seed", str(a.seed), "--csv", csv, "--query", query, *tuples],
                             stdout=sys.stderr, stderr=sys.stderr, timeout=TIMEOUT_S)
        if gen.returncode != 0:
            fail("input generation failed")
        files = ["--csv", csv, "--query", query]
        if a.trace:
            results.append(run([EXE["layers"], *common, *files]))
        else:
            results.append(run([EXE["explain"], "run", *common, *files, "--inject", a.inject]))

    main_result = results[0][0]
    values = {}
    for res, _ in results:
        for name, m in res["metrics"].items():
            values[name] = m["value"]
    wanted = PER_LAYER if a.trace else END_TO_END
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in wanted}
    correct = all(res["correct"] for res, _ in results)
    failed = sum(res["failed"] for res, _ in results)
    for res, _ in results:
        notes = res.get("notes", {})
        if notes:
            print("notes: " + json.dumps(notes, sort_keys=True), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": main_result["attempted"],
                      "failed": failed, "metrics": metrics}))
    if not correct or failed or any(code != 0 for _, code in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
