#!/usr/bin/env python3
"""Self-tests of the simcov benchmark.

Run from the repository root (about two minutes after the first build):

    python3 simbench/selftest.py

Checks that
  * both modes print exactly the metrics BENCHMARK.json lists, with its units;
  * a perturbed output fails the check of every operation, on every workload;
  * a traced dlx_campaign run's stage spans plus pipeline.unaccounted_s add
    up to its pipeline wall time, and the spans never exceed it;
  * every workload passes all its checks on HOLDOUT_SEED, the seed that no
    change may tune on.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dlx_campaign", "thm3_mutants", "symbolic_tour", "symbolic_reach")
HOLDOUT_SEED = 9973
STAGES = ("model_build", "symbolic", "tour", "concretize", "simulate",
          "compare", "mutant_replay")


def run(workload, seed=1, seconds=0, trace=0, perturb=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--perturb"] if perturb else [])
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def expect(cond, message):
    if not cond:
        sys.exit("selftest FAILED: " + message)
    print("ok  " + message, flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    plain = run("dlx_campaign")
    expect({k: v["unit"] for k, v in plain["metrics"].items()} == units,
           "--trace 0 prints the end_to_end metrics of BENCHMARK.json")

    traced = run("dlx_campaign", seconds=2, trace=1)
    got = {k: v["unit"] for k, v in traced["metrics"].items()}
    expect(got == layer_units,
           "--trace 1 prints the per_layer metrics of BENCHMARK.json")
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    spans = sum(m["pipeline.stage_s." + s] for s in STAGES)
    wall = m["pipeline.wall_s"]
    expect(abs(spans + m["pipeline.unaccounted_s"] - wall) <= 1e-9 * wall,
           "dlx_campaign stage spans + unaccounted = wall (%.6f s)" % wall)
    expect(0 <= m["pipeline.unaccounted_s"] < wall,
           "dlx_campaign stage spans stay within the wall time")

    for w in WORKLOADS:
        r = run(w, perturb=True)
        expect(not r["correct"] and r["failed"] == r["attempted"] >= 1,
               "%s: a perturbed output fails its check (error_rate %d/%d)"
               % (w, r["failed"], r["attempted"]))

    for w in WORKLOADS:
        r = run(w, seed=HOLDOUT_SEED)
        expect(r["correct"] and r["failed"] == 0,
               "%s: every check holds on holdout seed %d" % (w, HOLDOUT_SEED))


if __name__ == "__main__":
    main()
