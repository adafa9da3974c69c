#!/usr/bin/env python3
"""Performance ledger: end-to-end times and exact work counts of a checkout.

Usage, from the repository root:

    python3 tools/ledger.py --out BENCH_30.json --label change
    python3 tools/ledger.py --out BENCH_30.json --label parent --root DIR
    python3 tools/ledger.py --check

The first two forms measure a checkout (this one, or the one at DIR):
they run simbench/run.py untraced on every workload BENCHMARK.json gates,
for that file's run_seconds, once per seed (1-5 and the holdout 9973), and
bench_table1_model_stats
once, from a Release tree under DIR/.ledger_build. They then add one
entry to the ledger file, replacing any entry with the same label. An
entry holds the checkout's git sha, the median and quartiles of every
end-to-end metric per workload, the failed operations, and the Table-1
tour's exact work counts and recorded times.

--check validates the schema of every committed BENCH_*.json and prints
their medians side by side. It times nothing. Each entry is checked against
what it recorded, not against the current BENCHMARK.json, so a ledger stays
valid when a later change adds a workload, a metric or a Table-1 row.
"""
import argparse
import glob
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCHEMA = "simcov-ledger/1"
SEEDS = (1, 2, 3, 4, 5, 9973)

# Table-1 rows (bench_table1_model_stats labels) that are exact work
# counts: they must repeat on any host, unless a change says why not.
COUNT_ROWS = {
    "steps": "tour steps (paper: 1.069e9)",
    "navigation_steps": "navigation steps",
    "layer_recomputes": "layer recomputes",
    "input_listings": "input listings",
    "distance_within_calls": "distance_within calls",
    "search_edges": "search edges",
    "sequences": "reset-separated sequences (restarts + 1)",
    "reduced_tour_length": "transition tour total length",
    "reduced_tour_search_edges": "transition tour search edges",
}
HASH_ROWS = {
    "tour_input_hash": "tour input hash",
    "reduced_tour_input_hash": "transition tour input hash",
}
# Table-1 rows that are times or sizes of this host: recorded, never gated.
RECORDED_ROWS = {
    "tour_s": "generation time (s)",
    "process_peak_rss_mb": "process peak RSS after the tour (MB)",
    "reduced_tour_s": "tour generation time (s)",
}


def gated():
    """Workloads, end-to-end metric units and run length of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ([w["name"] for w in bench["workloads"]],
            {m["name"]: m["unit"] for m in bench["end_to_end"]},
            bench["run_seconds"])


def git_sha(root):
    return subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def spread(values):
    """Median and quartiles (inclusive method) of a list of numbers."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "values": values}


def run_workload(root, workload, seed, seconds):
    """One untraced simbench run; its JSON result line."""
    cmd = [sys.executable, os.path.join(root, "simbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=root)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("ledger: %s seed %d failed:\n%s" %
                 (workload, seed, out.stderr[-2000:]))
    return json.loads(lines[-1])


def measure_workloads(root, seconds, workloads, metrics):
    out = {}
    for workload in workloads:
        runs = []
        for seed in SEEDS:
            print("ledger: %s seed %d" % (workload, seed), file=sys.stderr)
            runs.append(run_workload(root, workload, seed, seconds))
        out[workload] = {
            "runs": len(runs),
            "operations": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "metrics": {
                name: dict(unit=unit, **spread(
                    [r["metrics"][name]["value"] for r in runs]))
                for name, unit in metrics.items()
            },
        }
    return out


def table1_rows(root):
    """Builds and runs bench_table1_model_stats; its rows by label."""
    build = os.path.join(root, ".ledger_build")
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", root, "-B", build,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build, "--target",
                    "bench_table1_model_stats", "-j", jobs],
                   stdout=sys.stderr, check=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table1.json")
        subprocess.run([os.path.join(build, "bench",
                                     "bench_table1_model_stats"),
                        "--json", path], stdout=sys.stderr, check=True)
        with open(path) as f:
            doc = json.load(f)
    return {row["label"]: row["value"]
            for section in doc["sections"] for row in section["rows"]}


def table1_entry(rows):
    """Count, hash and recorded rows; None where the checkout lacks one."""
    def pick(labels, convert):
        return {key: convert(rows[label]) if label in rows else None
                for key, label in labels.items()}
    return {"counts": pick(COUNT_ROWS, int),
            "hashes": pick(HASH_ROWS, str),
            "recorded": pick(RECORDED_ROWS, float)}


def measure(args):
    root = os.path.abspath(args.root)
    workloads, metrics, seconds = gated()
    entry = {
        "label": args.label,
        "sha": git_sha(root),
        "host": {"cpus": os.cpu_count(), "machine": platform.machine()},
        "seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": measure_workloads(root, seconds, workloads, metrics),
        "table1": table1_entry(table1_rows(root)),
    }
    ledger = {"schema": SCHEMA, "entries": []}
    if os.path.isfile(args.out):
        with open(args.out) as f:
            ledger = json.load(f)
    ledger["entries"] = [e for e in ledger["entries"]
                         if e["label"] != args.label] + [entry]
    with open(args.out, "w") as f:
        json.dump(ledger, f, indent=1)
        f.write("\n")
    problems = validate(ledger)
    for p in problems:
        print("ledger: %s: %s" % (args.out, p), file=sys.stderr)
    return 1 if problems else 0


def number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def spread_ok(m, runs):
    """A metric's quartiles are ordered and match its recorded values."""
    stats = [m.get(k) for k in ("q1", "median", "q3", "iqr")]
    values = m.get("values")
    return (isinstance(m.get("unit"), str) and
            all(number(x) for x in stats) and
            isinstance(values, list) and len(values) == runs and
            all(number(x) for x in values) and
            stats[0] <= stats[1] <= stats[2] and
            abs(stats[2] - stats[0] - stats[3]) <=
            1e-9 * max(1.0, abs(stats[2])))


TABLE1_VALUE = {
    "counts": lambda x: isinstance(x, int) and not isinstance(x, bool)
    and x >= 0,
    "hashes": lambda x: isinstance(x, str) and x.isdigit(),
    "recorded": number,
}


def validate(ledger):
    """Schema problems of one ledger document (empty when it is valid).

    Every field an entry holds must be well-formed; a Table-1 row may be
    null (the checkout did not print it), and the workloads, metrics and
    rows are those the entry recorded."""
    problems = []
    if ledger.get("schema") != SCHEMA:
        return ["schema is not %s" % SCHEMA]
    entries = ledger.get("entries")
    if not isinstance(entries, list) or not entries:
        return ["no entries"]
    labels = [e.get("label") for e in entries]
    if len(set(labels)) != len(labels):
        problems.append("duplicate labels %s" % labels)
    for e in entries:
        where = "entry %r" % e.get("label")
        if not isinstance(e.get("label"), str):
            problems.append("%s: label is not a string" % where)
        if not re.fullmatch(r"[0-9a-f]{40}", str(e.get("sha"))):
            problems.append("%s: sha is not a 40-digit hex id" % where)
        if not number(e.get("seconds")) or e["seconds"] <= 0:
            problems.append("%s: seconds is not positive" % where)
        seeds = e.get("seeds")
        if not isinstance(seeds, list) or 9973 not in seeds:
            problems.append("%s: seeds miss the holdout 9973" % where)
        workloads = e.get("workloads")
        if not isinstance(workloads, dict) or not workloads:
            problems.append("%s: no workloads" % where)
            workloads = {}
        for w, got in workloads.items():
            if not isinstance(got, dict):
                problems.append("%s: %s is not an object" % (where, w))
                continue
            for key in ("runs", "operations", "failed"):
                if not isinstance(got.get(key), int):
                    problems.append("%s: %s.%s is not an integer" %
                                    (where, w, key))
            if not isinstance(got.get("correct"), bool):
                problems.append("%s: %s.correct is not a bool" % (where, w))
            metrics = got.get("metrics")
            if not isinstance(metrics, dict) or not metrics:
                problems.append("%s: %s has no metrics" % (where, w))
                continue
            for name, m in metrics.items():
                if not isinstance(m, dict) or not spread_ok(m, got.get("runs")):
                    problems.append("%s: %s.%s has an inconsistent spread" %
                                    (where, w, name))
        t1 = e.get("table1")
        if not isinstance(t1, dict):
            problems.append("%s: no table1" % where)
            continue
        for group, ok in TABLE1_VALUE.items():
            got = t1.get(group)
            if not isinstance(got, dict):
                problems.append("%s: table1.%s is not an object" %
                                (where, group))
                continue
            for key, value in got.items():
                if value is not None and not ok(value):
                    problems.append("%s: table1.%s.%s is malformed" %
                                    (where, group, key))
    return problems


def check():
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    if not paths:
        print("ledger: no BENCH_*.json to check", file=sys.stderr)
        return 1
    failed = False
    for path in paths:
        with open(path) as f:
            ledger = json.load(f)
        problems = validate(ledger)
        for p in problems:
            print("%s: %s" % (path, p), file=sys.stderr)
        failed = failed or bool(problems)
        if problems:
            continue
        print(os.path.basename(path))
        for e in ledger["entries"]:
            print("  %s %s" % (e["label"], e["sha"][:12]))
            for w, got in e["workloads"].items():
                print("    %-14s failed %d  %s" % (w, got["failed"], "  ".join(
                    "%s %.4g" % (name, m["median"])
                    for name, m in got["metrics"].items())))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="validate committed ledgers; time nothing")
    parser.add_argument("--out", help="ledger file to add an entry to")
    parser.add_argument("--label", help="entry label, e.g. parent, change")
    parser.add_argument("--root", default=ROOT,
                        help="checkout to measure (default: this one)")
    args = parser.parse_args()
    if args.check:
        return check()
    if not args.out or not args.label:
        parser.error("--out and --label are required unless --check")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
