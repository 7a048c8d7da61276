"""Paired parent/change runs of perfbench, written as BENCH_<pr>.json.

Run from the repository root:

    python3 tools/bench_pairs.py --parent REV --pr N [--description TEXT]

The parent side runs from a clean export of ``--parent`` (``git archive``
into a temporary directory, removed at the end); the change side runs
from a copy, in the same temporary directory, of the working tree's
files that git does not ignore, so neither side starts with bytecode
caches or earlier ``perfbench/out/`` files.  The workloads, the run
length and the end-to-end metrics are ``BENCHMARK.json``'s ``workloads``,
``run_seconds`` and ``end_to_end``.  Every workload gets ten pairs, and
each pair runs ``perfbench/run.py --workload W --seed S --seconds
run_seconds --trace 0`` once per side, alternately: even pairs run the
parent first, odd pairs the change.
Seeds are 100 N + 1 + pair index.  Then each side gives one traced run
(``--trace 1``, seed 1) per workload.

The output has the layout of BENCH_3.json: the environment the runs
reported, and per workload the seeds, the side order, the operations and
failures, and per end-to-end metric each side's median and quartiles,
``change_worse_by`` (the relative median change in the metric's bad
direction), the pairs the change won or tied, and every run's value;
and per workload and side the traced run's layer metrics.
Nothing in the repository is written but ``BENCH_<pr>.json``.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

PAIRS = 10                # the fewest pairs a claimed gain is judged on
ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS")}


def export(rev, dest):
    """The committed files of ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def snapshot(dest):
    """The working tree's tracked and untracked, not ignored files under ``dest``."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], check=True, capture_output=True).stdout
    for name in filter(os.path.isfile, names.decode().split("\0")):  # not deleted
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(name, dest / name)
    return dest


def bench(tree, workload, seed, seconds, trace=0):
    """(environment, run line, result) of one perfbench run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, env={**os.environ, **ONE_THREAD})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or '"correct"' not in lines[-1]:
        raise SystemExit(f"perfbench failed in {tree} ({workload}, seed {seed}):\n"
                         f"{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[0])["environment"], lines[1], json.loads(lines[-1])


def stats(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else 0.0}


def compare(spec, parent_runs, change_runs):
    lower = spec["better"] == "lower"
    p, c = statistics.median(parent_runs), statistics.median(change_runs)
    worse = (c - p) / p if lower else (p - c) / p
    won = sum((b < a) if lower else (b > a) for a, b in zip(parent_runs, change_runs))
    tied = sum(a == b for a, b in zip(parent_runs, change_runs))
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": stats(parent_runs), "change": stats(change_runs),
            "change_worse_by": worse, "change_better_pairs": won,
            "tied_pairs": tied, "parent_runs": parent_runs,
            "change_runs": change_runs}


def paired(trees, workload, seeds, seconds, specs, log):
    order, runs, env = [], {side: [] for side in trees}, None
    for i, seed in enumerate(seeds):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        order.append(sides[0])
        for side in sides:
            env, _, result = bench(trees[side], workload, seed, seconds)
            runs[side].append(result)
            log(f"{workload} seed {seed} {side}: " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()))
    return env, {
        "seeds": seeds,
        "first_side_per_pair": order,
        "operations": {side: {"attempted": [r["attempted"] for r in rs],
                              "failed": sum(r["failed"] for r in rs),
                              "all_correct": all(r["correct"] for r in rs)}
                       for side, rs in runs.items()},
        "metrics": {spec["name"]: compare(
            spec, *[[r["metrics"][spec["name"]]["value"] for r in runs[side]]
                    for side in ("parent", "change")]) for spec in specs},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--pr", required=True, type=int,
                        help="number in BENCH_<pr>.json; seeds start at 100 pr + 1")
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)

    def log(text):
        print(text, file=sys.stderr, flush=True)

    plan = json.loads(Path("BENCHMARK.json").read_text())
    specs, seconds = plan["end_to_end"], plan["run_seconds"]
    workloads = [workload["name"] for workload in plan["workloads"]]
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {"parent": export(args.parent, scratch / "parent"),
                 "change": snapshot(scratch / "change")}
        seeds = [100 * args.pr + 1 + i for i in range(PAIRS)]
        out = {"description": args.description,
               "command": f"python3 perfbench/run.py --workload W --seed S "
                          f"--seconds {seconds} --trace 0",
               "parent": args.parent, "machine": platform.machine(),
               "environment": None, "set_a": {}}
        for workload in workloads:
            env, out["set_a"][workload] = paired(trees, workload, seeds,
                                                 seconds, specs, log)
            out["environment"] = {**env, "python": platform.python_version(),
                                  "cpus": os.cpu_count(), **ONE_THREAD}
        out["traced"] = {"command": "python3 perfbench/run.py --workload W "
                         f"--seed 1 --seconds {seconds} --trace 1",
                         "note": "means per traced round, one run per side",
                         "workloads": {}}
        for workload in workloads:
            out["traced"]["workloads"][workload] = {}
            for side, tree in trees.items():
                _, run, result = bench(tree, workload, 1, seconds, trace=1)
                out["traced"]["workloads"][workload][side] = {
                    "run": run, "layers": {k: v["value"] for k, v
                                           in result["metrics"].items()}}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path = Path(f"BENCH_{args.pr}.json")
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
