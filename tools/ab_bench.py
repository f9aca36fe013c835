"""Paired A/B runs of perfbench between two checkouts, written as JSON.

For every workload and seed it runs `perfbench/run.py` once in each
checkout, one after the other, and alternates which side runs first, so
that drift of the host's speed over minutes falls on both sides alike. It
then writes, per workload and end-to-end metric, every pair's values, each
side's median and quartiles, how many pairs the change won, and the median
gap against the parent's interquartile range, and whether the change's
median is worse than the parent's by no more than the metric's bound.

    python3 tools/ab_bench.py PARENT CHANGE --workload eval-mcd-ionosphere \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --out ab.json

PARENT and CHANGE are checkout roots (each with perfbench/ and src/). Their
absolute paths must have equal length: the length of the checkout path
alone moves eval-mcd-ionosphere's cell_s by up to about 10%, so copy both
into sibling directories whose names have equal length. The run length,
the metric names, their directions and their bounds come from CHANGE's
BENCHMARK.json. Runs are sequential, one process at a time; a run that
exits non-zero or reports a failed check stops the comparison.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(root: pathlib.Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One untraced perfbench run: its env line and its result line."""
    out = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=30 * seconds + 300)
    if out.returncode != 0:
        sys.exit(f"ab_bench: {root} {workload} seed {seed} exited with "
                 f"{out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    env = next(json.loads(line[len("env "):]) for line in lines
               if line.startswith("env "))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"ab_bench: {root} {workload} seed {seed} failed its "
                 f"checks:\n{out.stderr}")
    return {"env": env,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(pairs: list[dict], better: str, bound: float) -> dict:
    """Each side's quartiles, the pairs won, the median gap vs the IQR and
    whether the change's median is worse than the parent's by at most
    `bound` (a fraction of the parent's median)."""
    sides = {side: summary([p[side] for p in pairs]) for side in SIDES}
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (p["change"] - p["parent"]) > 0 for p in pairs)
    gap = sign * (sides["change"]["median"] - sides["parent"]["median"])
    iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
    change = sides["change"]["median"] / sides["parent"]["median"] - 1.0
    return {**sides, "better": better, "pairs": len(pairs),
            "change_won": won, "median_change": change,
            "median_gap_exceeds_parent_iqr": gap > iqr,
            "bound": bound, "within_bound": -sign * change <= bound}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in "
                             "CHANGE's BENCHMARK.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True,
                        help="JSON file to write, e.g. BENCH_<n>.json")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("need at least two seeds for quartiles")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(roots["parent"])) != len(str(roots["change"])):
        parser.error(f"the roots' absolute paths differ in length "
                     f"({roots['parent']}, {roots['change']}), which alone "
                     "moves timings; copy both into sibling directories "
                     "whose names have equal length")
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    report = {"seconds": seconds, "seeds": args.seeds,
              "host": {"machine": platform.machine(), "cpu": cpu_model()},
              "env": {}, "workloads": {}}
    for workload in workloads:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            runs = {side: run_once(roots[side], workload, seed, seconds)
                    for side in order}
            for side in SIDES:     # the env line less its per-run keys
                report["env"].setdefault(side, {
                    k: v for k, v in runs[side]["env"].items()
                    if k not in ("workload", "seed")})
            pairs.append({"seed": seed, "first": order[0],
                          **{side: runs[side]["metrics"] for side in SIDES}})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{m} {pairs[-1]['parent'][m]:.4g} -> "
                f"{pairs[-1]['change'][m]:.4g}" for m in metrics),
                file=sys.stderr)
        report["workloads"][workload] = {
            "pairs": pairs,
            "metrics": {m: compare([{side: p[side][m] for side in SIDES}
                                    for p in pairs], better, bound)
                        for m, (better, bound) in metrics.items()}}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


def cpu_model() -> str | None:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
