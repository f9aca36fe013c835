"""Benchmark of the ldvi package, driven from outside through its public API.

One run measures one workload for --seconds and prints, as its last line, a
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones (see BENCHMARK.json); with
--trace 1 a separate traced run reports the per-layer ones.

    python3 perfbench/run.py --workload ldvi-sonar --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py                    # every workload, untraced
    python3 perfbench/run.py --trace 1          # every workload, traced
    python3 perfbench/run.py --sweep            # node and score counts, 7 methods x 5 targets

Run it from anywhere inside a checkout: it imports ldvi from the checkout's
src/ and exits with an error when that is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One process, one Python thread, one BLAS thread: the matrices are small
# (at most 256 x 208), and BLAS threads only add contention on a small box.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 9
MIN_CELLS = 3

END_TO_END = {
    "setup_s": "s",
    "cell_s": "s",
    "eval_samples_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def prepare() -> None:
    """Pin thread counts and put the checkout's sources first on sys.path.

    Must run before numpy is imported, so the benchmark's own modules are
    imported inside the functions below.
    """
    if not (SRC / "ldvi" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ldvi package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas,
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ----------------------------------------------------------------- one run

class Tally:
    """Operations attempted and failed; every problem goes to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: {label}: {problem}", file=sys.stderr)


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds of a fresh interpreter (import, target, inputs)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def timed_cells(wl, inputs, seconds, tally, tracer_cls=None, probe=None):
    """Run cells until `seconds` are used; returns (untraced, traced, setup).

    With a tracer class, every untraced cell is followed by a traced one.
    With a probe, it runs SETUP_REPEATS times, spread evenly over the run so
    that set-up meets the same spells of contention as the cells. All cells share
    one plan, so each must reproduce the first one's bytes.
    """
    plain, traced, setup = [], [], []
    reference = None
    start = time.perf_counter()

    def run(label, tracer=None):
        nonlocal reference
        gc.collect()
        cell = wl.run_cell(inputs, tracer)
        problems = list(cell.problems)
        if not problems:
            reference = reference or cell.fingerprint
            if cell.fingerprint != reference:
                problems.append("output differs from the first cell's")
        tally.add(label, problems)
        cell.problems = problems
        return cell

    while True:
        plain.append(run(f"cell {len(plain)}"))
        if tracer_cls is not None:
            tracer = tracer_cls()
            traced.append((run(f"traced cell {len(traced)}", tracer), tracer))
        elapsed = time.perf_counter() - start
        due = SETUP_REPEATS * elapsed / seconds
        if probe is not None and len(setup) < due:
            setup.append(probe())
        lap = (time.perf_counter() - start) / len(plain)
        if len(plain) >= MIN_CELLS and (time.perf_counter() - start + lap
                                        > seconds):
            break
    while probe is not None and len(setup) < SETUP_REPEATS:
        setup.append(probe())
    return plain, traced, setup


def measure(args) -> None:
    import workloads as wl
    import tracer as tr

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r} "
                 f"(choose from {', '.join(wl.WORKLOADS)})")
    workload = wl.WORKLOADS[args.workload]

    tally = Tally()
    # The anchor cell warms caches and checks the bound against the record.
    anchor = wl.run_cell(wl.build_inputs(workload, wl.REFERENCE_SEED))
    tally.add("anchor cell", anchor.problems
              + wl.reference_problems(workload, anchor.final_elbo))

    inputs = wl.build_inputs(workload, args.seed)
    if args.trace:
        plain, traced, _ = timed_cells(wl, inputs, args.seconds, tally,
                                       tracer_cls=tr.Tracer)
    else:
        plain, traced, setup = timed_cells(
            wl, inputs, args.seconds, tally,
            probe=lambda: probe_setup(workload.name, args.seed))
    ok = [c for c in plain if not c.problems]
    if not ok:
        sys.exit("perfbench: no cell completed")
    if args.trace:
        main_steps = inputs.plan.steps if workload.kind == "train" else None
        recorded = [(cell, tracer) for cell, tracer in traced
                     if not cell.problems]
        if not recorded:
            sys.exit("perfbench: no traced cell completed")
        values = tr.layer_metrics([t.spans for _, t in recorded], main_steps)
        values["trace.overhead_ratio"] = (min(c.seconds for c, _ in recorded)
                                          / min(c.seconds for c in ok))
        units = tr.LAYER_METRICS
    else:
        # Times are the fastest cell's and the fastest set-up's. On a shared
        # host, contention slows most calls by a share that drifts over
        # minutes; the fastest of many short calls is steady across runs
        # where the median is not.
        values = {
            "setup_s": min(setup),
            "cell_s": min(c.seconds for c in ok),
            "eval_samples_per_s": max(c.eval_samples / c.eval_seconds
                                      for c in ok),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    print("env " + json.dumps(environment(workload.name, args.seed)))
    print(f"cells {len(plain)} untraced, {len(traced)} traced; "
          f"final_elbo {ok[0].final_elbo!r} nats")
    for name, unit in units.items():
        print(f"{name} {values[name]!r} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))


def setup_probe(args) -> None:
    start = time.perf_counter()
    import workloads as wl
    wl.build_inputs(wl.WORKLOADS[args.workload], args.seed)
    print(repr(time.perf_counter() - start))


# ------------------------------------------------------------ other modes

def run_all(args) -> int:
    """Run every workload in its own process and print a metric table."""
    import workloads as wl
    status = 0
    for name in wl.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600)
        if out.returncode != 0:
            print(f"{name}: exited with {out.returncode}")
            status = 1
            continue
        result = json.loads(out.stdout.splitlines()[-1])
        status |= not result["correct"]
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34s} {entry['value']:14.6g} {entry['unit']}")
    return status


def sweep() -> None:
    """Tape nodes and target-score calls of one K=8 step, method x target."""
    from ldvi import estimator, trainer
    from ldvi.targets import TARGET_NAMES, get_target
    import tracer as tr

    print(f"{'method':8s} {'target':11s} {'nodes/step':>10s} "
          f"{'score calls/step':>16s}")
    # lorenz is left out: every chain method fails there at step 0
    for target_name in (n for n in TARGET_NAMES if n != "lorenz"):
        target = get_target(target_name)
        for method in estimator.method_names():
            plan = trainer.TrainPlan(method, target_name, num_steps=8,
                                     steps=1, pretrain_steps=0,
                                     eval_samples=2)
            tracer = tr.Tracer()
            with tracer.recording(target) as traced:
                trainer.train(plan, target=traced)
            m = tr.layer_metrics([tracer.spans], main_steps=1)
            print(f"{method:8s} {target_name:11s} "
                  f"{m['tape.nodes_per_step']:10.0f} "
                  f"{m['targets.score_calls']:16.0f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true",
                        help="print node and score counts for every method "
                             "and target")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    prepare()
    if args.sweep:
        sweep()
    elif args.setup_probe:
        setup_probe(args)
    elif args.workload is None:
        return run_all(args)
    else:
        measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
