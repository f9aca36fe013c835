"""The benchmark's workloads: inputs built from a seed, one timed cell, checks.

A *cell* is the unit a user of ldvi waits for. On a train workload it is one
shortened paper-protocol ``train()`` call (plain-VI pretrain, main phase,
final evaluation); on the eval workload it is one ``evaluate_elbo_mean`` call.
The package is driven only through its public entry points, looked up as
module attributes at call time so that the traced run's wrappers apply.
"""

from __future__ import annotations

import contextlib
import json
import math
import pathlib
import time
from dataclasses import dataclass, field

import numpy as np

from ldvi import estimator, trainer
from ldvi.targets import TargetModel, get_target

REFERENCES = pathlib.Path(__file__).resolve().parent / "references.json"

# The anchor cell of every run uses this seed; its final ELBO is checked
# against the value recorded in references.json.
REFERENCE_SEED = 0

# A 1e-12 relative perturbation of every logp/score call moves the final
# ELBO of both train workloads by about 1e-12 relative; feeding the score
# net the step index k+1 instead of k (a mispaired backward kernel) moves
# ldvi-sonar by 1e-4. The tolerance sits between the two.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "train" or "eval": what one cell calls
    method: str
    target: str
    num_steps: int       # chain length K
    batch: int
    eval_samples: int    # final evaluation (train) or each call (eval)
    steps: int = 0       # main-phase Adam steps (train only)
    pretrain_steps: int = 0


# Pretrain and main steps keep the paper protocol's 2:5 ratio (2,000 + 5,000);
# the final evaluation is one 256-sample chunk. Cells are kept short (0.1 to
# 0.25 s) because only the fastest of many short cells is steady on a shared
# host: see README.md.
WORKLOADS = {w.name: w for w in (
    Workload("ldvi-sonar", "train", "ldvi", "sonar", num_steps=8, batch=32,
             eval_samples=256, steps=5, pretrain_steps=2),
    Workload("uha_em-brownian", "train", "uha_em", "brownian", num_steps=32,
             batch=1, eval_samples=256, steps=5, pretrain_steps=2),
    Workload("eval-mcd-ionosphere", "eval", "mcd", "ionosphere", num_steps=8,
             batch=256, eval_samples=1024),
)}


@dataclass
class Inputs:
    """Everything one workload cell needs, built from the workload seed."""

    workload: Workload
    seed: int
    target: TargetModel
    plan: trainer.TrainPlan | None = None   # train workloads
    params: dict | None = None              # eval workload


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """Target plus the seeded TrainPlan (train) or parameters (eval)."""
    target = get_target(workload.target)
    if workload.kind == "train":
        plan = trainer.TrainPlan(
            method=workload.method, target=workload.target,
            num_steps=workload.num_steps, steps=workload.steps,
            batch=workload.batch, eval_samples=workload.eval_samples,
            seed=seed, pretrain_steps=workload.pretrain_steps)
        return Inputs(workload, seed, target, plan=plan)
    config = estimator.get_method(workload.method)
    params = estimator.init_params(config, target.dim, workload.num_steps,
                                   seed=seed)
    # Move q off N(0, I) and give the zero-initialised score net a non-zero
    # output layer, so the MCD reverse kernel depends on it.
    rng = np.random.default_rng([seed, 1])
    params["q.mu"] = params["q.mu"] + 0.1 * rng.normal(size=target.dim)
    params["q.raw_scale"] = params["q.raw_scale"] - 1.0
    params["score.W3"] = 0.01 * rng.normal(size=params["score.W3"].shape)
    return Inputs(workload, seed, target, params=params)


@dataclass
class CellResult:
    seconds: float
    final_elbo: float
    eval_seconds: float
    eval_samples: int
    fingerprint: bytes          # identical inputs must give identical bytes
    problems: list[str] = field(default_factory=list)


def run_cell(inputs: Inputs, tracer=None) -> CellResult:
    """Run one cell; failures are returned as problems, never raised.

    With a tracer, only the timed call is recorded; the output checks run
    outside it.
    """
    w = inputs.workload
    recording = (tracer.recording(inputs.target) if tracer is not None
                 else contextlib.nullcontext(inputs.target))
    start = time.perf_counter()
    try:
        with recording as target:
            if w.kind == "train":
                outcome = trainer.train(inputs.plan, target=target)
            else:
                outcome = estimator.evaluate_elbo_mean(
                    estimator.get_method(w.method), inputs.params, target,
                    w.num_steps, w.eval_samples, seed=inputs.seed,
                    batch=w.batch)
    except Exception as exc:  # a failed cell is counted, not fatal to the run
        return CellResult(time.perf_counter() - start, math.nan, 0.0, 0, b"",
                          [f"{type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - start
    if w.kind == "eval":
        mean, stderr = outcome
        return CellResult(seconds, mean, seconds, w.eval_samples,
                          json.dumps([mean, stderr]).encode(),
                          _finite_problems(mean, stderr))
    return _check_train(inputs, outcome, seconds)


def _check_train(inputs: Inputs, record, seconds: float) -> CellResult:
    """Check a train() record and time a re-run of its final evaluation."""
    plan = inputs.plan
    problems = _finite_problems(record.final_elbo, record.final_stderr)
    if record.status != "ok":
        problems.append(f"status {record.status}: {record.error}")
    if record.skipped_steps:
        problems.append(f"{record.skipped_steps} skipped steps")
    start = time.perf_counter()
    mean, _ = estimator.evaluate_elbo_mean(
        estimator.get_method(plan.method), record.params, inputs.target,
        plan.num_steps, plan.eval_samples,
        seed=plan.seed + trainer.EVAL_SEED_STRIDE)
    eval_seconds = time.perf_counter() - start
    if mean != record.final_elbo:
        problems.append(f"re-evaluated bound {mean!r} differs from the "
                        f"record's {record.final_elbo!r}")
    return CellResult(seconds, record.final_elbo, eval_seconds,
                      plan.eval_samples, record.canonical_bytes(), problems)


def _finite_problems(*values) -> list[str]:
    if all(v is not None and math.isfinite(v) for v in values):
        return []
    return [f"non-finite output {values!r}"]


def reference_problems(workload: Workload, final_elbo: float) -> list[str]:
    """Compare the anchor cell's bound with the recorded reference."""
    ref = json.loads(REFERENCES.read_text())[workload.name]
    if ref["seed"] != REFERENCE_SEED:
        return [f"reference recorded for seed {ref['seed']}, "
                f"expected {REFERENCE_SEED}"]
    if math.isclose(final_elbo, ref["final_elbo"], rel_tol=REL_TOL):
        return []
    return [f"anchor bound {final_elbo!r} differs from reference "
            f"{ref['final_elbo']!r} beyond rel_tol {REL_TOL}"]
