"""Adam training of the augmented bound, grid orchestration, run records.

The desk-scale protocol: pretrain the base distribution with plain VI
(2,000 steps at lr 1e-2), then maximize the method's augmented bound with
Adam over its declared trainable set (default 5,000 steps, batch 32),
finishing with an independent evaluation (default 1,000 samples). Gradients
are clipped by global norm; non-finite gradient steps are skipped and
counted. Every run is fully determined by its plan: noise is keyed by
(seed, step), so identical plans produce byte-identical records.

One step's graph is alive at a time: each step's tape, lifted model and
loss are freed before its update, and its gradients before the next step's
backward sweep, so training's peak memory is one step's forward and
backward. Adam updates its moment arrays in place and returns fresh
parameter arrays, since callers keep the old ones.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ldvi.estimator import (MethodConfig, estimate_elbo, evaluate_elbo_mean,
                            get_method, init_params, lift_model)
from ldvi.tape import Tape
from ldvi.targets import TargetModel, get_target

__all__ = [
    "AdamState", "adam_step", "TrainPlan", "RunRecord", "TrainingDiverged",
    "train", "run_grid", "select_best", "global_grad_norm", "clip_gradients",
]

SCHEMA_VERSION = 1
# evaluation noise must not reuse the training stream, which is keyed by
# (seed, step) for step < plan.steps
EVAL_SEED_STRIDE = 1_000_003
# Adam's moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDiverged(RuntimeError):
    """Raised when the training bound falls below the divergence floor."""


# ------------------------------------------------------------------- optimizer

@dataclass
class AdamState:
    """First/second moment accumulators with bias correction.

    The state owns its moment arrays: `adam_step` updates them in place.
    """

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params: dict, grads: dict,
              lr: float) -> dict:
    """One bias-corrected Adam update; returns the new parameter dict.

    Only keys present in `grads` move, each to a fresh array, so `params`
    and `grads` are left as they were; the others are passed through.
    `state` and its moment arrays are updated in place.
    """
    state.step += 1
    t = state.step
    out = dict(params)
    for key, g in grads.items():
        g = np.asarray(g, dtype=np.float64)
        if key not in state.m:
            state.m[key], state.v[key] = np.zeros_like(g), np.zeros_like(g)
        m, v = state.m[key], state.v[key]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1 ** t)
        v_hat = v / (1 - ADAM_BETA2 ** t)
        out[key] = np.asarray(params[key]
                              - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
    return out


def global_grad_norm(grads: dict) -> float:
    """2-norm of all gradient entries together.

    The squares of entries near 1.3e154 or more overflow, so when the plain
    sum does, the norm is recomputed from the entries scaled by the largest
    absolute one; it is then inf only if the norm itself is.
    """
    with np.errstate(over="ignore"):
        total = 0.0
        for g in grads.values():
            total += float(np.sum(np.square(g)))
    if not math.isinf(total):
        return float(np.sqrt(total))
    peak = max(float(np.max(np.abs(g))) for g in grads.values() if np.size(g))
    if math.isinf(peak):
        return peak
    scaled = sum(float(np.sum(np.square(np.asarray(g) / peak)))
                 for g in grads.values())
    return peak * math.sqrt(scaled)


def clip_gradients(grads: dict, max_norm: float) -> tuple[dict, bool]:
    """Scale all gradients so the global norm is at most max_norm."""
    norm = global_grad_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return grads, False
    scale = max_norm / norm
    return {k: np.asarray(g) * scale for k, g in grads.items()}, True


# ------------------------------------------------------------------- planning

@dataclass(frozen=True)
class TrainPlan:
    """Everything that determines one training run."""

    method: str
    target: str
    num_steps: int = 8            # chain length K
    lr: float = 1e-3
    steps: int = 5000
    batch: int = 32
    eval_samples: int = 1000
    seed: int = 0
    pretrain_steps: int = 2000
    pretrain_lr: float = 1e-2
    grad_clip: float = 100.0
    divergence_floor: float = -1e8
    record_every: int = 50
    score_hidden: int | None = None
    toy_dim: int = 2
    data_dir: str | None = None

    def __post_init__(self):
        # a bool, a float or a numpy integer fails mid-run or in the record
        for name in ("num_steps", "steps", "batch", "eval_samples", "seed",
                     "pretrain_steps", "record_every", "toy_dim",
                     "score_hidden"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "score_hidden"
                                               and value is None):
                raise ValueError(f"{name} must be an int, got {value!r}")
        for name in ("steps", "num_steps", "batch", "record_every", "toy_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.score_hidden is not None and self.score_hidden < 1:
            raise ValueError("score_hidden must be at least 1")
        if self.eval_samples < 2:
            raise ValueError("eval_samples must be at least 2")
        for name in ("seed", "pretrain_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")
        for name in ("lr", "pretrain_lr", "grad_clip", "divergence_floor"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be int or float, got {value!r}")
        # -inf is no floor; nan never trips and +inf fails every step 0
        if not self.divergence_floor < math.inf:
            raise ValueError(f"divergence_floor must be -inf or finite, got "
                             f"{self.divergence_floor!r}")
        for name in ("lr", "pretrain_lr", "grad_clip"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("lr", "pretrain_lr"):  # grad_clip=inf does not clip
            if math.isinf(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        # a pathlib.Path trains, then fails to serialise into the record
        if self.data_dir is not None and not isinstance(self.data_dir, str):
            raise ValueError(f"data_dir must be a str or None, got "
                             f"{self.data_dir!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class RunRecord:
    """Persisted outcome of one run; serialization round-trips losslessly.

    `params`, the trained parameters `train` returns with the record, stays
    in memory: it is left out of the JSON, the canonical bytes, equality
    and the repr.
    """

    plan: dict
    status: str = "ok"
    error: str = ""
    final_elbo: float | None = None
    final_stderr: float | None = None
    curve: list = field(default_factory=list)   # [(step, batch-mean bound)]
    skipped_steps: int = 0
    clipped_steps: int = 0
    wall_time: float = 0.0
    schema_version: int = SCHEMA_VERSION
    metadata: dict = field(default_factory=dict)
    params: dict | None = field(default=None, compare=False, repr=False)

    def _persisted(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
                if f.name != "params"}

    def to_json(self) -> str:
        return json.dumps(self._persisted(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        data = json.loads(text)
        data["curve"] = [tuple(item) for item in data["curve"]]
        return cls(**data)

    def canonical_bytes(self) -> bytes:
        """Deterministic byte form: everything except wall time."""
        data = self._persisted()
        data.pop("wall_time")
        return json.dumps(data, sort_keys=True).encode()


# ------------------------------------------------------------------- training

def _resolve_target(plan: TrainPlan) -> TargetModel:
    return get_target(plan.target, data_dir=plan.data_dir,
                      toy_dim=plan.toy_dim)


def _resolve_config(plan: TrainPlan) -> MethodConfig:
    config = get_method(plan.method)
    if plan.score_hidden is not None:
        config = dataclasses.replace(config, score_hidden=plan.score_hidden)
    return config


def _optimize(config, params, target, num_steps, steps, lr, batch, seed,
              grad_clip, divergence_floor, record_every):
    """Shared Adam loop; returns (params, curve, skipped, clipped).

    One step's graph is alive at a time. `gradients` owns the step's tape,
    lifted model and loss, so they are freed when it returns, before the
    update; `descend` owns the step's gradients, so they are freed before
    the next step's backward sweep.
    """
    state = AdamState()
    curve, skipped, clipped = [], 0, 0

    def gradients(step: int) -> tuple[float, dict]:
        tape = Tape()
        model = lift_model(tape, config, params, target.dim, num_steps)
        loss = tape.mean_all(estimate_elbo(
            model, target, np.random.default_rng([seed, step]), batch).value)
        elbo = float(loss.value)
        # a sweep over a diverged graph may itself overflow
        if elbo < divergence_floor:
            raise TrainingDiverged(
                f"bound {elbo:.3e} fell below floor {divergence_floor:.3e} "
                f"at step {step}")
        return elbo, tape.backward(loss)

    def descend(step: int) -> float:
        nonlocal params, skipped, clipped
        elbo, grads = gradients(step)
        if not all(np.isfinite(g).all() for g in grads.values()):
            skipped += 1
            return elbo
        grads, was_clipped = clip_gradients(grads, grad_clip)
        clipped += was_clipped
        # ascend the bound: feed Adam the negated gradients
        params = adam_step(state, params,
                           {k: -g for k, g in grads.items()}, lr)
        return elbo

    for step in range(steps):
        elbo = descend(step)
        if step % record_every == 0 or step == steps - 1:
            curve.append((step, elbo))
    return params, curve, skipped, clipped


def train(plan: TrainPlan, target: TargetModel | None = None) -> RunRecord:
    """Pretrain q with plain VI, optimize the method's bound, evaluate."""
    start = time.perf_counter()
    if target is None:
        target = _resolve_target(plan)
    config = _resolve_config(plan)
    params = init_params(config, target.dim, plan.num_steps, seed=plan.seed)

    if plan.pretrain_steps > 0 and config.scheme != "plain":
        plain = get_method("plainvi")
        q_params = {"q.mu": params["q.mu"],
                    "q.raw_scale": params["q.raw_scale"]}
        q_params, _, _, _ = _optimize(
            plain, q_params, target, 1, plan.pretrain_steps,
            plan.pretrain_lr, plan.batch, plan.seed + 2 * EVAL_SEED_STRIDE,
            plan.grad_clip, plan.divergence_floor, plan.record_every)
        params.update(q_params)

    params, curve, skipped, clipped = _optimize(
        config, params, target, plan.num_steps, plan.steps, plan.lr,
        plan.batch, plan.seed, plan.grad_clip, plan.divergence_floor,
        plan.record_every)

    mean, stderr = evaluate_elbo_mean(
        config, params, target, plan.num_steps, plan.eval_samples,
        seed=plan.seed + EVAL_SEED_STRIDE)

    return RunRecord(
        plan=plan.to_dict(), final_elbo=mean, final_stderr=stderr,
        curve=curve, skipped_steps=skipped, clipped_steps=clipped,
        wall_time=time.perf_counter() - start,
        metadata={"target_dim": target.dim,
                  "trainable": sorted(config.trainable),
                  "score_hidden": config.score_hidden,
                  "adam": {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2,
                           "eps": ADAM_EPS}},
        params=params)


def run_grid(plans, on_record=None) -> list:
    """Run every plan; failures become error records and the grid continues."""
    records = []
    for plan in plans:
        try:
            record = train(plan)
        except Exception as exc:  # recorded, not fatal to the grid
            record = RunRecord(plan=plan.to_dict(), status="failed",
                               error=f"{type(exc).__name__}: {exc}")
        records.append(record)
        if on_record is not None:
            on_record(record)
    return records


def select_best(records) -> dict:
    """Best finished record per (method, target, K), by final bound."""
    best: dict = {}
    for rec in records:
        if rec.status != "ok" or rec.final_elbo is None:
            continue
        key = (rec.plan["method"], rec.plan["target"], rec.plan["num_steps"])
        if key not in best or rec.final_elbo > best[key].final_elbo:
            best[key] = rec
    return best
