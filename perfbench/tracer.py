"""Outside-in span recorder for the traced benchmark run.

The recorder wraps the public functions of each ldvi module under the name
its caller looks up, records one span (name, start, end, parent) per call in
memory, and restores every original on exit. Per-layer metrics are derived
from the spans of the traced cells: calls and times per main-phase step of
train() cells, or per estimate_elbo chunk of evaluate_elbo_mean cells. A
layer's self time is its span's duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from ldvi import dynamics, estimator, scorenet, tape, trainer

# Metric name -> unit; the traced run reports exactly these, in this order.
LAYER_METRICS = {
    "tape.nodes_per_step": "count",
    "tape.backward_calls": "count",
    "tape.backward_ms": "ms",
    "tape.gaussian_logpdf_calls": "count",
    "tape.gaussian_logpdf_ms": "ms",
    "targets.score_calls": "count",
    "targets.score_ms": "ms",
    "targets.logp_calls": "count",
    "targets.logp_ms": "ms",
    "annealing.bridge_score_calls": "count",
    "annealing.bridge_score_self_ms": "ms",
    "dynamics.transition_self_ms": "ms",
    "dynamics.log_ratio_self_ms": "ms",
    "dynamics.kernel_log_pdf_ms": "ms",
    "scorenet.apply_calls": "count",
    "scorenet.apply_ms": "ms",
    "estimator.estimate_elbo_ms": "ms",
    "estimator.lift_model_ms": "ms",
    "estimator.evaluate_elbo_mean_ms": "ms",
    "trainer.adam_step_ms": "ms",
    "trainer.clip_ms": "ms",
    "trainer.step_ms_p50": "ms",
    "trainer.step_ms_tail": "ms",
    "trainer.step_ms_tail_pct": "%",
    "trainer.pretrain_s": "s",
    "trainer.train_s": "s",
    "trainer.eval_s": "s",
    "trace.overhead_ratio": "ratio",
}


def patch_points() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped callable.

    Module-level functions are wrapped in the module that calls them, since
    that is where the name is looked up. Names a later version of ldvi no
    longer defines are skipped.
    """
    points = [
        (trainer, "lift_model", "estimator.lift_model"),
        (trainer, "estimate_elbo", "estimator.estimate_elbo"),
        (trainer, "evaluate_elbo_mean", "estimator.evaluate_elbo_mean"),
        (trainer, "adam_step", "trainer.adam_step"),
        (trainer, "clip_gradients", "trainer.clip_gradients"),
        (estimator, "lift_model", "estimator.lift_model"),
        (estimator, "estimate_elbo", "estimator.estimate_elbo"),
        (estimator, "evaluate_elbo_mean", "estimator.evaluate_elbo_mean"),
        (estimator, "bridge_score", "annealing.bridge_score"),
        (estimator, "forward_transition", "dynamics.forward_transition"),
        (estimator, "log_ratio_step", "dynamics.log_ratio_step"),
        (estimator, "em_forward_transition", "dynamics.em_forward_transition"),
        (estimator, "em_log_ratio_step", "dynamics.em_log_ratio_step"),
        (tape.Tape, "backward", "tape.backward"),
        (tape.Tape, "gaussian_logpdf", "tape.gaussian_logpdf"),
        (scorenet.ScoreNet, "apply", "scorenet.apply"),
    ]
    points += [(cls, "log_pdf", "dynamics.kernel_log_pdf")
               for cls in vars(dynamics).values()
               if inspect.isclass(cls) and cls.__module__ == dynamics.__name__
               and "log_pdf" in vars(cls)]
    return [p for p in points if p[1] in vars(p[0])]


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    nodes: int | None = None    # tape size after an estimate_elbo call


class Tracer:
    """Records the spans of one cell; install it with `recording`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, time.perf_counter(), parent)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name == "estimator.estimate_elbo":
                span.nodes = len(result.value.tape.nodes)
            return result
        return traced

    @contextlib.contextmanager
    def recording(self, target):
        """Wrap every patch point and the target; yields the traced target.

        Everything runs under one root span; the originals are restored on
        exit, also when the cell raises.
        """
        saved = []
        try:
            for owner, attr, name in patch_points():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            traced_target = dataclasses.replace(
                target, logp=self.wrap("targets.logp", target.logp),
                score=self.wrap("targets.score", target.score))
            root = self._open("cell")
            try:
                yield traced_target
            finally:
                self._close(root)
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def layer_metrics(cells: list[list[Span]], main_steps: int | None) -> dict:
    """Per-layer metrics pooled over recorded cells (all but the overhead).

    main_steps is the plan's main-phase step count for train() cells and None
    for evaluate_elbo_mean cells. Calls and times are totals divided by the
    steps (or estimate_elbo chunks) the cells hold; step percentiles pool
    every main-phase step; phase and evaluate_elbo_mean times are medians
    over cells.
    """
    calls: Counter = Counter()
    inclusive: defaultdict = defaultdict(float)
    exclusive: defaultdict = defaultdict(float)
    nodes, step_ms, eval_ms, phases = [], [], [], []
    for spans in cells:
        root = spans[0]
        top = [s for s in spans if s.parent == 0]
        eval_ms += [1e3 * (s.end - s.start) for s in spans
                    if s.name == "estimator.evaluate_elbo_mean"]
        if main_steps:
            lifts = [s.start for s in top if s.name == "estimator.lift_model"]
            final_eval = next(s for s in top
                              if s.name == "estimator.evaluate_elbo_mean")
            bounds = lifts[-main_steps:] + [final_eval.start]
            lo, hi = bounds[0], bounds[-1]
            step_ms += [1e3 * (b - a) for a, b in zip(bounds, bounds[1:])]
            phases.append((lo - root.start, hi - lo,
                           final_eval.end - final_eval.start))
        else:
            lo, hi = root.start, root.end
        own = self_seconds(spans)
        for i, s in enumerate(spans[1:], start=1):
            if not lo <= s.start < hi:
                continue
            calls[s.name] += 1
            exclusive[s.name] += own[i]
            if spans[s.parent].name != s.name:   # count nested same-layer once
                inclusive[s.name] += s.end - s.start
            if s.nodes is not None:
                nodes.append(s.nodes)
    steps = (main_steps * len(cells) if main_steps
             else calls["estimator.estimate_elbo"])

    def per_step(value):
        return value / steps

    def ms(name):
        return per_step(1e3 * inclusive[name])

    def self_ms(*names):
        return per_step(1e3 * sum(exclusive[n] for n in names))

    def phase(i):
        return statistics.median(p[i] for p in phases) if phases else 0.0

    tail_ms, tail_pct = tail(step_ms) if step_ms else (0.0, 0.0)
    return {
        "tape.nodes_per_step": statistics.fmean(nodes),
        "tape.backward_calls": per_step(calls["tape.backward"]),
        "tape.backward_ms": ms("tape.backward"),
        "tape.gaussian_logpdf_calls": per_step(calls["tape.gaussian_logpdf"]),
        "tape.gaussian_logpdf_ms": ms("tape.gaussian_logpdf"),
        "targets.score_calls": per_step(calls["targets.score"]),
        "targets.score_ms": ms("targets.score"),
        "targets.logp_calls": per_step(calls["targets.logp"]),
        "targets.logp_ms": ms("targets.logp"),
        "annealing.bridge_score_calls": per_step(
            calls["annealing.bridge_score"]),
        "annealing.bridge_score_self_ms": self_ms("annealing.bridge_score"),
        "dynamics.transition_self_ms": self_ms(
            "dynamics.forward_transition", "dynamics.em_forward_transition"),
        "dynamics.log_ratio_self_ms": self_ms(
            "dynamics.log_ratio_step", "dynamics.em_log_ratio_step"),
        "dynamics.kernel_log_pdf_ms": ms("dynamics.kernel_log_pdf"),
        "scorenet.apply_calls": per_step(calls["scorenet.apply"]),
        "scorenet.apply_ms": ms("scorenet.apply"),
        "estimator.estimate_elbo_ms": ms("estimator.estimate_elbo"),
        "estimator.lift_model_ms": ms("estimator.lift_model"),
        "estimator.evaluate_elbo_mean_ms": statistics.median(eval_ms),
        "trainer.adam_step_ms": ms("trainer.adam_step"),
        "trainer.clip_ms": ms("trainer.clip_gradients"),
        "trainer.step_ms_p50": statistics.median(step_ms) if step_ms else 0.0,
        "trainer.step_ms_tail": tail_ms,
        "trainer.step_ms_tail_pct": tail_pct,
        "trainer.pretrain_s": phase(0),
        "trainer.train_s": phase(1),
        "trainer.eval_s": phase(2),
    }
