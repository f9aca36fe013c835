"""The package surface that the benchmark under perfbench/ reads.

The benchmark's tracer wraps callables by looking them up in the module or
class that calls them, and skips a name that no longer exists without
saying so. These tests make a cut to that surface fail here instead.
"""

import dataclasses

import numpy as np
import pytest

from ldvi import dynamics, estimator, scorenet, tape, trainer
from ldvi.targets import TARGET_NAMES, TargetModel, gaussian_toy_target


@pytest.mark.parametrize("owner,name", [
    (trainer, "lift_model"), (trainer, "estimate_elbo"),
    (trainer, "evaluate_elbo_mean"), (trainer, "adam_step"),
    (trainer, "clip_gradients"), (trainer, "train"),
    (estimator, "lift_model"), (estimator, "estimate_elbo"),
    (estimator, "evaluate_elbo_mean"), (estimator, "get_method"),
    (estimator, "init_params"), (estimator, "method_names"),
    (estimator, "bridge_score"),
    (tape.Tape, "backward"), (tape.Tape, "gaussian_logpdf"),
    (scorenet.ScoreNet, "apply"), (dynamics.MomentumKernel, "log_pdf")])
def test_traced_callable_is_defined_where_it_is_looked_up(owner, name):
    assert callable(vars(owner).get(name))


def test_targets_swap_logp_and_score():
    """The tracer wraps a target's densities with dataclasses.replace, and
    the workloads and the node-count sweep resolve targets by name."""
    fields = {f.name for f in dataclasses.fields(TargetModel)}
    assert {"logp", "score", "dim"} <= fields
    assert {"ionosphere", "sonar", "brownian", "lorenz"} <= set(TARGET_NAMES)


def test_estimate_value_belongs_to_the_lifting_tape():
    """The tracer counts nodes per step as len(result.value.tape.nodes)."""
    cfg = estimator.get_method("ula")
    t = tape.Tape()
    model = estimator.lift_model(t, cfg, estimator.init_params(cfg, 2, 3),
                                 2, 3)
    result = estimator.estimate_elbo(model, gaussian_toy_target(2),
                                     np.random.default_rng([0, 0]), 2)
    assert result.value.tape is t
    assert len(result.value.tape.nodes) > 0


@pytest.mark.parametrize("method", ["plainvi", "mcd", "ldvi"])
def test_train_record_carries_the_final_params(method):
    """A train workload re-evaluates record.params under the record's eval
    seed and expects the record's bound back."""
    plan = trainer.TrainPlan(method, "toy", num_steps=3, steps=2, batch=2,
                             eval_samples=4, pretrain_steps=1,
                             score_hidden=4)
    target = gaussian_toy_target(2)
    record = trainer.train(plan, target=target)
    config = dataclasses.replace(estimator.get_method(method),
                                 score_hidden=4)
    assert record.params.keys() == estimator.init_params(config, 2, 3).keys()
    mean, _ = estimator.evaluate_elbo_mean(
        config, record.params, target, 3, 4,
        seed=plan.seed + trainer.EVAL_SEED_STRIDE)
    assert mean == record.final_elbo
    assert all(np.isfinite(v).all() for v in record.params.values())
