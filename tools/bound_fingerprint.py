"""Print a JSON fingerprint of ldvi's bound values and gradients.

For every method on every benchmark target but lorenz (K=8, a batch of 4
chains, seeded perturbed parameters) it records the `repr` of each chain's
bound, the `repr` of the `evaluate_elbo_mean` output, and per-parameter
gradient digests: the SHA-256 of the gradient's bytes, its largest absolute
entry and its 2-norm. Two checkouts whose fingerprints have equal bounds
compute bit-identical forward values; equal hashes mean equal gradients, and
the two norms show how far unequal ones drift. It also records the SHA-256 of
`RunRecord.canonical_bytes()` for a short `train()` run of every method on
toy, brownian, sonar and ionosphere, so equal digests mean byte-identical
records, and the `repr` of an `evaluate_elbo_mean` of every method on
ionosphere at the default batch of 256 over 600 samples, whose last chunk
is a ragged 88. It pins BLAS to one thread, as perfbench/run.py does, so the
output does not depend on the thread settings of the environment. Compare two checkouts with

    PYTHONPATH=src python3 tools/bound_fingerprint.py > after.json
    PYTHONPATH=/path/to/other/checkout/src python3 tools/bound_fingerprint.py > before.json
    diff before.json after.json
"""

import hashlib
import json
import os
import sys

# a multi-threaded matmul may sum in another order; the variables take effect
# only before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from ldvi.estimator import (estimate_elbo, evaluate_elbo_mean, get_method,
                            init_params, lift_model, method_names)
from ldvi.tape import Tape
from ldvi.targets import TARGET_NAMES, get_target
from ldvi.trainer import TrainPlan, train

K, BATCH, SEED = 8, 4, 7
WIDE_SAMPLES = 600   # two full 256-chain chunks and a ragged one of 88


def fingerprint() -> dict:
    out = {}
    for target_name in (n for n in TARGET_NAMES if n != "lorenz"):
        target = get_target(target_name)
        for method in method_names():
            cfg = get_method(method)
            rng = np.random.default_rng([SEED, len(out)])
            params = {k: v + 0.05 * rng.normal(size=v.shape)
                      for k, v in init_params(cfg, target.dim, K).items()}
            t = Tape()
            model = lift_model(t, cfg, params, target.dim, K)
            est = estimate_elbo(model, target,
                                np.random.default_rng([SEED, 0]), BATCH)
            grads = t.backward(t.mean_all(est.value))
            out[f"{method}/{target_name}"] = {
                "bounds": [repr(float(v)) for v in est.value.value],
                "eval_mean": [repr(v) for v in evaluate_elbo_mean(
                    cfg, params, target, K, 2 * BATCH, SEED, batch=BATCH)],
                "grads": {k: {"sha256": hashlib.sha256(g.tobytes()).hexdigest(),
                              "max_abs": repr(float(np.abs(g).max())),
                              "l2": repr(float(np.linalg.norm(g)))}
                          for k, g in sorted(grads.items())},
            }
            if target_name == "ionosphere":
                out[f"eval256/{method}/{target_name}"] = [
                    repr(v) for v in evaluate_elbo_mean(
                        cfg, params, target, K, WIDE_SAMPLES, SEED)]
    for target_name in ("toy", "brownian", "sonar", "ionosphere"):
        for method in method_names():
            plan = TrainPlan(method, target_name, num_steps=K, steps=5,
                             batch=BATCH, eval_samples=2 * BATCH, seed=SEED,
                             pretrain_steps=2, record_every=1)
            record = train(plan)
            out[f"train/{method}/{target_name}"] = hashlib.sha256(
                record.canonical_bytes()).hexdigest()
    return out


if __name__ == "__main__":
    json.dump(fingerprint(), sys.stdout, indent=1, sort_keys=True)
    print()
