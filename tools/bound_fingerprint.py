"""Print a JSON fingerprint of ldvi's bound values and gradients.

For every method on every benchmark target but lorenz (K=8, a batch of 4
chains, seeded perturbed parameters) it records the `repr` of each chain's
bound, the `repr` of the `evaluate_elbo_mean` output, and per-parameter
gradient digests: the SHA-256 of the gradient's bytes, its largest absolute
entry and its 2-norm. Two checkouts whose fingerprints have equal bounds
compute bit-identical forward values; equal hashes mean equal gradients, and
the two norms show how far unequal ones drift. Compare two checkouts with

    PYTHONPATH=src python3 tools/bound_fingerprint.py > after.json
    PYTHONPATH=/path/to/other/checkout/src python3 tools/bound_fingerprint.py > before.json
    diff before.json after.json
"""

import hashlib
import json
import sys

import numpy as np

from ldvi.estimator import (NoiseBundle, estimate_elbo, evaluate_elbo_mean,
                            get_method, init_params, lift_model, method_names)
from ldvi.tape import Tape
from ldvi.targets import TARGET_NAMES, get_target

K, BATCH, SEED = 8, 4, 7


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
                                NoiseBundle.draw(SEED, 0, BATCH, target.dim, K))
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
    return out


if __name__ == "__main__":
    json.dump(fingerprint(), sys.stdout, indent=1, sort_keys=True)
    print()
