"""Learned score approximation for the backward (reverse-time) kernels.

A small residual MLP maps (time, position, momentum) to a score vector. The
time feature is the annealing fraction k / K, so one network is shared across
all transitions. The output layer is zero-initialized: at initialization the
correction vanishes and every score-based method starts exactly at its
score-free counterpart. The position-only variant (MCD's reverse kernel)
reads (time, position) alone and may be called with no momentum; its W0 is
the first 1 + dim columns of the full network's, so both start alike.

`apply` reads its layers from the estimator's dict of lifted parameters,
keyed "score.W0", "score.b0" and so on.
"""

from __future__ import annotations

import numpy as np

from ldvi.tape import Tape, Var

__all__ = ["ScoreNet"]


class ScoreNet:
    """Residual tanh MLP: R^input_dim -> R^dim, zero at initialization."""

    def __init__(self, dim: int, hidden: int | None = None,
                 position_only: bool = False):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.hidden = hidden if hidden is not None else max(64, 2 * dim)
        self.position_only = position_only
        self.input_dim = 1 + dim if position_only else 1 + 2 * dim

    def init_params(self, seed: int = 0) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        h = self.hidden
        # layer name -> (out_features, in_features); W0 is cut to size below
        shapes = {"W0": (h, 1 + 2 * self.dim), "W1": (h, h), "W2": (h, h),
                  "W3": (self.dim, h)}
        params: dict[str, np.ndarray] = {}
        for name, (out, fan_in) in shapes.items():
            if name == "W3":  # zero-initialized output layer
                params[f"score.{name}"] = np.zeros((out, fan_in))
            else:
                params[f"score.{name}"] = rng.normal(
                    size=(out, fan_in)) / np.sqrt(fan_in)
            params[f"score.b{name[1]}"] = np.zeros(out)
        params["score.W0"] = params["score.W0"][:, :self.input_dim].copy()
        return params

    def apply(self, tape: Tape, lifted: dict[str, Var], k: int, num_steps: int,
              z: Var, rho: Var | None) -> Var:
        """Evaluate the score at annealing step k of num_steps."""
        t = tape
        # batch-shaped constant feature holding the annealing fraction; the
        # constants are zero-stride views that take no memory of their own
        frac = np.broadcast_to(k / num_steps, z.shape[:-1] + (1,))
        x = t.concat([frac, z] if self.position_only else [frac, z, rho])
        h = t.tanh(t.linear(x, lifted["score.W0"], lifted["score.b0"]))
        h = t.add(h, t.tanh(t.linear(h, lifted["score.W1"], lifted["score.b1"])))
        h = t.add(h, t.tanh(t.linear(h, lifted["score.W2"], lifted["score.b2"])))
        return t.linear(h, lifted["score.W3"], lifted["score.b3"])

    def make_score_fn(self, tape: Tape, lifted: dict[str, Var], num_steps: int):
        """Close over tape and parameters, yielding s(k, z, rho); a
        position-only score ignores rho, which may be None."""
        return lambda k, z, rho: self.apply(tape, lifted, k, num_steps, z, rho)
