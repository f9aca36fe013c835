"""Learned score approximation for the backward (reverse-time) kernels.

A small residual MLP maps (time, position, momentum) to a score vector. The
time feature is the annealing fraction k / K, so one network is shared across
all transitions. The output layer is zero-initialized: at initialization the
correction vanishes and every score-based method starts exactly at its
score-free counterpart. The position-only variant zeroes the momentum input,
for reverse kernels that may condition on position alone.
"""

from __future__ import annotations

import numpy as np

from ldvi.tape import Tape, Var

__all__ = ["ScoreNet"]


class ScoreNet:
    """Residual tanh MLP: R^(2 dim + 1) -> R^dim, zero at initialization."""

    def __init__(self, dim: int, hidden: int | None = None,
                 position_only: bool = False, prefix: str = "score"):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.hidden = hidden if hidden is not None else max(64, 2 * dim)
        self.position_only = position_only
        self.prefix = prefix
        self.input_dim = 1 + 2 * dim

    # layer name -> (out_features, in_features)
    def _layer_shapes(self) -> dict[str, tuple[int, int]]:
        h = self.hidden
        return {"W0": (h, self.input_dim), "W1": (h, h), "W2": (h, h),
                "W3": (self.dim, h)}

    def init_params(self, seed: int = 0) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        params: dict[str, np.ndarray] = {}
        for name, (out, fan_in) in self._layer_shapes().items():
            if name == "W3":  # zero-initialized output layer
                params[f"{self.prefix}.{name}"] = np.zeros((out, fan_in))
            else:
                params[f"{self.prefix}.{name}"] = rng.normal(
                    size=(out, fan_in)) / np.sqrt(fan_in)
            params[f"{self.prefix}.b{name[1]}"] = np.zeros(out)
        return params

    def lift(self, tape: Tape, params: dict[str, np.ndarray],
             trainable: bool = True) -> dict[str, Var]:
        lifted = {}
        for name in self._layer_shapes():
            for key in (f"{self.prefix}.{name}", f"{self.prefix}.b{name[1]}"):
                lifted[key] = tape.lift(params[key], trainable=trainable,
                                        name=key)
        return lifted

    def apply(self, tape: Tape, lifted: dict[str, Var], k: int, num_steps: int,
              z: Var, rho: Var) -> Var:
        """Evaluate the score at annealing step k of num_steps."""
        t = tape
        p = self.prefix
        # batch-shaped constant feature holding the annealing fraction; the
        # constants are zero-stride views that take no memory of their own
        frac = np.broadcast_to(k / num_steps, z.shape[:-1] + (1,))
        rho_in = np.broadcast_to(0.0, rho.shape) if self.position_only else rho
        x = t.concat([frac, z, rho_in])
        h = t.tanh(t.linear(x, lifted[f"{p}.W0"], lifted[f"{p}.b0"]))
        h = t.add(h, t.tanh(t.linear(h, lifted[f"{p}.W1"], lifted[f"{p}.b1"])))
        h = t.add(h, t.tanh(t.linear(h, lifted[f"{p}.W2"], lifted[f"{p}.b2"])))
        return t.linear(h, lifted[f"{p}.W3"], lifted[f"{p}.b3"])

    def make_score_fn(self, tape: Tape, lifted: dict[str, Var], num_steps: int):
        """Close over tape and parameters, yielding s(k, z, rho).

        A position-only score ignores rho, so it is built once per (k, z)
        and every later call at the same step and position reuses it.
        """
        if not self.position_only:
            return lambda k, z, rho: self.apply(tape, lifted, k, num_steps,
                                                z, rho)
        built: dict[tuple[int, int], Var] = {}

        def score(k: int, z: Var, rho: Var) -> Var:
            key = (k, z.index)
            if key not in built:
                built[key] = self.apply(tape, lifted, k, num_steps, z, rho)
            return built[key]

        return score
