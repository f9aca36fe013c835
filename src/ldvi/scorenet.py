"""Learned score approximation for the backward (reverse-time) kernels.

A small residual MLP maps (time, position, momentum) to a score vector. The
time feature is the annealing fraction k / K, so one network is shared across
all transitions. The output layer is zero-initialized: at initialization the
correction vanishes and every score-based method starts exactly at its
score-free counterpart. The position-only variant (MCD's reverse kernel)
reads (time, position) alone and may be called with no momentum; its W0 is
the first 1 + dim columns of the full network's, so both start alike.

`apply` reads its layers from the estimator's dict of lifted parameters,
keyed "score.W0", "score.b0" and so on, and records the whole network as
one tape node. For its VJP the node keeps only the three tanh outputs, each
(batch, hidden); it rebuilds the input features and the two residual sums
from them, so a training tape holds no pre-activation, no input and no
residual sum of any call.
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
        if self.hidden < 1:
            raise ValueError("hidden must be at least 1")
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
        """Evaluate the score at annealing step k of num_steps, as one node.

        Its parents are z, rho (not for a position-only net) and the eight
        weights. Each layer runs in one buffer (the matmul, the bias added
        in place, the tanh in place), with the floats of tanh(x @ W.T + b),
        and the second residual sum is added in place. The node keeps only the three tanh outputs h0, t1 and t2; its VJP
        rebuilds the input x = [k / K, z, rho] and the residual sums
        h1 = h0 + t1 and h2 = h1 + t2 with the forward's float operations,
        and sums each adjoint in the order of the node-per-operation chain
        (`concat`, four `linear`, three `tanh`, two `add`), so values and
        gradients are that chain's bit for bit.
        """
        weights = tuple(lifted[f"score.{kind}{i}"]
                        for i in range(4) for kind in "Wb")
        W0, b0, W1, b1, W2, b2, W3, b3 = (w.value for w in weights)
        inputs = (z,) if self.position_only else (z, rho)
        frac, d = k / num_steps, self.dim

        def features():
            # the annealing fraction as a batch-shaped zero-stride column
            col = np.broadcast_to(frac, z.shape[:-1] + (1,))
            return np.concatenate([col] + [v.value for v in inputs], axis=-1)

        h0 = _tanh_layer(features(), W0, b0)
        t1 = _tanh_layer(h0, W1, b1)
        h = h0 + t1
        t2 = _tanh_layer(h, W2, b2)
        h += t2
        out = _affine(h, W3, b3)

        def vjp(adj):
            # from the output down; a residual sum's adjoint is its skip
            # path's plus its layer's, in that order
            adj_h2 = adj @ W3
            adj_a2 = adj_h2 * (1.0 - t2 * t2)
            adj_h1 = adj_h2 + adj_a2 @ W2
            adj_a1 = adj_h1 * (1.0 - t1 * t1)
            adj_h0 = adj_h1 + adj_a1 @ W1
            adj_a0 = adj_h0 * (1.0 - h0 * h0)
            adj_x = (adj_a0 @ W0 if any(v.needs_grad for v in inputs)
                     else None)
            grads = [adj_x[..., 1 + i * d:1 + (i + 1) * d] if v.needs_grad
                     else None for i, v in enumerate(inputs)]
            h1 = h0 + t1
            for adj_a, h, W, b in zip((adj_a0, adj_a1, adj_a2, adj),
                                      (features(), h0, h1, h1 + t2),
                                      weights[::2], weights[1::2]):
                a2 = adj_a.reshape(-1, adj_a.shape[-1])
                grads += [a2.T @ h.reshape(-1, h.shape[-1])
                          if W.needs_grad else None,
                          adj_a if b.needs_grad else None]
            return grads

        return tape.push(out, inputs + weights, vjp)

    def make_score_fn(self, tape: Tape, lifted: dict[str, Var], num_steps: int):
        """Close over tape and parameters, yielding s(k, z, rho); a
        position-only score ignores rho, which may be None."""
        return lambda k, z, rho: self.apply(tape, lifted, k, num_steps, z, rho)


def _affine(h: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """h @ W.T + b in one buffer."""
    out = np.matmul(h, W.T)
    out += b
    return out


def _tanh_layer(h: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tanh(h @ W.T + b) in one buffer."""
    out = _affine(h, W, b)
    return np.tanh(out, out=out)

