"""Mean-field variational base distribution and the geometric annealing bridge.

The bridge interpolates between the base distribution q and the unnormalized
target p: log pi_k = (1 - beta_k) log q + beta_k log p, with an increasing
schedule 0 = beta_0 < beta_1 < ... < beta_K = 1. The interior schedule values
are trainable: beta_k is the normalized cumulative sum of softplus-transformed
weights, which keeps the schedule strictly monotone for any real weights. The
estimator mixes the bridge score from q's and the target's scores at each
interior step, and uses log q and log p themselves at the chain's endpoints.
"""

from __future__ import annotations

import math

import numpy as np

from ldvi.tape import Tape, Var

__all__ = ["MeanFieldGaussian", "AnnealingSchedule", "inverse_softplus"]

LOG_2PI = math.log(2.0 * math.pi)


def inverse_softplus(y: float | np.ndarray) -> np.ndarray:
    """Raw value u with softplus(u) = y, for positive y."""
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0):
        raise ValueError("inverse_softplus requires positive input")
    return y + np.log(-np.expm1(-y))


class MeanFieldGaussian:
    """Diagonal Gaussian with tape parameters; scales via softplus(raw).

    The softplus transform keeps every scale positive for any raw parameter
    value, so the optimizer can move freely in R^D.
    """

    def __init__(self, tape: Tape, mu: Var, raw_scale: Var):
        if mu.value.shape != raw_scale.value.shape:
            raise ValueError("mu and raw_scale must have the same shape")
        self.tape = tape
        self.mu = mu
        self.raw_scale = raw_scale
        self.sigma = tape.softplus(raw_scale)
        self.dim = mu.value.shape[-1]

    @staticmethod
    def init_params(dim: int, mu: float | np.ndarray = 0.0,
                    sigma: float | np.ndarray = 1.0) -> dict[str, np.ndarray]:
        return {
            "q.mu": np.broadcast_to(np.asarray(mu, dtype=np.float64), (dim,)).copy(),
            "q.raw_scale": np.broadcast_to(inverse_softplus(sigma), (dim,)).copy(),
        }

    @classmethod
    def lifted(cls, tape: Tape, params: dict[str, np.ndarray],
               trainable: bool = True) -> "MeanFieldGaussian":
        """Lift the "q.mu" and "q.raw_scale" entries of `params`."""
        mu = tape.lift(params["q.mu"], trainable=trainable, name="q.mu")
        raw = tape.lift(params["q.raw_scale"], trainable=trainable,
                        name="q.raw_scale")
        return cls(tape, mu, raw)

    def sample(self, eps: np.ndarray) -> Var:
        """Reparameterized draw mu + sigma * eps for standard-Normal noise."""
        t = self.tape
        return t.add(self.mu, t.mul(self.sigma, t.constant(eps)))

    def log_pdf(self, z: Var) -> Var:
        t = self.tape
        diff = t.div(t.sub(z, self.mu), self.sigma)
        per_dim = t.add(t.log(self.sigma), t.mul(0.5, t.square(diff)))
        return t.neg(t.add(t.sum(per_dim), 0.5 * self.dim * LOG_2PI))

    def score(self, z: Var) -> Var:
        t = self.tape
        return t.div(t.sub(self.mu, z), t.square(self.sigma))


class AnnealingSchedule:
    """Strictly increasing bridge schedule from trainable real weights.

    ``beta(k)`` for k in 1..K is cumsum(softplus(w))_k / sum(softplus(w)),
    a scalar Var differentiable in the weights. beta_0 = 0 is implicit: the
    chain starts from q itself, so no caller asks for it.
    """

    def __init__(self, tape: Tape, weights: Var):
        if weights.value.ndim != 1 or weights.value.shape[0] < 1:
            raise ValueError("schedule weights must be a non-empty vector")
        self.tape = tape
        self.num_steps = weights.value.shape[0]
        incr = tape.softplus(weights)
        lower = np.tril(np.ones((self.num_steps, self.num_steps)))
        self._betas = tape.div(tape.affine(incr, lower), tape.sum(incr))

    @staticmethod
    def init_params(num_steps: int) -> np.ndarray:
        """Equal weights, giving the uniform schedule beta_k = k / K."""
        return np.zeros(num_steps, dtype=np.float64)

    @classmethod
    def lifted(cls, tape: Tape, weights: np.ndarray,
               trainable: bool = True) -> "AnnealingSchedule":
        return cls(tape, tape.lift(weights, trainable=trainable,
                                   name="schedule.weights"))

    def beta(self, k: int) -> Var:
        if not 1 <= k <= self.num_steps:
            raise ValueError(f"k={k} outside schedule range 1..{self.num_steps}")
        return self.tape.index(self._betas, k - 1)
