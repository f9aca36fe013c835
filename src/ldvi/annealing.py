"""Mean-field variational base distribution and the geometric annealing bridge.

The bridge interpolates between the base distribution q and the unnormalized
target p: log pi_k = (1 - beta_k) log q + beta_k log p, with an increasing
schedule 0 = beta_0 < beta_1 < ... < beta_K = 1. The interior schedule values
are trainable: beta_k is the normalized cumulative sum of softplus-transformed
weights, which keeps the schedule strictly monotone for any real weights. The
estimator mixes the bridge score from q's and the target's scores at each
interior step, and uses log q and log p themselves at the chain's endpoints.
q's draw is one `Tape.muladd` node, and its log-density one
`Tape.gaussian_logpdf` node with the diagonal variance sigma^2 it shares
with its score.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ldvi.tape import Tape, Var, _unbroadcast

__all__ = ["MeanFieldGaussian", "AnnealingSchedule", "inverse_softplus"]


def inverse_softplus(y: float | np.ndarray) -> np.ndarray:
    """Raw value u with softplus(u) = y, for positive y."""
    y = np.asarray(y, dtype=np.float64)
    if (y <= 0).any():
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

    @staticmethod
    def init_params(dim: int, mu: float | np.ndarray = 0.0,
                    sigma: float | np.ndarray = 1.0) -> dict[str, np.ndarray]:
        return {
            "q.mu": np.broadcast_to(np.asarray(mu, dtype=np.float64), (dim,)).copy(),
            "q.raw_scale": np.broadcast_to(inverse_softplus(sigma), (dim,)).copy(),
        }

    def sample(self, eps: np.ndarray) -> Var:
        """Reparameterized draw mu + sigma * eps for standard-Normal noise."""
        return self.tape.muladd(self.sigma, eps, self.mu)

    def log_pdf(self, z: Var) -> Var:
        """log q(z) as one diagonal-variance `Tape.gaussian_logpdf` node."""
        return self.tape.gaussian_logpdf(z, self.mu, self.var)

    @cached_property
    def var(self) -> Var:
        """sigma^2, built on first use and shared by `log_pdf` and `score`."""
        return self.tape.square(self.sigma)

    def score(self, z: Var) -> Var:
        """(mu - z) / sigma^2 as one node: the value of
        `div(sub(mu, z), var)`."""
        mu, var = self.mu, self.var
        value = (mu.value - z.value) / var.value

        def vjp(adj):
            r = adj / var.value
            return (_unbroadcast(r, mu.shape) if mu.needs_grad else None,
                    _unbroadcast(-r, z.shape) if z.needs_grad else None,
                    _unbroadcast(-adj * value / var.value, var.shape)
                    if var.needs_grad else None)

        return self.tape.push(value, (mu, z, var), vjp)


class AnnealingSchedule:
    """Strictly increasing bridge schedule from trainable real weights.

    ``beta(k)`` for k in 1..K is cumsum(softplus(w))_k / sum(softplus(w)),
    a length-1 Var differentiable in the weights, which `Tape.lerp` mixes
    with as a 0-d value. beta_0 = 0 is implicit: the chain starts from q
    itself, so no caller asks for it.
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

    def beta(self, k: int) -> Var:
        if not 1 <= k <= self.num_steps:
            raise ValueError(f"k={k} outside schedule range 1..{self.num_steps}")
        return self.tape.narrow(self._betas, k - 1, k)
