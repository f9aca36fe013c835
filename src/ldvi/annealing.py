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
with its score. The bridge score is one `bridge_score` node per use: it
reads beta_k from the schedule's vector, takes q's score at z as an array
(`MeanFieldGaussian.score_array`) and differentiates it itself, and for
the Euler-Maruyama drift also multiplies by the step size.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ldvi.tape import Tape, Var

__all__ = ["MeanFieldGaussian", "AnnealingSchedule", "bridge_score",
           "inverse_softplus"]


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
        """sigma^2, built on first use and shared by `log_pdf` and the
        bridge score."""
        return self.tape.square(self.sigma)

    def score_array(self, z: Var) -> np.ndarray:
        """q's score (mu - z) / sigma^2 at z as an array: the value of
        `div(sub(mu, z), var)`. `bridge_score` takes it and differentiates
        it, so it records no node."""
        return (self.mu.value - z.value) / self.var.value


class AnnealingSchedule:
    """Strictly increasing bridge schedule from trainable real weights.

    `betas` is the (K,) Var (beta_1, ..., beta_K), entry k - 1 being
    cumsum(softplus(w))_k / sum(softplus(w)), differentiable in the weights;
    `bridge_score` reads beta_k from it. beta_0 = 0 is implicit: the chain
    starts from q itself, so no caller asks for it.
    """

    def __init__(self, tape: Tape, weights: Var):
        if weights.value.ndim != 1 or weights.value.shape[0] < 1:
            raise ValueError("schedule weights must be a non-empty vector")
        self.tape = tape
        self.num_steps = weights.value.shape[0]
        incr = tape.softplus(weights)
        lower = np.tril(np.ones((self.num_steps, self.num_steps)))
        self.betas = tape.div(tape.affine(incr, lower), tape.sum(incr))

    @staticmethod
    def init_params(num_steps: int) -> np.ndarray:
        """Equal weights, giving the uniform schedule beta_k = k / K."""
        return np.zeros(num_steps, dtype=np.float64)


def bridge_score(schedule: AnnealingSchedule, k: int, q: MeanFieldGaussian,
                 z: Var, q_score: np.ndarray, target_score: Var,
                 delta: Var | None = None) -> Var:
    """The bridge score grad log pi_k(z) = (1 - beta_k) grad log q(z)
    + beta_k grad log pbar(z) as one node, times `delta` when given (the
    Euler-Maruyama drift).

    `q_score` is `q.score_array(z)` and `target_score` the target's score
    Var at z. The node's parents are the schedule's betas, q's mu and
    sigma^2, z, the target score and delta, so its VJP carries q's score
    back to mu, sigma^2 and z itself. Its value is that of the primitive
    chain b = `narrow(betas, k - 1, k)`, `add(mul(sub(1.0, b),
    div(sub(mu, z), var)), mul(b, target_score))`, then `mul(delta, .)`,
    bit for bit, beta_k entering as a python float. beta_k's adjoint goes
    to entry k - 1 of the betas, as `narrow`'s does.
    """
    if not 1 <= k <= schedule.num_steps:
        raise ValueError(f"k={k} outside schedule range "
                         f"1..{schedule.num_steps}")
    betas, mu, var, ts = schedule.betas, q.mu, q.var, target_score
    beta = float(betas.value[k - 1])
    keep = 1.0 - beta
    mix = keep * q_score + beta * ts.value
    parents = (betas, mu, var, z, ts)
    if delta is None:
        value = mix
    else:
        value = delta.value * mix
        parents += (delta,)

    def vjp(adj):
        if delta is not None:
            adj_delta = adj * mix if delta.needs_grad else None
            adj = adj * delta.value
        adj_beta = None
        if betas.needs_grad:
            adj_beta = np.zeros(betas.shape)
            adj_beta[k - 1] = np.add.reduce(adj * (ts.value - q_score),
                                            axis=None)
        # q's score (mu - z) / var, whose adjoint is adj_q
        adj_q = adj * keep
        r = adj_q / var.value
        adjoints = (adj_beta, r if mu.needs_grad else None,
                    -adj_q * q_score / var.value if var.needs_grad else None,
                    -r if z.needs_grad else None,
                    adj * beta if ts.needs_grad else None)
        return adjoints if delta is None else adjoints + (adj_delta,)

    return schedule.tape.push(value, parents, vjp)
