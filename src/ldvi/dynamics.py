"""Simulated underdamped Langevin dynamics: integrator and momentum kernel.

Every transition of the augmented chain, for every method, is a Gaussian
momentum refresh m_F, a deterministic map of (z, rho), and a Gaussian
reverse kernel m_B that scores the old momentum given the new state. The
map is either one leapfrog step of the bridge density pi_k, or (for the
Euler-Maruyama variants) the position update z + delta rho' after a refresh
that also carries the drift delta grad log pi_k(z). Both maps are
deterministic and volume preserving, so the per-step contribution to the
augmented lower bound is log m_B(rho | rho', z) - log m_F(rho' | rho), which
`MomentumKernel.log_ratio` records as one `Tape.gaussian_log_ratio` node.

m_F and m_B come from one discretisation of the same dynamics, so they
share the shrink and the variance, and one `MomentumKernel` is both. It is
N(mean, var I) with

    m_F: mean = shrink rho (+ drift)
    m_B: mean = shrink rho' (- drift) + coef s(k, z, rho'),

where s is the learned score, if the method has one. The full refresh
(ULA, MCD) is the unit kernel N(0, I): no shrink and no mean, so rho' is
the noise itself. The exact Ornstein-Uhlenbeck refresh has shrink eta and
variance 1 - eta^2, the Euler-Maruyama refresh shrink 1 - gamma delta and
variance 2 gamma delta. A score enters the reverse mean with coef var, the
discretised time reversal, except MCD's: its position-only score recenters
the full refresh with coef 2. The endpoint momentum augmentation is a unit
kernel too: N(0, I), or for MCD its own kernel N(2 s(k, z), I), which draws
the initial momentum and scores both endpoints.

The kernel draws rho' = shrink rho (+ drift) + sqrt(var) eps as one node
(`MomentumKernel.refresh`) and never builds m_F's mean. m_F's density at
its own draw is a function of the noise and the variance alone,
-sum_d [0.5 log(2 pi var_d) + eps_d^2 / 2], so the log-ratio scores m_F
from eps, and the chain's initial momentum density is scored the same way
(for MCD's augmentation N(2 s, I) that makes it a constant). Only the
terminal momentum density is evaluated at a point.

All kernel parameters (step size delta, friction gamma, momentum retention
eta) are scalar tape Vars, so gradients flow through every density. The
kernel is built once per lift, so its shrink, variance and noise scale
sqrt(var) are tape nodes shared by every transition, as is the leapfrog's
half step delta / 2. Each multiply-add of the chain (a leapfrog update, a
score correction) is one `Tape.muladd` node, and a reverse mean
shrink rho' - drift is one `Tape.mulsub` node.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ldvi.tape import DomainError, Tape, Var

__all__ = ["leapfrog", "MomentumKernel"]

# score callables take (k, z, rho) and return the score evaluated on the tape
ScoreFn = Callable[[int, Var, Var], Var]


# ------------------------------------------------------------------ leapfrog

def leapfrog(t: Tape, z: Var, rho: Var, delta: Var, half_delta: Var,
             grad_fn: Callable[[Var], Var]) -> tuple[Var, Var]:
    """One leapfrog step of H(z, rho) = -log pi(z) + |rho|^2 / 2.

    `half_delta` is delta / 2, built once per chain by the caller.
    """
    rho_half = t.muladd(half_delta, grad_fn(z), rho)
    z_new = t.muladd(delta, rho_half, z)
    rho_new = t.muladd(half_delta, grad_fn(z_new), rho_half)
    return z_new, rho_new


# ------------------------------------------------------------ momentum kernel

def _check_scalar(name: str, v: Var) -> Var:
    if v.value.ndim != 0:
        raise DomainError(name, f"expected scalar parameter, got shape {v.shape}")
    return v


class MomentumKernel:
    """One method's diagonal-Gaussian momentum kernel N(mean, var I), both
    the refresh m_F and its reversal m_B.

    `refresh` draws from m_F, whose mean is shrink rho plus the drift. `mean`
    builds m_B's: shrink rho' less the drift, plus coef s(k, z, rho') when
    the kernel has a score. Build it with `unit` (N(0, I), the full
    refresh), `exact_ou` or `euler_maruyama`. `var` is a scalar Var, whose
    noise scale sqrt(var) is built once for `refresh`, or 1.0 for a unit
    kernel, which needs none. `log_ratio` scores a transition, and `sample`
    draws from a unit kernel, the endpoint augmentation.
    """

    def __init__(self, tape: Tape, shrink: Var | None, var: Var | float,
                 score_fn: ScoreFn | None = None,
                 coef: Var | float | None = None):
        self.tape = tape
        self.shrink = shrink
        self.var = var
        self.score_fn = score_fn
        # by default a score enters the reverse mean as var s, the
        # discretised time reversal of the refresh
        self.coef = var if coef is None else coef
        self.scale = tape.sqrt(var) if isinstance(var, Var) else None

    @classmethod
    def exact_ou(cls, tape: Tape, eta: Var,
                 score_fn: ScoreFn | None = None) -> "MomentumKernel":
        """Exact Ornstein-Uhlenbeck refresh N(eta rho, (1 - eta^2) I).

        eta = exp(-gamma delta) is the momentum retention over one step,
        learned by UHA. eta -> 1 degenerates (zero variance) and is
        rejected. The full refresh of ULA and MCD is not this kernel at
        eta = 0 but `unit`, which draws the noise itself. Without a score
        the kernel is its own reversal, since the refresh is self-adjoint
        with respect to N(0, I).
        """
        _check_scalar("exact_ou", eta)
        if not 0.0 <= float(eta.value) < 1.0:
            raise DomainError("exact_ou",
                              f"eta must lie in [0, 1), got {float(eta.value)}")
        return cls(tape, eta, tape.sub(1.0, tape.square(eta)), score_fn)

    @classmethod
    def euler_maruyama(cls, tape: Tape, gamma: Var, delta: Var,
                       score_fn: ScoreFn | None = None) -> "MomentumKernel":
        """Euler-Maruyama refresh N(rho (1 - gamma delta), 2 gamma delta I)."""
        _check_scalar("euler_maruyama", gamma)
        _check_scalar("euler_maruyama", delta)
        gd = tape.mul(gamma, delta)
        shrink = tape.sub(1.0, gd)
        var = tape.mul(2.0, gd)
        if float(var.value) <= 0.0:
            raise DomainError("euler_maruyama",
                              "gamma * delta must be positive")
        return cls(tape, shrink, var, score_fn)

    @classmethod
    def unit(cls, tape: Tape, score_fn: ScoreFn | None = None,
             coef: float = 1.0) -> "MomentumKernel":
        """N(0, I): the full refresh of ULA and MCD, and the endpoint
        momentum augmentation of every method but MCD. Its refresh is the
        noise itself. MCD's reverse mean is 2 s(k, z) (coef 2), whose
        position-only score approximates that of the intermediate marginal;
        the kernel N(2 s, I) is also MCD's augmentation."""
        return cls(tape, None, 1.0, score_fn, coef)

    def refresh(self, rho: Var, eps: np.ndarray,
                drift: Var | None = None) -> Var:
        """Draw rho' = shrink rho (+ drift) + sqrt(var) eps as one node.

        Its value is that of `muladd(scale, eps, muladd(shrink, rho, drift))`
        (`mul(shrink, rho)` without a drift) bit for bit. The unit kernel's
        draw is the noise itself.
        """
        t = self.tape
        if self.shrink is None:
            return t.lift(eps)
        shrink, scale = self.shrink, self.scale
        value = shrink.value * rho.value
        parents = (shrink, rho, scale)
        if drift is not None:
            value = value + drift.value
            parents += (drift,)
        value = scale.value * eps + value

        def vjp(adj):
            adjoints = (adj * rho.value if shrink.needs_grad else None,
                        adj * shrink.value if rho.needs_grad else None,
                        adj * eps if scale.needs_grad else None)
            if drift is None:
                return adjoints
            return adjoints + (adj if drift.needs_grad else None,)

        return t.push(value, parents, vjp)

    def mean(self, rho: Var | None, z: Var | None = None, k: int | None = None,
             drift: Var | None = None) -> Var | None:
        """The reverse mean at momentum rho, position z and transition k, or
        an endpoint augmentation's mean; None if 0. The drift is
        subtracted."""
        t = self.tape
        if self.shrink is None:
            mean = None
        elif drift is None:
            mean = t.mul(self.shrink, rho)
        else:
            mean = t.mulsub(self.shrink, rho, drift)
        if self.score_fn is not None:
            s = self.score_fn(k, z, rho)
            mean = (t.mul(self.coef, s) if mean is None
                    else t.muladd(self.coef, s, mean))
        return mean

    def sample(self, mean: Var | None, eps: np.ndarray) -> Var:
        """mean + eps for standard-Normal eps from a unit-variance kernel,
        the endpoint augmentation; a None mean is 0."""
        if isinstance(self.var, Var):
            raise ValueError("only a unit-variance kernel is sampled; a "
                             "learned-variance kernel draws with refresh")
        t = self.tape
        return t.lift(eps) if mean is None else t.add(mean, eps)

    def log_pdf(self, x: Var, mean: Var | None) -> Var:
        return self.tape.gaussian_logpdf(x, 0.0 if mean is None else mean,
                                         self.var)

    def noise_log_pdf(self, eps: np.ndarray) -> Var:
        """The log-density of this kernel's draw from noise eps at the draw
        itself, one `Tape.gaussian_noise_logpdf` node."""
        return self.tape.gaussian_noise_logpdf(eps, self.var)

    def log_ratio(self, x: Var, mean: Var | None, eps: np.ndarray) -> Var:
        """log m_B(x) at the reverse mean less log m_F at the draw it made
        from noise eps: a transition's log-ratio as one
        `Tape.gaussian_log_ratio` node."""
        return self.tape.gaussian_log_ratio(
            x, 0.0 if mean is None else mean, self.var, eps)
