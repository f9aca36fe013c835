"""Simulated underdamped Langevin dynamics: integrator and momentum kernel.

Every transition of the augmented chain, for every method, is a Gaussian
momentum refresh m_F, a deterministic map of (z, rho), and a Gaussian
reverse kernel m_B that scores the old momentum given the new state. The
map is either one leapfrog step of the bridge density pi_k, or (for the
Euler-Maruyama variants) the position update z + delta rho' after a refresh
that also carries the drift delta grad log pi_k(z). Both maps are
deterministic and volume preserving, so the per-step contribution to the
augmented lower bound is log m_B(rho | rho', z) - log m_F(rho' | rho), which
`MomentumKernel.log_ratio` records as one `Tape.gaussian_log_ratio` node that
also builds m_B's mean.

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

m_B's mean is no node of its own: `MomentumKernel.log_ratio` computes it
inside the log-ratio node, with the value of the `mul`/`mulsub` and `muladd`
nodes it replaces, except that an Euler-Maruyama mean with a score keeps
its shrink rho' - drift as one `Tape.mulsub` node, which holds the order in
which rho' sums its adjoints. `MomentumKernel.mean` builds only the endpoint
augmentation's mean, coef s from the score that `MomentumKernel.score`
gives, and MCD's first transition reuses the score its augmentation took.

All kernel parameters (step size delta, friction gamma, momentum retention
eta) are scalar tape Vars, so gradients flow through every density. The
kernel is built once per lift, so its shrink, variance and noise scale
sqrt(var) are tape nodes shared by every transition, as is the leapfrog's
half step delta / 2. Each multiply-add of the chain (a leapfrog update) is
one `Tape.muladd` node.
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

    `refresh` draws from m_F, whose mean is shrink rho plus the drift.
    `log_ratio` scores a transition against m_B, whose mean is shrink rho'
    less the drift, plus coef s(k, z, rho') when the kernel has a score.
    Build it with `unit` (N(0, I), the full refresh), `exact_ou` or
    `euler_maruyama`. `var` is a scalar Var, whose noise scale sqrt(var) is
    built once for `refresh`, or 1.0 for a unit kernel, which needs none.
    `mean` and `sample` serve a unit kernel as the endpoint augmentation.
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
        coef = var if coef is None else coef
        self.coef = coef if isinstance(coef, Var) else tape.lift(coef)
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

    def score(self, k: int, z: Var, rho: Var | None = None) -> Var | None:
        """s(k, z, rho), or None for a kernel without a score."""
        return None if self.score_fn is None else self.score_fn(k, z, rho)

    def mean(self, score: Var | None) -> Var | None:
        """A unit kernel's mean coef s from its score s (`score`), the
        endpoint augmentation's; None, which is 0, for a kernel without
        one."""
        return None if score is None else self.tape.mul(self.coef, score)

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

    def log_ratio(self, rho: Var, rho_prime: Var, eps: np.ndarray,
                  z: Var | None = None, k: int | None = None,
                  drift: Var | None = None,
                  score: Var | None = None) -> Var:
        """log m_B(rho | rho', z) - log m_F(rho' | rho) of transition k,
        whose refresh drew rho' from noise eps, as one
        `Tape.gaussian_log_ratio` node that also builds m_B's mean,
        shrink rho' (- drift) (+ coef s(k, z, rho')). A kernel with a score
        computes it, unless the caller passes the one it holds as `score`.

        The mean's value is that of `mul(shrink, rho')` or
        `mulsub(shrink, rho', drift)`, then `muladd(coef, s, .)` (or
        `mul(coef, s)` with no shrink), bit for bit. Its parents follow the
        order in which a sweep of those nodes reaches them, so every adjoint
        sums in the same order. In a leapfrog chain rho' has no use after
        the ratio, so the mean's and the score's adjoints are the first two
        that rho' sums, in either order. With the Euler-Maruyama drift rho'
        is the next transition's momentum as well, whose adjoint comes
        first, so for a mean with a score `mulsub(shrink, rho', drift)`
        stays a node, recorded before the score, as before.
        """
        t = self.tape
        shrink, coef = self.shrink, self.coef
        if shrink is None and self.score_fn is None:
            return t.gaussian_log_ratio(rho, 0.0, self.var, eps)
        base = (t.mulsub(shrink, rho_prime, drift)
                if drift is not None and self.score_fn is not None else None)
        if score is None:
            score = self.score(k, z, rho_prime)
        # the parents of muladd(coef, s, .) or mul(coef, s) come first, then
        # those of the mul or mulsub before it
        parents = [] if score is None else [coef, score]
        mean = None
        if base is not None:
            parents.append(base)
            mean = base.value
        elif shrink is not None:
            parents += (shrink, rho_prime)
            mean = shrink.value * rho_prime.value
            if drift is not None:
                parents.append(drift)
                mean = mean - drift.value
        if score is not None:
            mean = (coef.value * score.value if mean is None
                    else coef.value * score.value + mean)

        def mean_vjp(g):
            adjoints = []
            if score is not None:
                adjoints += (g * score.value if coef.needs_grad else None,
                             g * coef.value if score.needs_grad else None)
            if base is not None:
                adjoints.append(g if base.needs_grad else None)
            elif shrink is not None:
                adjoints += (g * rho_prime.value if shrink.needs_grad
                             else None,
                             g * shrink.value if rho_prime.needs_grad
                             else None)
                if drift is not None:
                    adjoints.append(-g if drift.needs_grad else None)
            return tuple(adjoints)

        return t.gaussian_log_ratio(rho, mean, self.var, eps, parents,
                                    mean_vjp)
