"""Simulated underdamped Langevin dynamics: integrator and momentum kernel.

Every transition of the augmented chain, for every method, is a Gaussian
momentum refresh m_F, a deterministic map of (z, rho), and a Gaussian
reverse kernel m_B that scores the old momentum given the new state. The
map is either one leapfrog step of the bridge density pi_k, or (for the
Euler-Maruyama variants) the position update z + delta rho' after a refresh
that also carries the drift delta grad log pi_k(z). Both maps are
deterministic and volume preserving, so the per-step contribution to the
augmented lower bound is log m_B(rho | rho', z) - log m_F(rho' | rho), which
`MomentumKernel.log_ratio` records as one node of its own that also builds
m_B's mean.

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
-(0.5 D log(2 pi var) + sum_d eps_d^2 / 2), so the log-ratio scores m_F
from eps. The chain's initial momentum is a unit kernel's draw, so its
density is an array of the noise alone (`MomentumKernel.noise_log_pdf`; for
MCD's augmentation N(2 s, I) too). Only the terminal momentum density is
evaluated at a point.

m_B's mean is no node of its own: `MomentumKernel.log_ratio` computes it
inside the log-ratio node, with the value of the `mul`, `sub` and `muladd`
nodes it replaces, and that node's VJP gives every operand its adjoint:
rho, var, shrink, rho', drift, coef and s. `MomentumKernel.mean` builds
only the endpoint augmentation's mean, coef s from the score that
`MomentumKernel.score` gives, and MCD's first transition reuses the score
its augmentation took.

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

_LOG_2PI = float(np.log(2.0 * np.pi))


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
    `mean`, `sample` and `noise_log_pdf` serve a unit kernel as the
    endpoint augmentation.
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

    def noise_log_pdf(self, eps: np.ndarray) -> np.ndarray:
        """The log-density of a unit kernel's draw mean + eps at the draw
        itself, -(0.5 D log(2 pi) + sum_d eps_d^2 / 2): an array, since it
        depends on the noise alone. A learned-variance kernel's draw is
        scored inside `log_ratio` instead."""
        if isinstance(self.var, Var):
            raise ValueError("only a unit-variance kernel scores its draw "
                             "from the noise; a learned-variance kernel's "
                             "is scored in log_ratio")
        return -(0.5 * eps.shape[-1] * _LOG_2PI
                 + (eps * eps).sum(axis=-1) / 2.0)

    def log_ratio(self, rho: Var, rho_prime: Var, eps: np.ndarray,
                  z: Var | None = None, k: int | None = None,
                  drift: Var | None = None,
                  score: Var | None = None) -> Var:
        """log m_B(rho | rho', z) - log m_F(rho' | rho) of transition k,
        whose refresh drew rho' from noise eps, as one node. A kernel with a
        score computes s(k, z, rho'), unless the caller passes the one it
        holds as `score`.

        m_B's mean is shrink rho' (- drift) (+ coef s), with the value of
        `mul(shrink, rho')`, `sub(., drift)` and `muladd(coef, s, .)` (or
        `mul(coef, s)` with no shrink) bit for bit. m_F is scored from its
        noise. Both densities have the kernel's variance, so their
        log-normalisers cancel in the variance's adjoint, adj quad / (2 var^2)
        with quad = |rho - mean|^2, though the value keeps both. The node's
        parents are rho, var, shrink, rho', drift, coef and s, less any that
        this kernel or transition lacks.
        """
        shrink, coef, var = self.shrink, self.coef, self.var
        if score is None:
            score = self.score(k, z, rho_prime)
        learned = isinstance(var, Var)
        parents = [rho, var] if learned else [rho]
        vv = float(var.value) if learned else var
        mean = None
        if shrink is not None:
            parents += (shrink, rho_prime)
            mean = shrink.value * rho_prime.value
            if drift is not None:
                parents.append(drift)
                mean = mean - drift.value
        if score is not None:
            parents += (coef, score)
            term = coef.value * score.value
            mean = term if mean is None else term + mean
        diff = rho.value if mean is None else rho.value - mean
        quad, two_var = (diff * diff).sum(axis=-1), 2.0 * vv
        log_norm = 0.5 * diff.shape[-1] * float(np.log((2.0 * np.pi) * vv))
        log_b = -(log_norm + quad / two_var)
        log_f = -(log_norm + (eps * eps).sum(axis=-1) / 2.0)
        value = log_b - log_f

        def vjp(adj):
            # r is the mean's adjoint, and -r rho's
            r = (adj[..., None] / vv) * diff
            adjoints = [-r if rho.needs_grad else None]
            if learned:
                adjoints.append(adj * (quad / (two_var * vv))
                                if var.needs_grad else None)
            if shrink is not None:
                adjoints += (r * rho_prime.value if shrink.needs_grad
                             else None,
                             r * shrink.value if rho_prime.needs_grad
                             else None)
                if drift is not None:
                    adjoints.append(-r if drift.needs_grad else None)
            if score is not None:
                adjoints += (r * score.value if coef.needs_grad else None,
                             r * coef.value if score.needs_grad else None)
            return adjoints

        return self.tape.push(value, tuple(parents), vjp)
