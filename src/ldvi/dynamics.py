"""Simulated underdamped Langevin dynamics: integrator and momentum kernel.

Every transition of the augmented chain, for every method, is a Gaussian
momentum refresh m_F, a deterministic map of (z, rho), and a Gaussian
reverse kernel m_B that scores the old momentum given the new state. The
map is either one leapfrog step of the bridge density pi_k, or (for the
Euler-Maruyama variants) the position update z + delta rho' after a refresh
that also carries the drift delta grad log pi_k(z). Both maps are
deterministic and volume preserving, so the per-step contribution to the
augmented lower bound is log m_B(rho | rho', z) - log m_F(rho' | rho).

Every momentum density of the bound is one `MomentumKernel`: N(mean, var I)
with

    mean = shrink rho (+ drift going forward, - drift in reverse)
           + coef s(k, z, rho),

where s is the learned score. The full refresh (ULA, MCD) is the unit
kernel N(0, I): no shrink and no mean, so rho' is the noise itself. The
exact Ornstein-Uhlenbeck refresh has shrink eta and variance 1 - eta^2,
the Euler-Maruyama refresh shrink 1 - gamma delta and variance
2 gamma delta. A reverse kernel shares its forward kernel's shrink and
variance nodes, and LDVI's adds var s. MCD's, derived for the full refresh
and paired with it only, has no shrink, variance 1 and coef 2. The
endpoint momentum augmentation is a kernel too: N(0, I), or for MCD its
reverse kernel N(2 s(k, z), I), which draws the initial momentum and
scores both endpoints.

All kernel parameters (step size delta, friction gamma, momentum retention
eta) are scalar tape Vars, so gradients flow through every density. The
kernels are built once per lift, so their shrink, variance and noise scale
sqrt(var) are tape nodes shared by every transition. Each multiply-add of
the chain (a leapfrog update, a forward mean shrink rho + drift, a draw
scale eps + mean, a score correction) is one `Tape.muladd` node, and a
reverse mean shrink rho - drift is one `Tape.mulsub` node.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ldvi.tape import DomainError, Tape, Var

__all__ = ["leapfrog", "MomentumKernel"]

# score callables take (k, z, rho) and return the score evaluated on the tape
ScoreFn = Callable[[int, Var, Var], Var]


# ------------------------------------------------------------------ leapfrog

def leapfrog(t: Tape, z: Var, rho: Var, delta: Var,
             grad_fn: Callable[[Var], Var]) -> tuple[Var, Var]:
    """One leapfrog step of H(z, rho) = -log pi(z) + |rho|^2 / 2."""
    half = t.mul(0.5, delta)
    rho_half = t.muladd(half, grad_fn(z), rho)
    z_new = t.muladd(delta, rho_half, z)
    rho_new = t.muladd(half, grad_fn(z_new), rho_half)
    return z_new, rho_new


# ------------------------------------------------------------ momentum kernel

def _check_scalar(name: str, v: Var) -> Var:
    if v.value.ndim != 0:
        raise DomainError(name, f"expected scalar parameter, got shape {v.shape}")
    return v


class MomentumKernel:
    """Diagonal-Gaussian momentum kernel N(mean, var I).

    mean = shrink rho, plus the drift (added by a forward kernel, subtracted
    by a reverse one), plus coef s(k, z, rho) when the kernel has a score.
    Build a forward kernel with `unit` (N(0, I), the full refresh),
    `exact_ou` or `euler_maruyama`, and its reverse with `reverse`, or
    MCD's with `mcd_reverse`.
    `var` is a scalar Var, or 1.0 for a unit-variance kernel. A forward
    kernel builds the noise scale sqrt(var) once; a unit-variance kernel
    needs none, and a reverse kernel with a learned variance is never
    sampled.
    """

    def __init__(self, tape: Tape, shrink: Var | None, var: Var | float,
                 forward: bool, coef: Var | float | None = None,
                 score_fn: ScoreFn | None = None):
        self.tape = tape
        self.shrink = shrink
        self.var = var
        self.forward = forward
        self.coef = coef
        self.score_fn = score_fn
        self.scale = (tape.sqrt(var) if forward and isinstance(var, Var)
                      else None)

    @classmethod
    def exact_ou(cls, tape: Tape, eta: Var) -> "MomentumKernel":
        """Exact Ornstein-Uhlenbeck refresh N(eta rho, (1 - eta^2) I).

        eta = exp(-gamma delta) is the momentum retention over one step,
        learned by UHA. eta -> 1 degenerates (zero variance) and is
        rejected. The full refresh of ULA and MCD is not this kernel at
        eta = 0 but `unit`, which draws the noise itself.
        """
        _check_scalar("exact_ou", eta)
        if not 0.0 <= float(eta.value) < 1.0:
            raise DomainError("exact_ou",
                              f"eta must lie in [0, 1), got {float(eta.value)}")
        return cls(tape, eta, tape.sub(1.0, tape.square(eta)), forward=True)

    @classmethod
    def euler_maruyama(cls, tape: Tape, gamma: Var,
                       delta: Var) -> "MomentumKernel":
        """Euler-Maruyama refresh N(rho (1 - gamma delta), 2 gamma delta I)."""
        _check_scalar("forward_em", gamma)
        _check_scalar("forward_em", delta)
        gd = tape.mul(gamma, delta)
        shrink = tape.sub(1.0, gd)
        var = tape.mul(2.0, gd)
        if float(var.value) <= 0.0:
            raise DomainError("forward_em", "gamma * delta must be positive")
        return cls(tape, shrink, var, forward=True)

    def reverse(self, score_fn: ScoreFn | None = None) -> "MomentumKernel":
        """The reverse kernel, sharing this kernel's shrink and variance.

        Without a score it is the stationary-case exact reversal (the OU
        refresh is self-adjoint with respect to N(0, I)); with one, its mean
        adds var s(k, z, rho'), the discretized time reversal whose drift
        correction is twice the momentum score of the forward marginal.
        """
        return MomentumKernel(self.tape, self.shrink, self.var, forward=False,
                              coef=None if score_fn is None else self.var,
                              score_fn=score_fn)

    @classmethod
    def mcd_reverse(cls, tape: Tape, score_fn: ScoreFn) -> "MomentumKernel":
        """MCD's reverse kernel N(2 s(k, z), I), for the full refresh.

        The position-only score s approximates the score of the intermediate
        marginal, so 2 s recenters the reverse refresh. It is also MCD's
        endpoint momentum augmentation.
        """
        return cls(tape, None, 1.0, forward=False, coef=2.0,
                   score_fn=score_fn)

    @classmethod
    def unit(cls, tape: Tape) -> "MomentumKernel":
        """N(0, I): the full refresh of ULA and MCD, and the endpoint
        momentum augmentation of every method but MCD. Its mean is None and
        its sample is the noise itself."""
        return cls(tape, None, 1.0, forward=True)

    def mean(self, rho: Var | None, z: Var | None = None, k: int | None = None,
             drift: Var | None = None) -> Var | None:
        """Mean at momentum rho, position z and transition k; None if 0."""
        t = self.tape
        if self.shrink is None:
            mean = None
        elif drift is None:
            mean = t.mul(self.shrink, rho)
        elif self.forward:
            mean = t.muladd(self.shrink, rho, drift)
        else:
            mean = t.mulsub(self.shrink, rho, drift)
        if self.score_fn is not None:
            s = self.score_fn(k, z, rho)
            mean = (t.mul(self.coef, s) if mean is None
                    else t.muladd(self.coef, s, mean))
        return mean

    def sample(self, mean: Var | None, eps: np.ndarray) -> Var:
        """mean + sqrt(var) eps for standard-Normal eps; a None mean is 0."""
        t = self.tape
        if not isinstance(self.var, Var):
            return t.lift(eps) if mean is None else t.add(mean, eps)
        if self.scale is None:
            raise ValueError("a reverse kernel with a learned variance "
                             "is never sampled")
        return (t.mul(self.scale, eps) if mean is None
                else t.muladd(self.scale, eps, mean))

    def log_pdf(self, x: Var, mean: Var | None) -> Var:
        return self.tape.gaussian_logpdf(x, 0.0 if mean is None else mean,
                                         self.var)
