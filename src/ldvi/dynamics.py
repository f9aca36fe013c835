"""Simulated underdamped Langevin dynamics: integrator and momentum kernels.

A transition of the augmented chain first partially refreshes the momentum
with a forward kernel m_F, then moves position and momentum with one leapfrog
step of the bridge density pi_k. The matching reverse-time transition is the
inverse leapfrog followed by a backward kernel m_B. Because the leapfrog map
is deterministic and volume preserving, the per-step contribution to the
augmented lower bound reduces to log m_B(rho | rho', z) - log m_F(rho' | rho).

The Euler-Maruyama variants instead discretize the underdamped dynamics
jointly: one Gaussian momentum update whose mean mixes friction and the bridge
gradient, followed by a deterministic position update.

All kernel parameters (step size delta, friction gamma, momentum retention
eta) are scalar tape Vars, so gradients flow through every density below.
A kernel is built once per chain: its constructor records the shared
variance, the noise scale sqrt(var) and (for the EM kernel) the shrink
1 - gamma delta, and every transition reuses those nodes. The joint EM step
takes such a `ForwardEM`: `em_forward_transition` returns the drift
delta * grad and the forward mean it computed, and `em_log_ratio_step`
evaluates both densities from them instead of rebuilding either.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ldvi.tape import DomainError, Tape, Var

__all__ = [
    "leapfrog", "leapfrog_inverse", "ExactOU", "ForwardEM",
    "BackwardExactNoScore", "BackwardEM", "MCDBackward",
    "forward_transition", "log_ratio_step",
    "em_forward_transition", "em_log_ratio_step",
]

# score callables take (k, z, rho) and return the score evaluated on the tape
ScoreFn = Callable[[int, Var, Var], Var]


# ------------------------------------------------------------------ leapfrog

def leapfrog(t: Tape, z: Var, rho: Var, delta: Var,
             grad_fn: Callable[[Var], Var]) -> tuple[Var, Var]:
    """One leapfrog step of H(z, rho) = -log pi(z) + |rho|^2 / 2."""
    half = t.mul(0.5, delta)
    rho_half = t.add(rho, t.mul(half, grad_fn(z)))
    z_new = t.add(z, t.mul(delta, rho_half))
    rho_new = t.add(rho_half, t.mul(half, grad_fn(z_new)))
    return z_new, rho_new


def leapfrog_inverse(t: Tape, z_new: Var, rho_new: Var, delta: Var,
                     grad_fn: Callable[[Var], Var]) -> tuple[Var, Var]:
    """Exact inverse of `leapfrog` (run the updates backwards)."""
    half = t.mul(0.5, delta)
    rho_half = t.sub(rho_new, t.mul(half, grad_fn(z_new)))
    z = t.sub(z_new, t.mul(delta, rho_half))
    rho = t.sub(rho_half, t.mul(half, grad_fn(z)))
    return z, rho


# ----------------------------------------------------------- momentum kernels

def _check_scalar(name: str, v: Var) -> Var:
    if v.value.ndim != 0:
        raise DomainError(name, f"expected scalar parameter, got shape {v.shape}")
    return v


class ExactOU:
    """Exact Ornstein-Uhlenbeck momentum refresh: N(eta rho, (1 - eta^2) I).

    eta = exp(-gamma delta) is the momentum retention over one step; eta = 0
    is a complete refresh, eta -> 1 degenerates (zero variance) and is
    rejected. The variance and the noise scale sqrt(1 - eta^2) are built
    once, in the constructor.
    """

    def __init__(self, tape: Tape, eta: Var):
        _check_scalar("exact_ou", eta)
        if not 0.0 <= float(eta.value) < 1.0:
            raise DomainError("exact_ou",
                              f"eta must lie in [0, 1), got {float(eta.value)}")
        self.tape = tape
        self.eta = eta
        self.var = tape.sub(1.0, tape.square(eta))
        self.scale = tape.sqrt(self.var)

    def sample(self, rho: Var, eps: np.ndarray) -> Var:
        t = self.tape
        return t.add(t.mul(self.eta, rho),
                     t.mul(self.scale, t.constant(eps)))

    def log_pdf(self, x: Var, rho: Var, z: Var | None = None,
                k: int | None = None) -> Var:
        t = self.tape
        return t.gaussian_logpdf(x, t.mul(self.eta, rho), self.var)


class BackwardExactNoScore:
    """Score-free reverse kernel N(eta rho', (1 - eta^2) I).

    The stationary-case exact reversal of `ExactOU`: the OU refresh leaves
    N(0, I) invariant and is self-adjoint with respect to it.
    """

    def __init__(self, tape: Tape, eta: Var):
        self._ou = ExactOU(tape, eta)

    def log_pdf(self, x: Var, rho_prime: Var, z: Var | None = None,
                k: int | None = None) -> Var:
        return self._ou.log_pdf(x, rho_prime)


class ForwardEM:
    """Euler-Maruyama momentum refresh: N(rho (1 - gamma delta), 2 gamma delta I).

    The constructor builds the shrink 1 - gamma delta, the variance
    2 gamma delta and the noise scale sqrt(2 gamma delta) once; `sample`,
    `log_pdf`, `BackwardEM` and the joint EM step all reuse them. It keeps
    the step size `delta` for the EM drift and position update.
    """

    def __init__(self, tape: Tape, gamma: Var, delta: Var):
        _check_scalar("forward_em", gamma)
        _check_scalar("forward_em", delta)
        self.tape = tape
        self.delta = delta
        gd = tape.mul(gamma, delta)
        self.shrink = tape.sub(1.0, gd)
        self.var = tape.mul(2.0, gd)
        if float(self.var.value) <= 0.0:
            raise DomainError("forward_em",
                              "gamma * delta must be positive")
        self.scale = tape.sqrt(self.var)

    def sample(self, rho: Var, eps: np.ndarray) -> Var:
        t = self.tape
        return t.add(t.mul(self.shrink, rho),
                     t.mul(self.scale, t.constant(eps)))

    def log_pdf(self, x: Var, rho: Var, z: Var | None = None,
                k: int | None = None) -> Var:
        t = self.tape
        return t.gaussian_logpdf(x, t.mul(self.shrink, rho), self.var)


class BackwardEM:
    """Score-corrected Euler-Maruyama reversal.

    m_B(rho | rho', z) = N(rho' (1 - gamma delta) + 2 gamma delta s(k, z, rho'),
    2 gamma delta I), the discretization of the exact time reversal whose drift
    correction is twice the (approximated) momentum score of the forward
    marginal. It shares the shrink and variance of the forward kernel `fwd`.
    """

    def __init__(self, fwd: ForwardEM, score_fn: ScoreFn | None):
        self._fwd = fwd
        self.score_fn = score_fn

    def log_pdf(self, x: Var, rho_prime: Var, z: Var, k: int) -> Var:
        t = self._fwd.tape
        mean = t.mul(self._fwd.shrink, rho_prime)
        if self.score_fn is not None:
            mean = t.add(mean,
                         t.mul(self._fwd.var, self.score_fn(k, z, rho_prime)))
        return t.gaussian_logpdf(x, mean, self._fwd.var)


class MCDBackward:
    """Reverse kernel for full momentum refresh, N(2 s(k, z), I).

    Pairs with a forward complete refresh m_F = N(0, I); the learned,
    position-only score s approximates the score of the intermediate marginal
    so that 2 s recenters the reverse refresh.
    """

    def __init__(self, tape: Tape, score_fn: ScoreFn):
        self.tape = tape
        self.score_fn = score_fn

    def log_pdf(self, x: Var, rho_prime: Var, z: Var, k: int) -> Var:
        t = self.tape
        mean = t.mul(2.0, self.score_fn(k, z, rho_prime))
        return t.gaussian_logpdf(x, mean, 1.0)


# ---------------------------------------------------------------- transitions

def forward_transition(t: Tape, z: Var, rho: Var, delta: Var, fwd_kernel,
                       grad_fn: Callable[[Var], Var],
                       eps: np.ndarray) -> tuple[Var, Var, Var]:
    """Momentum refresh then leapfrog; returns (z_new, rho_new, rho_refreshed).

    The refreshed momentum rho' is returned because the per-step bound term
    evaluates both kernels at it.
    """
    rho_prime = fwd_kernel.sample(rho, eps)
    z_new, rho_new = leapfrog(t, z, rho_prime, delta, grad_fn)
    return z_new, rho_new, rho_prime


def log_ratio_step(t: Tape, rho: Var, rho_prime: Var, z: Var, k: int,
                   fwd_kernel, bwd_kernel) -> Var:
    """log m_B(rho | rho', z) - log m_F(rho' | rho) for one transition."""
    return t.sub(bwd_kernel.log_pdf(rho, rho_prime, z, k),
                 fwd_kernel.log_pdf(rho_prime, rho, z, k))


def em_forward_transition(t: Tape, z: Var, rho: Var, kernel: ForwardEM,
                          grad: Var, eps: np.ndarray
                          ) -> tuple[Var, Var, Var, Var]:
    """Joint Euler-Maruyama step: Gaussian momentum update, then drift in z.

    `grad` is the bridge gradient at the current z and `kernel` carries the
    chain's shrink, noise scale and step size. Returns (z_new, rho_new,
    drift, mean): the drift delta * grad and the forward mean
    rho (1 - gamma delta) + drift are handed on to `em_log_ratio_step`, so
    each transition builds them once.
    """
    drift = t.mul(kernel.delta, grad)
    mean = t.add(t.mul(kernel.shrink, rho), drift)
    rho_new = t.add(mean, t.mul(kernel.scale, t.constant(eps)))
    z_new = t.add(z, t.mul(kernel.delta, rho_new))
    return z_new, rho_new, drift, mean


def em_log_ratio_step(t: Tape, z: Var, rho: Var, rho_new: Var, k: int,
                      kernel: ForwardEM, drift: Var, mean: Var,
                      score_fn: ScoreFn | None) -> Var:
    """Reverse/forward density ratio of one Euler-Maruyama transition.

    Forward: rho_new ~ N(mean, 2 gamma delta I), with `mean` and `drift` as
    returned by `em_forward_transition`. Backward: rho ~ N(rho_new
    (1 - gamma delta) - drift + 2 gamma delta s(k, z, rho_new),
    2 gamma delta I); with score_fn None the score correction is dropped.
    """
    fwd = t.gaussian_logpdf(rho_new, mean, kernel.var)
    bwd_mean = t.sub(t.mul(kernel.shrink, rho_new), drift)
    if score_fn is not None:
        bwd_mean = t.add(bwd_mean, t.mul(kernel.var, score_fn(k, z, rho_new)))
    bwd = t.gaussian_logpdf(rho, bwd_mean, kernel.var)
    return t.sub(bwd, fwd)
