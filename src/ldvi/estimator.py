"""Single-sample augmented-ELBO estimator for the named method family.

The augmented lower bound is accumulated along a simulated chain of K states:

    L = -log q(z_1, rho_1)
        + sum_{k=1..K-1} log m_B(rho_k | rho'_k, z_k) - log m_F(rho'_k | rho_k)
        + log pbar(z_K, rho_K)

Transition k refreshes the momentum with the forward kernel and then moves
(z, rho) by one integrator step of the bridge density pi_k. All randomness is
pre-drawn into a `NoiseBundle`, so the estimate is a deterministic,
differentiable function of the parameters (pathwise gradients), and two
configurations that reduce to the same computation produce identical values on
shared noise.

A `MethodConfig` names a method by three choices: the integration scheme,
the momentum refresh (forward kernel) and the reverse kernel. Everything
else (which parameters exist, whether a score network exists and what it
sees, the endpoint momentum augmentation) is derived from those three. The
`METHODS` registry instantiates the seven named methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ldvi.annealing import (AnnealingSchedule, MeanFieldGaussian,
                            inverse_softplus)
from ldvi.dynamics import MomentumKernel, leapfrog
from ldvi.scorenet import ScoreNet
from ldvi.tape import Tape, Var
from ldvi.targets import TargetModel

__all__ = [
    "MethodConfig", "METHODS", "get_method", "method_names",
    "NoiseBundle", "ElboEstimate", "LiftedModel",
    "init_params", "lift_model", "estimate_elbo", "plain_vi_elbo",
    "evaluate_elbo_mean", "EstimatorError",
]


class EstimatorError(RuntimeError):
    """Raised when the bound estimate turns non-finite mid-chain."""


# ------------------------------------------------------------- configurations

# scheme -> (momentum refreshes, reverse kernels); every pair is allowed
_KERNELS = {
    "plain": (("none",), ("none",)),
    "leapfrog": (("full", "ou", "em"), ("exact", "score", "mcd")),
    "em": (("em",), ("exact", "score")),
}


@dataclass(frozen=True)
class MethodConfig:
    """A method: integration scheme, momentum refresh and reverse kernel.

    scheme: "plain" (no chain), "leapfrog" (momentum refresh, then one
        leapfrog step) or "em" (Euler-Maruyama refresh carrying the drift,
        then the position update z + delta rho').
    forward: the momentum refresh. Under "leapfrog" it is "full" (exact OU
        with eta = 0, a complete refresh), "ou" (exact OU with a learned
        momentum retention eta) or "em" (Euler-Maruyama with a learned
        friction gamma). It is always "em" under "em", "none" under "plain".
    backward: the reverse kernel. "exact" is the refresh's own reversal,
        "score" that reversal plus var s(k, z, rho') from a score network,
        and "mcd" (leapfrog only) is N(2 s(k, z), I) with a position-only
        score that also sets the endpoint momentum augmentation N(2 s, I).
        "none" under "plain".

    The seven named methods:

        name     scheme    forward  backward  in the paper
        plainvi  plain     none     none      mean-field VI
        ula      leapfrog  full     exact     ULA
        mcd      leapfrog  full     mcd       MCD
        uha      leapfrog  ou       exact     UHA
        ldvi     leapfrog  em       score     LDVI
        uha_em   em        em       exact     UHA, Euler-Maruyama
        ldvi_em  em        em       score     LDVI, Euler-Maruyama

    ULA is unadjusted Langevin annealing, MCD Monte Carlo diffusion, UHA
    uncorrected Hamiltonian annealing and LDVI Langevin diffusion VI, the
    paper's method, which pairs the Euler-Maruyama refresh with a learned
    score in the reverse kernel.

    Every parameter group a method has trains (`trainable`).
    """

    name: str
    scheme: str
    forward: str = "none"
    backward: str = "none"
    score_hidden: int | None = None

    def __post_init__(self):
        if self.scheme not in _KERNELS:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        forwards, backwards = _KERNELS[self.scheme]
        if self.forward not in forwards:
            raise ValueError(f"forward kernel {self.forward!r} is not one of "
                             f"{forwards} under scheme {self.scheme!r}")
        if self.backward not in backwards:
            raise ValueError(f"backward kernel {self.backward!r} is not one "
                             f"of {backwards} under scheme {self.scheme!r}")

    @property
    def uses_score(self) -> bool:
        return self.backward in ("score", "mcd")

    @property
    def trainable(self) -> frozenset:
        """The parameter groups the method has, all of which train."""
        if self.scheme == "plain":
            return frozenset({"q"})
        groups = {"q", "delta", "beta"}
        if self.forward == "em":
            groups.add("gamma")
        if self.forward == "ou":
            groups.add("eta")
        if self.uses_score:
            groups.add("score")
        return frozenset(groups)

    def score_net(self, dim: int) -> ScoreNet | None:
        """The method's score network; position-only for MCD."""
        if not self.uses_score:
            return None
        return ScoreNet(dim, hidden=self.score_hidden,
                        position_only=self.backward == "mcd")


METHODS: dict[str, MethodConfig] = {m.name: m for m in (
    MethodConfig("plainvi", "plain"),
    MethodConfig("ula", "leapfrog", "full", "exact"),
    MethodConfig("mcd", "leapfrog", "full", "mcd"),
    MethodConfig("uha", "leapfrog", "ou", "exact"),
    MethodConfig("ldvi", "leapfrog", "em", "score"),
    MethodConfig("uha_em", "em", "em", "exact"),
    MethodConfig("ldvi_em", "em", "em", "score"),
)}


def method_names() -> tuple[str, ...]:
    return tuple(METHODS)


def get_method(name: str) -> MethodConfig:
    key = name.lower()
    if key not in METHODS:
        raise KeyError(f"unknown method {name!r}; "
                       f"choose from {', '.join(METHODS)}")
    return METHODS[key]


# -------------------------------------------------------------------- noise

@dataclass(frozen=True)
class NoiseBundle:
    """All standard-Normal draws for one estimate, pre-drawn outside the tape.

    z_eps: (..., D) noise for the base-distribution sample.
    rho_eps: (..., D) noise for the initial momentum.
    step_eps: (K-1, ..., D) per-transition momentum noise.

    Leading axes (if any) index independent chains evaluated in one batch.
    """

    z_eps: np.ndarray
    rho_eps: np.ndarray
    step_eps: np.ndarray

    @classmethod
    def draw(cls, seed: int, step: int, batch: int | None, dim: int,
             num_steps: int) -> "NoiseBundle":
        """Deterministic bundle keyed by (seed, step); fixed draw order."""
        rng = np.random.default_rng([seed, step])
        lead = () if batch is None else (batch,)
        return cls(
            z_eps=rng.normal(size=lead + (dim,)),
            rho_eps=rng.normal(size=lead + (dim,)),
            step_eps=rng.normal(size=(max(num_steps - 1, 0),) + lead + (dim,)),
        )


# ------------------------------------------------------------------ parameters

def init_params(config: MethodConfig, dim: int, num_steps: int,
                seed: int = 0, mu: float | np.ndarray = 0.0,
                sigma: float | np.ndarray = 1.0, delta: float = 0.1,
                gamma: float = 1.0, eta: float = 0.5) -> dict[str, np.ndarray]:
    """Flat parameter dictionary for a method at its default starting point."""
    params = MeanFieldGaussian.init_params(dim, mu=mu, sigma=sigma)
    if config.scheme == "plain":
        return params
    params["schedule.weights"] = AnnealingSchedule.init_params(num_steps)
    params["raw_delta"] = np.asarray(inverse_softplus(delta))
    if config.forward == "em":
        params["raw_gamma"] = np.asarray(inverse_softplus(gamma))
    if config.forward == "ou":
        if not 0.0 < eta < 1.0:
            raise ValueError("initial eta must lie in (0, 1)")
        params["raw_eta"] = np.asarray(np.log(eta / (1.0 - eta)))
    net = config.score_net(dim)
    if net is not None:
        params.update(net.init_params(seed=seed))
    return params


@dataclass
class LiftedModel:
    """Parameters lifted onto one tape, ready to drive the estimator."""

    tape: Tape
    config: MethodConfig
    q: MeanFieldGaussian
    schedule: AnnealingSchedule | None
    delta: Var | None
    gamma: Var | None
    eta: Var | None
    score_fn: Callable[[int, Var, Var], Var] | None
    num_steps: int


def lift_model(tape: Tape, config: MethodConfig, params: dict[str, np.ndarray],
               dim: int, num_steps: int,
               trainable: bool = True) -> LiftedModel:
    """Lift a flat parameter dict; every group of the method gets adjoints
    unless trainable=False (pure evaluation).
    """
    q = MeanFieldGaussian.lifted(tape, params, trainable=trainable)
    if config.scheme == "plain":
        return LiftedModel(tape, config, q, None, None, None, None, None,
                           num_steps)
    schedule = AnnealingSchedule.lifted(tape, params["schedule.weights"],
                                        trainable=trainable)
    delta = tape.softplus(tape.lift(params["raw_delta"], trainable=trainable,
                                    name="raw_delta"))
    gamma = eta = score_fn = None
    if config.forward == "em":
        gamma = tape.softplus(tape.lift(params["raw_gamma"],
                                        trainable=trainable, name="raw_gamma"))
    elif config.forward == "full":
        eta = tape.constant(0.0)
    else:
        eta = tape.sigmoid(tape.lift(params["raw_eta"], trainable=trainable,
                                     name="raw_eta"))
    net = config.score_net(dim)
    if net is not None:
        lifted = net.lift(tape, params, trainable=trainable)
        score_fn = net.make_score_fn(tape, lifted, num_steps)
    return LiftedModel(tape, config, q, schedule, delta, gamma, eta, score_fn,
                       num_steps)


# -------------------------------------------------------------------- bounds

@dataclass
class ElboEstimate:
    """One pathwise bound estimate; value may carry a leading chain axis."""

    value: Var
    trace: list[Var]


def _check_finite(model: LiftedModel, k: int, **quantities: Var) -> None:
    """Raise EstimatorError naming the first non-finite quantity, k, the
    step size delta and, when the method has one, the friction gamma.
    """
    for name, v in quantities.items():
        if not np.all(np.isfinite(v.value)):
            where = f"k={k}, delta={float(model.delta.value)!r}"
            if model.gamma is not None:
                where += f", gamma={float(model.gamma.value)!r}"
            raise EstimatorError(
                f"non-finite {name.replace('_', ' ')} at transition {where}")


def _momentum_kernels(model: LiftedModel):
    """The chain's forward momentum kernel and the reverse kernel paired
    with it, each built once."""
    t, c = model.tape, model.config
    if c.forward == "em":
        fwd = MomentumKernel.euler_maruyama(t, model.gamma, model.delta)
    else:
        fwd = MomentumKernel.exact_ou(t, model.eta)
    if c.backward == "mcd":
        return fwd, MomentumKernel.mcd_reverse(t, model.score_fn)
    return fwd, fwd.reverse(model.score_fn)


def _momentum_aug_logpdf(model: LiftedModel, k: int, z: Var, rho: Var) -> Var:
    """Density of the momentum augmentation at an endpoint state."""
    t = model.tape
    if model.config.backward == "mcd":
        mean = t.mul(2.0, model.score_fn(k, z, rho))
        return t.gaussian_logpdf(rho, mean, 1.0)
    return t.gaussian_logpdf(rho, 0.0, 1.0)


def _sample_initial_momentum(model: LiftedModel, z1: Var,
                             eps: np.ndarray) -> Var:
    t = model.tape
    rho = t.constant(eps)
    if model.config.backward == "mcd":
        rho = t.add(t.mul(2.0, model.score_fn(1, z1, rho)), rho)
    return rho


def estimate_elbo(model: LiftedModel, target: TargetModel,
                  noise: NoiseBundle) -> ElboEstimate:
    """Accumulate the augmented bound along one simulated chain.

    Transition k needs the bridge score grad log pi_k = (1 - beta_k) grad log q
    + beta_k grad log pbar at each position it visits, and a leapfrog step ends
    where the next one begins. So the chain keeps one (base score, target
    score) pair per position, computed on first use, and each transition mixes
    it with its own beta_k. For K >= 2 a leapfrog chain thus calls
    `target.score` K times, once per position, and an Euler-Maruyama chain,
    which scores only where each transition starts, K - 1 times.

    Every transition draws rho' from the forward momentum kernel, moves
    (z, rho') by the scheme's map and adds log m_B(rho | rho', z) -
    log m_F(rho' | rho). The two schemes differ only in the map and the
    drift: a leapfrog step with no drift, or the Euler-Maruyama position
    update z + delta rho' with the drift delta grad log pi_k(z) added to the
    forward mean and subtracted from the reverse one. The kernels are built
    once per chain, and each transition builds its forward mean once, for
    both the sample and the density.

    Raises EstimatorError naming the transition index, the quantity
    (position, momentum, log-ratio, initial or terminal density) and the
    current delta (and gamma) if any quantity turns non-finite.
    """
    t, c, K = model.tape, model.config, model.num_steps
    if c.scheme == "plain":
        value = plain_vi_elbo(t, model.q, target, noise.z_eps)
        return ElboEstimate(value, [value])
    if K < 1:
        raise ValueError("num_steps must be at least 1")
    if noise.step_eps.shape[0] < K - 1:
        raise ValueError("noise bundle holds too few transition draws")

    scores: dict[int, tuple[Var, Var]] = {}   # position index -> pair

    def grad_at(k: int):
        """Score of the interior bridge pi_k, for 1 <= k < K."""
        beta = model.schedule.beta(k)
        keep = t.sub(1.0, beta)

        def grad(zz: Var) -> Var:
            pair = scores.get(zz.index)
            if pair is None:
                pair = scores[zz.index] = (model.q.score(zz),
                                           target.score(t, zz))
            return t.add(t.mul(keep, pair[0]), t.mul(beta, pair[1]))

        return grad

    z = model.q.sample(noise.z_eps)
    rho = _sample_initial_momentum(model, z, noise.rho_eps)
    L = t.neg(t.add(model.q.log_pdf(z),
                    _momentum_aug_logpdf(model, 1, z, rho)))
    _check_finite(model, 0, initial_density=L)
    trace: list[Var] = []

    em = c.scheme == "em"
    fwd, bwd = _momentum_kernels(model)
    for k in range(1, K):
        grad = grad_at(k)
        drift = t.mul(model.delta, grad(z)) if em else None
        mean = fwd.mean(rho, z, k, drift)
        rho_prime = fwd.sample(mean, noise.step_eps[k - 1])
        if em:
            z_new, rho_new = t.add(z, t.mul(model.delta, rho_prime)), rho_prime
        else:
            z_new, rho_new = leapfrog(t, z, rho_prime, model.delta, grad)
        ratio = t.sub(bwd.log_pdf(rho, bwd.mean(rho_prime, z, k, drift)),
                      fwd.log_pdf(rho_prime, mean))
        _check_finite(model, k, position=z_new, momentum=rho_new,
                      log_ratio=ratio)
        L = t.add(L, ratio)
        trace.append(ratio)
        z, rho = z_new, rho_new

    terminal = t.add(target.logp(t, z),
                     _momentum_aug_logpdf(model, K, z, rho))
    _check_finite(model, K, terminal_density=terminal)
    L = t.add(L, terminal)
    return ElboEstimate(L, trace)


def plain_vi_elbo(tape: Tape, q: MeanFieldGaussian, target: TargetModel,
                  eps: np.ndarray) -> Var:
    """Reparameterized single-sample estimate of E_q[log pbar - log q]."""
    z = q.sample(eps)
    return tape.sub(target.logp(tape, z), q.log_pdf(z))


def evaluate_elbo_mean(config: MethodConfig, params: dict[str, np.ndarray],
                       target: TargetModel, num_steps: int, n_samples: int,
                       seed: int, batch: int = 256) -> tuple[float, float]:
    """Mean and standard error of n independent estimates (no gradients).

    The chains run `batch` at a time, each chunk on a fresh tape lifted with
    trainable=False. No node then descends from a trainable leaf, so the
    tape records none of them in full: every slot holds the shared
    placeholder, with no value, parents or VJP, and each intermediate array
    is freed as soon as the chain moves past it. A chunk's tape is freed by
    reference counting when the next chunk replaces it.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    if batch < 1:
        raise ValueError("batch must be at least 1")
    values: list[np.ndarray] = []
    done = 0
    chunk = 0
    while done < n_samples:
        b = min(batch, n_samples - done)
        noise = NoiseBundle.draw(seed, chunk, b, target.dim, num_steps)
        tape = Tape()
        model = lift_model(tape, config, params, target.dim, num_steps,
                           trainable=False)
        est = estimate_elbo(model, target, noise)
        values.append(np.atleast_1d(np.asarray(est.value.value)))
        done += b
        chunk += 1
    vals = np.concatenate(values)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(vals.size))
