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

A `MethodConfig` names the choices: integration scheme, momentum kernels,
score usage, momentum augmentations, and which parameter groups train. The
`METHODS` registry instantiates the seven named methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "evaluate_elbo_mean", "ula_epsilon", "EstimatorError",
]


class EstimatorError(RuntimeError):
    """Raised when the bound estimate turns non-finite mid-chain."""


def ula_epsilon(delta: float) -> float:
    """Overdamped step size implied by one leapfrog step: eps = delta^2 / 2."""
    return 0.5 * delta * delta


# ------------------------------------------------------------- configurations

@dataclass(frozen=True)
class MethodConfig:
    """Which kernels, score usage, and augmentations define a named method.

    scheme: "plain" (no chain), "leapfrog" (momentum refresh + leapfrog), or
        "em" (joint Euler-Maruyama momentum/position update).
    forward / backward: momentum kernel variants for the leapfrog scheme.
        forward is "exact_ou" or "em"; backward is the forward kernel's own
        reversal (the same name) or "mcd", which needs a score network.
    score_mode: "none", "position" (score net sees position only), or "full".
    eta_mode: momentum retention for exact-OU kernels — "zero" (complete
        refresh) or "learnable" (sigmoid of a raw parameter); "none" for
        methods without one.
    mcd_augment: tie the initial/terminal momentum augmentation means to the
        score network (mean 2 s at the endpoint times) instead of N(0, I).
    trainable: parameter groups the optimizer may move, subset of
        {"q", "delta", "beta", "eta", "gamma", "score"}.
    """

    name: str
    scheme: str
    forward: str = "none"
    backward: str = "none"
    score_mode: str = "none"
    eta_mode: str = "none"
    mcd_augment: bool = False
    trainable: frozenset = field(default_factory=frozenset)
    score_hidden: int | None = None

    def __post_init__(self):
        if self.scheme not in ("plain", "leapfrog", "em"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.score_mode not in ("none", "position", "full"):
            raise ValueError(f"unknown score_mode {self.score_mode!r}")
        if self.eta_mode not in ("none", "zero", "learnable"):
            raise ValueError(f"unknown eta_mode {self.eta_mode!r}")
        if self.mcd_augment and self.score_mode == "none":
            raise ValueError("mcd_augment requires a score network")
        if self.scheme != "leapfrog":
            if (self.forward, self.backward) != ("none", "none"):
                raise ValueError(f"scheme {self.scheme!r} has no forward or "
                                 f"backward kernel choice; both must be 'none'")
            return
        if self.forward not in ("exact_ou", "em"):
            raise ValueError(f"unknown forward kernel {self.forward!r}")
        if self.backward not in (self.forward, "mcd"):
            raise ValueError(f"backward kernel {self.backward!r} does not "
                             f"reverse forward kernel {self.forward!r}")
        if self.forward == "exact_ou" and self.eta_mode == "none":
            raise ValueError("forward kernel 'exact_ou' needs eta_mode "
                             "'zero' or 'learnable'")
        if self.backward == "mcd" and self.score_mode == "none":
            raise ValueError("backward kernel 'mcd' needs a score network "
                             "(score_mode)")

    @property
    def uses_score(self) -> bool:
        return self.score_mode != "none"


METHODS: dict[str, MethodConfig] = {
    "plainvi": MethodConfig(
        name="plainvi", scheme="plain", trainable=frozenset({"q"})),
    "ula": MethodConfig(
        name="ula", scheme="leapfrog", forward="exact_ou",
        backward="exact_ou", eta_mode="zero",
        trainable=frozenset({"q", "delta", "beta"})),
    "mcd": MethodConfig(
        name="mcd", scheme="leapfrog", forward="exact_ou", backward="mcd",
        score_mode="position", eta_mode="zero", mcd_augment=True,
        trainable=frozenset({"q", "delta", "beta", "score"})),
    "uha": MethodConfig(
        name="uha", scheme="leapfrog", forward="exact_ou",
        backward="exact_ou", eta_mode="learnable",
        trainable=frozenset({"q", "delta", "beta", "eta"})),
    "ldvi": MethodConfig(
        name="ldvi", scheme="leapfrog", forward="em", backward="em",
        score_mode="full",
        trainable=frozenset({"q", "delta", "beta", "gamma", "score"})),
    "uha_em": MethodConfig(
        name="uha_em", scheme="em",
        trainable=frozenset({"q", "delta", "beta", "gamma"})),
    "ldvi_em": MethodConfig(
        name="ldvi_em", scheme="em", score_mode="full",
        trainable=frozenset({"q", "delta", "beta", "gamma", "score"})),
}


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
    q = MeanFieldGaussian.init_params(dim, mu=mu, sigma=sigma)
    params = {"q.mu": q["mu"], "q.raw_scale": q["raw_scale"]}
    if config.scheme == "plain":
        return params
    params["schedule.weights"] = AnnealingSchedule.init_params(num_steps)
    params["raw_delta"] = np.asarray(inverse_softplus(delta))
    if config.scheme == "em" or config.forward == "em":
        params["raw_gamma"] = np.asarray(inverse_softplus(gamma))
    if config.eta_mode == "learnable":
        if not 0.0 < eta < 1.0:
            raise ValueError("initial eta must lie in (0, 1)")
        params["raw_eta"] = np.asarray(np.log(eta / (1.0 - eta)))
    if config.uses_score:
        net = ScoreNet(dim, hidden=config.score_hidden,
                       position_only=config.score_mode == "position")
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
    """Lift a flat parameter dict; only groups in config.trainable get adjoints.

    With trainable=False nothing trains (pure evaluation).
    """

    def on(group: str) -> bool:
        return trainable and group in config.trainable

    q = MeanFieldGaussian.lifted(
        tape, {"mu": params["q.mu"], "raw_scale": params["q.raw_scale"]},
        trainable=on("q"))
    if config.scheme == "plain":
        return LiftedModel(tape, config, q, None, None, None, None, None,
                           num_steps)
    schedule = AnnealingSchedule.lifted(tape, params["schedule.weights"],
                                        trainable=on("beta"))
    delta = tape.softplus(tape.lift(params["raw_delta"], trainable=on("delta"),
                                    name="raw_delta"))
    gamma = None
    if "raw_gamma" in params:
        gamma = tape.softplus(tape.lift(params["raw_gamma"],
                                        trainable=on("gamma"),
                                        name="raw_gamma"))
    eta = None
    if config.eta_mode == "zero":
        eta = tape.constant(0.0)
    elif config.eta_mode == "learnable":
        eta = tape.sigmoid(tape.lift(params["raw_eta"], trainable=on("eta"),
                                     name="raw_eta"))
    score_fn = None
    if config.uses_score:
        net = ScoreNet(dim, hidden=config.score_hidden,
                       position_only=config.score_mode == "position")
        lifted = net.lift(tape, params, trainable=on("score"))
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
    if c.scheme == "em" or c.forward == "em":
        fwd = MomentumKernel.euler_maruyama(t, model.gamma, model.delta)
    else:
        fwd = MomentumKernel.exact_ou(t, model.eta)
    if c.backward == "mcd":
        return fwd, MomentumKernel.mcd_reverse(t, model.score_fn)
    return fwd, fwd.reverse(model.score_fn)


def _momentum_aug_logpdf(model: LiftedModel, k: int, z: Var, rho: Var) -> Var:
    """Density of the momentum augmentation at an endpoint state."""
    t = model.tape
    if model.config.mcd_augment:
        mean = t.mul(2.0, model.score_fn(k, z, rho))
        return t.gaussian_logpdf(rho, mean, 1.0)
    return t.gaussian_logpdf(rho, 0.0, 1.0)


def _sample_initial_momentum(model: LiftedModel, z1: Var,
                             eps: np.ndarray) -> Var:
    t = model.tape
    rho = t.constant(eps)
    if model.config.mcd_augment:
        rho = t.add(t.mul(2.0, model.score_fn(1, z1, rho)), t.constant(eps))
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
    """Mean and standard error of n independent estimates (no gradients)."""
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
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
