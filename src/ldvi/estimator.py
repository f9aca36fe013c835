"""Single-sample augmented-ELBO estimator for the named method family.

The augmented lower bound is accumulated along a simulated chain of K states:

    L = -log q(z_1, rho_1)
        + sum_{k=1..K-1} log m_B(rho_k | rho'_k, z_k) - log m_F(rho'_k | rho_k)
        + log pbar(z_K, rho_K)

Transition k refreshes the momentum with the forward kernel and then moves
(z, rho) by one integrator step of the bridge density pi_k. The chain draws
its standard-Normal noise from a numpy Generator as it needs it, z first, then
the initial momentum, then one draw per transition, so given the generator's
state the estimate is a deterministic, differentiable function of the
parameters (pathwise gradients), and two configurations that reduce to the
same computation produce identical values from equal generators.

A `MethodConfig` names a method by three choices: the integration scheme,
the momentum refresh (forward kernel) and the reverse kernel. Everything
else (which parameters exist, whether a score network exists and what it
sees, the endpoint momentum augmentation) is derived from those three. The
`METHODS` registry instantiates the seven named methods.

`lift_model` assembles a method once per tape: it lifts every parameter
under its own name, and builds q, the schedule, the leapfrog's half step
delta / 2 and three momentum kernels (the refresh, the reverse kernel and
the endpoint augmentation). The chain in `estimate_elbo` then only runs
those parts and reads no kernel choice. Each momentum draw is scored from
the noise that made it (see `ldvi.dynamics`), and the bound's terms are
summed in one node.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from ldvi.annealing import (AnnealingSchedule, MeanFieldGaussian,
                            inverse_softplus)
from ldvi.dynamics import MomentumKernel, leapfrog
from ldvi.scorenet import ScoreNet
from ldvi.tape import Tape, Var
from ldvi.targets import TargetModel

__all__ = [
    "MethodConfig", "METHODS", "get_method", "method_names",
    "ElboEstimate", "LiftedModel",
    "init_params", "lift_model", "estimate_elbo", "evaluate_elbo_mean",
    "EstimatorError",
]


class EstimatorError(RuntimeError):
    """Raised when the bound estimate turns non-finite mid-chain."""


# ------------------------------------------------------------- configurations

# scheme -> momentum refresh -> the reverse kernels allowed with it. MCD's
# reverse N(2 s(k, z), I) is derived for a full refresh, so it pairs with
# "full" only.
_KERNELS = {
    "plain": {"none": ("none",)},
    "leapfrog": {"full": ("exact", "score", "mcd"), "ou": ("exact", "score"),
                 "em": ("exact", "score")},
    "em": {"em": ("exact", "score")},
}


@dataclass(frozen=True)
class MethodConfig:
    """A method: integration scheme, momentum refresh and reverse kernel.

    scheme: "plain" (no chain), "leapfrog" (momentum refresh, then one
        leapfrog step) or "em" (Euler-Maruyama refresh carrying the drift,
        then the position update z + delta rho').
    forward: the momentum refresh. Under "leapfrog" it is "full" (a
        complete refresh: the unit kernel N(0, I), which draws the noise
        itself), "ou" (exact OU with a learned momentum retention eta) or
        "em" (Euler-Maruyama with a learned friction gamma). It is always
        "em" under "em", "none" under "plain".
    backward: the reverse kernel. "exact" is the refresh's own reversal,
        "score" that reversal plus var s(k, z, rho') from a score network,
        and "mcd" (with the "full" refresh only) is N(2 s(k, z), I) with a
        position-only score that also sets the endpoint momentum
        augmentation N(2 s, I). "none" under "plain".

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
        forwards = _KERNELS[self.scheme]
        if self.forward not in forwards:
            raise ValueError(f"forward kernel {self.forward!r} is not one of "
                             f"{tuple(forwards)} under scheme {self.scheme!r}")
        backwards = forwards[self.forward]
        if self.backward not in backwards:
            raise ValueError(f"backward kernel {self.backward!r} is not one "
                             f"of {backwards} with forward {self.forward!r}")

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
    if "gamma" in config.trainable:
        params["raw_gamma"] = np.asarray(inverse_softplus(gamma))
    if "eta" in config.trainable:
        if not 0.0 < eta < 1.0:
            raise ValueError("initial eta must lie in (0, 1)")
        params["raw_eta"] = np.asarray(np.log(eta / (1.0 - eta)))
    net = config.score_net(dim)
    if net is not None:
        params.update(net.init_params(seed=seed))
    return params


@dataclass
class LiftedModel:
    """A method assembled on one tape: q, the schedule and three momentum
    kernels, the refresh, its reverse and the endpoint augmentation, which
    draws and scores the endpoint momenta. `half_delta` is delta / 2 for a
    leapfrog scheme, None otherwise. A plain method has q only."""

    tape: Tape
    config: MethodConfig
    q: MeanFieldGaussian
    schedule: AnnealingSchedule | None
    delta: Var | None
    half_delta: Var | None
    gamma: Var | None
    refresh: MomentumKernel | None
    reverse: MomentumKernel | None
    augment: MomentumKernel | None
    num_steps: int


def lift_model(tape: Tape, config: MethodConfig, params: dict[str, np.ndarray],
               dim: int, num_steps: int,
               trainable: bool = True) -> LiftedModel:
    """Lift every entry of a flat parameter dict under its own name, in the
    dict's order, and assemble the method from them. Every parameter gets
    adjoints unless trainable=False (pure evaluation) lifts them as
    constants. q and the schedule must be shaped for `dim` and `num_steps`.
    """
    shapes = {"q.mu": (dim,)}
    if config.scheme != "plain":
        shapes["schedule.weights"] = (num_steps,)
    for key, shape in shapes.items():
        if np.shape(params[key]) != shape:
            raise ValueError(f"{key}: expected shape {shape}, "
                             f"got {np.shape(params[key])}")
    lifted = {name: tape.lift(value, trainable=trainable, name=name)
              for name, value in params.items()}
    q = MeanFieldGaussian(tape, lifted["q.mu"], lifted["q.raw_scale"])
    if config.scheme == "plain":
        return LiftedModel(tape, config, q, None, None, None, None, None,
                           None, None, num_steps)
    schedule = AnnealingSchedule(tape, lifted["schedule.weights"])
    delta = tape.softplus(lifted["raw_delta"])
    half_delta = (tape.mul(0.5, delta) if config.scheme == "leapfrog"
                  else None)
    gamma = None
    if config.forward == "em":
        gamma = tape.softplus(lifted["raw_gamma"])
        refresh = MomentumKernel.euler_maruyama(tape, gamma, delta)
    elif config.forward == "ou":
        refresh = MomentumKernel.exact_ou(tape,
                                          tape.sigmoid(lifted["raw_eta"]))
    else:
        refresh = MomentumKernel.unit(tape)
    net = config.score_net(dim)
    score_fn = None if net is None else net.make_score_fn(tape, lifted,
                                                           num_steps)
    if config.backward == "mcd":
        reverse = augment = MomentumKernel.mcd_reverse(tape, score_fn)
    else:
        reverse, augment = refresh.reverse(score_fn), MomentumKernel.unit(tape)
    return LiftedModel(tape, config, q, schedule, delta, half_delta, gamma,
                       refresh, reverse, augment, num_steps)


# -------------------------------------------------------------------- bounds

@dataclass
class ElboEstimate:
    """Pathwise bound estimates, one per chain: value is shaped (batch,)."""

    value: Var


def _check_finite(model: LiftedModel, k: int,
                  *quantities: tuple[str, Var]) -> None:
    """Raise EstimatorError naming the first non-finite of the (name, Var)
    quantities, k, the step size delta and, when the method has one, the
    friction gamma.
    """
    for name, v in quantities:
        # the ufunc's own reduce skips ndarray.all's Python-level wrapper
        if not np.logical_and.reduce(np.isfinite(v.value), axis=None):
            where = f"k={k}, delta={float(model.delta.value)!r}"
            if model.gamma is not None:
                where += f", gamma={float(model.gamma.value)!r}"
            raise EstimatorError(f"non-finite {name} at transition {where}")


def estimate_elbo(model: LiftedModel, target: TargetModel,
                  rng: np.random.Generator, batch: int) -> ElboEstimate:
    """Accumulate the augmented bound along `batch` independent chains.

    The noise comes from `rng.normal(size=(batch, D))`, one call per draw in
    a fixed order: z, the initial momentum, then each transition's momentum
    as the chain reaches it (plain VI draws z only). No draw outlives its
    transition, so the live chain state does not grow with K, and the value
    is shaped (batch,).

    Transition k needs the bridge score grad log pi_k = (1 - beta_k) grad log q
    + beta_k grad log pbar at each position it visits, and a leapfrog step ends
    where the next one begins. So the chain keeps the (base score, target
    score) pair of the last position it scored, the only pair it ever reuses,
    and each transition mixes it with its own beta_k. For K >= 2 a leapfrog
    chain thus calls `target.score` K times, once per position, and an
    Euler-Maruyama chain, which scores only where each transition starts,
    K - 1 times.

    Every transition draws rho' from the forward momentum kernel in one
    `MomentumKernel.refresh` node, moves (z, rho') by the scheme's map and
    adds log m_B(rho | rho', z) - log m_F(rho' | rho), one
    `Tape.gaussian_log_ratio` node built by the reverse kernel, which
    scores m_F from the transition's noise and which `_check_finite` reads
    as the log-ratio. The two schemes differ only in the map and the
    drift: a leapfrog step with no drift, or the Euler-Maruyama position
    update z + delta rho' with the drift delta grad log pi_k(z) added to the
    forward mean and subtracted from the reverse one. The kernels come built
    with the model. The augmentation draws the initial momentum, scores it
    from its noise, and scores the terminal momentum at its point. Its mean
    at k = 1 is built once; MCD's augmentation is its reverse kernel, so
    that mean is also the first reverse mean, and MCD's score net runs once
    per position. The initial term, the K - 1 log-ratios and the terminal
    term are summed left to right in one `Tape.add_n` node; terms that need
    no gradient (an evaluation chain's) are summed as they come.

    Raises EstimatorError naming the transition index, the quantity
    (position, momentum, log-ratio, initial or terminal density) and the
    current delta (and gamma) if any quantity turns non-finite.
    """
    t, c, K = model.tape, model.config, model.num_steps
    shape = (batch, target.dim)
    if c.scheme == "plain":  # E_q[log pbar - log q], reparameterized
        z = model.q.sample(rng.normal(size=shape))
        return ElboEstimate(t.sub(target.logp(t, z), model.q.log_pdf(z)))
    if K < 1:
        raise ValueError("num_steps must be at least 1")

    # The last position scored, by Var.index (every position is q.sample's
    # add or an integrator output, and only operation results carry an
    # index), and its (base score, target score) pair.
    last_index, last_pair = None, None

    def grad_at(k: int):
        """Score of the interior bridge pi_k, for 1 <= k < K."""
        beta = model.schedule.beta(k)

        def grad(zz: Var) -> Var:
            nonlocal last_index, last_pair
            if zz.index != last_index:
                last_index, last_pair = zz.index, (model.q.score(zz),
                                                   target.score(t, zz))
            return t.lerp(beta, *last_pair)

        return grad

    aug, fwd, bwd = model.augment, model.refresh, model.reverse
    z = model.q.sample(rng.normal(size=shape))
    aug_mean = aug.mean(None, z, 1)
    eps = rng.normal(size=shape)
    rho = aug.sample(aug_mean, eps)
    initial = t.neg(t.add(model.q.log_pdf(z), aug.noise_log_pdf(eps)))
    _check_finite(model, 0, ("initial density", initial))
    terms = [initial]

    def add_term(term: Var) -> None:
        # terms that need no gradient are summed as they come, so that an
        # evaluation chain keeps one running value, not one per transition
        if term.needs_grad or terms[-1].needs_grad:
            terms.append(term)
        else:
            terms[-1] = t.add(terms[-1], term)

    em = c.scheme == "em"
    for k in range(1, K):
        grad = grad_at(k)
        drift = t.mul(model.delta, grad(z)) if em else None
        eps = rng.normal(size=shape)
        rho_prime = fwd.refresh(rho, eps, drift)
        if em:
            z_new, rho_new = t.muladd(model.delta, rho_prime, z), rho_prime
        else:
            z_new, rho_new = leapfrog(t, z, rho_prime, model.delta,
                                      model.half_delta, grad)
        # MCD's reverse kernel is its augmentation, whose k = 1 mean the
        # chain already holds
        back = (aug_mean if k == 1 and bwd is aug
                else bwd.mean(rho_prime, z, k, drift))
        ratio = bwd.log_ratio(rho, back, fwd, eps)
        _check_finite(model, k, ("position", z_new), ("momentum", rho_new),
                      ("log ratio", ratio))
        add_term(ratio)
        z, rho = z_new, rho_new

    terminal = t.add(target.logp(t, z),
                     aug.log_pdf(rho, aug.mean(None, z, K)))
    _check_finite(model, K, ("terminal density", terminal))
    add_term(terminal)
    return ElboEstimate(t.add_n(terms))


def evaluate_elbo_mean(config: MethodConfig, params: dict[str, np.ndarray],
                       target: TargetModel, num_steps: int, n_samples: int,
                       seed: int, batch: int = 256) -> tuple[float, float]:
    """Mean and standard error of n independent estimates (no gradients).

    The chains run `batch` at a time, each chunk on a fresh tape lifted with
    trainable=False. Every parameter is then a constant, so the tape records
    no operation in full: every slot holds the shared placeholder, with no
    value, parents or VJP, and each intermediate array is freed as soon as
    the chain moves past it. The chain itself keeps only the score pair of
    its last position (and MCD its k = 1 augmentation mean) and the running
    sum of the bound's terms, and draws each transition's noise when it
    reaches it, so a chunk's peak memory does not grow with num_steps. A chunk's tape is freed by reference counting when
    the next chunk replaces it. Chunk i draws its noise from
    `default_rng([seed, i])`.
    """
    for name, value in (("n_samples", n_samples), ("batch", batch)):
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") \
                from None
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    if batch < 1:
        raise ValueError("batch must be at least 1")
    values: list[np.ndarray] = []
    done = 0
    chunk = 0
    while done < n_samples:
        b = min(batch, n_samples - done)
        tape = Tape()
        model = lift_model(tape, config, params, target.dim, num_steps,
                           trainable=False)
        est = estimate_elbo(model, target,
                            np.random.default_rng([seed, chunk]), b)
        values.append(est.value.value)
        done += b
        chunk += 1
    vals = np.concatenate(values)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(vals.size))
