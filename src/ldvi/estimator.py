"""Single-sample augmented-ELBO estimator for the named method family.

The augmented lower bound is accumulated along a simulated chain of K states:

    L = -log q(z_1, rho_1)
        + sum_{k=1..K-1} log m_B(rho_k | rho'_k, z_k) - log m_F(rho'_k | rho_k)
        + log pbar(z_K, rho_K)

Transition k refreshes the momentum with the kernel m_F and then moves
(z, rho) by one integrator step of the bridge density pi_k. The chain draws
its standard-Normal noise from a numpy Generator as it needs it, z first, then
the initial momentum, then one draw per transition, so given the generator's
state the estimate is a deterministic, differentiable function of the
parameters (pathwise gradients), and two configurations that reduce to the
same computation produce identical values from equal generators.

A `MethodConfig` names a method by three choices: the integration scheme,
the momentum refresh m_F and its reverse m_B, which together make the
method's one `MomentumKernel`. Everything else (which parameters exist,
whether a score network exists and what it sees, the endpoint momentum
augmentation) is derived from those three. The `METHODS` registry
instantiates the seven named methods.

`lift_model` assembles a method once per tape: it lifts every parameter
under its own name, and builds q, the schedule, the leapfrog's half step
delta / 2, the method's momentum kernel (both the refresh and its reverse)
and the endpoint augmentation, which is MCD's own kernel or N(0, I). The
chain in `estimate_elbo` then only runs those parts and reads no kernel
choice. Each momentum draw is scored from the noise that made it (see
`ldvi.dynamics`), and the bound's terms are summed in one node.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from ldvi.annealing import (AnnealingSchedule, MeanFieldGaussian,
                            bridge_score, inverse_softplus)
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
        if self.score_hidden is not None and self.score_hidden < 1:
            raise ValueError("score_hidden must be at least 1")

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
    """A method assembled on one tape: q, the schedule, the momentum kernel,
    which refreshes the momentum and scores its reverse, and the endpoint
    augmentation, which draws and scores the endpoint momenta. `half_delta`
    is delta / 2 for a leapfrog scheme, None otherwise. A plain method has
    q only."""

    tape: Tape
    config: MethodConfig
    q: MeanFieldGaussian
    schedule: AnnealingSchedule | None
    delta: Var | None
    half_delta: Var | None
    gamma: Var | None
    kernel: MomentumKernel | None
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
                           None, num_steps)
    schedule = AnnealingSchedule(tape, lifted["schedule.weights"])
    delta = tape.softplus(lifted["raw_delta"])
    half_delta = (tape.mul(0.5, delta) if config.scheme == "leapfrog"
                  else None)
    net = config.score_net(dim)
    score_fn = None if net is None else net.make_score_fn(tape, lifted,
                                                           num_steps)
    gamma = None
    if config.forward == "em":
        gamma = tape.softplus(lifted["raw_gamma"])
        kernel = MomentumKernel.euler_maruyama(tape, gamma, delta, score_fn)
    elif config.forward == "ou":
        kernel = MomentumKernel.exact_ou(
            tape, tape.sigmoid(lifted["raw_eta"]), score_fn)
    else:
        kernel = MomentumKernel.unit(
            tape, score_fn, 2.0 if config.backward == "mcd" else 1.0)
    augment = (kernel if config.backward == "mcd"
               else MomentumKernel.unit(tape))
    return LiftedModel(tape, config, q, schedule, delta, half_delta, gamma,
                       kernel, augment, num_steps)


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

    The noise comes from `rng.standard_normal(size=(batch, D))`, the stream
    of `rng.normal(size=(batch, D))` at less cost, one call per draw in a
    fixed order: z, the initial momentum, then each transition's momentum
    as the chain reaches it (plain VI draws z only). No draw outlives its
    transition, so the live chain state does not grow with K, and the value
    is shaped (batch,).

    Transition k needs the bridge score grad log pi_k = (1 - beta_k) grad log q
    + beta_k grad log pbar at each position it visits, and a leapfrog step ends
    where the next one begins. So the chain keeps q's score array and the
    target's score Var of the last position it scored, the only pair it ever
    reuses, and each use mixes them with its own beta_k in one
    `bridge_score` node, which also multiplies by delta for the
    Euler-Maruyama drift and carries q's score back to q and the position.
    For K >= 2 a leapfrog chain thus calls `target.score` and
    `MeanFieldGaussian.score_array` K times each, once per position, and an
    Euler-Maruyama chain, which scores only where each transition starts,
    K - 1 times.

    Every transition draws rho' from the momentum kernel in one
    `MomentumKernel.refresh` node, moves (z, rho') by the scheme's map and
    adds log m_B(rho | rho', z) - log m_F(rho' | rho), the same kernel's
    `MomentumKernel.log_ratio` node, which builds m_B's mean inside it,
    scores m_F from the transition's noise and which `_check_finite` reads
    as the log-ratio. The two schemes differ only in the map and the
    drift: a leapfrog step with no drift, or the Euler-Maruyama position
    update z + delta rho' with the drift delta grad log pi_k(z) added to
    the forward mean and subtracted from the reverse one. The kernel comes
    built with the model. The augmentation draws the initial momentum and
    scores the terminal momentum at its point. The initial term is one
    `sub` node, -log N(eps; 0, I) - log q(z), whose first part is an array
    of the noise alone (`MomentumKernel.noise_log_pdf`). MCD's augmentation is its momentum
    kernel, whose score s(1, z_1) sets the augmentation's mean and is
    passed to the first log-ratio, so MCD's score net runs once per
    position. The initial term, the K - 1 log-ratios and the terminal term
    are summed left to right in one `Tape.add_n` node; terms that need no
    gradient (an evaluation chain's) are summed as they come.

    On sonar's training tape a transition so records 7 nodes for ULA, 8 for
    UHA, 8 for MCD, 9 for LDVI, 5 for UHA-EM and 6 for LDVI-EM, the
    target's score included; each call of the score net is one node.

    Raises EstimatorError naming the transition index, the quantity
    (position, momentum, log-ratio, initial or terminal density) and the
    current delta (and gamma) if any quantity turns non-finite.
    """
    t, c, K = model.tape, model.config, model.num_steps
    shape = (batch, target.dim)
    if c.scheme == "plain":  # E_q[log pbar - log q], reparameterized
        z = model.q.sample(rng.standard_normal(size=shape))
        return ElboEstimate(t.sub(target.logp(t, z), model.q.log_pdf(z)))
    if K < 1:
        raise ValueError("num_steps must be at least 1")

    # The last position scored, by Var.index (every position is q.sample's
    # add or an integrator output, and only operation results carry an
    # index), and q's score array and the target's score Var there.
    last_index, last_scores = None, None

    def grad(k: int, zz: Var, delta: Var | None = None) -> Var:
        """Score of the interior bridge pi_k at zz, for 1 <= k < K, times
        delta when given."""
        nonlocal last_index, last_scores
        if zz.index != last_index:
            last_index, last_scores = zz.index, (model.q.score_array(zz),
                                                 target.score(t, zz))
        return bridge_score(model.schedule, k, model.q, zz, *last_scores,
                            delta)

    aug, kernel = model.augment, model.kernel
    z = model.q.sample(rng.standard_normal(size=shape))
    # MCD's augmentation is its momentum kernel, so this score also builds
    # the first reverse mean
    aug_score = aug.score(1, z)
    eps = rng.standard_normal(size=shape)
    rho = aug.sample(aug.mean(aug_score), eps)
    initial = t.sub(-aug.noise_log_pdf(eps), model.q.log_pdf(z))
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
        drift = grad(k, z, model.delta) if em else None
        eps = rng.standard_normal(size=shape)
        rho_prime = kernel.refresh(rho, eps, drift)
        if em:
            z_new, rho_new = t.muladd(model.delta, rho_prime, z), rho_prime
        else:
            z_new, rho_new = leapfrog(t, z, rho_prime, model.delta,
                                      model.half_delta,
                                      functools.partial(grad, k))
        ratio = kernel.log_ratio(rho, rho_prime, eps, z, k, drift,
                                 aug_score if kernel is aug and k == 1
                                 else None)
        _check_finite(model, k, ("position", z_new), ("momentum", rho_new),
                      ("log ratio", ratio))
        add_term(ratio)
        z, rho = z_new, rho_new

    terminal = t.add(target.logp(t, z),
                     aug.log_pdf(rho, aug.mean(aug.score(K, z))))
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
    the chain moves past it. The chain itself keeps only q's and the
    target's scores at its last position (and MCD its k = 1 augmentation
    mean) and the running sum of the bound's terms, and draws each
    transition's noise when it reaches it, so a chunk's peak memory does not
    grow with num_steps. A chunk's tape is freed by reference counting when
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
