"""Unit tests for the augmented-ELBO estimator and method configurations."""

import dataclasses
import gc
import itertools
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import norm

from ldvi.annealing import MeanFieldGaussian, inverse_softplus
from ldvi.dynamics import MomentumKernel
from ldvi.estimator import (EstimatorError, METHODS, MethodConfig,
                            estimate_elbo, evaluate_elbo_mean, get_method,
                            init_params, lift_model, method_names)
from ldvi.scorenet import ScoreNet
from ldvi.tape import DomainError, Tape, Var
from ldvi.targets import (Dataset, TargetModel, brownian_motion_target,
                          default_data_dir, gaussian_toy_target, get_target,
                          load_binary_classification_csv,
                          logistic_regression_target)
from reference import noise_logpdf

def softplus(x):
    return np.logaddexp(0.0, x)


def run_estimate(config, params, target, K, rng, batch):
    t = Tape()
    model = lift_model(t, config, params, target.dim, K)
    return estimate_elbo(model, target, rng, batch)


def chain_rng(seed):
    """The generator of an estimate keyed by (seed, step 0), as training
    keys step 0 of a run with this seed."""
    return np.random.default_rng([seed, 0])


class Noise:
    """The arrays an estimate draws from chain_rng(seed), in the chain's
    order: z, the initial momentum, then one per transition."""

    def __init__(self, draws):
        self.draws = draws
        self.z_eps, self.rho_eps, *self.step_eps = draws

    @classmethod
    def draw(cls, seed, batch, dim, K):
        rng = chain_rng(seed)
        return cls([rng.standard_normal(size=(batch, dim))
                    for _ in range(K + 1)])

    def chain(self, i):
        """Chain i's draws, each shaped (dim,)."""
        return Noise([d[i] for d in self.draws])


class ReplayRng:
    """A Generator stand-in whose standard_normal() hands out the given
    arrays in turn, reshaped to the size asked for."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def standard_normal(self, size):
        return next(self._draws).reshape(size)


class RecordingRng:
    """A Generator stand-in that records the size of every
    standard_normal() draw."""

    def __init__(self):
        self.sizes = []
        self._rng = np.random.default_rng(0)

    def standard_normal(self, size):
        self.sizes.append(size)
        return self._rng.standard_normal(size=size)


def q_score(t, q, z):
    """q's score (mu - z) / sigma^2 from tape primitives."""
    return t.div(t.sub(q.mu, z), q.var)


def bridge_score(t, z, k, K, q, target, schedule):
    """Score of the bridge pi_k at z: exactly q's at k=0, the target's at K."""
    if k <= 0:
        return q_score(t, q, z)
    if k >= K:
        return target.score(t, z)
    b = t.narrow(schedule.betas, k - 1, k)
    return t.add(t.mul(t.sub(1.0, b), q_score(t, q, z)),
                 t.mul(b, target.score(t, z)))


def random_params(config, dim, K, rng, score_scale=0.1):
    params = init_params(config, dim, K, seed=int(rng.integers(1 << 20)))
    for key, val in params.items():
        if key.startswith("score."):
            params[key] = np.asarray(val + score_scale
                                     * rng.normal(size=val.shape))
        else:
            params[key] = np.asarray(val + 0.3 * rng.normal(size=val.shape))
    return params


# The leapfrog (forward, backward) pairs that MethodConfig accepts but no
# named method uses, under generated names; CONFIGS adds them to METHODS.
UNNAMED = {f"{fwd}+{bwd}": MethodConfig(f"{fwd}+{bwd}", "leapfrog", fwd, bwd)
           for fwd, bwd in (("full", "score"), ("ou", "score"),
                            ("em", "exact"))}
CONFIGS = METHODS | UNNAMED


class TestRegistry:
    def test_seven_named_methods(self):
        assert method_names() == ("plainvi", "ula", "mcd", "uha", "ldvi",
                                  "uha_em", "ldvi_em")

    def test_lookup_case_insensitive(self):
        assert get_method("LDVI") is METHODS["ldvi"]
        with pytest.raises(KeyError):
            get_method("nuts")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MethodConfig(name="x", scheme="rk4")
        with pytest.raises(ValueError):
            MethodConfig(name="x", scheme="leapfrog")

    @pytest.mark.parametrize("field,kernels", [
        ("forward", dict(forward="exact_ou", backward="exact")),
        ("forward", dict(scheme="em", forward="full", backward="exact")),
        ("backward", dict(forward="em", backward="em")),
        ("backward", dict(forward="full", backward="none")),
        ("forward", dict(scheme="plain", forward="full")),
        ("backward", dict(scheme="em", forward="em", backward="mcd")),
        ("backward", dict(scheme="plain", backward="exact")),
        ("forward", dict(forward="none", backward="exact")),
        ("backward", dict(forward="ou", backward="mcd")),
        ("backward", dict(forward="em", backward="mcd")),
    ])
    def test_invalid_kernel_choices_rejected(self, field, kernels):
        with pytest.raises(ValueError, match=field):
            MethodConfig(name="x", **({"scheme": "leapfrog"} | kernels))

    def test_trainable_groups(self):
        assert METHODS["plainvi"].trainable == {"q"}
        assert METHODS["ula"].trainable == {"q", "delta", "beta"}
        assert METHODS["uha"].trainable == {"q", "delta", "beta", "eta"}
        assert METHODS["mcd"].trainable == {"q", "delta", "beta", "score"}
        assert METHODS["ldvi"].trainable == {"q", "delta", "beta", "gamma",
                                             "score"}
        assert METHODS["uha_em"].trainable == {"q", "delta", "beta", "gamma"}
        assert METHODS["ldvi_em"].trainable == {"q", "delta", "beta", "gamma",
                                                "score"}


class TestDrawOrder:
    """The chain's draws fix every bound and record byte: z, the initial
    momentum, then one per transition, each (batch, dim). Plain VI draws z
    only."""

    @pytest.mark.parametrize("K", [1, 2, 5])
    @pytest.mark.parametrize("name", list(METHODS))
    def test_one_draw_per_use(self, name, K):
        cfg = dataclasses.replace(get_method(name), score_hidden=4)
        rng = RecordingRng()
        model = lift_model(Tape(), cfg, init_params(cfg, 3, K), 3, K)
        estimate_elbo(model, gaussian_toy_target(3), rng, 5)
        assert rng.sizes == [(5, 3)] * (1 if name == "plainvi" else K + 1)


class TestInitParams:
    def test_keys_per_method(self):
        base = {"q.mu", "q.raw_scale"}
        chain = base | {"schedule.weights", "raw_delta"}
        expect = {
            "plainvi": base,
            "ula": chain,
            "uha": chain | {"raw_eta"},
            "mcd": chain,  # plus score keys, checked below
            "ldvi": chain | {"raw_gamma"},
            "uha_em": chain | {"raw_gamma"},
            "ldvi_em": chain | {"raw_gamma"},
        }
        for name, want in expect.items():
            cfg = dataclasses.replace(get_method(name), score_hidden=4)
            keys = set(init_params(cfg, 3, 4).keys())
            non_score = {k for k in keys if not k.startswith("score.")}
            assert non_score == want, name
            assert cfg.uses_score == any(k.startswith("score.") for k in keys)

    def test_transform_inversion(self):
        p = init_params(get_method("ldvi"), 2, 3, delta=0.07, gamma=2.5)
        assert softplus(p["raw_delta"]) == pytest.approx(0.07, rel=1e-12)
        assert softplus(p["raw_gamma"]) == pytest.approx(2.5, rel=1e-12)
        p = init_params(get_method("uha"), 2, 3, eta=0.25)
        assert expit(p["raw_eta"]) == pytest.approx(0.25, rel=1e-12)
        with pytest.raises(ValueError):
            init_params(get_method("uha"), 2, 3, eta=1.5)


class TestPerfectBase:
    """With q equal to the normalized target, the bound is log Z exactly."""

    def matched_params(self, config, dim, K):
        return init_params(config, dim, K, mu=1.0, sigma=np.sqrt(1.5))

    @pytest.mark.parametrize("name", ["ula", "mcd", "uha", "ldvi", "uha_em",
                                      "ldvi_em"])
    def test_k1_is_exact(self, name):
        target = gaussian_toy_target(3, mean=1.0, cov_diag=1.5)
        cfg = dataclasses.replace(get_method(name), score_hidden=4)
        params = self.matched_params(cfg, 3, 1)
        est = run_estimate(cfg, params, target, 1, chain_rng(0), 8)
        np.testing.assert_allclose(est.value.value,
                                   np.full(8, target.log_z), rtol=1e-12)

    def test_plain_vi_is_exact(self):
        target = gaussian_toy_target(4, mean=-0.5, cov_diag=2.0)
        t = Tape()
        cfg = get_method("plainvi")
        params = init_params(cfg, 4, 1, mu=-0.5, sigma=np.sqrt(2.0))
        model = lift_model(t, cfg, params, 4, 1)
        est = estimate_elbo(model, target, chain_rng(1), 16)
        np.testing.assert_allclose(est.value.value,
                                   np.full(16, target.log_z), rtol=1e-12)

    def test_evaluate_elbo_mean_perfect(self):
        target = gaussian_toy_target(2, mean=0.3, cov_diag=0.8)
        cfg = get_method("ula")
        params = init_params(cfg, 2, 4, mu=0.3, sigma=np.sqrt(0.8))
        mean, stderr = evaluate_elbo_mean(cfg, params, target, 4,
                                          n_samples=64, seed=5)
        # only integrator energy error (O(delta^2)) separates L from log Z
        assert mean <= target.log_z + 4 * stderr + 1e-12
        assert mean == pytest.approx(target.log_z, abs=0.05)
        with pytest.raises(ValueError):
            evaluate_elbo_mean(cfg, params, target, 4, n_samples=1, seed=0)
        with pytest.raises(ValueError, match="batch"):
            evaluate_elbo_mean(cfg, params, target, 4, n_samples=4, seed=0,
                               batch=0)

    @pytest.mark.parametrize("name,kwargs", [
        ("n_samples", dict(n_samples=10.5)),
        ("n_samples", dict(n_samples="8")),
        ("batch", dict(n_samples=8, batch=2.5)),
        ("batch", dict(n_samples=8, batch=None))])
    def test_evaluate_elbo_mean_rejects_non_integers(self, name, kwargs):
        target = gaussian_toy_target(2)
        cfg = get_method("ula")
        params = init_params(cfg, 2, 4)
        with pytest.raises(ValueError, match=name):
            evaluate_elbo_mean(cfg, params, target, 4, seed=0, **kwargs)
        # numpy integers are integers
        evaluate_elbo_mean(cfg, params, target, 4, n_samples=np.int64(4),
                           seed=0, batch=np.int32(2))


class TestUnbiasedness:
    """exp(L) is an unbiased estimate of Z, whatever the parameters.

    So over many chains logmeanexp(L) reaches log Z up to its Monte Carlo
    error, and mean(L) <= log Z. A forward density that is not the one the
    momentum was drawn from (taken at the post-leapfrog momentum, or without
    the EM drift) breaks the first at once. Any reverse kernel keeps the
    bound valid, so its mean is checked by `TestBruteForceOracle` instead.
    The check is one-sided: heavy-tailed weights pull logmeanexp(L) below
    log Z, never above it.
    """

    @pytest.mark.parametrize("K", [2, 4, 8])
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_logmeanexp_reaches_log_z(self, name, K):
        n, case = 8000, 10 * list(CONFIGS).index(name) + K
        target = gaussian_toy_target(2, mean=[0.5, -0.3], cov_diag=[0.8, 1.6])
        cfg = CONFIGS[name]
        rng = np.random.default_rng(case)
        params = {k: v + (0.05 if k.startswith("score.") else 0.2)
                  * rng.normal(size=v.shape)
                  for k, v in init_params(cfg, 2, K).items()}
        model = lift_model(Tape(), cfg, params, 2, K, trainable=False)
        L = estimate_elbo(model, target, chain_rng(case), n).value.value
        w = np.exp(L - L.max())
        log_z_hat = L.max() + np.log(w.mean())
        se = w.std() / (np.sqrt(n) * w.mean())
        assert log_z_hat - target.log_z <= 4 * se
        assert L.mean() <= target.log_z


class TestRecoveryIdentities:
    """Score-free exact-kernel reductions coincide on shared noise."""

    def test_ula_equals_reduced_general_config(self):
        rng = np.random.default_rng(10)
        reduced = dataclasses.replace(
            get_method("ldvi"), forward="full", backward="exact")
        for _ in range(20):
            dim = int(rng.integers(1, 5))
            K = int(rng.integers(1, 6))
            target = gaussian_toy_target(dim, mean=rng.normal(),
                                         cov_diag=rng.uniform(0.5, 2.0))
            params = random_params(get_method("ula"), dim, K, rng)
            seed = int(rng.integers(1000))
            a = run_estimate(get_method("ula"), params, target, K,
                             chain_rng(seed), 3)
            b = run_estimate(reduced, params, target, K, chain_rng(seed), 3)
            np.testing.assert_allclose(a.value.value, b.value.value,
                                       rtol=0, atol=1e-8)

    def test_uha_equals_reduced_general_config(self):
        rng = np.random.default_rng(11)
        reduced = dataclasses.replace(
            get_method("ldvi"), forward="ou", backward="exact")
        for _ in range(20):
            dim = int(rng.integers(1, 5))
            K = int(rng.integers(1, 6))
            target = gaussian_toy_target(dim, mean=rng.normal(),
                                         cov_diag=rng.uniform(0.5, 2.0))
            params = random_params(get_method("uha"), dim, K, rng)
            seed = int(rng.integers(1000))
            a = run_estimate(get_method("uha"), params, target, K,
                             chain_rng(seed), 3)
            b = run_estimate(reduced, params, target, K, chain_rng(seed), 3)
            np.testing.assert_allclose(a.value.value, b.value.value,
                                       rtol=0, atol=1e-8)

    def test_zero_init_score_is_inert(self):
        """At initialization the score correction vanishes exactly."""
        rng = np.random.default_rng(12)
        target = gaussian_toy_target(3, mean=0.4, cov_diag=1.2)

        ldvi = dataclasses.replace(get_method("ldvi"), score_hidden=8)
        params = init_params(ldvi, 3, 5, seed=9)
        params["q.mu"] = rng.normal(size=3)
        scoreless = dataclasses.replace(ldvi, backward="exact")
        a = run_estimate(ldvi, params, target, 5, chain_rng(3), 4)
        b = run_estimate(scoreless, params, target, 5, chain_rng(3), 4)
        np.testing.assert_array_equal(a.value.value, b.value.value)

        ldvi_em = dataclasses.replace(get_method("ldvi_em"), score_hidden=8)
        params = init_params(ldvi_em, 3, 5, seed=9)
        c = run_estimate(ldvi_em, params, target, 5, chain_rng(3), 4)
        d = run_estimate(get_method("uha_em"), params, target, 5,
                         chain_rng(3), 4)
        np.testing.assert_array_equal(c.value.value, d.value.value)

    def test_full_refresh_position_update_is_overdamped(self):
        """One full-refresh transition moves z by the overdamped rule with
        step size delta^2 / 2 and noise scale sqrt(2 * that)."""
        rng = np.random.default_rng(13)
        dim, K, delta = 3, 2, 0.23
        target = gaussian_toy_target(dim, mean=0.7, cov_diag=0.9)
        cfg = get_method("ula")
        params = init_params(cfg, dim, K, delta=delta)
        noise = Noise.draw(21, 1, dim, K).chain(0)

        t = Tape()
        model = lift_model(t, cfg, params, dim, K)
        z1 = model.q.sample(noise.z_eps).value
        # replay the chain to extract z_2 from the terminal log p term
        est = estimate_elbo(model, target, chain_rng(21), 1)
        # overdamped prediction at the midpoint bridge pi_1 (beta = 1/2)
        eps_step = 0.5 * delta * delta
        grad = 0.5 * (-z1) + 0.5 * ((0.7 - z1) / 0.9)
        z2 = z1 + eps_step * grad + np.sqrt(2 * eps_step) * noise.step_eps[0]
        lp_rho = norm.logpdf(est_terminal_rho(params, target, noise, delta)).sum()
        want_terminal = toy_logp(target, z2) + lp_rho
        got_terminal = (est.value.value[0]
                        - head_terms(params, target, noise))
        assert got_terminal == pytest.approx(want_terminal, rel=1e-10)


def toy_logp(target, z):
    m = np.asarray(target.meta["mean"])
    v = np.asarray(target.meta["cov_diag"])
    return float(-0.5 * np.sum((z - m) ** 2 / v, axis=-1))


def est_terminal_rho(params, target, noise, delta):
    """Replay the single full-refresh leapfrog step to get rho_2."""
    mu = params["q.mu"]
    sigma = softplus(params["q.raw_scale"])
    z1 = mu + sigma * noise.z_eps
    m = np.asarray(target.meta["mean"])
    v = np.asarray(target.meta["cov_diag"])

    def grad(z):
        return 0.5 * ((mu - z) / sigma ** 2) + 0.5 * ((m - z) / v)

    rho_p = noise.step_eps[0]
    rho_half = rho_p + 0.5 * delta * grad(z1)
    z2 = z1 + delta * rho_half
    return rho_half + 0.5 * delta * grad(z2)


def head_terms(params, target, noise):
    """-log q(z_1, rho_1) plus the single transition's kernel log ratio."""
    mu = params["q.mu"]
    sigma = softplus(params["q.raw_scale"])
    z1 = mu + sigma * noise.z_eps
    rho1 = noise.rho_eps
    head = -(norm.logpdf(z1, mu, sigma).sum()
             + norm.logpdf(rho1).sum())
    rho_p = noise.step_eps[0]
    return head + norm.logpdf(rho1).sum() - norm.logpdf(rho_p).sum()


# ------------------------------------------------- brute-force density oracle

def scipy_replay(config, params, target, K, noise, score_value):
    """Recompute the bound from scratch: numpy chain + scipy densities.

    score_value(k, z, rho) supplies the score-network values; all Gaussian
    log-densities come from scipy.stats.norm.
    """
    mu = params["q.mu"]
    sigma = softplus(params["q.raw_scale"])
    m = np.asarray(target.meta["mean"])
    v = np.asarray(target.meta["cov_diag"])
    w = softplus(params["schedule.weights"])
    betas = np.cumsum(w) / np.sum(w)
    delta = float(softplus(params["raw_delta"]))
    gamma = (float(softplus(params["raw_gamma"]))
             if config.forward == "em" else None)
    if config.forward == "full":
        eta = 0.0
    elif config.forward == "ou":
        eta = float(expit(params["raw_eta"]))
    else:
        eta = None
    mcd = config.backward == "mcd"

    def q_logpdf(z):
        return norm.logpdf(z, mu, sigma).sum()

    def bridge_grad(z, k):
        if k <= 0:
            return (mu - z) / sigma ** 2
        if k >= K:
            return (m - z) / v
        b = betas[k - 1]
        return (1 - b) * (mu - z) / sigma ** 2 + b * (m - z) / v

    def aug_logpdf(k, z, rho):
        mean = 2.0 * score_value(k, z, rho) if mcd else 0.0
        return norm.logpdf(rho, mean, 1.0).sum()

    z = mu + sigma * noise.z_eps
    rho = noise.rho_eps
    if mcd:
        rho = 2.0 * score_value(1, z, noise.rho_eps) + noise.rho_eps
    L = -(q_logpdf(z) + aug_logpdf(1, z, rho))

    for k in range(1, K):
        eps = noise.step_eps[k - 1]
        if config.scheme == "leapfrog":
            if config.forward == "em":
                shrink, var = 1 - gamma * delta, 2 * gamma * delta
            else:
                shrink, var = eta, 1 - eta ** 2
            f_mean, f_sd = shrink * rho, np.sqrt(var)
            rho_p = f_mean + f_sd * eps
            log_f = norm.logpdf(rho_p, f_mean, f_sd).sum()
            if mcd:
                b_mean, b_sd = 2.0 * score_value(k, z, rho_p), 1.0
            else:
                b_mean, b_sd = shrink * rho_p, f_sd
                if config.backward == "score":
                    b_mean = b_mean + var * score_value(k, z, rho_p)
            log_b = norm.logpdf(rho, b_mean, b_sd).sum()
            rho_half = rho_p + 0.5 * delta * bridge_grad(z, k)
            z = z + delta * rho_half
            rho = rho_half + 0.5 * delta * bridge_grad(z, k)
        else:  # joint Euler-Maruyama
            g = bridge_grad(z, k)
            sd = np.sqrt(2 * gamma * delta)
            f_mean = (1 - gamma * delta) * rho + delta * g
            rho_new = f_mean + sd * eps
            z_new = z + delta * rho_new
            log_f = norm.logpdf(rho_new, f_mean, sd).sum()
            b_mean = (1 - gamma * delta) * rho_new - delta * g
            if config.backward == "score":
                b_mean = b_mean + 2 * gamma * delta * score_value(k, z,
                                                                  rho_new)
            log_b = norm.logpdf(rho, b_mean, sd).sum()
            z, rho = z_new, rho_new
        L += log_b - log_f

    return L + toy_logp(target, z) + aug_logpdf(K, z, rho)


def make_score_value(config, params, dim, K):
    if not config.uses_score:
        return lambda k, z, rho: np.zeros(dim)
    net = ScoreNet(dim, hidden=config.score_hidden,
                   position_only=config.backward == "mcd")

    def score_value(k, z, rho):
        t = Tape()
        lifted = {key: t.lift(value) for key, value in params.items()}
        return net.apply(t, lifted, k, K, t.lift(np.asarray(z)),
                         t.lift(np.asarray(rho))).value

    return score_value


class TestBruteForceOracle:
    """The accumulated bound equals the density composition
    log pbar + sum log m_B - log q - sum log m_F, recomputed with scipy."""

    @pytest.mark.parametrize("name", ["ula", "mcd", "uha", "ldvi", "uha_em",
                                      "ldvi_em"])
    @pytest.mark.parametrize("dim,K", [(1, 2), (1, 3), (2, 3)])
    def test_matches_scipy_composition(self, name, dim, K):
        rng = np.random.default_rng(dim * 100 + K * 10 + len(name))
        cfg = dataclasses.replace(get_method(name), score_hidden=6)
        target = gaussian_toy_target(dim, mean=rng.normal(size=dim),
                                     cov_diag=rng.uniform(0.5, 2.0, size=dim))
        params = random_params(cfg, dim, K, rng, score_scale=0.2)
        seed = int(rng.integers(1000))
        est = run_estimate(cfg, params, target, K, chain_rng(seed), 1)
        ref = scipy_replay(cfg, params, target, K,
                           Noise.draw(seed, 1, dim, K).chain(0),
                           make_score_value(cfg, params, dim, K))
        assert abs(float(est.value.value[0]) - ref) < 1e-8


def sonar_head(rows=20):
    """Logistic regression on the first `rows` rows of the sonar data."""
    data = load_binary_classification_csv(default_data_dir() / "sonar.csv",
                                          "M")
    return logistic_regression_target(
        Dataset(data.features[:rows], data.labels[:rows]), "sonar-head")


FD_TARGETS = {
    "toy": lambda: gaussian_toy_target(2, mean=0.4, cov_diag=0.8),
    "brownian": brownian_motion_target,
    "sonar20": sonar_head,
    "seeds": lambda: get_target("seeds"),
}

# parameter key -> group; every other key belongs to the score net
GROUP_OF = {"q.mu": "q", "q.raw_scale": "q", "schedule.weights": "beta",
            "raw_delta": "delta", "raw_gamma": "gamma", "raw_eta": "eta"}


class TestGradients:
    def test_gradients_reach_exactly_the_trainable_groups(self):
        target = gaussian_toy_target(2, mean=0.5, cov_diag=1.3)
        for name in ("ula", "mcd", "uha", "ldvi", "uha_em", "ldvi_em"):
            cfg = dataclasses.replace(get_method(name), score_hidden=4)
            rng = np.random.default_rng(sum(map(ord, name)))
            params = random_params(cfg, 2, 3, rng, score_scale=0.2)
            t = Tape()
            model = lift_model(t, cfg, params, 2, 3)
            est = estimate_elbo(model, target, chain_rng(2), 4)
            grads = t.backward(t.mean_all(est.value))
            for key in params:
                group = GROUP_OF.get(key, "score")
                if group in cfg.trainable:
                    assert key in grads, (name, key)
                    assert np.any(grads[key] != 0.0), (name, key)
                else:
                    assert key not in grads, (name, key)

    @pytest.mark.parametrize("target_name", list(FD_TARGETS))
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_finite_differences_full_method(self, name, target_name):
        """Pathwise gradient of the mean bound vs central differences, through
        the fused VJPs of the target's score and likelihood and of every
        momentum density."""
        cfg = dataclasses.replace(CONFIGS[name], score_hidden=4)
        target = FD_TARGETS[target_name]()
        dim, K = target.dim, 3
        rng = np.random.default_rng(31)
        params = random_params(cfg, dim, K, rng, score_scale=0.2)

        def value_at(ps):
            t = Tape()
            model = lift_model(t, cfg, ps, dim, K)
            return float(np.mean(estimate_elbo(model, target, chain_rng(4),
                                               3).value.value))

        t = Tape()
        model = lift_model(t, cfg, params, dim, K)
        grads = t.backward(t.mean_all(estimate_elbo(model, target,
                                                    chain_rng(4), 3).value))
        h = 1e-6
        rng2 = np.random.default_rng(32)
        for key, val in params.items():
            flat_idx = [tuple(int(i) for i in idx)
                        for idx in np.ndindex(val.shape)]
            if len(flat_idx) > 4:
                flat_idx = [flat_idx[i] for i in
                            rng2.choice(len(flat_idx), 4, replace=False)]
            for idx in flat_idx:
                pp = {k: v.copy() for k, v in params.items()}
                pm = {k: v.copy() for k, v in params.items()}
                pp[key][idx] += h
                pm[key][idx] -= h
                fd = (value_at(pp) - value_at(pm)) / (2 * h)
                got = grads[key][idx] if val.ndim else float(grads[key])
                assert got == pytest.approx(fd, rel=5e-4, abs=1e-7), (key, idx)

    @pytest.mark.parametrize("name", list(METHODS))
    def test_tape_params_follow_the_dict(self, name):
        """Every entry is lifted once, under its key, in the dict's order,
        which fixes the order of the gradient dict and of the sums over it
        (the global gradient norm)."""
        cfg = dataclasses.replace(get_method(name), score_hidden=4)
        params = init_params(cfg, 2, 3)
        for order in (list(params), list(reversed(params))):
            t = Tape()
            lift_model(t, cfg, {k: params[k] for k in order}, 2, 3)
            assert [p.name for p in t.params] == order

    def test_every_accepted_config_runs(self):
        """Each accepted (scheme, forward, backward) gives a finite bound and
        a non-zero gradient for every parameter of every group it has."""
        target = gaussian_toy_target(2, mean=0.5, cov_diag=1.3)
        accepted = []
        for scheme, forward, backward in itertools.product(
                ("plain", "leapfrog", "em"), ("none", "full", "ou", "em"),
                ("none", "exact", "score", "mcd")):
            try:
                accepted.append(MethodConfig("x", scheme, forward, backward,
                                             score_hidden=4))
            except ValueError:
                pass
        assert len(accepted) == 10
        for i, cfg in enumerate(accepted):
            rng = np.random.default_rng(60 + i)
            params = random_params(cfg, 2, 3, rng, score_scale=0.2)
            t = Tape()
            est = estimate_elbo(lift_model(t, cfg, params, 2, 3), target,
                                chain_rng(i), 4)
            assert np.all(np.isfinite(est.value.value)), cfg
            grads = t.backward(t.mean_all(est.value))
            assert grads.keys() == params.keys(), cfg
            assert {GROUP_OF.get(k, "score") for k in params} == cfg.trainable
            for key, g in grads.items():
                assert np.all(np.isfinite(g)) and np.any(g != 0.0), (cfg, key)


class TestErrors:
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_names_the_step(self):
        # the score overflows to inf on the second half-kick of the leapfrog
        bad = TargetModel(
            name="bad", dim=1,
            logp=lambda t, z: t.sum(z),
            score=lambda t, z: t.mul(1e200, z))
        cfg = get_method("ula")
        params = init_params(cfg, 1, 3)
        t = Tape()
        model = lift_model(t, cfg, params, 1, 3)
        with pytest.raises(EstimatorError, match="k=1"):
            estimate_elbo(model, bad, chain_rng(0), 1)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_names_the_quantity(self):
        # finite chain, but the terminal log-density overflows to inf
        bad = TargetModel(
            name="bad", dim=1,
            logp=lambda t, z: t.exp(t.add(t.mul(0.0, t.sum(z)), 1000.0)),
            score=lambda t, z: t.neg(z))
        cfg = get_method("ula")
        params = init_params(cfg, 1, 3)
        model = lift_model(Tape(), cfg, params, 1, 3)
        with pytest.raises(EstimatorError,
                           match="non-finite terminal density at transition k=3"):
            estimate_elbo(model, bad, chain_rng(0), 1)


class TestParamShapes:
    """lift_model rejects parameters shaped for another dimension or K."""

    @pytest.mark.parametrize("name", ["plainvi", "ula"])
    def test_wrong_dimension(self, name):
        cfg = get_method(name)
        params = init_params(cfg, 1, 8)
        with pytest.raises(ValueError, match=re.escape(
                "q.mu: expected shape (32,), got (1,)")):
            evaluate_elbo_mean(cfg, params, get_target("brownian"), 8, 64, 0,
                               batch=32)

    @pytest.mark.parametrize("K", [4, 12])
    def test_wrong_num_steps(self, K):
        cfg = get_method("ula")
        params = init_params(cfg, 32, 8)
        with pytest.raises(ValueError, match=re.escape(
                f"schedule.weights: expected shape ({K},), got (8,)")):
            evaluate_elbo_mean(cfg, params, get_target("brownian"), K, 64, 0,
                               batch=32)
        with pytest.raises(ValueError, match="schedule.weights"):
            lift_model(Tape(), cfg, params, 32, K)


class TestBatching:
    def test_batched_matches_per_chain(self):
        rng = np.random.default_rng(40)
        target = gaussian_toy_target(2, mean=0.2, cov_diag=1.1)
        for name in ("ula", "uha", "ldvi", "ldvi_em", "mcd"):
            cfg = dataclasses.replace(get_method(name), score_hidden=4)
            params = random_params(cfg, 2, 3, rng, score_scale=0.2)
            noise = Noise.draw(6, 5, 2, 3)
            batched = run_estimate(cfg, params, target, 3, chain_rng(6), 5)
            assert batched.value.value.shape == (5,)
            for i in range(5):
                single = run_estimate(cfg, params, target, 3,
                                      ReplayRng(noise.chain(i).draws), 1)
                assert float(single.value.value[0]) == pytest.approx(
                    batched.value.value[i], rel=1e-12), name


class TestEvaluationMemory:
    def test_peak_flat_in_num_steps(self):
        """Each transition draws its noise as the chain reaches it, so one
        256-chain evaluation at K=256 peaks within 2x of K=8 (the draws
        pre-drawn as one (K-1, 256, D) array made that about 12x)."""
        target, cfg = brownian_motion_target(), get_method("uha_em")
        peaks = {}
        gc.collect()
        gc.disable()
        try:
            for K in (8, 8, 256):  # the first run warms one-time caches
                params = init_params(cfg, target.dim, K)
                tracemalloc.start()
                try:
                    evaluate_elbo_mean(cfg, params, target, K, 256, seed=0)
                    peaks[K] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        finally:
            gc.enable()
        assert peaks[256] <= 2 * peaks[8], peaks


class TestPlainViElbo:
    def test_definition(self):
        target = gaussian_toy_target(3, mean=0.6, cov_diag=1.4)
        rng = np.random.default_rng(50)
        params = random_params(get_method("plainvi"), 3, 1, rng)
        got = run_estimate(get_method("plainvi"), params, target, 1,
                           chain_rng(50), 1).value
        eps = Noise.draw(50, 1, 3, 1).chain(0).z_eps
        mu = params["q.mu"]
        sigma = softplus(params["q.raw_scale"])
        z = mu + sigma * eps
        want = toy_logp(target, z) - norm.logpdf(z, mu, sigma).sum()
        assert float(got.value[0]) == pytest.approx(want, rel=1e-12)


def counting_target(target):
    """The target with a score that records every call."""
    calls = []

    def score(t, z):
        calls.append(z)
        return target.score(t, z)

    return dataclasses.replace(target, score=score), calls


def leaves(model):
    """The model's lifted parameter nodes, by name."""
    return {p.name: p for p in model.tape.params}


def reference_score(model):
    """s(k, z, rho) rebuilt afresh on every call from the model's lifted
    parameter nodes, or None for a method without a score net."""
    net = model.config.score_net(model.q.mu.shape[-1])
    if net is None:
        return None
    return lambda k, z, rho: net.apply(model.tape, leaves(model), k,
                                       model.num_steps, z, rho)


def reference_aug_mean(model, k, z):
    """Mean of the endpoint momentum augmentation: 2 s(k, z) for MCD,
    zero for every other method."""
    if model.config.backward != "mcd":
        return 0.0
    return model.tape.mul(2.0, reference_score(model)(k, z, None))


def reference_aug_logpdf(model, k, z, rho):
    return model.tape.gaussian_logpdf(rho, reference_aug_mean(model, k, z),
                                      1.0)


def reference_head(model, noise):
    """(z_1, rho_1, -log q(z_1) - log of the augmentation at rho_1), the
    augmentation N(mean, I) scored from the noise of its draw
    rho_1 = mean + eps."""
    t = model.tape
    z = model.q.sample(noise.z_eps)
    rho = t.lift(noise.rho_eps)
    if model.config.backward == "mcd":
        rho = t.add(reference_aug_mean(model, 1, z), rho)
    return z, rho, t.neg(t.add(model.q.log_pdf(z),
                               noise_logpdf(t, noise.rho_eps, 1.0)))


def per_call_reference(model, target, noise):
    """The bound with every bridge score computed afresh by bridge_score.

    Built from tape primitives: each transition draws rho' from two
    products and an add, scores the refresh from its noise with
    `noise_logpdf`, and an Euler-Maruyama chain is the per-transition
    reference below. Step size and friction are the model's nodes, and the
    momentum retention and the score are rebuilt from its lifted parameters.
    """
    t, c, K = model.tape, model.config, model.num_steps
    if c.scheme == "em":
        return per_transition_em_reference(model, target, noise)
    delta, score_fn = model.delta, reference_score(model)

    def grad_at(k):
        return lambda zz: bridge_score(t, zz, k, K, model.q, target,
                                       model.schedule)

    z, rho, L = reference_head(model, noise)
    if c.forward != "em":
        shrink = (t.lift(0.0) if c.forward == "full"
                  else t.sigmoid(leaves(model)["raw_eta"]))
        var = t.sub(1.0, t.square(shrink))
    else:
        gd = t.mul(model.gamma, delta)
        shrink, var = t.sub(1.0, gd), t.mul(2.0, gd)
    for k in range(1, K):
        grad = grad_at(k)
        eps = noise.step_eps[k - 1]
        rho_p = t.add(t.mul(shrink, rho), t.mul(t.sqrt(var), t.lift(eps)))
        half = t.mul(0.5, delta)
        rho_half = t.add(rho_p, t.mul(half, grad(z)))
        z_new = t.add(z, t.mul(delta, rho_half))
        rho_new = t.add(rho_half, t.mul(half, grad(z_new)))
        if c.backward == "mcd":
            bwd = t.gaussian_logpdf(rho, t.mul(2.0, score_fn(k, z, rho_p)), 1.0)
        else:
            bwd_mean = t.mul(shrink, rho_p)
            if score_fn is not None:
                bwd_mean = t.add(bwd_mean, t.mul(var, score_fn(k, z, rho_p)))
            bwd = t.gaussian_logpdf(rho, bwd_mean, var)
        L = t.add(L, t.sub(bwd, noise_logpdf(t, eps, var)))
        z, rho = z_new, rho_new
    return t.add(L, t.add(target.logp(t, z),
                          reference_aug_logpdf(model, K, z, rho)))


class TestScoreReuse:
    """Each chain position is scored once and mixed per transition."""

    @pytest.mark.parametrize("K", [2, 5, 8])
    @pytest.mark.parametrize("name,per_chain", [
        ("ula", 0), ("uha", 0), ("mcd", 0), ("ldvi", 0),
        ("uha_em", -1), ("ldvi_em", -1)])
    def test_one_target_score_per_position(self, name, per_chain, K):
        target, calls = counting_target(gaussian_toy_target(3, mean=0.2))
        cfg = dataclasses.replace(get_method(name), score_hidden=4)
        params = init_params(cfg, 3, K)
        run_estimate(cfg, params, target, K, chain_rng(0), 4)
        assert len(calls) == K + per_chain
        assert len({z.index for z in calls}) == len(calls)

    @pytest.mark.parametrize("name,per_chain", [
        ("ula", 0), ("uha", 0), ("mcd", 0), ("ldvi", 0),
        ("uha_em", -1), ("ldvi_em", -1)])
    def test_one_q_score_per_position(self, name, per_chain, monkeypatch):
        """A leapfrog position starts one transition and ends another, and
        each bridge node there reuses the q score array of the first."""
        calls = []
        score_array = MeanFieldGaussian.score_array

        def counting(self, z):
            calls.append(z.index)
            return score_array(self, z)

        monkeypatch.setattr(MeanFieldGaussian, "score_array", counting)
        K = 5
        cfg = dataclasses.replace(get_method(name), score_hidden=4)
        run_estimate(cfg, init_params(cfg, 3, K), gaussian_toy_target(3), K,
                     chain_rng(0), 4)
        assert len(calls) == K + per_chain
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("name,calls_per_chain", [
        ("mcd", 0), ("ldvi", -1), ("ldvi_em", -1)])
    def test_score_net_calls(self, name, calls_per_chain, monkeypatch):
        """MCD's position-only score is built once per (k, z): at the K
        positions of the chain. The other score nets run once per reverse
        kernel."""
        calls = []
        apply = ScoreNet.apply

        def counting_apply(self, tape, lifted, k, num_steps, z, rho):
            calls.append((k, z.index))
            return apply(self, tape, lifted, k, num_steps, z, rho)

        monkeypatch.setattr(ScoreNet, "apply", counting_apply)
        K = 8
        cfg = dataclasses.replace(get_method(name), score_hidden=4)
        run_estimate(cfg, init_params(cfg, 3, K), gaussian_toy_target(3), K,
                     chain_rng(0), 2)
        assert len(calls) == K + calls_per_chain
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("name", ["ula", "mcd", "uha", "ldvi", "uha_em",
                                      "ldvi_em"])
    def test_matches_per_call_bridge_scores(self, name):
        rng = np.random.default_rng(sum(map(ord, name)))
        dim, K = 3, 5
        cfg = dataclasses.replace(get_method(name), score_hidden=6)
        target = gaussian_toy_target(dim, mean=rng.normal(size=dim),
                                     cov_diag=rng.uniform(0.5, 2.0, size=dim))
        params = random_params(cfg, dim, K, rng, score_scale=0.2)
        seed = int(rng.integers(1000))

        t = Tape()
        est = estimate_elbo(lift_model(t, cfg, params, dim, K), target,
                            chain_rng(seed), 4)
        grads = t.backward(t.mean_all(est.value))
        r = Tape()
        ref = per_call_reference(lift_model(r, cfg, params, dim, K), target,
                                 Noise.draw(seed, 4, dim, K))
        ref_grads = r.backward(r.mean_all(ref))

        np.testing.assert_array_equal(est.value.value, ref.value)
        assert grads.keys() == ref_grads.keys()
        for key, want in ref_grads.items():
            np.testing.assert_allclose(grads[key], want, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(want)),
                                       err_msg=key)


    @staticmethod
    def _tracking(fn, alive):
        """Wrap fn so that each call, as it returns, appends to `alive` how
        many of the earlier calls' output arrays are still alive."""
        refs = []

        def tracked(*args):
            out = fn(*args)
            alive.append(sum(r() is not None for r in refs))
            refs.append(weakref.ref(out.value))
            return out

        return tracked

    @pytest.mark.parametrize("name,per_chain", [("uha", 0), ("uha_em", -1)])
    def test_evaluation_keeps_one_target_score(self, name, per_chain):
        """Only the last position's score pair outlives its transition, so
        an evaluation chain's memory does not grow with K."""
        target, K = brownian_motion_target(), 16
        alive = []
        target = dataclasses.replace(
            target, score=self._tracking(target.score, alive))
        cfg = get_method(name)
        model = lift_model(Tape(), cfg, init_params(cfg, target.dim, K),
                           target.dim, K, trainable=False)
        estimate_elbo(model, target, chain_rng(0), 8)
        assert len(alive) == K + per_chain
        assert max(alive) <= 1

    def test_evaluation_keeps_one_mcd_score_net_output(self, monkeypatch):
        alive = []
        monkeypatch.setattr(ScoreNet, "apply",
                            self._tracking(ScoreNet.apply, alive))
        target, K = brownian_motion_target(), 16
        cfg = dataclasses.replace(get_method("mcd"), score_hidden=8)
        model = lift_model(Tape(), cfg, init_params(cfg, target.dim, K),
                           target.dim, K, trainable=False)
        estimate_elbo(model, target, chain_rng(0), 8)
        assert len(alive) == K
        assert max(alive) <= 1


# len(tape.nodes) of one K=8 sonar estimate on a training tape
SONAR_NODE_CEILINGS = {"plainvi": 10, "ula": 71, "mcd": 162, "uha": 83,
                       "ldvi": 162, "uha_em": 61, "ldvi_em": 139}
# the nodes one more transition adds to it. A leapfrog transition scores its
# new position and mixes two bridge scores; an Euler-Maruyama transition
# mixes one, the drift included. Each mix is one `bridge_score` node.
SONAR_NODES_PER_TRANSITION = {"plainvi": 0, "ula": 7, "mcd": 17, "uha": 8,
                              "ldvi": 18, "uha_em": 5, "ldvi_em": 15}


def sonar_nodes(name, K):
    target = get_target("sonar")
    cfg = get_method(name)
    t = Tape()
    model = lift_model(t, cfg, init_params(cfg, target.dim, K),
                       target.dim, K)
    estimate_elbo(model, target, chain_rng(0), 2)
    return len(t.nodes)


class TestTapeSize:
    """What one estimate records: a ceiling on its nodes per method, the
    exact count per transition, and no multiplication by a constant 0 or 1
    in the full refresh."""

    @pytest.mark.parametrize("name", method_names())
    def test_sonar_node_ceiling(self, name):
        assert sonar_nodes(name, 8) <= SONAR_NODE_CEILINGS[name]

    @pytest.mark.parametrize("name", method_names())
    def test_sonar_nodes_per_transition(self, name):
        """Pinned exactly, so that a change to what a transition records
        fails here, not only in `perfbench/run.py --sweep`."""
        at_8, at_9 = sonar_nodes(name, 8), sonar_nodes(name, 9)
        assert at_8 == SONAR_NODE_CEILINGS[name]
        assert at_9 - at_8 == SONAR_NODES_PER_TRANSITION[name]

    @pytest.mark.parametrize("name", ["ula", "mcd"])
    def test_full_refresh_multiplies_by_no_constant_zero_or_one(
            self, name, monkeypatch):
        operands = []
        for op in ("mul", "muladd"):
            def spy(self, *args, _op=getattr(Tape, op)):
                operands.extend(args)
                return _op(self, *args)
            monkeypatch.setattr(Tape, op, spy)
        K = 8
        cfg = dataclasses.replace(get_method(name), score_hidden=4)
        run_estimate(cfg, init_params(cfg, 3, K), gaussian_toy_target(3), K,
                     chain_rng(0), 4)
        assert operands
        for a in operands:
            if isinstance(a, Var) and a.needs_grad:
                continue
            value = a.value if isinstance(a, Var) else np.asarray(a)
            assert not (np.ndim(value) == 0 and float(value) in (0.0, 1.0))

    def test_full_refresh_draws_the_noise_itself(self):
        K = 4
        cfg = get_method("ula")
        t = Tape()
        model = lift_model(t, cfg, init_params(cfg, 3, K), 3, K)
        eps = np.random.default_rng(2).normal(size=(4, 3))
        rho = t.lift(np.ones((4, 3)), trainable=True, name="rho")
        before = len(t.nodes)
        np.testing.assert_array_equal(model.kernel.refresh(rho, eps).value,
                                      eps)
        assert len(t.nodes) == before


def per_transition_em_reference(model, target, noise):
    """The EM bound with every transition rebuilding its kernel constants.

    Each transition recomputes the shrink 1 - gamma delta, the variance
    2 gamma delta and sqrt(var), and the ratio recomputes the variance and
    scores the refresh from its noise.
    """
    t, K = model.tape, model.num_steps
    delta, gamma = model.delta, model.gamma
    score_fn = reference_score(model)

    def constants():
        return (t.sub(1.0, t.mul(gamma, delta)),
                t.mul(2.0, t.mul(gamma, delta)))

    z, rho, L = reference_head(model, noise)
    for k in range(1, K):
        grad = bridge_score(t, z, k, K, model.q, target, model.schedule)
        eps = noise.step_eps[k - 1]
        shrink, var = constants()
        mean = t.add(t.mul(shrink, rho), t.mul(delta, grad))
        rho_new = t.add(mean, t.mul(t.sqrt(var), t.lift(eps)))
        z_new = t.add(z, t.mul(delta, rho_new))
        shrink, var = constants()
        fwd = noise_logpdf(t, eps, var)
        bwd_mean = t.sub(t.mul(shrink, rho_new), t.mul(delta, grad))
        if score_fn is not None:
            bwd_mean = t.add(bwd_mean, t.mul(var, score_fn(k, z, rho_new)))
        L = t.add(L, t.sub(t.gaussian_logpdf(rho, bwd_mean, var), fwd))
        z, rho = z_new, rho_new
    return t.add(L, t.add(target.logp(t, z),
                          reference_aug_logpdf(model, K, z, rho)))


class TestEMChain:
    """One EM kernel per chain, shared by every Euler-Maruyama transition."""

    @pytest.mark.parametrize("target_name", ["toy", "brownian"])
    @pytest.mark.parametrize("name", ["uha_em", "ldvi_em"])
    def test_matches_per_transition_reference(self, name, target_name):
        rng = np.random.default_rng(sum(map(ord, name + target_name)))
        target = (brownian_motion_target() if target_name == "brownian"
                  else gaussian_toy_target(3, mean=0.4, cov_diag=1.3))
        dim, K = target.dim, 5
        cfg = dataclasses.replace(get_method(name), score_hidden=6)
        params = random_params(cfg, dim, K, rng, score_scale=0.2)
        seed = int(rng.integers(1000))

        t = Tape()
        est = estimate_elbo(lift_model(t, cfg, params, dim, K), target,
                            chain_rng(seed), 3)
        grads = t.backward(t.mean_all(est.value))
        r = Tape()
        ref = per_transition_em_reference(
            lift_model(r, cfg, params, dim, K), target,
            Noise.draw(seed, 3, dim, K))
        ref_grads = r.backward(r.mean_all(ref))

        np.testing.assert_array_equal(est.value.value, ref.value)
        assert grads.keys() == ref_grads.keys()
        for key, want in ref_grads.items():
            np.testing.assert_allclose(grads[key], want, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(want)),
                                       err_msg=key)

    @pytest.mark.parametrize("K", [2, 8])
    @pytest.mark.parametrize("name", ["uha_em", "ldvi_em"])
    def test_one_forward_em_per_chain(self, name, K, monkeypatch):
        built = []
        build = MomentumKernel.euler_maruyama

        def counting_euler_maruyama(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(MomentumKernel, "euler_maruyama",
                            counting_euler_maruyama)
        cfg = dataclasses.replace(get_method(name), score_hidden=4)
        target = gaussian_toy_target(3, mean=0.2)
        run_estimate(cfg, init_params(cfg, 3, K), target, K, chain_rng(0), 2)
        assert len(built) == 1

    @pytest.mark.parametrize("raw", ["raw_gamma", "raw_delta"])
    @pytest.mark.parametrize("name", ["uha_em", "ldvi_em"])
    def test_zero_gamma_delta_rejected(self, name, raw):
        cfg = get_method(name)
        params = init_params(cfg, 2, 3)
        params[raw] = np.asarray(-800.0)  # softplus underflows to 0.0
        with pytest.raises(DomainError, match="gamma \\* delta"):
            run_estimate(cfg, params, gaussian_toy_target(2), 3,
                         chain_rng(0), 1)


class TestErrorContext:
    # the chain's own operations warn on the way; the check itself never does
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("name,factors,quantity", [
        ("ula", (1e200,), "momentum"),
        ("uha_em", (1e200,), "log ratio"),
        # the first half-kick overflows: position and momentum both turn
        # non-finite, and the position is named
        ("ula", (1e300, 1e300), "position")])
    def test_names_the_first_non_finite_quantity(self, name, factors,
                                                 quantity):
        def score(t, z):
            for f in factors:
                z = t.mul(f, z)
            return z

        bad = TargetModel(name="bad", dim=1, logp=lambda t, z: t.sum(z),
                          score=score)
        cfg = get_method(name)
        model = lift_model(Tape(), cfg, init_params(cfg, 1, 3), 1, 3)
        with pytest.raises(EstimatorError,
                           match=f"^non-finite {quantity} at transition k=1,"):
            estimate_elbo(model, bad, chain_rng(0), 1)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("name", ["ula", "uha_em"])
    def test_names_delta_and_gamma(self, name):
        bad = TargetModel(
            name="bad", dim=1,
            logp=lambda t, z: t.sum(z),
            score=lambda t, z: t.mul(1e200, z))
        cfg = get_method(name)
        params = init_params(cfg, 1, 3, delta=0.07, gamma=1.5)
        model = lift_model(Tape(), cfg, params, 1, 3)
        with pytest.raises(EstimatorError) as info:
            estimate_elbo(model, bad, chain_rng(0), 1)
        message = str(info.value)
        delta = float(model.delta.value)
        assert message.endswith(
            f"at transition k=1, delta={delta!r}"
            if name == "ula" else
            f"at transition k=1, delta={delta!r}, "
            f"gamma={float(model.gamma.value)!r}")
        assert ("gamma=" in message) == (name == "uha_em")
