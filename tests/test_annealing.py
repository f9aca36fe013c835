"""Unit tests for the variational base distribution and annealing bridge."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from ldvi.annealing import (AnnealingSchedule, MeanFieldGaussian,
                            inverse_softplus)
from ldvi.tape import Tape
from ldvi.targets import gaussian_toy_target


def make_q(t, dim, mu=None, sigma=None, trainable=True):
    params = MeanFieldGaussian.init_params(dim, mu=0.0 if mu is None else mu,
                                           sigma=1.0 if sigma is None else sigma)
    mu, raw = (t.lift(params[k], trainable=trainable, name=k)
               for k in ("q.mu", "q.raw_scale"))
    return MeanFieldGaussian(t, mu, raw)


def make_schedule(t, weights):
    return AnnealingSchedule(t, t.lift(weights, trainable=True,
                                       name="schedule.weights"))


def bridge_logdensity(t, z, k, K, q, target, schedule):
    """log pi_k(z): exactly log q at k=0 and exactly log p at k=K."""
    if k <= 0:
        return q.log_pdf(z)
    if k >= K:
        return target.logp(t, z)
    b = schedule.beta(k)
    return t.add(t.mul(t.sub(1.0, b), q.log_pdf(z)),
                 t.mul(b, target.logp(t, z)))


def bridge_score(t, z, k, K, q, target, schedule):
    """Score of pi_k from q's and the target's scores, as the estimator
    mixes it."""
    if k <= 0:
        return q.score(z)
    if k >= K:
        return target.score(t, z)
    b = schedule.beta(k)
    return t.add(t.mul(t.sub(1.0, b), q.score(z)),
                 t.mul(b, target.score(t, z)))


class TestMeanFieldGaussian:
    def test_log_pdf_matches_scipy(self):
        rng = np.random.default_rng(0)
        mu = rng.normal(size=4)
        sig = rng.uniform(0.5, 2.0, size=4)
        t = Tape()
        q = make_q(t, 4, mu=mu, sigma=sig)
        for _ in range(20):
            z = rng.normal(size=4)
            ref = multivariate_normal.logpdf(z, mu, np.diag(sig ** 2))
            assert q.log_pdf(t.lift(z)).value == pytest.approx(ref, rel=1e-12)

    def test_sample_is_reparameterized(self):
        t = Tape()
        q = make_q(t, 3, mu=[1.0, 2.0, 3.0], sigma=[0.5, 1.0, 2.0])
        eps = np.array([1.0, -1.0, 0.5])
        np.testing.assert_allclose(q.sample(eps).value,
                                   [1.5, 1.0, 4.0], rtol=1e-12)

    def test_inverse_softplus_roundtrip(self):
        y = np.array([0.1, 1.0, 3.0, 20.0])
        np.testing.assert_allclose(np.logaddexp(0.0, inverse_softplus(y)), y,
                                   rtol=1e-12)
        with pytest.raises(ValueError):
            inverse_softplus(0.0)

    def test_sample_gradients_flow_to_parameters(self):
        t = Tape()
        q = make_q(t, 2)
        z = q.sample(np.array([0.3, -0.7]))
        grads = t.backward(t.sum(z))
        np.testing.assert_allclose(grads["q.mu"], [1.0, 1.0])
        # d(mu + softplus(u) eps)/du = sigmoid(u) eps, with softplus(u) = 1
        sig_u = 1.0 - np.exp(-1.0)
        np.testing.assert_allclose(grads["q.raw_scale"],
                                   sig_u * np.array([0.3, -0.7]), rtol=1e-12)

    def test_score_matches_backward(self):
        rng = np.random.default_rng(1)
        mu = rng.normal(size=3)
        sig = rng.uniform(0.6, 1.6, size=3)
        z = rng.normal(size=3)
        t = Tape()
        q = make_q(t, 3, mu=mu, sigma=sig)
        vz = t.lift(z, trainable=True, name="z")
        grads = t.backward(q.log_pdf(vz))
        t2 = Tape()
        q2 = make_q(t2, 3, mu=mu, sigma=sig)
        np.testing.assert_allclose(q2.score(t2.lift(z)).value, grads["z"],
                                   rtol=1e-12)

    def test_batched(self):
        rng = np.random.default_rng(2)
        zs = rng.normal(size=(5, 3))
        t = Tape()
        q = make_q(t, 3, mu=0.5, sigma=1.2)
        lp = q.log_pdf(t.lift(zs)).value
        assert lp.shape == (5,)
        for i in range(5):
            ref = multivariate_normal.logpdf(zs[i], 0.5 * np.ones(3),
                                             1.44 * np.eye(3))
            assert lp[i] == pytest.approx(ref, rel=1e-12)

    def test_sample_and_log_pdf_are_one_node_each(self):
        t = Tape()
        q = make_q(t, 3)
        q.var    # sigma^2, shared with the score
        before = len(t.nodes)
        q.log_pdf(q.sample(np.ones((4, 3))))
        assert [node.vjp.__qualname__.split(".")[1]
                for node in t.nodes[before:]] == ["muladd", "gaussian_logpdf"]

    def test_shape_mismatch(self):
        t = Tape()
        with pytest.raises(ValueError):
            MeanFieldGaussian(t, t.lift(np.zeros(2)), t.lift(np.zeros(3)))


def schedule_values(sched):
    """(beta_0, ..., beta_K), with the implicit beta_0 = 0 prepended; each
    beta_k is a length-1 Var."""
    return np.array([0.0] + [sched.beta(k).value[0]
                             for k in range(1, sched.num_steps + 1)])


class TestAnnealingSchedule:
    def test_uniform_at_init(self):
        t = Tape()
        sched = make_schedule(t, AnnealingSchedule.init_params(8))
        np.testing.assert_allclose(schedule_values(sched),
                                   np.arange(0, 9) / 8.0, rtol=1e-12)

    def test_strictly_monotone_for_random_weights(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            w = rng.normal(scale=3.0, size=rng.integers(1, 12))
            t = Tape()
            sched = make_schedule(t, w)
            vals = schedule_values(sched)
            assert np.all(np.diff(vals) > 0)
            assert vals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_gradients_flow_to_weights(self):
        t = Tape()
        sched = make_schedule(t, np.array([0.0, 1.0, -1.0]))
        grads = t.backward(t.sum(sched.beta(1)))
        assert np.any(grads["schedule.weights"] != 0.0)

    def test_beta_range_checked(self):
        t = Tape()
        sched = make_schedule(t, np.zeros(4))
        for k in (5, 0, -1):
            with pytest.raises(ValueError, match="range 1..4"):
                sched.beta(k)

    def test_weights_must_be_vector(self):
        t = Tape()
        with pytest.raises(ValueError):
            AnnealingSchedule(t, t.lift(np.zeros((2, 2))))


class TestBridge:
    """The bridge density and score built from q, the target and the
    schedule, as the estimator builds them."""

    def setup_method(self):
        self.target = gaussian_toy_target(3, mean=2.0, cov_diag=0.5)
        self.rng = np.random.default_rng(4)

    def _build(self, K=4):
        t = Tape()
        q = make_q(t, 3, mu=-1.0, sigma=1.3)
        sched = make_schedule(t, AnnealingSchedule.init_params(K))
        return t, q, sched

    def test_interior_is_convex_combination(self):
        z = self.rng.normal(size=3)
        t, q, sched = self._build(K=4)
        vz = t.lift(z)
        for k in (1, 2, 3):
            b = k / 4.0
            got = bridge_logdensity(t, vz, k, 4, q, self.target, sched)
            want = ((1 - b) * q.log_pdf(vz).value
                    + b * self.target.logp(t, vz).value)
            assert got.value == pytest.approx(want, rel=1e-12)
            got_s = bridge_score(t, vz, k, 4, q, self.target, sched)
            want_s = ((1 - b) * q.score(vz).value
                      + b * self.target.score(t, vz).value)
            np.testing.assert_allclose(got_s.value, want_s, rtol=1e-12)

    def test_score_is_gradient_of_logdensity(self):
        z = self.rng.normal(size=3)
        for k in range(5):
            t, q, sched = self._build(K=4)
            vz = t.lift(z, trainable=True, name="z")
            # log pi_k is shaped (1,) in the interior, where beta_k is
            grads = t.backward(t.mean_all(bridge_logdensity(
                t, vz, k, 4, q, self.target, sched)))
            t2, q2, sched2 = self._build(K=4)
            s = bridge_score(t2, t2.lift(z), k, 4, q2, self.target, sched2)
            np.testing.assert_allclose(s.value, grads["z"], rtol=1e-10,
                                       atol=1e-12)

    def test_batched(self):
        zs = self.rng.normal(size=(6, 3))
        t, q, sched = self._build()
        lp = bridge_logdensity(t, t.lift(zs), 2, 4, q, self.target, sched)
        assert lp.value.shape == (6,)
        sc = bridge_score(t, t.lift(zs), 2, 4, q, self.target, sched)
        assert sc.value.shape == (6, 3)
