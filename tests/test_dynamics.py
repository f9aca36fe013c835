"""Unit tests for the leapfrog integrator and momentum kernels."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from ldvi.dynamics import (
    BackwardEM, BackwardExactNoScore, ExactOU, ForwardEM, MCDBackward,
    em_forward_transition, em_log_ratio_step, forward_transition, leapfrog,
    leapfrog_inverse, log_ratio_step,
)
from ldvi.tape import DomainError, Tape


def standard_grad(t):
    """Gradient of log N(z | 0, I)."""
    return lambda z: t.neg(z)


def iso_logpdf(x, mean, var):
    return norm.logpdf(x, mean, np.sqrt(var)).sum(axis=-1)


def em_ratio(t, z, rho, rho_n, k, delta, gamma, grad, score):
    """em_log_ratio_step with the drift and forward mean of the transition."""
    kernel = ForwardEM(t, gamma, delta)
    drift = t.mul(delta, grad)
    mean = t.add(t.mul(kernel.shrink, rho), drift)
    return em_log_ratio_step(t, z, rho, rho_n, k, kernel, drift, mean, score)


class TestLeapfrog:
    def test_single_step_hand_computed(self):
        # one step on log pi = -z^2/2: grad = -z, starting at (1, 0.5), delta 0.1
        t = Tape()
        z, rho = t.lift([1.0]), t.lift([0.5])
        zn, rn = leapfrog(t, z, rho, t.lift(0.1), standard_grad(t))
        assert zn.value[0] == pytest.approx(1.045, abs=1e-15)
        assert rn.value[0] == pytest.approx(0.39775, abs=1e-15)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.integers(1, 8)
            z0, r0 = rng.normal(size=d), rng.normal(size=d)
            t = Tape()
            grad = lambda z: t.mul(-1.3, z)
            delta = t.lift(0.4)
            zn, rn = leapfrog(t, t.lift(z0), t.lift(r0), delta, grad)
            zb, rb = leapfrog_inverse(t, zn, rn, delta, grad)
            assert np.max(np.abs(zb.value - z0)) < 1e-12
            assert np.max(np.abs(rb.value - r0)) < 1e-12

    def test_volume_preserving(self):
        # finite-difference Jacobian of the (z, rho) -> (z', rho') map has det 1
        def flow(v):
            t = Tape()
            z, rho = t.lift(v[:2]), t.lift(v[2:])
            grad = lambda zz: t.mul(-0.7, t.square(zz))
            zn, rn = leapfrog(t, z, rho, t.lift(0.3), grad)
            return np.concatenate([zn.value, rn.value])

        v0 = np.array([0.4, -1.1, 0.8, 0.2])
        h = 1e-6
        J = np.zeros((4, 4))
        for j in range(4):
            vp, vm = v0.copy(), v0.copy()
            vp[j] += h
            vm[j] -= h
            J[:, j] = (flow(vp) - flow(vm)) / (2 * h)
        assert abs(np.linalg.det(J) - 1.0) < 1e-8

    def test_batched(self):
        rng = np.random.default_rng(1)
        zs, rs = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        t = Tape()
        grad = standard_grad(t)
        delta = t.lift(0.2)
        zn, rn = leapfrog(t, t.lift(zs), t.lift(rs), delta, grad)
        for i in range(5):
            t2 = Tape()
            zi, ri = leapfrog(t2, t2.lift(zs[i]), t2.lift(rs[i]),
                              t2.lift(0.2), standard_grad(t2))
            np.testing.assert_allclose(zn.value[i], zi.value, rtol=1e-14)
            np.testing.assert_allclose(rn.value[i], ri.value, rtol=1e-14)

    def test_gradients_flow_through_delta(self):
        t = Tape()
        delta = t.lift(0.15, trainable=True, name="delta")
        zn, rn = leapfrog(t, t.lift([1.0]), t.lift([0.3]), delta,
                          standard_grad(t))
        grads = t.backward(t.sum(zn))
        # d z'/d delta = rho + delta * (-z) at first order terms: hand value
        # z' = z + delta (rho - delta/2 z) => d/d delta = rho - delta z
        assert grads["delta"] == pytest.approx(0.3 - 0.15 * 1.0, abs=1e-12)


class TestExactOU:
    def test_log_pdf_matches_scipy(self):
        rng = np.random.default_rng(2)
        t = Tape()
        ou = ExactOU(t, t.lift(0.6))
        for _ in range(10):
            rho = rng.normal(size=4)
            x = rng.normal(size=4)
            got = ou.log_pdf(t.lift(x), t.lift(rho)).value
            want = iso_logpdf(x, 0.6 * rho, 1 - 0.36)
            assert got == pytest.approx(want, rel=1e-12)

    def test_sample_formula(self):
        t = Tape()
        ou = ExactOU(t, t.lift(0.5))
        rho = t.lift([2.0, -2.0])
        eps = np.array([1.0, 0.0])
        got = ou.sample(rho, eps).value
        np.testing.assert_allclose(got, [1.0 + np.sqrt(0.75), -1.0], rtol=1e-14)

    def test_stationary_under_standard_normal(self):
        # eta rho + sqrt(1-eta^2) eps keeps N(0, I) invariant
        rng = np.random.default_rng(3)
        rho = rng.normal(size=100_000)
        t = Tape()
        ou = ExactOU(t, t.lift(0.8))
        out = ou.sample(t.lift(rho[:, None]), rng.normal(size=(100_000, 1))).value
        assert abs(out.mean()) < 0.02
        assert abs(out.std() - 1.0) < 0.02

    def test_detailed_balance_with_score_free_reversal(self):
        # N(rho) m_F(rho'|rho) = N(rho') m_B(rho|rho') for the OU pair
        rng = np.random.default_rng(4)
        t = Tape()
        eta = t.lift(0.35)
        fwd, bwd = ExactOU(t, eta), BackwardExactNoScore(t, eta)
        for _ in range(20):
            a, b = rng.normal(size=3), rng.normal(size=3)
            lhs = iso_logpdf(a, 0, 1) + fwd.log_pdf(t.lift(b), t.lift(a)).value
            rhs = iso_logpdf(b, 0, 1) + bwd.log_pdf(t.lift(a), t.lift(b)).value
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_eta_one_rejected(self):
        t = Tape()
        with pytest.raises(DomainError):
            ExactOU(t, t.lift(1.0))

    def test_eta_negative_rejected(self):
        t = Tape()
        with pytest.raises(DomainError):
            ExactOU(t, t.lift(-0.1))

    def test_eta_zero_is_full_refresh(self):
        t = Tape()
        ou = ExactOU(t, t.lift(0.0))
        eps = np.array([0.7, -0.2])
        np.testing.assert_allclose(ou.sample(t.lift([5.0, -5.0]), eps).value,
                                   eps, rtol=1e-14)

    def test_gradient_flows_to_eta(self):
        t = Tape()
        eta = t.lift(0.5, trainable=True, name="eta")
        ou = ExactOU(t, eta)
        lp = ou.log_pdf(t.lift([0.3]), t.lift([0.9]))
        assert t.backward(lp)["eta"] != 0.0


class TestEMKernels:
    def test_forward_log_pdf_matches_scipy(self):
        rng = np.random.default_rng(5)
        t = Tape()
        gamma, delta = t.lift(0.8), t.lift(0.1)
        fwd = ForwardEM(t, gamma, delta)
        gd = 0.08
        for _ in range(10):
            rho, x = rng.normal(size=3), rng.normal(size=3)
            want = iso_logpdf(x, rho * (1 - gd), 2 * gd)
            got = fwd.log_pdf(t.lift(x), t.lift(rho)).value
            assert got == pytest.approx(want, rel=1e-12)

    def test_forward_sample_formula(self):
        t = Tape()
        fwd = ForwardEM(t, t.lift(1.0), t.lift(0.125))
        got = fwd.sample(t.lift([2.0]), np.array([1.0])).value
        np.testing.assert_allclose(got, [2.0 * 0.875 + np.sqrt(0.25)], rtol=1e-14)

    def test_zero_friction_rejected(self):
        t = Tape()
        with pytest.raises(DomainError):
            ForwardEM(t, t.lift(0.0), t.lift(0.1))

    def test_backward_with_score(self):
        rng = np.random.default_rng(6)
        t = Tape()
        gamma, delta = t.lift(0.5), t.lift(0.2)
        score = lambda k, z, rho: t.mul(float(k), t.add(z, rho))
        bwd = BackwardEM(ForwardEM(t, gamma, delta), score)
        gd = 0.1
        z = rng.normal(size=2)
        rho_p, x = rng.normal(size=2), rng.normal(size=2)
        want = iso_logpdf(x, rho_p * (1 - gd) + 2 * gd * 3 * (z + rho_p), 2 * gd)
        got = bwd.log_pdf(t.lift(x), t.lift(rho_p), t.lift(z), 3).value
        assert got == pytest.approx(want, rel=1e-12)

    def test_mcd_backward(self):
        rng = np.random.default_rng(7)
        t = Tape()
        score = lambda k, z, rho: t.mul(0.5, z)  # position-only
        bwd = MCDBackward(t, score)
        z, x = rng.normal(size=3), rng.normal(size=3)
        want = iso_logpdf(x, z, 1.0)
        got = bwd.log_pdf(t.lift(x), t.lift(np.zeros(3)), t.lift(z), 1).value
        assert got == pytest.approx(want, rel=1e-12)


class TestTransitions:
    def test_forward_transition_composition(self):
        rng = np.random.default_rng(8)
        z0, r0 = rng.normal(size=3), rng.normal(size=3)
        eps = rng.normal(size=3)
        t = Tape()
        delta = t.lift(0.2)
        ou = ExactOU(t, t.lift(0.4))
        zn, rn, rp = forward_transition(t, t.lift(z0), t.lift(r0), delta, ou,
                                        standard_grad(t), eps)
        rp_ref = 0.4 * r0 + np.sqrt(1 - 0.16) * eps
        np.testing.assert_allclose(rp.value, rp_ref, rtol=1e-14)
        t2 = Tape()
        zr, rr = leapfrog(t2, t2.lift(z0), t2.lift(rp_ref), t2.lift(0.2),
                          standard_grad(t2))
        np.testing.assert_allclose(zn.value, zr.value, rtol=1e-14)
        np.testing.assert_allclose(rn.value, rr.value, rtol=1e-14)

    def test_log_ratio_step_is_kernel_difference(self):
        rng = np.random.default_rng(9)
        t = Tape()
        eta = t.lift(0.3)
        fwd, bwd = ExactOU(t, eta), BackwardExactNoScore(t, eta)
        rho, rho_p, z = (rng.normal(size=2) for _ in range(3))
        got = log_ratio_step(t, t.lift(rho), t.lift(rho_p), t.lift(z), 2,
                             fwd, bwd).value
        want = (bwd.log_pdf(t.lift(rho), t.lift(rho_p)).value
                - fwd.log_pdf(t.lift(rho_p), t.lift(rho)).value)
        assert got == pytest.approx(want, rel=1e-12)

    def test_em_transition_matches_numpy(self):
        rng = np.random.default_rng(10)
        z0, r0, eps = (rng.normal(size=3) for _ in range(3))
        t = Tape()
        delta, gamma = t.lift(0.1), t.lift(0.5)
        grad = t.mul(-1.0, t.lift(z0))
        zn, rn, _, _ = em_forward_transition(
            t, t.lift(z0), t.lift(r0), ForwardEM(t, gamma, delta), grad, eps)
        gd = 0.05
        rho_ref = r0 * (1 - gd) + 0.1 * (-z0) + np.sqrt(2 * gd) * eps
        np.testing.assert_allclose(rn.value, rho_ref, rtol=1e-14)
        np.testing.assert_allclose(zn.value, z0 + 0.1 * rho_ref, rtol=1e-14)

    def test_em_zero_step_rejected(self):
        t = Tape()
        with pytest.raises(DomainError):
            em_forward_transition(t, t.lift([0.0]), t.lift([0.0]),
                                  ForwardEM(t, t.lift(1.0), t.lift(0.0)),
                                  t.lift([0.0]), np.zeros(1))

    def test_em_log_ratio_matches_scipy(self):
        rng = np.random.default_rng(11)
        z, rho, rho_n = (rng.normal(size=2) for _ in range(3))
        gd = 0.06
        for with_score in (False, True):
            t = Tape()
            delta, gamma = t.lift(0.2), t.lift(0.3)
            grad = t.mul(-1.0, t.lift(z))
            score = (lambda k, zz, rr: t.mul(0.25, rr)) if with_score else None
            got = em_ratio(t, t.lift(z), t.lift(rho), t.lift(rho_n),
                           1, delta, gamma, grad, score).value
            fwd = iso_logpdf(rho_n, rho * (1 - gd) + 0.2 * (-z), 2 * gd)
            bmean = rho_n * (1 - gd) - 0.2 * (-z)
            if with_score:
                bmean = bmean + 2 * gd * 0.25 * rho_n
            bwd = iso_logpdf(rho, bmean, 2 * gd)
            assert got == pytest.approx(bwd - fwd, rel=1e-12)

    def test_gradients_flow_to_gamma_and_delta(self):
        rng = np.random.default_rng(12)
        z, rho, rho_n = (rng.normal(size=2) for _ in range(3))
        t = Tape()
        delta = t.lift(0.2, trainable=True, name="delta")
        gamma = t.lift(0.3, trainable=True, name="gamma")
        grad = t.mul(-1.0, t.lift(z))
        lr = em_ratio(t, t.lift(z), t.lift(rho), t.lift(rho_n), 1,
                      delta, gamma, grad, None)
        grads = t.backward(lr)
        assert grads["delta"] != 0.0 and grads["gamma"] != 0.0
