"""Unit tests for the leapfrog integrator and the momentum kernel."""

import numpy as np
import pytest
from scipy.stats import norm

from ldvi.dynamics import MomentumKernel, leapfrog
from ldvi.tape import DomainError, Tape
from reference import noise_logpdf

OU, EM = MomentumKernel.exact_ou, MomentumKernel.euler_maruyama


def standard_grad(t):
    """Gradient of log N(z | 0, I)."""
    return lambda z: t.neg(z)


def leapfrog_inverse(t, z_new, rho_new, delta, grad_fn):
    """Exact inverse of `leapfrog`: its three updates run backwards."""
    half = t.mul(0.5, delta)
    rho_half = t.sub(rho_new, t.mul(half, grad_fn(z_new)))
    z = t.sub(z_new, t.mul(delta, rho_half))
    rho = t.sub(rho_half, t.mul(half, grad_fn(z)))
    return z, rho


def iso_logpdf(x, mean, var):
    return norm.logpdf(x, mean, np.sqrt(var)).sum(axis=-1)


def step(t, z, rho, delta, grad_fn):
    """`leapfrog` with delta / 2 built for this one step."""
    return leapfrog(t, z, rho, delta, t.mul(0.5, delta), grad_fn)


def kernel_log_pdf(kernel, x, rho, z=None, k=None, drift=None):
    """log m_B(x | rho, z) of a kernel, at the reverse mean it builds from
    rho: its log-ratio plus the log m_F that the ratio subtracts, here of a
    draw from zero noise."""
    eps = np.zeros(x.shape)
    t = kernel.tape
    return t.add(kernel.log_ratio(x, rho, eps, z, k, drift),
                 noise_logpdf(t, eps, kernel.var))


def forward_log_pdf(kernel, x, rho, drift=None):
    """log m_F(x | rho) of a kernel in full, at the mean shrink rho
    (+ drift) built from tape primitives."""
    t = kernel.tape
    mean = (t.mul(kernel.shrink, rho) if drift is None
            else t.muladd(kernel.shrink, rho, drift))
    return t.gaussian_logpdf(x, mean, kernel.var)


def em_ratio(t, z, rho, eps, k, delta, gamma, grad, score):
    """(rho', reverse/forward log-ratio) of one Euler-Maruyama transition
    that refreshes rho with noise eps, as the chain builds them."""
    kernel = EM(t, gamma, delta, score)
    drift = t.mul(delta, grad)
    rho_n = kernel.refresh(rho, eps, drift)
    return rho_n, kernel.log_ratio(rho, rho_n, eps, z, k, drift)


class TestLeapfrog:
    def test_single_step_hand_computed(self):
        # one step on log pi = -z^2/2: grad = -z, starting at (1, 0.5), delta 0.1
        t = Tape()
        z, rho = t.lift([1.0]), t.lift([0.5])
        zn, rn = step(t, z, rho, t.lift(0.1), standard_grad(t))
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
            zn, rn = step(t, t.lift(z0), t.lift(r0), delta, grad)
            zb, rb = leapfrog_inverse(t, zn, rn, delta, grad)
            assert np.max(np.abs(zb.value - z0)) < 1e-12
            assert np.max(np.abs(rb.value - r0)) < 1e-12

    def test_volume_preserving(self):
        # finite-difference Jacobian of the (z, rho) -> (z', rho') map has det 1
        def flow(v):
            t = Tape()
            z, rho = t.lift(v[:2]), t.lift(v[2:])
            grad = lambda zz: t.mul(-0.7, t.square(zz))
            zn, rn = step(t, z, rho, t.lift(0.3), grad)
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
        zn, rn = step(t, t.lift(zs), t.lift(rs), delta, grad)
        for i in range(5):
            t2 = Tape()
            zi, ri = step(t2, t2.lift(zs[i]), t2.lift(rs[i]),
                              t2.lift(0.2), standard_grad(t2))
            np.testing.assert_allclose(zn.value[i], zi.value, rtol=1e-14)
            np.testing.assert_allclose(rn.value[i], ri.value, rtol=1e-14)

    def test_gradients_flow_through_delta(self):
        t = Tape()
        delta = t.lift(0.15, trainable=True, name="delta")
        zn, rn = step(t, t.lift([1.0]), t.lift([0.3]), delta,
                      standard_grad(t))
        grads = t.backward(t.sum(zn))
        # d z'/d delta = rho + delta * (-z) at first order terms: hand value
        # z' = z + delta (rho - delta/2 z) => d/d delta = rho - delta z
        assert grads["delta"] == pytest.approx(0.3 - 0.15 * 1.0, abs=1e-12)


class TestExactOU:
    def test_noise_log_pdf_matches_scipy_at_the_draw(self):
        # the log-ratio scores the refresh m_F from the noise of its draw
        rng = np.random.default_rng(2)
        t = Tape()
        ou = OU(t, t.lift(0.6))
        for _ in range(10):
            rho, eps, back = (rng.normal(size=4) for _ in range(3))
            x = ou.refresh(t.lift(rho), eps).value
            got = ou.log_ratio(t.lift(back), t.lift(x), eps).value
            want = (iso_logpdf(back, 0.6 * x, 1 - 0.36)
                    - iso_logpdf(x, 0.6 * rho, 1 - 0.36))
            assert got == pytest.approx(want, rel=1e-12)

    def test_refresh_formula(self):
        t = Tape()
        ou = OU(t, t.lift(0.5))
        rho = t.lift([2.0, -2.0])
        eps = np.array([1.0, 0.0])
        got = ou.refresh(rho, eps).value
        np.testing.assert_allclose(got, [1.0 + np.sqrt(0.75), -1.0], rtol=1e-14)

    def test_stationary_under_standard_normal(self):
        # eta rho + sqrt(1-eta^2) eps keeps N(0, I) invariant
        rng = np.random.default_rng(3)
        rho = rng.normal(size=100_000)
        t = Tape()
        ou = OU(t, t.lift(0.8))
        out = ou.refresh(t.lift(rho[:, None]),
                         rng.normal(size=(100_000, 1))).value
        assert abs(out.mean()) < 0.02
        assert abs(out.std() - 1.0) < 0.02

    def test_detailed_balance_with_score_free_reversal(self):
        # N(rho) m_F(rho'|rho) = N(rho') m_B(rho|rho') for the OU kernel
        rng = np.random.default_rng(4)
        t = Tape()
        ou = OU(t, t.lift(0.35))
        for _ in range(20):
            a, b = rng.normal(size=3), rng.normal(size=3)
            lhs = (iso_logpdf(a, 0, 1)
                   + forward_log_pdf(ou, t.lift(b), t.lift(a)).value)
            rhs = (iso_logpdf(b, 0, 1)
                   + kernel_log_pdf(ou, t.lift(a), t.lift(b)).value)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_eta_one_rejected(self):
        t = Tape()
        with pytest.raises(DomainError):
            OU(t, t.lift(1.0))

    def test_eta_negative_rejected(self):
        t = Tape()
        with pytest.raises(DomainError):
            OU(t, t.lift(-0.1))

    def test_eta_zero_is_full_refresh(self):
        t = Tape()
        ou = OU(t, t.lift(0.0))
        eps = np.array([0.7, -0.2])
        np.testing.assert_allclose(
            ou.refresh(t.lift([5.0, -5.0]), eps).value, eps, rtol=1e-14)

    def test_gradient_flows_to_eta(self):
        t = Tape()
        eta = t.lift(0.5, trainable=True, name="eta")
        lp = OU(t, eta).log_ratio(t.lift([0.2]), t.lift([-0.4]),
                                  np.array([0.3]))
        assert t.backward(lp)["eta"] != 0.0


class TestEMKernels:
    def test_forward_noise_log_pdf_matches_scipy_at_the_draw(self):
        rng = np.random.default_rng(5)
        t = Tape()
        gamma, delta = t.lift(0.8), t.lift(0.1)
        fwd = EM(t, gamma, delta)
        gd = 0.08
        for _ in range(10):
            rho, eps, drift, back = (rng.normal(size=3) for _ in range(4))
            x = fwd.refresh(t.lift(rho), eps, t.lift(drift)).value
            want = (iso_logpdf(back, x * (1 - gd) - drift, 2 * gd)
                    - iso_logpdf(x, rho * (1 - gd) + drift, 2 * gd))
            got = fwd.log_ratio(t.lift(back), t.lift(x), eps,
                                drift=t.lift(drift)).value
            assert got == pytest.approx(want, rel=1e-12)

    def test_forward_refresh_formula(self):
        t = Tape()
        fwd = EM(t, t.lift(1.0), t.lift(0.125))
        got = fwd.refresh(t.lift([2.0]), np.array([1.0])).value
        np.testing.assert_allclose(got, [2.0 * 0.875 + np.sqrt(0.25)], rtol=1e-14)

    def test_zero_friction_rejected(self):
        t = Tape()
        with pytest.raises(DomainError):
            EM(t, t.lift(0.0), t.lift(0.1))

    @pytest.mark.parametrize("gamma", [0.0, [0.5, 0.5]],
                             ids=["zero", "vector"])
    def test_errors_name_the_constructor(self, gamma):
        t = Tape()
        with pytest.raises(DomainError) as err:
            EM(t, t.lift(gamma), t.lift(0.1))
        assert err.value.opcode == "euler_maruyama"

    def test_backward_with_score(self):
        rng = np.random.default_rng(6)
        t = Tape()
        gamma, delta = t.lift(0.5), t.lift(0.2)
        score = lambda k, z, rho: t.mul(float(k), t.add(z, rho))
        bwd = EM(t, gamma, delta, score)
        gd = 0.1
        z = rng.normal(size=2)
        rho_p, x = rng.normal(size=2), rng.normal(size=2)
        want = iso_logpdf(x, rho_p * (1 - gd) + 2 * gd * 3 * (z + rho_p), 2 * gd)
        got = kernel_log_pdf(bwd, t.lift(x), t.lift(rho_p), t.lift(z), 3).value
        assert got == pytest.approx(want, rel=1e-12)

    def test_mcd_backward(self):
        rng = np.random.default_rng(7)
        t = Tape()
        score = lambda k, z, rho: t.mul(0.5, z)  # position-only
        bwd = MomentumKernel.unit(t, score, 2.0)
        z, x = rng.normal(size=3), rng.normal(size=3)
        want = iso_logpdf(x, z, 1.0)
        got = kernel_log_pdf(bwd, t.lift(x), t.lift(np.zeros(3)), t.lift(z),
                             1).value
        assert got == pytest.approx(want, rel=1e-12)

    def test_mcd_sample_adds_unit_noise(self):
        rng = np.random.default_rng(12)
        t = Tape()
        bwd = MomentumKernel.unit(t, lambda k, z, rho: t.mul(0.5, z), 2.0)
        z, eps = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        mean = bwd.mean(bwd.score(1, t.lift(z)))
        np.testing.assert_array_equal(bwd.sample(mean, eps).value,
                                      2.0 * (0.5 * z) + eps)

    @pytest.mark.parametrize("score", [None, lambda k, z, rho: z],
                             ids=["exact", "score"])
    def test_learned_variance_kernels_are_never_sampled(self, score):
        t = Tape()
        kernel = EM(t, t.lift(0.5), t.lift(0.2), score)
        with pytest.raises(ValueError, match="unit-variance"):
            kernel.sample(t.lift([0.3, -0.1]), np.array([0.4, 0.7]))


class TestUnitKernel:
    """N(0, I), the endpoint momentum augmentation of every method but
    MCD."""

    def test_sample_is_the_noise(self):
        rng = np.random.default_rng(13)
        t = Tape()
        unit = MomentumKernel.unit(t)
        eps = rng.normal(size=(4, 3))
        mean = unit.mean(unit.score(1, t.lift(rng.normal(size=(4, 3)))))
        assert mean is None
        np.testing.assert_array_equal(unit.sample(mean, eps).value, eps)
        np.testing.assert_array_equal(
            unit.refresh(t.lift(rng.normal(size=(4, 3))), eps).value, eps)

    def test_score_enters_the_reverse_mean_with_coef_one(self):
        # the full refresh with a momentum score reverses to N(s, I)
        rng = np.random.default_rng(17)
        t = Tape()
        unit = MomentumKernel.unit(t, lambda k, z, rho: t.mul(0.5,
                                                              t.add(z, rho)))
        z, rho = rng.normal(size=(2, 4, 3))
        x, eps = rng.normal(size=(2, 4, 3))
        np.testing.assert_array_equal(
            unit.log_ratio(t.lift(x), t.lift(rho), eps, t.lift(z), 1).value,
            t.gaussian_logpdf(x, 1.0 * (0.5 * (z + rho)), 1.0).value
            - unit.noise_log_pdf(eps))

    def test_noise_log_pdf_is_log_pdf_at_the_noise_bit_for_bit(self):
        # the initial momentum density of every method but MCD keeps its
        # bits in the noise form
        eps = np.random.default_rng(15).normal(size=(5, 3))
        t = Tape()
        unit = MomentumKernel.unit(t)
        np.testing.assert_array_equal(unit.noise_log_pdf(eps),
                                      unit.log_pdf(t.lift(eps), None).value)

    def test_mcd_augmentation_density_is_constant(self):
        # rho_1 = 2 s(1, z_1) + eps, so its density depends on eps alone
        rng = np.random.default_rng(16)
        t = Tape()
        w = t.lift(0.5, trainable=True, name="w")
        aug = MomentumKernel.unit(t, lambda k, z, rho: t.mul(w, z), 2.0)
        z, eps = t.lift(rng.normal(size=(4, 3))), rng.normal(size=(4, 3))
        mean = aug.mean(aug.score(1, z))
        np.testing.assert_allclose(
            aug.noise_log_pdf(eps),
            aug.log_pdf(aug.sample(mean, eps), mean).value, rtol=1e-14)
        assert isinstance(aug.noise_log_pdf(eps), np.ndarray)

    def test_log_pdf_matches_scipy(self):
        rng = np.random.default_rng(14)
        t = Tape()
        x = rng.normal(size=(5, 3)) * 2.0
        got = MomentumKernel.unit(t).log_pdf(t.lift(x), None).value
        np.testing.assert_allclose(got, norm.logpdf(x).sum(axis=-1),
                                   rtol=1e-12)

    def test_builds_no_node(self):
        t = Tape()
        MomentumKernel.unit(t)
        assert len(t.nodes) == 0


class TestTransitions:
    def test_forward_transition_composition(self):
        rng = np.random.default_rng(8)
        z0, r0 = rng.normal(size=3), rng.normal(size=3)
        eps = rng.normal(size=3)
        t = Tape()
        delta = t.lift(0.2)
        ou = OU(t, t.lift(0.4))
        rp = ou.refresh(t.lift(r0), eps)
        zn, rn = step(t, t.lift(z0), rp, delta, standard_grad(t))
        rp_ref = 0.4 * r0 + np.sqrt(1 - 0.16) * eps
        np.testing.assert_allclose(rp.value, rp_ref, rtol=1e-14)
        t2 = Tape()
        zr, rr = step(t2, t2.lift(z0), t2.lift(rp_ref), t2.lift(0.2),
                      standard_grad(t2))
        np.testing.assert_allclose(zn.value, zr.value, rtol=1e-14)
        np.testing.assert_allclose(rn.value, rr.value, rtol=1e-14)

    def test_em_transition_matches_numpy(self):
        rng = np.random.default_rng(10)
        z0, r0, eps = (rng.normal(size=3) for _ in range(3))
        t = Tape()
        delta, gamma = t.lift(0.1), t.lift(0.5)
        grad = t.mul(-1.0, t.lift(z0))
        kernel = EM(t, gamma, delta)
        rn = kernel.refresh(t.lift(r0), eps, t.mul(delta, grad))
        zn = t.add(t.lift(z0), t.mul(delta, rn))
        gd = 0.05
        rho_ref = r0 * (1 - gd) + 0.1 * (-z0) + np.sqrt(2 * gd) * eps
        np.testing.assert_allclose(rn.value, rho_ref, rtol=1e-14)
        np.testing.assert_allclose(zn.value, z0 + 0.1 * rho_ref, rtol=1e-14)

    def test_em_zero_step_rejected(self):
        t = Tape()
        with pytest.raises(DomainError):
            EM(t, t.lift(1.0), t.lift(0.0))

    def test_em_log_ratio_matches_scipy(self):
        rng = np.random.default_rng(11)
        z, rho, eps = (rng.normal(size=2) for _ in range(3))
        gd = 0.06
        rho_n = rho * (1 - gd) + 0.2 * (-z) + np.sqrt(2 * gd) * eps
        for with_score in (False, True):
            t = Tape()
            delta, gamma = t.lift(0.2), t.lift(0.3)
            grad = t.mul(-1.0, t.lift(z))
            score = (lambda k, zz, rr: t.mul(0.25, rr)) if with_score else None
            drawn, got = em_ratio(t, t.lift(z), t.lift(rho), eps,
                                  1, delta, gamma, grad, score)
            np.testing.assert_allclose(drawn.value, rho_n, rtol=1e-14)
            got = got.value
            fwd = iso_logpdf(rho_n, rho * (1 - gd) + 0.2 * (-z), 2 * gd)
            bmean = rho_n * (1 - gd) - 0.2 * (-z)
            if with_score:
                bmean = bmean + 2 * gd * 0.25 * rho_n
            bwd = iso_logpdf(rho, bmean, 2 * gd)
            assert got == pytest.approx(bwd - fwd, rel=1e-12)

    def test_gradients_flow_to_gamma_and_delta(self):
        rng = np.random.default_rng(12)
        z, rho, eps = (rng.normal(size=2) for _ in range(3))
        t = Tape()
        delta = t.lift(0.2, trainable=True, name="delta")
        gamma = t.lift(0.3, trainable=True, name="gamma")
        grad = t.mul(-1.0, t.lift(z))
        _, lr = em_ratio(t, t.lift(z), t.lift(rho), eps, 1,
                         delta, gamma, grad, None)
        grads = t.backward(lr)
        assert grads["delta"] != 0.0 and grads["gamma"] != 0.0


def assert_gradients_match_finite_differences(loss, vals, h=1e-6):
    """The adjoint of every entry of `vals` against central differences.
    `loss(t, vals, trainable)` builds a scalar on tape t from the values,
    lifted as parameters under their keys when trainable."""
    t = Tape()
    grads = t.backward(loss(t, vals, True))
    for key, v in vals.items():
        v = np.asarray(v, dtype=np.float64)
        ref = np.zeros(v.shape)
        for idx in np.ndindex(v.shape):
            shifted = []
            for sign in (1, -1):
                w = v.copy()
                w[idx] += sign * h
                shifted.append(float(
                    loss(Tape(), {**vals, key: w}, False).value))
            ref[idx] = (shifted[0] - shifted[1]) / (2 * h)
        np.testing.assert_allclose(grads[key], ref, rtol=1e-6, atol=1e-9,
                                   err_msg=key)


def _refresh_kernel(t, kind, p):
    """An OU or EM refresh from the lifted raw parameters `p`."""
    if kind == "ou":
        return OU(t, t.sigmoid(p["raw"]))
    return EM(t, t.softplus(p["raw"]), t.softplus(p["raw_delta"]))


class TestRefresh:
    """rho' = shrink rho (+ drift) + sqrt(var) eps as one node."""

    RAW = {"raw": 0.3, "raw_delta": -1.2}

    @pytest.mark.parametrize("kind,with_drift",
                             [("ou", False), ("em", False), ("em", True)])
    def test_matches_muladd_chain_bit_for_bit(self, kind, with_drift):
        rng = np.random.default_rng(70)
        rho, eps, drift = (rng.normal(size=(4, 3)) for _ in range(3))
        t = Tape()
        p = {k: t.lift(v, trainable=True, name=k) for k, v in self.RAW.items()}
        kernel = _refresh_kernel(t, kind, p)
        r = t.lift(rho, trainable=True, name="rho")
        d = t.lift(drift, trainable=True, name="drift") if with_drift else None
        before = len(t.nodes)
        got = kernel.refresh(r, eps, d)
        assert len(t.nodes) == before + 1
        mean = (t.mul(kernel.shrink, r) if d is None
                else t.muladd(kernel.shrink, r, d))
        np.testing.assert_array_equal(
            got.value, t.muladd(kernel.scale, eps, mean).value)

    @pytest.mark.parametrize("kind", ["ou", "em"])
    def test_vjp_matches_finite_differences(self, kind):
        """Every operand's adjoint, the drift's (zero for OU) included."""
        rng = np.random.default_rng(71)
        vals = {**self.RAW, "rho": rng.normal(size=(4, 3)),
                "drift": rng.normal(size=(4, 3))}
        eps, weights = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        drifted = kind == "em"

        def loss(t, vs, trainable):
            p = {k: t.lift(v, trainable=trainable, name=k)
                 for k, v in vs.items()}
            out = _refresh_kernel(t, kind, p).refresh(
                p["rho"], eps, p["drift"] if drifted else None)
            return t.mean_all(t.mul(out, weights))

        assert_gradients_match_finite_differences(loss, vals)


def chain_log_ratio(kernel, rho, rho_prime, eps, z, k, drift):
    """A transition's log-ratio from the nodes that the fused one stands
    for: m_B's mean from `mul` (and `sub` of the drift), the score and
    `muladd` (or `mul` with no shrink), then its `Tape.gaussian_logpdf`
    less m_F's density from the noise."""
    t = kernel.tape
    mean = None
    if kernel.shrink is not None:
        mean = t.mul(kernel.shrink, rho_prime)
        if drift is not None:
            mean = t.sub(mean, drift)
    s = kernel.score(k, z, rho_prime)
    if s is not None:
        mean = (t.mul(kernel.coef, s) if mean is None
                else t.muladd(kernel.coef, s, mean))
    return t.sub(t.gaussian_logpdf(rho, 0.0 if mean is None else mean,
                                   kernel.var),
                 noise_logpdf(t, eps, kernel.var))


def fused_log_ratio(kernel, rho, rho_prime, eps, z, k, drift):
    return kernel.log_ratio(rho, rho_prime, eps, z, k, drift)


# (refresh, with a score, with a drift): ula, mcd, uha, "ou+score",
# "em+exact", ldvi, uha_em, ldvi_em
LOG_RATIO_CASES = [("unit", False, False), ("unit", True, False),
                   ("ou", False, False), ("ou", True, False),
                   ("em", False, False), ("em", True, False),
                   ("em", False, True), ("em", True, True)]


class TestLogRatio:
    """log m_B - log m_F as one node of the momentum kernel's own."""

    RAW = {"raw": 0.3, "raw_delta": -1.2, "w": 0.7}
    # the shrink and variance of an OU or EM kernel, for the node's
    # operands lifted directly
    OPERANDS = {"ou": {"shrink": 0.6, "var": 0.64},
                "em": {"shrink": 0.9, "var": 0.2}}

    @classmethod
    def _setup(cls, t, kind, with_score, with_drift, trainable=True):
        """The kernel, (rho, rho', z, drift or None) and the tape's
        parameters, from fixed draws."""
        rng = np.random.default_rng(80)
        vals = {**cls.RAW, **{k: rng.normal(size=(4, 3))
                              for k in ("rho", "rho_p", "z", "drift")}}
        p = {k: t.lift(v, trainable=trainable, name=k)
             for k, v in vals.items()}
        # a score of position and momentum, as a score net's
        score = ((lambda k, z, r: t.mul(p["w"], t.add(z, r)))
                 if with_score else None)
        if kind == "unit":
            kernel = MomentumKernel.unit(t, score, 2.0 if with_score else 1.0)
        elif kind == "ou":
            kernel = OU(t, t.sigmoid(p["raw"]), score)
        else:
            kernel = EM(t, t.softplus(p["raw"]), t.softplus(p["raw_delta"]),
                        score)
        operands = (p["rho"], p["rho_p"], p["z"],
                    p["drift"] if with_drift else None)
        return kernel, operands

    @pytest.mark.parametrize("kind,with_score,with_drift", LOG_RATIO_CASES)
    def test_value_and_nodes(self, kind, with_score, with_drift):
        """Bit for bit the chain's value, in one node besides the score's
        own two."""
        eps = np.random.default_rng(81).normal(size=(4, 3))
        t = Tape()
        kernel, (rho, rho_p, z, drift) = self._setup(t, kind, with_score,
                                                     with_drift)
        before = len(t.nodes)
        got = kernel.log_ratio(rho, rho_p, eps, z, 3, drift)
        assert len(t.nodes) - before == 1 + (2 if with_score else 0)
        want = chain_log_ratio(kernel, rho, rho_p, eps, z, 3, drift)
        np.testing.assert_array_equal(got.value, want.value)

    @pytest.mark.parametrize("kind,with_score,with_drift", LOG_RATIO_CASES)
    def test_value_matches_scipy(self, kind, with_score, with_drift):
        """log N(rho; m_B, var) - log N(rho'; m_F, var), where the refresh
        drew rho' = m_F + sqrt(var) eps."""
        t = Tape()
        kernel, (rho, rho_p, z, drift) = self._setup(t, kind, with_score,
                                                     with_drift)
        r, rp = rho.value, rho_p.value
        shrink = 0.0 if kernel.shrink is None else kernel.shrink.value
        var = kernel.var if kind == "unit" else kernel.var.value
        d = 0.0 if drift is None else drift.value
        eps = (rp - (shrink * r + d)) / np.sqrt(var)
        mean_b = shrink * rp - d
        if with_score:
            mean_b = mean_b + (kernel.coef.value * self.RAW["w"]
                               * (z.value + rp))
        got = kernel.log_ratio(rho, rho_p, eps, z, 3, drift).value
        want = (iso_logpdf(r, mean_b, var)
                - iso_logpdf(rp, shrink * r + d, var))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("kind,with_score,with_drift", LOG_RATIO_CASES)
    def test_gradients_match_finite_differences(self, kind, with_score,
                                                with_drift):
        """Every operand's adjoint: shrink, rho, rho', drift, coef, s and
        var, each lifted as a parameter of its own."""
        rng = np.random.default_rng(84)
        vals = {k: rng.normal(size=(4, 3)) for k in ("rho", "rho_p")}
        vals.update(self.OPERANDS.get(kind, {}))
        if with_drift:
            vals["drift"] = rng.normal(size=(4, 3))
        if with_score:
            vals.update(coef=0.8, s=rng.normal(size=(4, 3)))
        eps, weights = rng.normal(size=(4, 3)), rng.normal(size=4)

        def loss(t, vs, trainable):
            p = {k: t.lift(v, trainable=trainable, name=k)
                 for k, v in vs.items()}
            kernel = MomentumKernel(t, p.get("shrink"), p.get("var", 1.0),
                                    coef=p.get("coef"))
            out = kernel.log_ratio(p["rho"], p["rho_p"], eps,
                                   drift=p.get("drift"), score=p.get("s"))
            return t.mean_all(t.mul(out, weights))

        assert_gradients_match_finite_differences(loss, vals)

    @pytest.mark.parametrize("kind,with_score,with_drift", LOG_RATIO_CASES)
    def test_gradients_match_chain_bit_for_bit(self, kind, with_score,
                                               with_drift):
        """rho' has one more use, as in a chain: the leapfrog's half step
        before the ratio, or, with the Euler-Maruyama drift, the next
        transition after it, which a sweep reaches first. The adjoints
        are the chain's bit for bit, except with a drift, where they agree
        within 1e-12: rho' then sums the mean's adjoint before the score's,
        where the chain sums it after, and the variance's one-term adjoint
        adj quad / (2 var^2) differs from the chain's two-sided sum in the
        last bit."""
        rng = np.random.default_rng(82)
        eps, w_out, w_other = rng.normal(size=(3, 4, 3))
        grads = []
        for build in (fused_log_ratio, chain_log_ratio):
            t = Tape()
            kernel, (rho, rho_p, z, drift) = self._setup(t, kind, with_score,
                                                         with_drift)
            if drift is None:
                other = t.mean_all(t.mul(rho_p, w_other))
            out = build(kernel, rho, rho_p, eps, z, 3, drift)
            if drift is not None:
                other = t.mean_all(t.mul(rho_p, w_other))
            loss = t.add(t.mean_all(t.mul(out, w_out[:, 0])), other)
            grads.append(t.backward(loss))
        assert grads[0].keys() == grads[1].keys()
        for name in grads[0]:
            if with_drift:
                np.testing.assert_allclose(grads[0][name], grads[1][name],
                                           rtol=1e-12, err_msg=name)
            else:
                np.testing.assert_array_equal(grads[0][name], grads[1][name],
                                              err_msg=name)

    @pytest.mark.parametrize("kind,with_score,with_drift", LOG_RATIO_CASES)
    def test_noise_log_pdf_is_a_unit_kernel_array(self, kind, with_score,
                                                  with_drift):
        """The initial momentum's density: an array, from a unit kernel
        only."""
        eps = np.random.default_rng(85).normal(size=(4, 3))
        t = Tape()
        kernel, _ = self._setup(t, kind, with_score, with_drift)
        if kind != "unit":
            with pytest.raises(ValueError, match="unit-variance"):
                kernel.noise_log_pdf(eps)
            return
        got = kernel.noise_log_pdf(eps)
        assert isinstance(got, np.ndarray)
        np.testing.assert_allclose(got, norm.logpdf(eps).sum(axis=-1),
                                   rtol=1e-12)

    def test_score_passed_in_is_not_recomputed(self):
        # MCD's first transition takes the score its augmentation built
        calls = []
        t = Tape()
        w = t.lift(0.5, trainable=True, name="w")

        def score(k, z, rho):
            calls.append(k)
            return t.mul(w, z)

        kernel = MomentumKernel.unit(t, score, 2.0)
        rng = np.random.default_rng(83)
        z, rho, rho_p = (t.lift(v) for v in rng.normal(size=(3, 4, 3)))
        eps = rng.normal(size=(4, 3))
        s = kernel.score(1, z)
        got = kernel.log_ratio(rho, rho_p, eps, z, 1, score=s)
        assert calls == [1]
        np.testing.assert_array_equal(
            got.value, kernel.log_ratio(rho, rho_p, eps, z, 1).value)
