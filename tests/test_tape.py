"""Unit tests for the reverse-mode tape."""

import ast
import gc
import pathlib
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from scipy.stats import norm

import ldvi
from ldvi import estimator, trainer
from ldvi.annealing import MeanFieldGaussian, bridge_score
from ldvi.estimator import (estimate_elbo, get_method, init_params,
                            lift_model, method_names)
from ldvi.tape import Tape, DomainError, _unbroadcast, sigmoid, softplus
from ldvi.targets import gaussian_toy_target, get_target
from ldvi.trainer import TrainPlan, train


def fd_grad(f, x, h=1e-6):
    """Central finite-difference gradient of scalar f at vector x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2 * h)
    return g


class TestLift:
    def test_identity_adjoint(self):
        t = Tape()
        x = t.lift(3.0, trainable=True, name="x")
        grads = t.backward(x)
        assert grads["x"] == pytest.approx(1.0)

    def test_unused_variable_zero_adjoint(self):
        t = Tape()
        x = t.lift(2.0, trainable=True, name="x")
        unused = t.lift(0.0, trainable=True, name="u")
        loss = t.mul(x, x)
        grads = t.backward(loss)
        assert grads["u"] == pytest.approx(0.0)

    def test_vector_sum_adjoints(self):
        t = Tape()
        v = t.lift([1.0, 2.0, 3.0], trainable=True, name="v")
        grads = t.backward(t.sum(v))
        np.testing.assert_allclose(grads["v"], [1.0, 1.0, 1.0])

    def test_nonfinite_rejected(self):
        t = Tape()
        with pytest.raises(DomainError):
            t.lift(np.inf)
        with pytest.raises(DomainError):
            t.lift([1.0, np.nan])

    def test_trainable_lift_needs_a_name(self):
        with pytest.raises(ValueError, match="name"):
            Tape().lift(1.0, trainable=True)


class TestApply:
    def test_exp_at_zero(self):
        t = Tape()
        x = t.lift(0.0, trainable=True, name="x")
        y = t.exp(x)
        assert y.value == pytest.approx(1.0)
        assert t.backward(y)["x"] == pytest.approx(1.0)

    def test_product_rule(self):
        t = Tape()
        x = t.lift(2.0, trainable=True, name="x")
        y = t.lift(3.0, trainable=True, name="y")
        grads = t.backward(t.mul(x, y))
        assert grads["x"] == pytest.approx(3.0)
        assert grads["y"] == pytest.approx(2.0)


UNARY_DOMAINS = {
    "neg": (-5.0, 5.0),
    "exp": (-5.0, 3.0),
    # bounded so the true derivative is not so small that the finite-difference
    # reference itself drowns in roundoff at h=1e-6
    "softplus": (-4.0, 4.0),
    "sigmoid": (-4.0, 4.0),
    "square": (-5.0, 5.0),
    "sqrt": (0.05, 5.0),
}

BINARY = ("add", "sub", "mul", "div")
# operand shapes (a, b) for the binary sweep
BINARY_SHAPES = [((3,), (3,))] + [
    pair for s in [(), (1,), (3,)] for pair in ((s, (4, 3)), ((4, 3), s))]


class TestFiniteDifferenceSweep:
    """Every opcode's AD gradient matches central differences on random inputs."""

    @pytest.mark.parametrize("op", sorted(UNARY_DOMAINS))
    def test_unary(self, op):
        rng = np.random.default_rng(7)
        lo, hi = UNARY_DOMAINS[op]
        for _ in range(100):
            x = rng.uniform(lo, hi, size=4)
            t = Tape()
            v = t.lift(x, trainable=True, name="v")
            loss = t.sum(getattr(t, op)(v))
            ad = t.backward(loss)["v"]
            ref = fd_grad(lambda z: _numpy_op(op, z).sum(), x)
            denom = np.maximum(np.abs(ref), 1e-8)
            assert np.max(np.abs(ad - ref) / denom) < 1e-6

    @pytest.mark.parametrize("op", BINARY)
    def test_binary(self, op):
        # equal shapes, then each operand broadcast against a (4, 3) one:
        # backward sums the adjoint down to the broadcast operand's shape
        rng = np.random.default_rng(11)
        for shape_a, shape_b in BINARY_SHAPES:
            for _ in range(100 if shape_a == shape_b else 20):
                a = rng.uniform(-3.0, 3.0, size=shape_a)
                b = rng.uniform(0.5, 3.0, size=shape_b)
                t = Tape()
                va = t.lift(a, trainable=True, name="a")
                vb = t.lift(b, trainable=True, name="b")
                loss = t.mean_all(getattr(t, op)(va, vb))
                grads = t.backward(loss)
                fa = fd_grad(lambda z: np.mean(_numpy_binop(op, z, b)), a)
                fb = fd_grad(lambda z: np.mean(_numpy_binop(op, a, z)), b)
                for ad, ref in ((grads["a"], fa), (grads["b"], fb)):
                    assert ad.shape == ref.shape
                    denom = np.maximum(np.abs(ref), 1e-8)
                    assert np.max(np.abs(ad - ref) / denom) < 1e-6
        # a constant operand gets no adjoint from the node's VJP
        for constant in (0, 1):
            t = Tape()
            args = [t.lift(v) if i == constant
                    else t.lift(v, trainable=True, name=f"p{i}")
                    for i, v in enumerate((a, b))]
            out = getattr(t, op)(*args)
            for i, g in enumerate(out.vjp(np.ones(out.shape))):
                assert (g is None) == (i == constant)

    def test_scale_and_affine_and_sum(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 4))
        for _ in range(20):
            s = rng.uniform(0.5, 2.0)
            x = rng.normal(size=4)
            t = Tape()
            vs = t.lift(s, trainable=True, name="s")
            vx = t.lift(x, trainable=True, name="x")
            loss = t.sum(t.affine(t.mul(vs, vx), A))
            grads = t.backward(loss)
            f = lambda sv, xv: (A @ (sv * xv)).sum()
            ref_s = fd_grad(lambda z: f(z[0], x), np.array([s]))[0]
            ref_x = fd_grad(lambda z: f(s, z), x)
            assert abs(grads["s"] - ref_s) / abs(ref_s) < 1e-6
            np.testing.assert_allclose(grads["x"], ref_x, rtol=1e-6, atol=1e-9)

# fused node -> (its numpy formula, its primitive tape chain)
FUSED = {
    "muladd": (lambda a, x, y: a * x + y,
               lambda t, a, x, y: t.add(t.mul(a, x), y)),
}
# operand shapes (a, x, y): a scalar and a vector broadcast against (B, D),
# an addend broadcast along the batch, and a one-entry factor
FUSED_SHAPES = [((), (4, 3), (4, 3)), ((3,), (4, 3), (4, 3)),
                ((4, 3), (4, 3), (3,)), ((1,), (4, 3), (4, 3))]


def _fused_operands(rng, shapes):
    return [rng.uniform(0.2, 0.8, size=s) if i == 0 else rng.normal(size=s)
            for i, s in enumerate(shapes)]


class TestFusedNodes:
    """muladd: one node, the primitive chain's value bit for bit,
    gradients that match central differences, and no adjoint for an
    operand that needs none. q's score, which the bridge node carries
    (`ldvi.annealing.bridge_score`), checked the same way through a real
    q."""

    @pytest.mark.parametrize("shapes", FUSED_SHAPES)
    @pytest.mark.parametrize("op", sorted(FUSED))
    def test_matches_finite_differences(self, op, shapes):
        rng = np.random.default_rng(13)
        formula, _ = FUSED[op]
        vals = _fused_operands(rng, shapes)
        weights = rng.normal(size=(4, 3))
        t = Tape()
        args = [t.lift(v, trainable=True, name=f"p{i}")
                for i, v in enumerate(vals)]
        before = len(t.nodes)
        out = getattr(t, op)(*args)
        assert len(t.nodes) == before + 1
        grads = t.backward(t.mean_all(t.mul(out, weights)))
        for i, v in enumerate(vals):
            def f(z, i=i):
                vs = list(vals)
                vs[i] = z.reshape(v.shape)
                return np.mean(formula(*vs) * weights)
            ref = fd_grad(f, np.ravel(v)).reshape(np.shape(v))
            assert grads[f"p{i}"].shape == np.shape(v)
            np.testing.assert_allclose(grads[f"p{i}"], ref,
                                       rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("shapes", FUSED_SHAPES)
    @pytest.mark.parametrize("op", sorted(FUSED))
    def test_value_matches_primal_chain_bit_for_bit(self, op, shapes):
        rng = np.random.default_rng(17)
        vals = _fused_operands(rng, shapes)
        t = Tape()
        args = [t.lift(v, trainable=True, name=f"p{i}")
                for i, v in enumerate(vals)]
        np.testing.assert_array_equal(getattr(t, op)(*args).value,
                                      FUSED[op][1](t, *args).value)

    @pytest.mark.parametrize("op", sorted(FUSED))
    @pytest.mark.parametrize("constant", [0, 1, 2])
    def test_operand_needing_no_gradient_gets_no_adjoint(self, op, constant):
        rng = np.random.default_rng(19)
        vals = _fused_operands(rng, FUSED_SHAPES[0])
        t = Tape()
        args = [t.lift(v) if i == constant
                else t.lift(v, trainable=True, name=f"p{i}")
                for i, v in enumerate(vals)]
        out = getattr(t, op)(*args)
        adjoints = out.vjp(np.ones(out.shape))
        for i, g in enumerate(adjoints):
            assert (g is None) == (i == constant)
        grads = t.backward(t.mean_all(out))
        assert set(grads) == {f"p{i}" for i in range(3) if i != constant}

    def _q(self, t, rng, trainable=True):
        mu = t.lift(rng.normal(size=3), trainable=trainable, name="mu")
        raw = t.lift(rng.normal(size=3), trainable=trainable, name="raw")
        return MeanFieldGaussian(t, mu, raw)

    @staticmethod
    def _q_score(t, q, z):
        """q's score as one bridge node: beta_1 = 0 and a zero target
        score, so its value is q's score itself."""
        schedule = types.SimpleNamespace(tape=t, betas=t.lift([0.0]),
                                         num_steps=1)
        return bridge_score(schedule, 1, q, z, q.score_array(z),
                            t.lift(np.zeros(z.shape)))

    def test_q_score_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        z0, weights = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        t = Tape()
        q = self._q(t, rng)
        mu0, raw0 = q.mu.value.copy(), q.raw_scale.value.copy()
        z = t.lift(z0, trainable=True, name="z")
        grads = t.backward(t.mean_all(t.mul(self._q_score(t, q, z), weights)))

        def f(mu, raw, zz):
            return np.mean((mu - zz) / softplus(raw) ** 2 * weights)

        refs = {"mu": fd_grad(lambda v: f(v, raw0, z0), mu0),
                "raw": fd_grad(lambda v: f(mu0, v, z0), raw0),
                "z": fd_grad(lambda v: f(mu0, raw0, v.reshape(4, 3)),
                             z0.ravel()).reshape(4, 3)}
        for name, ref in refs.items():
            np.testing.assert_allclose(grads[name], ref, rtol=1e-6, atol=1e-9)

    def test_q_score_is_one_node_and_matches_chain_bit_for_bit(self):
        rng = np.random.default_rng(29)
        t = Tape()
        q = self._q(t, rng)
        z = t.exp(t.lift(rng.normal(size=(4, 3)), trainable=True, name="z"))
        before = len(t.nodes)
        first = q.score_array(z)
        assert len(t.nodes) == before + 1     # sigma^2 once, and no score
        node = self._q_score(t, q, z)
        assert len(t.nodes) == before + 2     # the bridge node
        chain = t.div(t.sub(q.mu, z), t.square(q.sigma))
        np.testing.assert_array_equal(first, chain.value)
        np.testing.assert_array_equal(node.value, chain.value)
        second = self._q_score(t, q, t.neg(z))
        assert second.parents[2] is node.parents[2] is q.var

    def test_q_score_gives_no_adjoint_to_a_constant_position(self):
        rng = np.random.default_rng(31)
        t = Tape()
        q = self._q(t, rng)
        out = self._q_score(t, q, t.lift(rng.normal(size=(4, 3))))
        _, mu_adj, var_adj, z_adj, _ = out.vjp(np.ones(out.shape))
        assert z_adj is None and mu_adj is not None and var_adj is not None


def _numpy_op(op, x):
    return {
        "neg": lambda z: -z,
        "exp": np.exp,
        "softplus": lambda z: np.logaddexp(0.0, z),
        "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
        "square": np.square,
        "sqrt": np.sqrt,
    }[op](x)


def _numpy_binop(op, a, b):
    return {
        "add": np.add,
        "sub": np.subtract,
        "mul": np.multiply,
        "div": np.divide,
    }[op](a, b)


class TestScalarCoercion:
    def test_python_scalar_is_lifted(self):
        t = Tape()
        b = t.lift([1.0, 2.0], trainable=True, name="b")
        out = t.sub(1.0, b)
        np.testing.assert_array_equal(out.value, [0.0, -1.0])
        np.testing.assert_array_equal(t.backward(t.sum(out))["b"], [-1.0, -1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_scalar_raises(self, bad):
        t = Tape()
        b = t.lift([1.0, 2.0])
        with pytest.raises(DomainError) as err:
            t.sub(bad, b)
        assert err.value.opcode == "lift"


class TestGaussianLogpdf:
    def test_standard_normal_at_zero(self):
        t = Tape()
        lp = t.gaussian_logpdf(t.lift([0.0]), t.lift([0.0]), 1.0)
        assert lp.value == pytest.approx(-0.9189385332046727)

    def test_quadratic_term_vanishes(self):
        t = Tape()
        x = t.lift([1.3, -0.4])
        lp = t.gaussian_logpdf(x, x, 1.0)
        assert lp.value == pytest.approx(-np.log(2 * np.pi))

    def test_value_and_gradient_vs_closed_form(self):
        # independent closed-form: log N(1 | 0, 2), d/dmu = (x-mu)/var
        t = Tape()
        mu = t.lift([0.0], trainable=True, name="mu")
        lp = t.gaussian_logpdf(t.lift([1.0]), mu, 2.0)
        expected = -0.5 * np.log(2 * np.pi * 2.0) - 1.0 / 4.0
        assert lp.value == pytest.approx(expected, abs=1e-12)
        grads = t.backward(lp)
        assert grads["mu"][0] == pytest.approx(0.5, abs=1e-12)

    def test_stationary_point(self):
        t = Tape()
        mu = t.lift([0.7, -1.1], trainable=True, name="mu")
        lp = t.gaussian_logpdf(t.lift([0.7, -1.1]), mu, 1.0)
        np.testing.assert_allclose(t.backward(lp)["mu"], 0.0, atol=1e-14)

    def test_nonpositive_variance(self):
        t = Tape()
        with pytest.raises(DomainError):
            t.gaussian_logpdf(t.lift([0.0]), t.lift([0.0]), 0.0)

    @pytest.mark.parametrize("var", [-1.5, "var_node"])
    def test_nonpositive_variance_names_the_op(self, var):
        t = Tape()
        if var == "var_node":
            var = t.lift(-0.5, trainable=True, name="v")
        with pytest.raises(DomainError) as err:
            t.gaussian_logpdf(t.lift([0.3, 0.1]), t.lift([0.0, 0.0]), var)
        assert err.value.opcode == "gaussian_logpdf"

    @pytest.mark.parametrize("var", [2.5, "var_node"])
    def test_pushes_one_node(self, var):
        t = Tape()
        x = t.lift(np.ones((4, 3)))
        mean = t.lift(np.zeros(3))
        if var == "var_node":
            var = t.lift(2.5)
        before = len(t.nodes)
        t.gaussian_logpdf(x, mean, var)
        assert len(t.nodes) == before + 1

    def test_value_matches_primal_chain_bit_for_bit(self):
        rng = np.random.default_rng(5)
        t = Tape()
        x = t.lift(rng.normal(size=(6, 5)))
        mean = t.lift(rng.normal(size=5))
        var = t.softplus(t.lift(rng.normal()))
        # the primal chain sub, square, sum, mul, div, mul, log, mul, add,
        # neg, one numpy operation per node
        xv, mv, vv = x.value, mean.value, var.value
        diff = xv - mv
        quad = (diff * diff).sum(axis=-1)
        inv = quad / (2.0 * vv)
        log_norm = (0.5 * 5) * np.log((2.0 * np.pi) * vv)
        chain = -(log_norm + inv)
        fused = t.gaussian_logpdf(x, mean, var)
        np.testing.assert_array_equal(fused.value, chain)

    def test_batched_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(9)
        B, D = 4, 3
        x0 = rng.normal(size=(B, D))
        m0 = rng.normal(size=D)
        v0 = 0.8

        def f(xv, mv, vv):
            lp = (-0.5 * D * np.log(2 * np.pi * vv)
                  - ((xv - mv) ** 2).sum(axis=-1) / (2 * vv))
            return lp.mean()

        t = Tape()
        x = t.lift(x0, trainable=True, name="x")
        mean = t.lift(m0, trainable=True, name="mean")
        var = t.lift(v0, trainable=True, name="var")
        grads = t.backward(t.mean_all(t.gaussian_logpdf(x, mean, var)))
        assert grads["x"].shape == (B, D)
        assert grads["mean"].shape == (D,)
        assert grads["var"].shape == ()
        ref_x = fd_grad(lambda z: f(z.reshape(B, D), m0, v0), x0.ravel())
        ref_m = fd_grad(lambda z: f(x0, z, v0), m0)
        ref_v = fd_grad(lambda z: f(x0, m0, z[0]), np.array([v0]))[0]
        np.testing.assert_allclose(grads["x"].ravel(), ref_x,
                                   rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(grads["mean"], ref_m, rtol=1e-6, atol=1e-9)
        assert float(grads["var"]) == pytest.approx(ref_v, rel=1e-6)

    @pytest.mark.parametrize("batch", [(), (4,), (2, 3)])
    def test_diagonal_variance_matches_scipy(self, batch):
        rng = np.random.default_rng(12)
        D = 5
        x0 = rng.normal(size=batch + (D,))
        m0 = rng.normal(size=D)
        v0 = rng.uniform(0.2, 3.0, size=D)
        t = Tape()
        lp = t.gaussian_logpdf(t.lift(x0), t.lift(m0), t.lift(v0)).value
        ref = norm.logpdf(x0, m0, np.sqrt(v0)).sum(-1)
        assert lp.shape == batch
        np.testing.assert_allclose(lp, ref, rtol=1e-12, atol=0.0)

    def test_diagonal_variance_gradients_vs_finite_differences(self):
        # the per-component -1 / (2 var_d) term of the variance adjoint
        # cancels in every chain, so only this check sees it
        rng = np.random.default_rng(13)
        B, D = 4, 3
        x0 = rng.normal(size=(B, D))
        m0 = rng.normal(size=D)
        v0 = rng.uniform(0.4, 2.0, size=D)

        def f(xv, mv, vv):
            lp = (-0.5 * np.log(2 * np.pi * vv)
                  - (xv - mv) ** 2 / (2 * vv)).sum(axis=-1)
            return lp.mean()

        t = Tape()
        x = t.lift(x0, trainable=True, name="x")
        mean = t.lift(m0, trainable=True, name="mean")
        var = t.lift(v0, trainable=True, name="var")
        grads = t.backward(t.mean_all(t.gaussian_logpdf(x, mean, var)))
        assert grads["x"].shape == (B, D)
        assert grads["mean"].shape == (D,)
        assert grads["var"].shape == (D,)
        ref_x = fd_grad(lambda z: f(z.reshape(B, D), m0, v0), x0.ravel())
        ref_m = fd_grad(lambda z: f(x0, z, v0), m0)
        ref_v = fd_grad(lambda z: f(x0, m0, z), v0)
        np.testing.assert_allclose(grads["x"].ravel(), ref_x,
                                   rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(grads["mean"], ref_m, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(grads["var"], ref_v, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("var", [[0.5, 0.0, 1.0], [0.5, -1.0, 1.0],
                                     [1.0, 1.0], [[1.0, 1.0, 1.0]],
                                     np.ones((4, 3)), [2.0, 2.0, 2.0, 2.0]])
    def test_diagonal_variance_domain(self, var):
        # a non-positive entry, or a shape neither () nor (D,)
        t = Tape()
        with pytest.raises(DomainError) as err:
            t.gaussian_logpdf(t.lift(np.zeros((4, 3))), t.lift(np.zeros(3)),
                              t.lift(var))
        assert err.value.opcode == "gaussian_logpdf"


class TestAddN:
    """A left-to-right sum as one node."""

    @pytest.mark.parametrize("shapes", [[(4,)] * 5, [(), (4,), (4,)],
                                        [(4,), ()]])
    def test_matches_chained_adds(self, shapes):
        rng = np.random.default_rng(64)
        vals = [rng.normal(size=s) for s in shapes]
        weights = rng.normal(size=4)
        results = []
        for fused in (True, False):
            t = Tape()
            parts = [t.lift(v, trainable=True, name=f"p{i}")
                     for i, v in enumerate(vals)]
            before = len(t.nodes)
            if fused:
                out = t.add_n(parts)
                assert len(t.nodes) == before + 1
            else:
                out = parts[0]
                for p in parts[1:]:
                    out = t.add(out, p)
            grads = t.backward(t.mean_all(t.mul(out, weights)))
            results.append((out.value, grads))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        for name, g in results[0][1].items():
            np.testing.assert_array_equal(g, results[1][1][name])


class TestUnbroadcast:
    @pytest.mark.parametrize("shape", [(1, 7), (1, 1, 7), (1, 2, 7)])
    def test_size_one_leading_axes_match_the_sum(self, shape):
        # a batch-of-one adjoint is reshaped, not summed, to a vector
        g = np.random.default_rng(66).normal(size=shape)
        staged = g
        while staged.ndim > 2:
            staged = staged.sum(axis=0)
        want = staged.sum(axis=0) if staged.ndim == 2 else staged
        np.testing.assert_array_equal(_unbroadcast(g, (7,)), want)
        np.testing.assert_array_equal(_unbroadcast(g, (1, 7)),
                                      want.reshape(1, 7))

    @pytest.mark.parametrize("shape", [(1, 7), (7,), (1, 1, 7)])
    def test_scalar_target_at_batch_one_matches_staged_sum(self, shape):
        # one reduction over every axis; with a batch of one it gives the
        # bits of the old sum over the leading axes, then the last
        g = np.random.default_rng(67).normal(size=shape)
        staged = g
        while staged.ndim:
            staged = staged.sum(axis=0)
        assert _unbroadcast(g, ()).tobytes() == np.float64(staged).tobytes()


class TestBackward:
    def test_vector_loss_rejected(self):
        t = Tape()
        v = t.exp(t.lift([1.0, 2.0], trainable=True, name="v"))
        with pytest.raises(DomainError):
            t.backward(v)

    def test_constant_loss_rejected(self):
        t = Tape()
        with pytest.raises(ValueError, match="constant"):
            t.backward(t.lift(2.0))

    def test_fanout_accumulation(self):
        # y = x*x + 3x uses x three times; closed form dy/dx = 2x + 3
        t = Tape()
        x = t.lift(1.5, trainable=True, name="x")
        loss = t.add(t.mul(x, x), t.mul(3.0, x))
        assert t.backward(loss)["x"] == pytest.approx(2 * 1.5 + 3)

    def test_two_sweeps_give_equal_grads(self):
        """backward leaves the tape unchanged, so it may run again."""
        t = Tape()
        x = t.lift([1.0, -2.0], trainable=True, name="x")
        loss = t.sum(t.mul(t.exp(x), x))
        first = t.backward(loss)
        second = t.backward(loss)
        np.testing.assert_array_equal(first["x"], second["x"])
        np.testing.assert_allclose(first["x"], np.exp([1.0, -2.0]) * [2.0, -1.0],
                                   rtol=1e-15)

    def test_sweep_frees_each_adjoint_once_used(self):
        """An operation's adjoint is dropped once its VJP has run, so the
        sweep's peak does not grow with the chain: a K=64 uha_em/brownian
        tape peaks below 1.5 times a K=8 one (about 7 times when every
        adjoint was kept to the end), and a second sweep is equal."""
        target, cfg = get_target("brownian"), get_method("uha_em")
        peaks = {}
        for K in (8, 64):
            t = Tape()
            model = lift_model(t, cfg, init_params(cfg, target.dim, K),
                               target.dim, K)
            loss = t.mean_all(estimate_elbo(model, target,
                                            np.random.default_rng(0), 32).value)
            tracemalloc.start()
            try:
                grads = t.backward(loss)
                peaks[K] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] < 1.5 * peaks[8]
        again = t.backward(loss)
        for name, g in grads.items():
            np.testing.assert_array_equal(g, again[name])

    @pytest.mark.parametrize("op", ["add", "muladd"])
    def test_gradients_are_writable_and_unaliased(self, op):
        # add(p1, p2) hands both parents the child's own adjoint, and
        # muladd(a, p, p) sends p two; backward must still return arrays
        # the caller owns
        t = Tape()
        p1 = t.lift([1.0, -2.0], trainable=True, name="p1")
        p2 = t.lift([0.5, 3.0], trainable=True, name="p2")
        out = t.add(p1, p2) if op == "add" else t.muladd(2.0, p1, p1)
        loss = t.sum(out)
        grads = t.backward(loss)
        again = t.backward(loss)
        arrays = list(grads.values()) + list(again.values())
        for i, g in enumerate(arrays):
            assert g.flags.writeable
            for other in arrays[i + 1:]:
                assert not np.shares_memory(g, other)
        want = [1.0, 1.0] if op == "add" else [3.0, 3.0]
        np.testing.assert_array_equal(grads["p1"], want)
        grads["p1"] += 100.0
        np.testing.assert_array_equal(t.backward(loss)["p1"], want)

    def test_pushed_adjoint_is_summed_to_each_parent_shape(self):
        # a VJP may return every adjoint at the broadcast shape; backward
        # sums each down to its parent's shape, with _unbroadcast's bits
        shapes = [(), (1,), (3,), (1, 3), (4, 3)]
        g = np.random.default_rng(68).normal(size=(4, 3))
        t = Tape()
        params = [t.lift(np.zeros(s), trainable=True, name=f"p{i}")
                  for i, s in enumerate(shapes)]
        out = t.push(np.zeros((4, 3)), tuple(params),
                     lambda adj: (g,) * len(params))
        grads = t.backward(t.mean_all(out))
        for i, s in enumerate(shapes):
            assert grads[f"p{i}"].shape == s
            assert grads[f"p{i}"].tobytes() == _unbroadcast(g, s).tobytes()
        assert grads["p0"].tobytes() == np.float64(
            np.add.reduce(g, axis=None)).tobytes()

    def test_loss_from_another_tape_rejected(self):
        t, other = Tape(), Tape()
        x = other.lift(2.0, trainable=True, name="x")
        with pytest.raises(ValueError, match="different tape"):
            t.backward(other.mul(x, x))

    def test_deterministic_primals(self):
        def build():
            t = Tape()
            v = t.lift(np.linspace(-1, 1, 5))
            return t.sigmoid(t.affine(v, np.arange(25.0).reshape(5, 5))).value

        a, b = build(), build()
        assert np.array_equal(a, b)

    def test_batched_matches_loop(self):
        # a batch axis must behave as independent chains
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(4, 3))
        t = Tape()
        v = t.lift(xs, trainable=True, name="v")
        loss = t.mean_all(t.sum(t.square(v)))
        grads = t.backward(loss)["v"]
        np.testing.assert_allclose(grads, 2 * xs / 4.0, rtol=1e-12)


class TestShapeUtilities:
    def test_concat_narrow_roundtrip(self):
        t = Tape()
        a = t.lift([1.0, 2.0], trainable=True, name="a")
        b = t.lift([3.0], trainable=True, name="b")
        c = t.concat([a, b])
        np.testing.assert_allclose(c.value, [1.0, 2.0, 3.0])
        loss = t.sum(t.square(t.narrow(c, 1, 3)))
        grads = t.backward(loss)
        np.testing.assert_allclose(grads["a"], [0.0, 4.0])
        np.testing.assert_allclose(grads["b"], [6.0])


def test_softplus_large_inputs_stay_finite():
    t = Tape()
    v = t.softplus(t.lift([-800.0, -30.0, 0.0, 30.0, 800.0]))
    assert np.all(np.isfinite(v.value))
    np.testing.assert_allclose(v.value[-1], 800.0)
    np.testing.assert_allclose(v.value[0], 0.0, atol=1e-12)


def where_sigmoid(x):
    """The select-based sigmoid the array kernel replaced (reference)."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def reference_softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


EDGE_GRID = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 40.0, -40.0,
                      709.0, -709.0, 800.0, -800.0, np.inf, -np.inf])


def assert_same_bits(a, b):
    assert isinstance(a, np.ndarray) and a.shape == np.shape(b)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


class TestSigmoidKernel:
    @pytest.mark.parametrize("x", [
        EDGE_GRID,
        np.array(0.3), np.array(-2.5), np.array(-0.0),
        np.random.default_rng(4).normal(scale=6.0, size=(256, 351)),
        np.random.default_rng(5).normal(scale=6.0, size=(32, 208)),
    ], ids=["edges", "0d", "0d-neg", "0d-negzero", "batch-256", "batch-32"])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_matches_select_formula_bit_for_bit(self, x):
        assert_same_bits(sigmoid(x), where_sigmoid(x))
        assert_same_bits(softplus(x), reference_softplus(x))

    def test_nan_propagates(self):
        x = np.array([np.nan, 0.5, -np.nan])
        for f in (sigmoid, softplus):
            out = f(x)
            assert np.isnan(out[0]) and np.isnan(out[2])
            assert np.isfinite(out[1])

    def test_input_untouched(self):
        x = EDGE_GRID.copy()
        sigmoid(x)
        softplus(x)
        assert_same_bits(x, EDGE_GRID)

    @pytest.mark.parametrize("op", ["sigmoid", "softplus"])
    def test_gradients_at_large_inputs_unchanged(self, op):
        x0 = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
        t = Tape()
        x = t.lift(x0, trainable=True, name="x")
        grad = t.backward(t.sum(getattr(t, op)(x)))["x"]
        s = where_sigmoid(x0)
        assert_same_bits(grad, s * (1.0 - s) if op == "sigmoid" else s)



class TestTracking:
    """Only nodes with a trainable ancestor are recorded, and a tape is
    freed by reference counting alone."""

    def test_op_on_constants_leaves_placeholder(self):
        t = Tape()
        a = t.lift([1.0, 2.0])
        b = t.exp(t.mul(a, 3.0))
        assert not b.needs_grad
        np.testing.assert_array_equal(b.value, np.exp([3.0, 6.0]))
        assert a.index is None and b.index == 1
        assert len(t.nodes) == 2        # the mul and b; constants take none
        slot = t.nodes[b.index]
        assert slot is not b and slot is t.nodes[0]
        assert slot.value is None and slot.parents == () and slot.vjp is None
        assert b.parents == () and b.vjp is None
        assert repr(t.nodes) == "[Var(untracked), Var(untracked)]"

    def test_constant_operand_takes_no_slot(self):
        t = Tape()
        x = t.lift([1.0, -2.0], trainable=True, name="x")
        before = len(t.nodes)
        y = t.mul(x, 2.0)
        assert len(t.nodes) == before + 1 and t.nodes[-1] is y
        assert y.parents[1].index is None and not y.parents[1].needs_grad

    def test_constant_has_no_tape(self):
        t = Tape()
        c = t.lift(1.0)
        with pytest.raises(RuntimeError, match="constant"):
            c.tape

    def test_op_with_trainable_ancestor_is_recorded(self):
        t = Tape()
        x = t.lift(1.5, trainable=True, name="x")
        c = t.lift(2.0)
        y = t.mul(t.exp(x), c)
        assert y.needs_grad and t.nodes[y.index] is y
        assert y.vjp is not None and y.parents[1] is c
        assert t.backward(y)["x"] == pytest.approx(2.0 * np.exp(1.5))

    def test_var_outliving_its_tape_raises(self):
        v = Tape().lift(1.0, trainable=True, name="v")
        assert v.value == 1.0
        with pytest.raises(RuntimeError, match="freed"):
            v.tape

    def test_training_step_tape_freed_without_collector(self):
        target = gaussian_toy_target(2)
        cfg = get_method("ldvi")
        params = init_params(cfg, target.dim, 4)
        gc.disable()
        try:
            t = Tape()
            model = lift_model(t, cfg, params, target.dim, 4)
            est = estimate_elbo(model, target,
                                np.random.default_rng([0, 0]), 3)
            t.backward(t.mean_all(est.value))
            ref = weakref.ref(t)
            del t, model, est
            assert ref() is None
        finally:
            gc.enable()

    def test_train_frees_every_tape_without_collector(self, monkeypatch):
        made = []

        class WatchedTape(Tape):
            def __init__(self):
                super().__init__()
                made.append(weakref.ref(self))

        monkeypatch.setattr(trainer, "Tape", WatchedTape)
        monkeypatch.setattr(estimator, "Tape", WatchedTape)
        plan = TrainPlan("ldvi", "toy", num_steps=3, steps=4, batch=2,
                         eval_samples=4, pretrain_steps=2, score_hidden=4)
        gc.disable()
        try:
            train(plan)
            assert len(made) == 2 + 4 + 1   # pretrain, main, one eval chunk
            assert all(ref() is None for ref in made)
        finally:
            gc.enable()

    @pytest.mark.parametrize("method", method_names())
    def test_evaluation_tape_holds_no_value(self, method):
        target = gaussian_toy_target(2)
        cfg = get_method(method)
        rng = np.random.default_rng(5)
        params = {k: v + 0.05 * rng.normal(size=v.shape)
                  for k, v in init_params(cfg, target.dim, 4).items()}
        bounds = {}
        for trainable in (True, False):
            t = Tape()
            model = lift_model(t, cfg, params, target.dim, 4,
                               trainable=trainable)
            bounds[trainable] = estimate_elbo(
                model, target, np.random.default_rng([0, 0]), 3).value.value
            if not trainable:
                assert t.nodes and all(n.value is None for n in t.nodes)
        assert np.array_equal(bounds[True], bounds[False])


def _tape_calls() -> set[str]:
    """The names of the methods that the package outside `tape.py` calls
    on a tape: on a variable named `t` or `tape`, or an attribute
    `.tape`, the names every module gives the tape it builds on."""
    called = set()
    for path in pathlib.Path(ldvi.__file__).parent.glob("*.py"):
        if path.name == "tape.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            owner = node.func.value
            if (isinstance(owner, ast.Name) and owner.id in ("t", "tape")
                    or isinstance(owner, ast.Attribute)
                    and owner.attr == "tape"):
                called.add(node.func.attr)
    return called


def test_every_public_tape_method_has_a_caller_in_the_package():
    """An operation that only the tests call is dead code: delete it, with
    its tests."""
    public = {name for name, member in vars(Tape).items()
              if callable(member) and not name.startswith("_")}
    assert public - _tape_calls() == set()
