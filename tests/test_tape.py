"""Unit tests for the reverse-mode tape."""

import gc
import weakref

import numpy as np
import pytest

from ldvi import estimator, trainer
from ldvi.estimator import (NoiseBundle, estimate_elbo, get_method,
                            init_params, lift_model, method_names)
from ldvi.tape import Tape, DomainError, sigmoid, softplus
from ldvi.targets import gaussian_toy_target
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


class TestApply:
    def test_exp_at_zero(self):
        t = Tape()
        x = t.lift(0.0, trainable=True, name="x")
        y = t.exp(x)
        assert y.value == pytest.approx(1.0)
        assert t.backward(y)["x"] == pytest.approx(1.0)

    def test_tanh_matches_finite_difference(self):
        t = Tape()
        x = t.lift(0.5, trainable=True, name="x")
        grads = t.backward(t.tanh(x))
        ref = fd_grad(lambda v: np.tanh(v[0]), np.array([0.5]))[0]
        assert abs(grads["x"] - ref) / abs(ref) < 1e-6

    def test_log_domain_error_carries_opcode(self):
        t = Tape()
        with pytest.raises(DomainError) as err:
            t.log(t.lift(-1.0))
        assert err.value.opcode == "log"

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
    "log": (0.05, 5.0),
    # bounded so the true derivative is not so small that the finite-difference
    # reference itself drowns in roundoff at h=1e-6
    "tanh": (-4.0, 4.0),
    "softplus": (-4.0, 4.0),
    "sigmoid": (-4.0, 4.0),
    "square": (-5.0, 5.0),
    "sqrt": (0.05, 5.0),
}

BINARY = ("add", "sub", "mul", "div")


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
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.uniform(-3.0, 3.0, size=3)
            b = rng.uniform(0.5, 3.0, size=3)
            t = Tape()
            va = t.lift(a, trainable=True, name="a")
            vb = t.lift(b, trainable=True, name="b")
            loss = t.sum(getattr(t, op)(va, vb))
            grads = t.backward(loss)
            fa = fd_grad(lambda z: np.sum(_numpy_binop(op, z, b)), a)
            fb = fd_grad(lambda z: np.sum(_numpy_binop(op, a, z)), b)
            for ad, ref in ((grads["a"], fa), (grads["b"], fb)):
                denom = np.maximum(np.abs(ref), 1e-8)
                assert np.max(np.abs(ad - ref) / denom) < 1e-6

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


def _numpy_op(op, x):
    return {
        "neg": lambda z: -z,
        "exp": np.exp,
        "log": np.log,
        "tanh": np.tanh,
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
        diff = t.sub(x, mean)
        quad = t.sum(t.square(diff))
        inv = t.div(quad, t.mul(2.0, var))
        norm = t.mul(0.5 * 5, t.log(t.mul(2.0 * np.pi, var)))
        chain = t.neg(t.add(norm, inv))
        fused = t.gaussian_logpdf(x, mean, var)
        np.testing.assert_array_equal(fused.value, chain.value)

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


class TestBackward:
    def test_vector_loss_rejected(self):
        t = Tape()
        v = t.lift([1.0, 2.0])
        with pytest.raises(DomainError):
            t.backward(v)

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

    def test_loss_from_another_tape_rejected(self):
        t, other = Tape(), Tape()
        x = other.lift(2.0, trainable=True, name="x")
        with pytest.raises(ValueError, match="different tape"):
            t.backward(other.mul(x, x))

    def test_deterministic_primals(self):
        def build():
            t = Tape()
            v = t.lift(np.linspace(-1, 1, 5))
            return t.tanh(t.affine(v, np.arange(25.0).reshape(5, 5))).value

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

    def test_linear_layer_gradients(self):
        rng = np.random.default_rng(5)
        W = rng.normal(size=(2, 3))
        b = rng.normal(size=2)
        x = rng.normal(size=(4, 3))
        t = Tape()
        vW = t.lift(W, trainable=True, name="W")
        vb = t.lift(b, trainable=True, name="b")
        vx = t.lift(x, trainable=True, name="x")
        loss = t.mean_all(t.square(t.linear(vx, vW, vb)))
        grads = t.backward(loss)
        f = lambda Wv, bv, xv: np.mean((xv @ Wv.T + bv) ** 2)
        np.testing.assert_allclose(
            grads["W"], fd_grad(lambda z: f(z.reshape(2, 3), b, x), W.ravel()).reshape(2, 3),
            rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(
            grads["b"], fd_grad(lambda z: f(W, z, x), b), rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(
            grads["x"], fd_grad(lambda z: f(W, b, z.reshape(4, 3)), x.ravel()).reshape(4, 3),
            rtol=1e-6, atol=1e-9)


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
        assert len({v.index for v in (a, b)}) == 2
        assert len(t.nodes) == 4        # a, the lifted 3.0, the mul, b
        slot = t.nodes[b.index]
        assert slot is not b and slot is t.nodes[a.index]
        assert slot.value is None and slot.parents == () and slot.vjp is None
        assert b.parents == () and b.vjp is None
        assert repr(t.nodes) == "[" + ", ".join(["Var(untracked)"] * 4) + "]"

    def test_op_with_trainable_ancestor_is_recorded(self):
        t = Tape()
        x = t.lift(1.5, trainable=True, name="x")
        c = t.constant(2.0)
        y = t.mul(t.exp(x), c)
        assert y.needs_grad and t.nodes[y.index] is y
        assert y.vjp is not None and y.parents[1] is c
        assert t.backward(y)["x"] == pytest.approx(2.0 * np.exp(1.5))

    def test_var_outliving_its_tape_raises(self):
        v = Tape().lift(1.0)
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
                                NoiseBundle.draw(0, 0, 3, target.dim, 4))
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
        noise = NoiseBundle.draw(0, 0, 3, target.dim, 4)
        bounds = {}
        for trainable in (True, False):
            t = Tape()
            model = lift_model(t, cfg, params, target.dim, 4,
                               trainable=trainable)
            bounds[trainable] = estimate_elbo(model, target, noise).value.value
            if not trainable:
                assert t.nodes and all(n.value is None for n in t.nodes)
        assert np.array_equal(bounds[True], bounds[False])
