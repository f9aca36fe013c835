"""Unit tests for the learned score network."""

import numpy as np
import pytest

from ldvi.scorenet import ScoreNet
from ldvi.tape import Tape


def lift_all(t, params):
    return {k: t.lift(v, trainable=True, name=k) for k, v in params.items()}


def apply_net(net, params, k, K, z, rho):
    t = Tape()
    lifted = lift_all(t, params)
    return net.apply(t, lifted, k, K, t.lift(z), t.lift(rho)).value


def perturbed(params, seed=0, scale=0.1):
    rng = np.random.default_rng(seed)
    return {k: v + scale * rng.normal(size=v.shape) for k, v in params.items()}


class TestScoreNet:
    def test_zero_at_initialization(self):
        net = ScoreNet(dim=3, hidden=8)
        params = net.init_params(seed=1)
        rng = np.random.default_rng(2)
        out = apply_net(net, params, 2, 4, rng.normal(size=3), rng.normal(size=3))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_output_shape_batched(self):
        net = ScoreNet(dim=4, hidden=8)
        params = perturbed(net.init_params(seed=0))
        rng = np.random.default_rng(3)
        out = apply_net(net, params, 1, 8, rng.normal(size=(6, 4)),
                        rng.normal(size=(6, 4)))
        assert out.shape == (6, 4)

    def test_batched_matches_loop(self):
        net = ScoreNet(dim=2, hidden=6)
        params = perturbed(net.init_params(seed=4))
        rng = np.random.default_rng(5)
        zs, rs = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        batched = apply_net(net, params, 3, 8, zs, rs)
        for i in range(5):
            np.testing.assert_allclose(batched[i],
                                       apply_net(net, params, 3, 8, zs[i], rs[i]),
                                       rtol=1e-12)

    def test_default_hidden_width(self):
        assert ScoreNet(dim=3).hidden == 64
        assert ScoreNet(dim=40).hidden == 80
        assert ScoreNet(dim=3, hidden=5).hidden == 5

    def test_time_feature_matters(self):
        net = ScoreNet(dim=2, hidden=8)
        params = perturbed(net.init_params(seed=6))
        z, rho = np.array([0.4, -0.2]), np.array([0.1, 0.3])
        a = apply_net(net, params, 1, 8, z, rho)
        b = apply_net(net, params, 7, 8, z, rho)
        assert np.max(np.abs(a - b)) > 1e-6

    def test_momentum_input_matters_unless_position_only(self):
        z = np.array([0.4, -0.2])
        r1, r2 = np.array([0.1, 0.3]), np.array([-1.0, 2.0])
        full = ScoreNet(dim=2, hidden=8)
        params = perturbed(full.init_params(seed=7))
        assert np.max(np.abs(apply_net(full, params, 1, 4, z, r1)
                             - apply_net(full, params, 1, 4, z, r2))) > 1e-6
        pos = ScoreNet(dim=2, hidden=8, position_only=True)
        pos_params = perturbed(pos.init_params(seed=7))
        np.testing.assert_array_equal(apply_net(pos, pos_params, 1, 4, z, r1),
                                      apply_net(pos, pos_params, 1, 4, z, r2))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_position_only_first_layer_is_the_full_ones_first_columns(
            self, dim):
        full = ScoreNet(dim=dim, hidden=8).init_params(seed=3)
        pos = ScoreNet(dim=dim, hidden=8, position_only=True)
        params = pos.init_params(seed=3)
        assert pos.input_dim == 1 + dim
        assert params["score.W0"].shape == (8, 1 + dim)
        np.testing.assert_array_equal(params["score.W0"],
                                      full["score.W0"][:, :1 + dim])
        for key in full.keys() - {"score.W0"}:
            np.testing.assert_array_equal(params[key], full[key])

    def test_position_only_needs_no_momentum(self):
        net = ScoreNet(dim=2, hidden=8, position_only=True)
        params = perturbed(net.init_params(seed=7))
        z = np.array([[0.4, -0.2], [1.0, 0.5], [-0.3, 0.8]])
        t = Tape()
        out = net.apply(t, lift_all(t, params), 1, 4, t.lift(z), None).value
        np.testing.assert_array_equal(
            out, apply_net(net, params, 1, 4, z, np.ones_like(z)))

    def test_gradients_reach_every_parameter(self):
        net = ScoreNet(dim=2, hidden=6)
        params = perturbed(net.init_params(seed=8))
        t = Tape()
        lifted = lift_all(t, params)
        rng = np.random.default_rng(9)
        out = net.apply(t, lifted, 2, 4, t.lift(rng.normal(size=(3, 2))),
                        t.lift(rng.normal(size=(3, 2))))
        grads = t.backward(t.mean_all(t.square(out)))
        for key in params:
            assert np.any(grads[key] != 0.0), key

    def test_parameter_gradients_match_finite_differences(self):
        net = ScoreNet(dim=2, hidden=4)
        params = perturbed(net.init_params(seed=10))
        rng = np.random.default_rng(11)
        z, rho = rng.normal(size=2), rng.normal(size=2)

        def loss_at(ps):
            t = Tape()
            lifted = lift_all(t, ps)
            out = net.apply(t, lifted, 1, 4, t.lift(z), t.lift(rho))
            return float(t.sum(t.square(out)).value)

        t = Tape()
        lifted = lift_all(t, params)
        out = net.apply(t, lifted, 1, 4, t.lift(z), t.lift(rho))
        grads = t.backward(t.sum(t.square(out)))

        h = 1e-6
        for key, val in params.items():
            fd = np.zeros_like(val)
            for idx in np.ndindex(val.shape):
                pp = {k: v.copy() for k, v in params.items()}
                pm = {k: v.copy() for k, v in params.items()}
                pp[key][idx] += h
                pm[key][idx] -= h
                fd[idx] = (loss_at(pp) - loss_at(pm)) / (2 * h)
            np.testing.assert_allclose(grads[key], fd, rtol=1e-4, atol=1e-7)

    def test_score_fn_closure(self):
        net = ScoreNet(dim=2, hidden=4)
        params = perturbed(net.init_params(seed=12))
        t = Tape()
        fn = net.make_score_fn(t, lift_all(t, params), num_steps=8)
        rng = np.random.default_rng(13)
        z, rho = rng.normal(size=2), rng.normal(size=2)
        np.testing.assert_allclose(fn(3, t.lift(z), t.lift(rho)).value,
                                   apply_net(net, params, 3, 8, z, rho),
                                   rtol=1e-12)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            ScoreNet(dim=0)
