"""Unit tests for the learned score network."""

import gc
import types
import weakref

import numpy as np
import pytest

from ldvi.scorenet import ScoreNet
from ldvi.tape import Tape
from reference import score_chain


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

    @pytest.mark.parametrize("hidden", [0, -1])
    def test_width_below_one_rejected(self, hidden):
        with pytest.raises(ValueError, match="hidden"):
            ScoreNet(dim=3, hidden=hidden)


DIM, HIDDEN = 3, 6
# (D,), (1, D) and (4, D) inputs
BATCHES = [(), (1,), (4,)]


def net_and_inputs(position_only, batch, seed=0):
    net = ScoreNet(dim=DIM, hidden=HIDDEN, position_only=position_only)
    params = perturbed(net.init_params(seed=seed), seed=seed + 1, scale=0.5)
    rng = np.random.default_rng(seed + 2)
    z, rho, c1, c2 = (rng.normal(size=batch + (DIM,)) for _ in range(4))
    return net, params, z, rho, (c1, c2)


def outputs_and_grads(score, net, params, z, rho, coefs):
    """Two calls of the net sharing its weights, with z and rho also used
    outside it before and after, so that every adjoint is a sum."""
    t = Tape()
    lifted = lift_all(t, params)
    vz = t.lift(z, trainable=True, name="z")
    vr = t.lift(rho, trainable=True, name="rho")
    before = t.mean_all(t.mul(vz, vr))
    outs = [score(net, t, lifted, k, 8, vz, vr) for k in (1, 5)]
    after = t.mean_all(t.square(t.add(vz, vr)))
    loss = t.add_n([before] + [t.mean_all(t.mul(o, c))
                               for o, c in zip(outs, coefs)] + [after])
    return [o.value for o in outs], t.backward(loss)


def closure_arrays(fn):
    """The arrays a function's closure holds, directly, in a tuple or in
    the closure of a function it holds."""
    arrays = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                arrays.append(item)
            elif isinstance(item, types.FunctionType):
                arrays += closure_arrays(item)
    return arrays


@pytest.mark.parametrize("batch", BATCHES, ids=str)
@pytest.mark.parametrize("position_only", [False, True])
class TestFusedNode:
    """`ScoreNet.apply` is one node with the value and gradients of the
    ten-node chain in `reference.score_chain`."""

    def test_matches_the_reference_chain_bit_for_bit(self, position_only,
                                                     batch):
        net, params, z, rho, coefs = net_and_inputs(position_only, batch)
        outs, grads = outputs_and_grads(ScoreNet.apply, net, params, z, rho,
                                        coefs)
        ref_outs, ref_grads = outputs_and_grads(score_chain, net, params, z,
                                                rho, coefs)
        for out, ref in zip(outs, ref_outs):
            assert out.shape == batch + (DIM,)
            np.testing.assert_array_equal(out, ref)
        assert grads.keys() == ref_grads.keys()
        for key in grads:
            np.testing.assert_array_equal(grads[key], ref_grads[key],
                                          err_msg=key)

    def test_gradients_match_central_differences(self, position_only,
                                                 batch):
        net, params, z, rho, (c, _) = net_and_inputs(position_only, batch, 3)
        arrays = {"z": z, "rho": rho, **params}

        def loss_at(values):
            t = Tape()
            lifted = lift_all(t, values)
            out = net.apply(t, lifted, 2, 8, lifted["z"], lifted["rho"])
            return t.mean_all(t.mul(out, c)), t

        loss, t = loss_at(arrays)
        grads = t.backward(loss)
        rng = np.random.default_rng(4)
        h = 1e-6
        for key, value in arrays.items():
            if key == "rho" and position_only:
                np.testing.assert_array_equal(grads[key], 0.0)
                continue
            # every entry of z and rho, one random entry of each weight
            entries = (list(np.ndindex(value.shape)) if key in ("z", "rho")
                       else [tuple(rng.integers(n) for n in value.shape)])
            for idx in entries:
                plus = {k: v.copy() for k, v in arrays.items()}
                minus = {k: v.copy() for k, v in arrays.items()}
                plus[key][idx] += h
                minus[key][idx] -= h
                fd = (float(loss_at(plus)[0].value)
                      - float(loss_at(minus)[0].value)) / (2 * h)
                np.testing.assert_allclose(grads[key][idx], fd, rtol=1e-6,
                                           atol=1e-9, err_msg=f"{key}{idx}")

    def test_each_call_records_one_node(self, position_only, batch):
        net, params, z, rho, _ = net_and_inputs(position_only, batch)
        for trainable in (True, False):
            t = Tape()
            lifted = {k: t.lift(v, trainable=trainable, name=k)
                      for k, v in params.items()}
            vz, vr = t.lift(z), t.lift(rho)
            for calls in (1, 2, 3):
                net.apply(t, lifted, calls, 8, vz, vr)
                assert len(t.nodes) == len(t.params) + calls

    def test_a_dropped_tape_is_freed_without_the_collector(
            self, position_only, batch):
        net, params, z, rho, (c, _) = net_and_inputs(position_only, batch)
        gc.disable()
        try:
            t = Tape()
            lifted = lift_all(t, params)
            out = net.apply(t, lifted, 1, 8,
                            t.lift(z, trainable=True, name="z"), t.lift(rho))
            t.backward(t.mean_all(t.mul(out, c)))
            ref = weakref.ref(t)
            del t, lifted, out
            assert ref() is None
        finally:
            gc.enable()


@pytest.mark.parametrize("position_only", [False, True])
def test_node_keeps_only_the_three_tanh_outputs(position_only):
    """What a batch-4 node holds for its VJP, besides its parents: h0, t1
    and t2, and not the input features or a residual sum."""
    net, params, z, rho, _ = net_and_inputs(position_only, (4,))
    t = Tape()
    node = net.apply(t, lift_all(t, params), 1, 8, t.lift(z), t.lift(rho))
    batch_shaped = [a.shape for a in closure_arrays(node.vjp)
                    if a.shape[:1] == (4,)]
    assert batch_shaped == [(4, HIDDEN)] * 3
