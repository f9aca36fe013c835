"""Unit tests for the optimizer, training loop and run records."""

import json
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest

from ldvi import trainer
from ldvi.estimator import estimate_elbo, get_method, init_params, lift_model
from ldvi.tape import Tape
from ldvi.targets import gaussian_toy_target, get_target
from ldvi.trainer import (AdamState, RunRecord, TrainPlan, TrainingDiverged,
                          adam_step, clip_gradients, global_grad_norm,
                          run_grid, select_best, train)


class TestAdam:
    def test_single_step_hand_computed(self):
        """From zero state, bias correction makes the first update
        -lr * g / (|g| + eps')."""
        state = AdamState()
        params = {"x": np.array([1.0, -2.0])}
        g = np.array([0.5, -3.0])
        out = adam_step(state, params, {"x": g}, lr=0.1)
        # m_hat = g, v_hat = g^2, update = -lr g / (|g| + eps)
        want = params["x"] - 0.1 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(out["x"], want, rtol=1e-12)

    def test_two_steps_hand_computed(self):
        state = AdamState()
        params = {"x": np.array(0.0)}
        g1, g2 = 2.0, -1.0
        params = adam_step(state, params, {"x": np.array(g1)}, lr=0.01)
        params = adam_step(state, params, {"x": np.array(g2)}, lr=0.01)
        b1, b2, eps = 0.9, 0.999, 1e-8
        m = (1 - b1) * g1 * b1 + (1 - b1) * g2
        v = (1 - b2) * g1 ** 2 * b2 + (1 - b2) * g2 ** 2
        m_hat = m / (1 - b1 ** 2)
        v_hat = v / (1 - b2 ** 2)
        step1 = -0.01 * g1 / (abs(g1) + eps)
        want = step1 - 0.01 * m_hat / (np.sqrt(v_hat) + eps)
        assert float(params["x"]) == pytest.approx(want, rel=1e-12)

    def test_zero_gradient_leaves_params(self):
        state = AdamState()
        params = {"x": np.array([3.0])}
        out = adam_step(state, params, {"x": np.zeros(1)}, lr=0.5)
        np.testing.assert_array_equal(out["x"], params["x"])

    def test_quadratic_bowl_convergence(self):
        state = AdamState()
        params = {"x": np.array([0.0, 0.0])}
        target = np.array([1.5, -0.5])
        for _ in range(500):
            grad = 2.0 * (params["x"] - target)
            params = adam_step(state, params, {"x": grad}, lr=1e-2)
        assert np.max(np.abs(params["x"] - target)) < 1e-3

    def test_only_graded_keys_move(self):
        state = AdamState()
        params = {"a": np.array(1.0), "b": np.array(2.0)}
        out = adam_step(state, params, {"a": np.array(1.0)}, lr=0.1)
        assert float(out["b"]) == 2.0
        assert float(out["a"]) != 1.0

    def test_contract_in_place_moments_fresh_params(self):
        """The moments are updated in place; params and grads are left as
        they were; each moved parameter is a fresh array sharing memory
        with no input and no moment; over 3 steps the values equal the
        allocating formula bit for bit, for 0-d, 1-D and 2-D parameters
        and a key that grads leave out."""
        rng = np.random.default_rng(5)
        params = {"s": np.array(0.3), "v": rng.normal(size=4),
                  "w": rng.normal(size=(3, 2)), "fixed": np.array([7.0])}
        want, m, v = dict(params), {}, {}
        state = AdamState()
        for t in range(1, 4):
            grads = {k: rng.normal(size=params[k].shape)
                     for k in ("s", "v", "w")}
            before = ({k: a.copy() for k, a in params.items()},
                      {k: g.copy() for k, g in grads.items()})
            moments = (dict(state.m), dict(state.v))
            out = adam_step(state, params, grads, lr=0.05)
            for key, g in grads.items():
                m[key] = (0.9 * m.get(key, np.zeros_like(g))
                          + (1 - 0.9) * g)
                v[key] = (0.999 * v.get(key, np.zeros_like(g))
                          + (1 - 0.999) * g * g)
                want[key] = np.asarray(
                    want[key] - 0.05 * (m[key] / (1 - 0.9 ** t))
                    / (np.sqrt(v[key] / (1 - 0.999 ** t)) + 1e-8))
            for key in grads:
                if moments[0]:
                    assert state.m[key] is moments[0][key]
                    assert state.v[key] is moments[1][key]
                np.testing.assert_array_equal(state.m[key], m[key])
                np.testing.assert_array_equal(state.v[key], v[key])
                assert out[key].shape == params[key].shape
                for other in (params[key], grads[key], state.m[key],
                              state.v[key]):
                    assert not np.shares_memory(out[key], other)
            for key in params:
                np.testing.assert_array_equal(params[key], before[0][key])
                np.testing.assert_array_equal(out[key], want[key])
            for key in grads:
                np.testing.assert_array_equal(grads[key], before[1][key])
            assert out["fixed"] is params["fixed"] and "fixed" not in state.m
            params = out


class TestClipping:
    def test_norm_and_clip(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        assert global_grad_norm(grads) == pytest.approx(5.0)
        clipped, was = clip_gradients(grads, 2.5)
        assert was
        assert global_grad_norm(clipped) == pytest.approx(2.5)
        same, was = clip_gradients(grads, 10.0)
        assert not was
        assert same is grads

    def test_large_finite_gradient_is_scaled_not_zeroed(self):
        # 1e200 squared overflows; the norm must still be 1e200, not inf
        grads = {"a": np.array([1e200, 1.0]), "b": np.array([3.0])}
        assert global_grad_norm(grads) == pytest.approx(1e200)
        clipped, was = clip_gradients(grads, 100.0)
        assert was
        assert clipped["a"][0] == pytest.approx(100.0)
        assert clipped["a"][1] == pytest.approx(1e-198)
        assert clipped["b"][0] == pytest.approx(3e-198)
        assert global_grad_norm(clipped) == pytest.approx(100.0)

    def test_infinite_norm_stays_infinite(self):
        assert global_grad_norm({"a": np.array([1.7e308, 1.7e308])}) == np.inf
        assert global_grad_norm({"a": np.array([np.inf, 1.0])}) == np.inf

    def test_clipped_scalar_gradient_stays_a_0d_array(self):
        """A clipped 0-d gradient, uha's raw_delta, is a 0-d ndarray with
        the bits of the scaled gradient."""
        cfg = get_method("uha")
        t = Tape()
        model = lift_model(t, cfg, init_params(cfg, 2, 3), 2, 3)
        est = estimate_elbo(model, gaussian_toy_target(2),
                            np.random.default_rng(0), 4)
        grads = t.backward(t.mean_all(est.value))
        clipped, was = clip_gradients(grads, 1e-6)
        assert was
        got = clipped["raw_delta"]
        assert type(got) is np.ndarray and got.shape == ()
        scale = 1e-6 / global_grad_norm(grads)
        assert got.tobytes() == np.float64(grads["raw_delta"] * scale).tobytes()

    def test_ordinary_norm_keeps_its_bytes(self):
        rng = np.random.default_rng(0)
        grads = {"a": rng.normal(size=5), "b": rng.normal(size=(2, 3))}
        total = 0.0
        for g in grads.values():
            total += float(np.sum(np.square(g)))
        assert global_grad_norm(grads) == float(np.sqrt(total))


def toy_plan(**kw):
    defaults = dict(method="plainvi", target="toy", num_steps=1, lr=1e-2,
                    steps=300, batch=16, eval_samples=64, seed=0,
                    pretrain_steps=0, record_every=100, toy_dim=2)
    defaults.update(kw)
    return TrainPlan(**defaults)


class TestTrain:
    def test_plain_vi_reaches_log_z(self):
        plan = toy_plan(steps=800)
        target = gaussian_toy_target(2, mean=1.0, cov_diag=1.5)
        record = train(plan, target=target)
        assert record.status == "ok"
        assert record.final_elbo == pytest.approx(target.log_z, abs=1e-3)

    def test_annealed_method_trains_and_records(self):
        plan = toy_plan(method="ula", num_steps=4, steps=60, lr=1e-2,
                        pretrain_steps=40, record_every=20)
        target = gaussian_toy_target(2, mean=0.5, cov_diag=2.0)
        record = train(plan, target=target)
        assert record.status == "ok"
        assert record.curve[0][0] == 0
        assert record.curve[-1][0] == plan.steps - 1
        assert record.skipped_steps == 0
        assert np.isfinite(record.final_elbo)
        assert record.final_stderr > 0
        assert record.metadata["trainable"] == ["beta", "delta", "q"]

    def test_deterministic_records(self):
        plan = toy_plan(method="uha", num_steps=3, steps=40,
                        pretrain_steps=20, eval_samples=32)
        target = gaussian_toy_target(2, mean=0.3, cov_diag=1.2)
        a = train(plan, target=target)
        b = train(plan, target=target)
        assert a.canonical_bytes() == b.canonical_bytes()
        assert a.wall_time != b.wall_time or True  # wall time excluded above
        for key in a.params:
            np.testing.assert_array_equal(a.params[key], b.params[key])

    def test_divergence_floor_aborts(self, monkeypatch):
        """The floor is checked before the backward sweep, which over a
        diverged graph may itself overflow."""
        swept = []

        class SweepCountingTape(Tape):
            def backward(self, loss):
                swept.append(loss)
                return super().backward(loss)

        monkeypatch.setattr(trainer, "Tape", SweepCountingTape)
        plan = toy_plan(method="ula", num_steps=2, steps=10,
                        divergence_floor=1e9)  # unreachable bound
        target = gaussian_toy_target(1)
        with pytest.raises(TrainingDiverged, match="step 0"):
            train(plan, target=target)
        assert swept == []

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            toy_plan(steps=0)
        with pytest.raises(ValueError):
            toy_plan(num_steps=0)

    @pytest.mark.parametrize("field,value", [
        ("batch", 0), ("eval_samples", 1), ("record_every", 0),
        ("grad_clip", 0.0), ("grad_clip", float("nan")), ("lr", 0.0),
        ("lr", -1e-2), ("pretrain_lr", float("nan")), ("pretrain_steps", -1),
        ("divergence_floor", float("nan")), ("toy_dim", 0),
        ("score_hidden", 0), ("score_hidden", -3),
        ("steps", 2.5), ("batch", 2.5), ("eval_samples", 10.5),
        ("pretrain_steps", 1.5), ("steps", np.int64(2)), ("steps", True),
        ("num_steps", np.int32(3)), ("seed", 1.0), ("seed", False),
        ("seed", -1),
        ("record_every", 5.0), ("toy_dim", np.int64(2)),
        ("score_hidden", 4.0), ("lr", float("inf")),
        ("pretrain_lr", float("inf")), ("divergence_floor", float("inf")),
        ("lr", True), ("lr", "0.1"), ("lr", np.float32(0.1)),
        ("pretrain_lr", False), ("pretrain_lr", None), ("grad_clip", None),
        ("grad_clip", True), ("divergence_floor", "-1e8"),
        ("divergence_floor", False), ("data_dir", pathlib.Path("data")),
        ("data_dir", b"data")])
    def test_plan_rejects_bad_value(self, field, value):
        """Each value failed mid-run, trained nothing, descended the bound
        or wrote a record that is not JSON before. A count must be a plain
        int: not a float, a bool or a numpy integer. A rate, the clip and
        the floor must be an int or a float: not a bool, a string, None or
        a numpy float32. data_dir must be a str or None: a pathlib.Path
        trained, and then its record failed to serialise."""
        with pytest.raises(ValueError, match=field):
            toy_plan(**{field: value})

    def test_plan_accepts_int_and_float64_reals(self):
        """A numpy float64 is a float, and its record is JSON."""
        plan = toy_plan(lr=np.float64(1e-2), grad_clip=10,
                        divergence_floor=-100)
        assert (plan.lr, plan.grad_clip) == (1e-2, 10)
        assert json.loads(json.dumps(plan.to_dict()))["lr"] == 1e-2

    def test_plan_accepts_infinite_grad_clip(self):
        """grad_clip=inf turns clipping off."""
        assert toy_plan(grad_clip=float("inf")).grad_clip == float("inf")

    def test_plan_accepts_no_divergence_floor(self):
        """divergence_floor=-inf turns the floor off."""
        plan = toy_plan(divergence_floor=float("-inf"))
        assert plan.divergence_floor == float("-inf")

    def test_transform_safety_after_training(self):
        """delta, gamma, sigma stay positive and beta stays increasing."""
        plan = toy_plan(method="ldvi", num_steps=3, steps=30, lr=5e-2,
                        pretrain_steps=0, score_hidden=4)
        target = gaussian_toy_target(2, mean=0.4, cov_diag=0.9)
        record = train(plan, target=target)
        p = record.params
        assert np.logaddexp(0.0, p["raw_delta"]) > 0
        assert np.logaddexp(0.0, p["raw_gamma"]) > 0
        assert np.all(np.logaddexp(0.0, p["q.raw_scale"]) > 0)
        incr = np.logaddexp(0.0, p["schedule.weights"])
        betas = np.cumsum(incr) / incr.sum()
        assert np.all(np.diff(np.concatenate([[0.0], betas])) > 0)
        assert betas[-1] == pytest.approx(1.0)


class TestGrid:
    def make_records(self):
        plans = [toy_plan(steps=30, lr=lr, eval_samples=16)
                 for lr in (1e-2, 1e-3)]
        plans.append(toy_plan(steps=30, method="nope"))
        return run_grid(plans)

    def test_failures_recorded_grid_continues(self):
        records = self.make_records()
        assert [r.status for r in records] == ["ok", "ok", "failed"]
        assert "nope" in records[2].error

    def test_select_best(self):
        records = self.make_records()
        best = select_best(records)
        key = ("plainvi", "toy", 1)
        assert set(best) == {key}
        assert best[key].final_elbo == max(r.final_elbo for r in records[:2])


class TestPersistence:
    def test_record_round_trip(self):
        rec = RunRecord(plan=toy_plan().to_dict(), final_elbo=-1.25,
                        final_stderr=0.01, curve=[(0, -5.0), (10, -2.0)],
                        skipped_steps=1, clipped_steps=2, wall_time=3.3,
                        metadata={"target_dim": 2})
        back = RunRecord.from_json(rec.to_json())
        assert back == rec
        assert back.canonical_bytes() == rec.canonical_bytes()

    def test_params_stay_out_of_json_bytes_equality_and_repr(self):
        fields = dict(plan=toy_plan().to_dict(), final_elbo=-1.25,
                      curve=[(0, -5.0)], metadata={"target_dim": 2})
        bare = RunRecord(**fields)
        rec = RunRecord(**fields, params={"q.mu": np.array([0.5, -0.5])})
        assert rec.to_json() == bare.to_json()
        assert "params" not in json.loads(rec.to_json())
        assert rec.canonical_bytes() == bare.canonical_bytes()
        assert rec == bare and repr(rec) == repr(bare)
        assert RunRecord.from_json(rec.to_json()).params is None

    def test_canonical_bytes_ignore_wall_time(self):
        a = RunRecord(plan={"p": 1}, wall_time=1.0)
        b = RunRecord(plan={"p": 1}, wall_time=9.9)
        assert a.canonical_bytes() == b.canonical_bytes()
        c = RunRecord(plan={"p": 2}, wall_time=1.0)
        assert a.canonical_bytes() != c.canonical_bytes()


class TestStepLifetime:
    """`train` holds one step's graph at a time and frees it before the
    update."""

    def test_graph_and_gradients_freed_in_time(self, monkeypatch):
        """When Adam runs for step s, step s's tape is freed; when step s
        sweeps backward, step s-1's gradients (as swept and as clipped)
        are freed. Reference counting must do it, with no collection."""
        tapes, grads, adam_calls = [], [], []

        class TrackedTape(Tape):
            def backward(self, loss):
                assert all(r() is None for r in grads)
                out = super().backward(loss)
                grads.extend(weakref.ref(g) for g in out.values())
                return out

        def make_tape():
            tape = TrackedTape()
            tapes.append(weakref.ref(tape))
            return tape

        def clip(g, max_norm):
            out, was = clip_gradients(g, max_norm)
            grads.extend(weakref.ref(a) for a in out.values())
            return out, was

        def adam(*args, **kwargs):
            adam_calls.append(len(tapes))
            assert all(r() is None for r in tapes)
            return adam_step(*args, **kwargs)

        monkeypatch.setattr(trainer, "Tape", make_tape)
        monkeypatch.setattr(trainer, "clip_gradients", clip)
        monkeypatch.setattr(trainer, "adam_step", adam)
        for grad_clip in (100.0, 1e-6):   # unclipped and clipped
            del tapes[:], grads[:], adam_calls[:]
            train(toy_plan(method="uha", num_steps=3, steps=3,
                           pretrain_steps=2, eval_samples=4,
                           grad_clip=grad_clip),
                  target=gaussian_toy_target(2))
            assert adam_calls == [1, 2, 3, 4, 5]

    def test_initial_params_freed_after_first_update(self, monkeypatch):
        """Once the first main-phase update has replaced them, no starting
        parameter array is alive: `train` keeps no reference to them."""
        initial, alive = [], []

        def init(*args, **kwargs):
            params = init_params(*args, **kwargs)
            initial.extend(weakref.ref(a) for a in params.values())
            return params

        def adam(state, params, grads, lr):
            if "schedule.weights" in params:    # a main-phase update
                alive.append(sum(r() is not None for r in initial))
            return adam_step(state, params, grads, lr)

        monkeypatch.setattr(trainer, "init_params", init)
        monkeypatch.setattr(trainer, "adam_step", adam)
        train(toy_plan(method="ldvi", num_steps=3, steps=3, pretrain_steps=2,
                       eval_samples=4, score_hidden=4),
              target=gaussian_toy_target(2))
        # pretraining replaced q; the rest lives until the first update
        assert alive[0] == len(initial) - 2
        assert alive[1:] == [0, 0]

    def test_peak_memory_flat_in_steps(self):
        """The tracemalloc peak of a 4-step train() is at most 1.25x that
        of a 1-step one: holding the previous step's graph through the
        next forward pass roughly doubles it."""
        target = get_target("brownian")

        def peak(steps):
            plan = TrainPlan("uha", "brownian", num_steps=32, steps=steps,
                             batch=8, pretrain_steps=2, eval_samples=2)
            tracemalloc.start()
            try:
                train(plan, target=target)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)   # warm any one-time allocations
        assert peak(4) <= 1.25 * peak(1)
