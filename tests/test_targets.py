"""Unit tests for the benchmark targets.

Each log-density is checked against an independently written scipy.stats
oracle, and each analytic score is checked two ways: against the tape's own
backward pass through logp, and against finite differences of the oracle.
"""

import math

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import binom, gamma, multivariate_normal, norm

from ldvi.tape import Tape
from ldvi.targets import (
    BROWNIAN_OBSERVED_MASK, LORENZ_OBSERVED_MASK, SEEDS_N, SEEDS_R,
    SEEDS_X1, SEEDS_X2, TARGET_NAMES, Dataset, brownian_motion_target,
    default_data_dir, gaussian_toy_target, get_target,
    load_binary_classification_csv, logistic_regression_target, lorenz_target,
    seeds_target,
)
from ldvi.data._observations import BROWNIAN_OBSERVATIONS, LORENZ_OBSERVATIONS


def tape_logp(model, v):
    t = Tape()
    return float(model.logp(t, t.lift(v)).value)


def tape_score(model, v):
    t = Tape()
    return np.asarray(model.score(t, t.lift(v)).value)


def backward_grad(model, v):
    t = Tape()
    z = t.lift(v, trainable=True, name="z")
    return t.backward(model.logp(t, z))["z"]


def fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def check_target(model, oracle, rng, n_points=20, fd_points=3, scale=1.0):
    """Shared value/score battery for one target."""
    for j in range(n_points):
        v = scale * rng.normal(size=model.dim)
        # normalized log-density agrees with the scipy oracle
        assert tape_logp(model, v) == pytest.approx(oracle(v), rel=1e-10, abs=1e-9)
        # analytic score agrees with reverse-mode gradient of logp
        s = tape_score(model, v)
        g = backward_grad(model, v)
        np.testing.assert_allclose(s, g, rtol=1e-9, atol=1e-9)
        if j < fd_points:
            ref = fd_grad(oracle, v)
            denom = np.maximum(np.abs(ref), 1e-3)
            assert np.max(np.abs(s - ref) / denom) < 1e-5


def check_batched(model, rng):
    """A batch axis must evaluate like a loop over chains."""
    vs = rng.normal(size=(4, model.dim))
    t = Tape()
    batched_lp = model.logp(t, t.lift(vs)).value
    batched_sc = model.score(t, t.lift(vs)).value
    assert batched_lp.shape == (4,)
    assert batched_sc.shape == (4, model.dim)
    for i in range(4):
        assert batched_lp[i] == pytest.approx(tape_logp(model, vs[i]), rel=1e-12)
        np.testing.assert_allclose(batched_sc[i], tape_score(model, vs[i]),
                                   rtol=1e-12)


# ------------------------------------------------------------------- loading

IONO_COLS = 35  # 34 features (one constant -> zeros) + intercept
SONAR_COLS = 61


class TestLoader:
    def _write(self, path, text):
        path.write_text(text)
        return path

    def test_basic_csv(self, tmp_path):
        p = self._write(tmp_path / "d.csv",
                        "1.0,2.0,pos\n3.0,4.0,neg\n5.0,6.0,pos\n")
        data = load_binary_classification_csv(p, "pos")
        assert data.features.shape == (3, 3)  # 2 features + intercept
        np.testing.assert_allclose(data.features[:, -1], 1.0)
        np.testing.assert_allclose(data.labels, [1.0, 0.0, 1.0])

    def test_standardization(self, tmp_path):
        p = self._write(tmp_path / "d.csv", "1.0,5.0,a\n3.0,5.0,b\n")
        data = load_binary_classification_csv(p, "a")
        col = data.features[:, 0]
        assert col.mean() == pytest.approx(0.0, abs=1e-12)
        assert col.std() == pytest.approx(1.0, abs=1e-12)
        # constant column becomes zeros rather than dividing by zero
        np.testing.assert_allclose(data.features[:, 1], 0.0)

    def test_comments_and_header_skipped(self, tmp_path):
        p = self._write(tmp_path / "d.csv",
                        "# provenance line\nf1,f2,label\n1.0,2.0,x\n3.0,4.0,y\n")
        data = load_binary_classification_csv(p, "x")
        assert data.features.shape[0] == 2

    def test_ragged_rows_rejected(self, tmp_path):
        p = self._write(tmp_path / "d.csv", "1.0,2.0,a\n1.0,b\n")
        with pytest.raises(ValueError, match="ragged"):
            load_binary_classification_csv(p, "a")

    def test_bad_field_reported_with_line_number(self, tmp_path):
        p = self._write(tmp_path / "d.csv", "1.0,2.0,a\n1.0,oops,b\n")
        with pytest.raises(ValueError, match="d.csv:2"):
            load_binary_classification_csv(p, "a")

    def test_unknown_positive_label(self, tmp_path):
        p = self._write(tmp_path / "d.csv", "1.0,a\n2.0,b\n")
        with pytest.raises(ValueError, match="positive_label"):
            load_binary_classification_csv(p, "z")

    def test_empty_file(self, tmp_path):
        p = self._write(tmp_path / "d.csv", "# nothing\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_binary_classification_csv(p, "a")

    def test_missing_values_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            Dataset(features=np.array([[1.0, np.nan]]), labels=np.array([1.0]))

    def test_data_dir_override(self, tmp_path, monkeypatch):
        """`data_dir` picks the files; the environment does not."""
        bundled_dir = default_data_dir()
        lines = (bundled_dir / "sonar.csv").read_text().splitlines()
        (tmp_path / "sonar.csv").write_text("\n".join(lines[:-1]) + "\n")
        bundled = get_target("sonar")
        copy = get_target("sonar", data_dir=tmp_path)
        assert copy.meta["source"] == str(tmp_path / "sonar.csv")
        assert copy.meta["n_rows"] == bundled.meta["n_rows"] - 1
        monkeypatch.setenv("LDVI_DATA_DIR", str(tmp_path))
        assert default_data_dir() == bundled_dir
        assert get_target("sonar").meta == bundled.meta


# -------------------------------------------------------- logistic regression

class TestLogisticRegression:
    @pytest.fixture()
    def model(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(25, 3))
        X = np.hstack([X, np.ones((25, 1))])
        y = (rng.random(25) < 0.5).astype(float)
        data = Dataset(features=X, labels=y)
        return logistic_regression_target(data, "synthetic"), X, y

    def test_against_scipy_oracle(self, model):
        target, X, y = model
        rng = np.random.default_rng(1)

        def oracle(w):
            p = expit(X @ w)
            like = np.sum(y * np.log(p) + (1 - y) * np.log1p(-p))
            prior = multivariate_normal.logpdf(w, np.zeros(4), np.eye(4))
            return like + prior

        check_target(target, oracle, rng)

    def test_batched(self, model):
        target, _, _ = model
        check_batched(target, np.random.default_rng(2))

    def test_prior_scale(self):
        rng = np.random.default_rng(3)
        X = np.ones((2, 2))
        y = np.array([0.0, 1.0])
        target = logistic_regression_target(Dataset(X, y), "s", prior_scale=3.0)
        w = rng.normal(size=2)

        def oracle(wv):
            p = expit(X @ wv)
            like = np.sum(y * np.log(p) + (1 - y) * np.log1p(-p))
            return like + multivariate_normal.logpdf(wv, np.zeros(2), 9 * np.eye(2))

        assert tape_logp(target, w) == pytest.approx(oracle(w), rel=1e-12)

    @pytest.mark.parametrize("scale", [0.0, -2.0, math.nan, math.inf])
    def test_prior_scale_must_be_finite_and_positive(self, scale):
        data = Dataset(np.ones((2, 2)), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="prior_scale"):
            logistic_regression_target(data, "s", prior_scale=scale)


def chain_logp(t, w, X, y, pv):
    """The logistic log-density as the primitive tape chain (reference)."""
    logits = t.affine(w, X)
    like = t.sum(t.sub(t.mul(y, logits), t.softplus(logits)))
    return t.add(like, t.gaussian_logpdf(w, np.zeros(X.shape[1]), pv))


def chain_score(t, w, X, y, pv):
    """The logistic score as the primitive tape chain (reference)."""
    resid = t.sub(y, t.sigmoid(t.affine(w, X)))
    return t.sub(t.affine(resid, X.T), t.div(w, pv))


class TestLogisticFusedNodes:
    """The fused logp/score nodes against the primitive chains they replace."""

    D, PV = 5, 2.25

    @pytest.fixture()
    def problem(self):
        rng = np.random.default_rng(8)
        X = np.hstack([rng.normal(size=(30, self.D - 1)), np.ones((30, 1))])
        y = (rng.random(30) < 0.5).astype(float)
        target = logistic_regression_target(Dataset(X, y), "fused",
                                            prior_scale=math.sqrt(self.PV))
        return target, X, y

    @staticmethod
    def point(shape):
        return 3.0 * np.random.default_rng(len(shape)).normal(size=shape)

    def loss_and_grad(self, build, w0, proj=None):
        """Value of build(t, w) and the gradient of its (projected) sum."""
        t = Tape()
        w = t.lift(w0, trainable=True, name="w")
        out = build(t, w)
        loss = out if proj is None else t.sum(t.mul(out, proj))
        if loss.value.ndim:
            loss = t.sum(loss)
        return out.value, t.backward(loss)["w"]

    @pytest.mark.parametrize("shape", [(D,), (4, D)])
    def test_score_pushes_one_node(self, problem, shape):
        target = problem[0]
        t = Tape()
        w = t.lift(self.point(shape))
        before = len(t.nodes)
        target.score(t, w)
        assert len(t.nodes) == before + 1

    @pytest.mark.parametrize("shape", [(D,), (4, D)])
    def test_values_match_chain_bit_for_bit(self, problem, shape):
        target, X, y = problem
        w0 = self.point(shape)
        for fused, chain in ((target.logp, chain_logp),
                             (target.score, chain_score)):
            t = Tape()
            w = t.lift(w0)
            ref = chain(t, w, X, y, self.PV).value
            np.testing.assert_array_equal(fused(t, w).value, ref)

    @pytest.mark.parametrize("shape", [(D,), (4, D)])
    def test_gradients_match_chain(self, problem, shape):
        target, X, y = problem
        w0 = self.point(shape)
        proj = np.random.default_rng(3).normal(size=shape)
        for fused, chain, p in ((target.logp, chain_logp, None),
                                (target.score, chain_score, proj)):
            _, got = self.loss_and_grad(fused, w0, p)
            _, ref = self.loss_and_grad(
                lambda t, w: chain(t, w, X, y, self.PV), w0, p)
            np.testing.assert_allclose(got, ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("shape", [(D,), (4, D)])
    def test_gradients_match_central_differences(self, problem, shape):
        target = problem[0]
        w0 = 0.5 * self.point(shape)
        proj = np.random.default_rng(6).normal(size=shape)
        for build, p in ((target.logp, None), (target.score, proj)):
            _, got = self.loss_and_grad(build, w0, p)

            def f(flat):
                t = Tape()
                out = build(t, t.lift(flat.reshape(shape))).value
                return float(np.sum(out if p is None else out * p))

            ref = fd_grad(f, w0.ravel()).reshape(shape)
            np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-6)


# ------------------------------------------------------------ Brownian motion

def brownian_oracle(v):
    u_inn, u_obs, x = v[0], v[1], v[2:]
    lp = norm.logpdf(u_inn, 0.0, 2.0) + norm.logpdf(u_obs, 0.0, 2.0)
    prev = np.concatenate([[0.0], x[:-1]])
    lp += norm.logpdf(x, prev, math.exp(u_inn)).sum()
    lp += (BROWNIAN_OBSERVED_MASK
           * norm.logpdf(BROWNIAN_OBSERVATIONS, x, math.exp(u_obs))).sum()
    return lp


class TestBrownian:
    def test_against_scipy_oracle(self):
        model = brownian_motion_target()
        assert model.dim == 32
        check_target(model, brownian_oracle, np.random.default_rng(4), scale=0.5)

    def test_batched(self):
        check_batched(brownian_motion_target(), np.random.default_rng(5))

    def test_middle_block_unobserved(self):
        assert BROWNIAN_OBSERVED_MASK.sum() == 20
        np.testing.assert_allclose(BROWNIAN_OBSERVED_MASK[10:20], 0.0)
        np.testing.assert_allclose(BROWNIAN_OBSERVED_MASK[:10], 1.0)


def chain_brownian_score(t, v):
    """The Brownian score as the primitive tape chain (reference)."""
    n, mask = 30, BROWNIAN_OBSERVED_MASK
    ymask = BROWNIAN_OBSERVATIONS * mask
    shift, unshift = np.eye(n, k=-1), np.eye(n, k=1)
    u_inn, u_obs, x = t.narrow(v, 0, 1), t.narrow(v, 1, 2), t.narrow(v, 2, 2 + n)
    d = t.sub(x, t.affine(x, shift))
    r = t.sub(ymask, t.mul(mask, x))
    prec_inn = t.exp(t.mul(-2.0, u_inn))
    prec_obs = t.exp(t.mul(-2.0, u_obs))
    sse_inn = t.affine(t.square(d), np.ones((1, n)))
    sse_obs = t.affine(t.square(r), np.ones((1, n)))
    g_uinn = t.sub(t.add(t.mul(-0.25, u_inn), t.mul(prec_inn, sse_inn)),
                   float(n))
    g_uobs = t.sub(t.add(t.mul(-0.25, u_obs), t.mul(prec_obs, sse_obs)),
                   float(mask.sum()))
    gx = t.add(t.mul(prec_inn, t.sub(t.affine(d, unshift), d)),
               t.mul(prec_obs, r))
    return t.concat([g_uinn, g_uobs, gx])


class TestBrownianFusedScore:
    """The fused score node against the primitive chain it replaces."""

    D = 32

    @pytest.fixture()
    def model(self):
        return brownian_motion_target()

    @staticmethod
    def point(shape):
        return 0.7 * np.random.default_rng(len(shape)).normal(size=shape)

    @staticmethod
    def projected_grad(build, v0, proj):
        """Value of build(t, v) and the gradient of sum(build(t, v) * proj)."""
        t = Tape()
        v = t.lift(v0, trainable=True, name="v")
        out = build(t, v)
        return out.value, t.backward(t.mean_all(t.mul(out, proj)))["v"]

    @pytest.mark.parametrize("shape", [(D,), (4, D)])
    def test_score_pushes_one_node(self, model, shape):
        t = Tape()
        v = t.lift(self.point(shape))
        before = len(t.nodes)
        model.score(t, v)
        assert len(t.nodes) == before + 1

    @pytest.mark.parametrize("shape", [(D,), (4, D)])
    def test_value_matches_chain_bit_for_bit(self, model, shape):
        t = Tape()
        v = t.lift(self.point(shape))
        np.testing.assert_array_equal(model.score(t, v).value,
                                      chain_brownian_score(t, v).value)

    @pytest.mark.parametrize("shape", [(D,), (4, D)])
    def test_gradients_match_chain(self, model, shape):
        v0 = self.point(shape)
        proj = np.random.default_rng(3).normal(size=shape)
        _, got = self.projected_grad(model.score, v0, proj)
        _, ref = self.projected_grad(chain_brownian_score, v0, proj)
        np.testing.assert_allclose(got, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("shape", [(D,), (4, D)])
    def test_gradients_match_central_differences(self, model, shape):
        v0 = self.point(shape)
        proj = np.random.default_rng(6).normal(size=shape)
        _, got = self.projected_grad(model.score, v0, proj)

        def f(flat):
            t = Tape()
            out = model.score(t, t.lift(flat.reshape(shape))).value
            return float(np.mean(out * proj))

        ref = fd_grad(f, v0.ravel()).reshape(shape)
        np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-6)


# ------------------------------------------------------------- Lorenz system

def lorenz_oracle(v):
    lx, ly, lz = v[:30], v[30:60], v[60:]
    xh, yh, zh = lx[:-1], ly[:-1], lz[:-1]
    lp = norm.logpdf(lx[0]) + norm.logpdf(ly[0]) + norm.logpdf(lz[0])
    lp += norm.logpdf(lx[1:], 10.0 * (yh - xh), 0.1).sum()
    lp += norm.logpdf(ly[1:], xh * (28.0 - zh) - yh, 0.1).sum()
    lp += norm.logpdf(lz[1:], xh * yh - (8.0 / 3.0) * zh, 0.1).sum()
    lp += (LORENZ_OBSERVED_MASK * norm.logpdf(LORENZ_OBSERVATIONS, lx, 1.0)).sum()
    return lp


def lorenz_oracle_loop(v):
    """`lorenz_oracle` as one scipy term per step (reference)."""
    lx, ly, lz = v[:30], v[30:60], v[60:]
    lp = norm.logpdf(lx[0]) + norm.logpdf(ly[0]) + norm.logpdf(lz[0])
    for i in range(29):
        lp += norm.logpdf(lx[i + 1], 10.0 * (ly[i] - lx[i]), 0.1)
        lp += norm.logpdf(ly[i + 1], lx[i] * (28.0 - lz[i]) - ly[i], 0.1)
        lp += norm.logpdf(lz[i + 1], lx[i] * ly[i] - (8.0 / 3.0) * lz[i], 0.1)
    lp += (LORENZ_OBSERVED_MASK * norm.logpdf(LORENZ_OBSERVATIONS, lx, 1.0)).sum()
    return lp


class TestLorenz:
    def test_oracle_matches_loop_form(self):
        # only the summation order differs
        rng = np.random.default_rng(10)
        for _ in range(3):
            v = 0.5 * rng.normal(size=90)
            assert lorenz_oracle(v) == pytest.approx(lorenz_oracle_loop(v),
                                                     rel=1e-13)

    def test_against_scipy_oracle(self):
        model = lorenz_target()
        assert model.dim == 90
        check_target(model, lorenz_oracle, np.random.default_rng(6),
                     n_points=10, scale=0.5)

    def test_batched(self):
        check_batched(lorenz_target(), np.random.default_rng(7))

    def test_observed_index_set(self):
        # observed at positions {2..10} and {20..30} in 1-based indexing
        expected = np.zeros(30)
        expected[1:10] = 1.0
        expected[19:30] = 1.0
        np.testing.assert_allclose(LORENZ_OBSERVED_MASK, expected)


# ------------------------------------------------------------- seeds dataset

SEEDS_DESIGN = np.stack(
    [np.ones(21), SEEDS_X1, SEEDS_X2, SEEDS_X1 * SEEDS_X2], axis=1)


def seeds_oracle(v):
    u, a, b = v[0], v[1:5], v[5:]
    tau = math.exp(u)
    lp = gamma.logpdf(tau, 0.01, scale=1.0 / 0.01) + u  # log-scale Jacobian
    lp += norm.logpdf(a, 0.0, 10.0).sum()
    lp += norm.logpdf(b, 0.0, tau ** -0.5).sum()
    logits = SEEDS_DESIGN @ a + b
    lp += binom.logpmf(SEEDS_R, SEEDS_N, expit(logits)).sum()
    return lp


class TestSeeds:
    def test_against_scipy_oracle(self):
        model = seeds_target()
        assert model.dim == 26
        check_target(model, seeds_oracle, np.random.default_rng(8), scale=0.5)

    def test_batched(self):
        check_batched(seeds_target(), np.random.default_rng(9))

    def test_data_table(self):
        # classical 21-plate germination table
        assert SEEDS_R.shape == SEEDS_N.shape == (21,)
        assert np.all(SEEDS_R <= SEEDS_N)
        assert SEEDS_R.sum() == 424 and SEEDS_N.sum() == 831
        assert SEEDS_X1.sum() == 10 and (SEEDS_X1 * SEEDS_X2).sum() == 5


# ------------------------------------------------------------------ toy model

class TestGaussianToy:
    def test_logp_plus_logz_is_normalized_density(self):
        rng = np.random.default_rng(10)
        mu = rng.normal(size=5)
        var = rng.uniform(0.5, 2.0, size=5)
        model = gaussian_toy_target(5, mean=mu, cov_diag=var)
        for _ in range(20):
            z = rng.normal(size=5)
            ref = multivariate_normal.logpdf(z, mu, np.diag(var))
            assert tape_logp(model, z) - model.log_z == pytest.approx(ref, rel=1e-12)

    def test_score(self):
        rng = np.random.default_rng(11)
        model = gaussian_toy_target(3, mean=1.0, cov_diag=2.0)
        z = rng.normal(size=3)
        np.testing.assert_allclose(tape_score(model, z), (1.0 - z) / 2.0,
                                   rtol=1e-12)
        np.testing.assert_allclose(backward_grad(model, z), (1.0 - z) / 2.0,
                                   rtol=1e-12)

    def test_log_z_matches_scipy(self):
        model = gaussian_toy_target(4, cov_diag=np.array([1.0, 2.0, 0.5, 3.0]))
        # logp(mu) = 0 by construction, so logpdf(mu) = -log Z
        ref = multivariate_normal.logpdf(
            np.zeros(4), np.zeros(4), np.diag([1.0, 2.0, 0.5, 3.0]))
        assert -model.log_z == pytest.approx(ref, rel=1e-12)

    def test_invalid_variance(self):
        with pytest.raises(ValueError):
            gaussian_toy_target(2, cov_diag=0.0)


# ------------------------------------------------------------------- registry

class TestRegistry:
    @pytest.mark.parametrize("name,dim", [
        ("ionosphere", 35), ("sonar", 61), ("brownian", 32),
        ("lorenz", 90), ("seeds", 26),
    ])
    def test_dimensions(self, name, dim):
        assert get_target(name).dim == dim

    def test_toy(self):
        model = get_target("toy", toy_dim=7)
        assert model.dim == 7 and model.log_z is not None

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown model"):
            get_target("nope")

    def test_names_cover_registry(self):
        for name in TARGET_NAMES:
            assert get_target(name).dim > 0

    def test_classification_targets_usable(self):
        model = get_target("sonar")
        rng = np.random.default_rng(12)
        v = 0.1 * rng.normal(size=model.dim)
        lp = tape_logp(model, v)
        assert np.isfinite(lp)
        np.testing.assert_allclose(tape_score(model, v), backward_grad(model, v),
                                   rtol=1e-9, atol=1e-9)
