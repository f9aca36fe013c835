"""Benchmark posteriors as unnormalized log-densities over unconstrained R^D.

Each target exposes two tape-building callables: ``logp(tape, z)`` for the
unnormalized log-density and ``score(tape, z)`` for its gradient in z. The
score is written out analytically as tape nodes, so that the ELBO estimator,
which consumes scores inside its transitions, stays differentiable end to end
with a single (first-order) backward sweep. Lorenz, seeds and the toy build
it from primitive tape operations. Logistic regression records its score and
its likelihood as single fused nodes (`Tape.push`), and Brownian motion its
score and its log-density, each with a hand-written VJP (for a score, a
Hessian-vector product) and a value that matches the primitive chain it
replaces bit for bit. The Brownian nodes take the walk's shifts x_{i-1} and
d_{i+1} as slices, where the chain multiplies by a 0/1 shift matrix; both
give the same floats for finite input. The Brownian log-density's VJP is its
adjoint times the score, recomputed from a value helper that holds no tape.

Positivity-constrained variables are handled by sampling their logs: the
densities below include the log-Jacobian terms of alpha = exp(u) and
tau = exp(u), keeping every model supported on all of R^D.
"""

from __future__ import annotations

import csv
import math
import pathlib
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ldvi.tape import Tape, Var, sigmoid, softplus
from ldvi.data._observations import BROWNIAN_OBSERVATIONS, LORENZ_OBSERVATIONS

__all__ = [
    "Dataset", "TargetModel", "load_binary_classification_csv",
    "logistic_regression_target", "brownian_motion_target", "lorenz_target",
    "seeds_target", "gaussian_toy_target", "get_target", "default_data_dir",
    "TARGET_NAMES",
]

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class Dataset:
    """Ingested data: standardized features plus binary labels."""

    features: np.ndarray
    labels: np.ndarray
    source: str = ""

    def __post_init__(self):
        if not (np.isfinite(self.features).all()
                and np.isfinite(self.labels).all()):
            raise ValueError("dataset contains missing or infinite values")


@dataclass(frozen=True)
class TargetModel:
    """Unnormalized posterior over unconstrained R^D.

    ``logp`` maps a (batched) position Var to a per-chain scalar; ``score``
    maps it to the gradient vector. ``log_z`` is the normalizing constant
    when known (toy targets only).
    """

    name: str
    dim: int
    logp: Callable[[Tape, Var], Var]
    score: Callable[[Tape, Var], Var]
    log_z: float | None = None
    meta: dict = field(default_factory=dict)


def _rowsum(t: Tape, v: Var) -> Var:
    """Sum over the vector axis, keeping a length-1 axis (batch friendly)."""
    return t.affine(v, np.ones((1, v.value.shape[-1])))


# --------------------------------------------------------------------- loading

def load_binary_classification_csv(path, positive_label: str) -> Dataset:
    """Read a comma-separated file whose last column is a binary class label.

    Feature columns are standardized (constant columns become all zeros), an
    intercept column of ones is appended, and labels are mapped to {0, 1}
    with `positive_label` -> 1. Lines starting with '#' are skipped; a
    first non-comment record may be a header of non-numeric fields.
    """
    path = pathlib.Path(path)
    rows, labels = [], []
    first = True  # only the first non-comment record may be a header
    with open(path, newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or record[0].lstrip().startswith("#"):
                continue
            header_ok, first = first, False
            try:
                row = [float(v) for v in record[:-1]]
            except ValueError:
                if header_ok:
                    continue
                raise ValueError(f"{path.name}:{lineno}: unparseable feature field")
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path.name}:{lineno}: non-finite feature field")
            rows.append(row)
            labels.append(record[-1].strip())
    if not rows:
        raise ValueError(f"{path.name}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path.name}: ragged rows (widths {sorted(widths)})")

    X = np.asarray(rows, dtype=np.float64)
    distinct = sorted(set(labels))
    if positive_label not in distinct or len(distinct) != 2:
        raise ValueError(
            f"{path.name}: unknown label values {distinct} "
            f"(positive_label={positive_label!r})")
    y = np.asarray([1.0 if l == positive_label else 0.0 for l in labels])

    mean = X.mean(axis=0)
    sd = X.std(axis=0)
    keep = sd > 0
    Xs = np.zeros_like(X)
    Xs[:, keep] = (X[:, keep] - mean[keep]) / sd[keep]
    Xs = np.hstack([Xs, np.ones((Xs.shape[0], 1))])
    return Dataset(features=Xs, labels=y, source=str(path))


def default_data_dir() -> pathlib.Path:
    """The data directory bundled with the package.

    `get_target(data_dir=...)` and `TrainPlan.data_dir` read another one;
    the plan records that choice, so a run depends on nothing outside it.
    """
    return pathlib.Path(__file__).resolve().parent / "data"


# --------------------------------------------------------- logistic regression

def logistic_regression_target(data: Dataset, name: str,
                               prior_scale: float = 1.0) -> TargetModel:
    """Bayesian logistic regression with an N(0, prior_scale^2 I) weight prior.

    Bernoulli terms use y*t - softplus(t), the log-sum-exp-stable form of
    y log(sigma(t)) + (1-y) log(1 - sigma(t)), with logits t = w X^T. The
    likelihood and the score are one tape node each; their values repeat the
    numpy operations of the primitive chain `affine`, `softplus`/`sigmoid`,
    `sub`, `sum` (or `affine` by X and `div` by the prior variance) in order.

    Their (rows, n) arrays, rows being the product of w's leading axes, live
    in a workspace of three float64 buffers that the target keeps and grows
    to the largest row count seen. At batch 256 each such array is several
    hundred KiB, and glibc hands the pages of a freed one back to the system
    (heap trim, or `munmap` of an mmap-served block), so fresh arrays would
    make every call fault their pages in again, which costs more than the
    arithmetic. The workspace is per thread, so independent tapes may still
    be evaluated concurrently. A later call overwrites it, so when w needs a
    gradient the array the VJP reads (logits for `logp`, the sigmoid for
    `score`) is copied out first; evaluation copies nothing. No returned
    value aliases the workspace.
    """
    if not (math.isfinite(prior_scale) and prior_scale > 0):
        raise ValueError(
            f"prior_scale must be finite and positive, got {prior_scale!r}")
    X = data.features
    XT = X.T
    y = data.labels
    n, d = X.shape
    pv = prior_scale ** 2
    local = threading.local()

    def workspace(w: np.ndarray) -> list[np.ndarray]:
        """Three (*w.shape[:-1], n) views of this thread's buffers."""
        shape = w.shape[:-1] + (n,)
        size = math.prod(shape)
        bufs = getattr(local, "bufs", None)
        if bufs is None or bufs[0].size < size:
            local.bufs = bufs = [np.empty(size) for _ in range(3)]
        return [b[:size].reshape(shape) for b in bufs]

    def logp(t: Tape, w: Var) -> Var:
        logits, soft, terms = workspace(w.value)
        np.matmul(w.value, XT, out=logits)
        softplus(logits, out=soft, scratch=terms)
        np.multiply(y, logits, out=terms)
        like = np.subtract(terms, soft, out=terms).sum(axis=-1)
        if w.needs_grad:
            logits = logits.copy()

        def vjp(adj):
            return ((adj[..., None] * (y - sigmoid(logits))) @ X,)

        prior = t.gaussian_logpdf(w, np.zeros(d), pv)
        return t.add(t.push(like, (w,), vjp), prior)

    def score(t: Tape, w: Var) -> Var:
        sig, resid, _ = workspace(w.value)
        sigmoid(np.matmul(w.value, XT, out=sig), out=sig, scratch=resid)
        value = np.subtract(y, sig, out=resid) @ X - w.value / pv
        if w.needs_grad:
            sig = sig.copy()

        def vjp(adj):
            return (-(((adj @ XT) * sig * (1.0 - sig)) @ X) - adj / pv,)

        return t.push(value, (w,), vjp)

    return TargetModel(
        name=name, dim=d, logp=logp, score=score,
        meta={"n_rows": n, "prior_variance": pv, "source": data.source})


# ----------------------------------------------------- Brownian motion (d=32)

# observations 11..20 (1-based) are missing: exactly the ten middle ones
BROWNIAN_OBSERVED_MASK = np.array([1.0] * 10 + [0.0] * 10 + [1.0] * 10)


def brownian_motion_target() -> TargetModel:
    """Gaussian random walk with lognormal scales, middle block unobserved.

    Latent v = (u_inn, u_obs, x_1..x_30) with u = log(alpha) and LogNormal
    (loc 0, scale 2) priors on both alphas, i.e. u ~ N(0, 4) after the exp
    transform. Innovations: x_i ~ N(x_{i-1}, alpha_inn), x_0 = 0; observed
    y_i ~ N(x_i, alpha_obs) for masked indices ("scale" = std deviation).

    The log-density and the score are one tape node each. Their values
    repeat the numpy operations of the primitive chains `narrow`, `affine`
    by the shift, `sub`/`mul` by the masks, `exp`, `square`, the sums (for
    the score, the row sums and `concat`) in order, except that the shifts
    x_{i-1} and d_{i+1} are slices, which give the same floats as the
    chain's products by a 0/1 shift matrix for finite input. The score's
    VJP is the Hessian-vector product of logp; it treats the two log-scales
    as one (..., 2) block and applies the shift and its transpose as one
    precomputed second-difference matrix. The log-density's VJP is its
    adjoint times the score, which it recomputes from the position with the
    tape-free `score_terms` that `score` shares, so no VJP holds the tape.
    """
    mask = BROWNIAN_OBSERVED_MASK
    n = 30
    n_obs = int(mask.sum())
    # a @ second_diff is a_{i+1} - 2 a_i + a_{i-1}, with a_0 = 0 and, in the
    # last entry, no a_{n+1} term and -a_n in place of -2 a_n
    eye = np.eye(n)
    second_diff = (eye - np.eye(n, k=1)) @ (np.eye(n, k=-1) - eye)
    ymask = BROWNIAN_OBSERVATIONS * mask
    ones = np.ones((1, n))  # row sums as `affine`, as in `_rowsum`
    counts = np.array([float(n), float(n_obs)])
    const = -math.log(8.0 * math.pi) - 0.5 * (n + n_obs) * LOG_2PI

    # Each first difference below is one pass over the rows laid end to
    # end, several times faster than a pass over the rows' strided slices;
    # the entries where one row meets the next are then set apart.

    def residuals(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The innovation residuals d_i = x_i - x_{i-1} (x_0 = 0) and the
        masked observation residuals of v's walk x."""
        x = v[..., 2:2 + n].copy()
        d = np.empty_like(x)
        np.subtract(x.reshape(-1)[1:], x.reshape(-1)[:-1],
                    out=d.reshape(-1)[1:])
        d[..., 0] = x[..., 0]
        return d, ymask - mask * x

    def score_terms(v: np.ndarray):
        """The score's value at v and the terms its VJP reuses."""
        # the two log-scales u = (u_inn, u_obs) as one (..., 2) block, whose
        # entries see the same operations as the chain's two length-1 ones
        u = v[..., 0:2]
        d, r = residuals(v)
        prec = np.exp(-2.0 * u)
        sse = np.concatenate([(d * d) @ ones.T, (r * r) @ ones.T], axis=-1)
        w = np.empty_like(d)    # d_{i+1} - d_i, with d_{n+1} = 0
        np.subtract(d.reshape(-1)[1:], d.reshape(-1)[:-1],
                    out=w.reshape(-1)[:-1])
        w[..., -1] = -d[..., -1]
        value = np.concatenate([-0.25 * u + prec * sse - counts,
                                prec[..., 0:1] * w + prec[..., 1:2] * r],
                               axis=-1)
        return value, (r, prec, sse, w)

    def logp(t: Tape, v: Var) -> Var:
        u_inn, u_obs = v.value[..., 0:1], v.value[..., 1:2]
        d, r = residuals(v.value)
        pri = -0.125 * ((u_inn * u_inn).sum(axis=-1)
                        + (u_obs * u_obs).sum(axis=-1))
        walk = (-0.5 * (np.exp(-2.0 * u_inn) * (d * d)).sum(axis=-1)
                - float(n) * u_inn.sum(axis=-1))
        obs = (-0.5 * (np.exp(-2.0 * u_obs) * (r * r)).sum(axis=-1)
               - float(n_obs) * u_obs.sum(axis=-1))

        def vjp(adj):
            return (adj[..., None] * score_terms(v.value)[0],)

        return t.push((pri + walk) + (obs + const), (v,), vjp)

    def score(t: Tape, v: Var) -> Var:
        value, (r, prec, sse, w) = score_terms(v.value)
        prec_inn, prec_obs = prec[..., 0:1], prec[..., 1:2]

        def vjp(adj):
            # Hessian of logp times adj, with the cross terms a_x . (w, r)
            # of the u block
            a_u, a_x = adj[..., 0:2], adj[..., 2:]
            wr = np.concatenate([w[..., None, :], r[..., None, :]], axis=-2)
            cross = (wr @ a_x[..., None])[..., 0]
            g_u = -0.25 * a_u - 2.0 * prec * (a_u * sse + cross)
            two_a = 2.0 * a_u
            g_x = (prec_inn * (a_x @ second_diff - two_a[..., 0:1] * w)
                   - prec_obs * mask * (a_x + two_a[..., 1:2] * r))
            return (np.concatenate([g_u, g_x], axis=-1),)

        return t.push(value, (v,), vjp)

    return TargetModel(
        name="brownian", dim=2 + n, logp=logp, score=score,
        meta={"observed": mask.astype(int).tolist()})


# -------------------------------------------------------- Lorenz system (d=90)

# the observation series is defined from i=2 on; observed index set is the
# intersection of that range with {1..10} u {20..30} (1-based)
LORENZ_OBSERVED_MASK = np.array(
    [0.0] + [1.0] * 9 + [0.0] * 9 + [1.0] * 11)


def lorenz_target() -> TargetModel:
    """Discretized Lorenz convection dynamics with partial x observations.

    Latent v = (x_1..x_30, y_1..y_30, z_1..z_30), standard-Normal priors at
    i=1, transition scale alpha_inn = 0.1, observation scale 1 on masked x_i.
    """
    mask = LORENZ_OBSERVED_MASK
    n = 30
    m = n - 1
    var_inn = 0.1 ** 2
    prec = 1.0 / var_inn
    n_obs = int(mask.sum())
    omask = LORENZ_OBSERVATIONS * mask

    def split(t: Tape, v: Var):
        return t.narrow(v, 0, n), t.narrow(v, n, 2 * n), t.narrow(v, 2 * n, 3 * n)

    def residuals(t: Tape, lx, ly, lz):
        xh, xt = t.narrow(lx, 0, m), t.narrow(lx, 1, n)
        yh, yt = t.narrow(ly, 0, m), t.narrow(ly, 1, n)
        zh, zt = t.narrow(lz, 0, m), t.narrow(lz, 1, n)
        rx = t.sub(xt, t.mul(10.0, t.sub(yh, xh)))
        ry = t.sub(yt, t.sub(t.mul(xh, t.sub(28.0, zh)), yh))
        rz = t.sub(zt, t.sub(t.mul(xh, yh), t.mul(8.0 / 3.0, zh)))
        return xh, yh, zh, rx, ry, rz

    def logp(t: Tape, v: Var) -> Var:
        lx, ly, lz = split(t, v)
        xh, yh, zh, rx, ry, rz = residuals(t, lx, ly, lz)
        first = t.mul(-0.5, t.sum(t.square(t.concat(
            [t.narrow(lx, 0, 1), t.narrow(ly, 0, 1), t.narrow(lz, 0, 1)]))))
        trans = t.mul(-0.5 * prec, t.add(t.sum(t.square(rx)),
                                         t.add(t.sum(t.square(ry)),
                                               t.sum(t.square(rz)))))
        ro = t.sub(omask, t.mul(mask, lx))
        obs = t.mul(-0.5, t.sum(t.square(ro)))
        const = (-1.5 * LOG_2PI - 1.5 * m * math.log(2 * math.pi * var_inn)
                 - 0.5 * n_obs * LOG_2PI)
        return t.add(t.add(first, trans), t.add(obs, const))

    def score(t: Tape, v: Var) -> Var:
        lx, ly, lz = split(t, v)
        xh, yh, zh, rx, ry, rz = residuals(t, lx, ly, lz)
        zero1 = t.mul(0.0, t.narrow(lx, 0, 1))

        own_x = t.concat([t.neg(t.narrow(lx, 0, 1)), t.mul(-prec, rx)])
        own_y = t.concat([t.neg(t.narrow(ly, 0, 1)), t.mul(-prec, ry)])
        own_z = t.concat([t.neg(t.narrow(lz, 0, 1)), t.mul(-prec, rz)])

        # contributions of step i+1 to the gradient at i (i = 1..29)
        nxt_x = t.add(t.mul(-10.0 * prec, rx),
                      t.add(t.mul(prec, t.mul(ry, t.sub(28.0, zh))),
                            t.mul(prec, t.mul(rz, yh))))
        nxt_y = t.add(t.mul(10.0 * prec, rx),
                      t.add(t.mul(-prec, ry), t.mul(prec, t.mul(rz, xh))))
        nxt_z = t.add(t.mul(-prec, t.mul(ry, xh)),
                      t.mul(-(8.0 / 3.0) * prec, rz))

        ro = t.sub(omask, t.mul(mask, lx))
        gx = t.add(t.add(own_x, t.concat([nxt_x, zero1])), ro)
        gy = t.add(own_y, t.concat([nxt_y, zero1]))
        gz = t.add(own_z, t.concat([nxt_z, zero1]))
        return t.concat([gx, gy, gz])

    return TargetModel(
        name="lorenz", dim=3 * n, logp=logp, score=score,
        meta={"observed": mask.astype(int).tolist(), "alpha_inn": 0.1})


# ----------------------------------------------- seeds random-effects (d=26)

# germination of seeds in a 2x2 factorial layout (seed variety x root extract):
# successes r out of n per plate, from the classical 21-plate table
SEEDS_R = np.array([10, 23, 23, 26, 17, 5, 53, 55, 32, 46, 10,
                    8, 10, 8, 23, 0, 3, 22, 15, 32, 3], dtype=np.float64)
SEEDS_N = np.array([39, 62, 81, 51, 39, 6, 74, 72, 51, 79, 13,
                    16, 30, 28, 45, 4, 12, 41, 30, 51, 7], dtype=np.float64)
SEEDS_X1 = np.array([0.0] * 11 + [1.0] * 10)  # seed variety
SEEDS_X2 = np.array([0.0] * 5 + [1.0] * 6 + [0.0] * 5 + [1.0] * 5)  # root extract


def seeds_target() -> TargetModel:
    """Random-effects logistic regression for the seeds germination table.

    Latent v = (log tau, a0, a1, a2, a12, b_1..b_21): Gamma(0.01, 0.01) prior
    on tau (log transform, Jacobian included), N(0, 10) on the fixed effects,
    b_i ~ N(0, 1/sqrt(tau)), and r_i ~ Binomial(N_i, sigmoid(logits_i)) with
    logits_i = a0 + a1 x_i + a2 y_i + a12 x_i y_i + b_i.
    """
    n_plate = 21
    alpha = beta = 0.01
    design = np.stack([np.ones(n_plate), SEEDS_X1, SEEDS_X2,
                       SEEDS_X1 * SEEDS_X2], axis=1)  # (21, 4)
    log_binom = sum(math.lgamma(N + 1) - math.lgamma(r + 1) - math.lgamma(N - r + 1)
                    for N, r in zip(SEEDS_N, SEEDS_R))
    gamma_const = alpha * math.log(beta) - math.lgamma(alpha)
    a_var = 100.0  # N(0, 10) with scale read as standard deviation

    def pieces(t: Tape, v: Var):
        u = t.narrow(v, 0, 1)
        a = t.narrow(v, 1, 5)
        b = t.narrow(v, 5, 5 + n_plate)
        logits = t.add(t.affine(a, design), b)
        return u, a, b, logits

    def logp(t: Tape, v: Var) -> Var:
        u, a, b, logits = pieces(t, v)
        us = t.sum(u)
        tau = t.exp(us)
        prior_tau = t.add(t.mul(alpha, us), t.mul(-beta, tau))
        prior_a = t.mul(-0.5 / a_var, t.sum(t.square(a)))
        prior_b = t.add(t.mul(-0.5, t.mul(tau, t.sum(t.square(b)))),
                        t.mul(0.5 * n_plate, us))
        like = t.sum(t.sub(t.mul(SEEDS_R, logits),
                           t.mul(SEEDS_N, t.softplus(logits))))
        const = (gamma_const + log_binom - 2.0 * math.log(2 * math.pi * a_var)
                 - 0.5 * n_plate * LOG_2PI)
        return t.add(t.add(prior_tau, prior_a), t.add(prior_b, t.add(like, const)))

    def score(t: Tape, v: Var) -> Var:
        u, a, b, logits = pieces(t, v)
        tau1 = t.exp(u)  # length-1
        resid = t.sub(SEEDS_R, t.mul(SEEDS_N, t.sigmoid(logits)))
        g_u = t.sub(t.add(alpha + 0.5 * n_plate, t.mul(-beta, tau1)),
                    t.mul(0.5, t.mul(tau1, _rowsum(t, t.square(b)))))
        g_a = t.add(t.affine(resid, design.T), t.mul(-1.0 / a_var, a))
        g_b = t.add(t.mul(t.neg(tau1), b), resid)
        return t.concat([g_u, g_a, g_b])

    return TargetModel(
        name="seeds", dim=26, logp=logp, score=score,
        meta={"plates": n_plate})


# --------------------------------------------------------------- Gaussian toy

def gaussian_toy_target(dim: int, mean: np.ndarray | float = 0.0,
                        cov_diag: np.ndarray | float = 1.0) -> TargetModel:
    """Diagonal-Gaussian toy with known log Z, for bound and fidelity checks."""
    mu = np.broadcast_to(np.asarray(mean, dtype=np.float64), (dim,)).copy()
    var = np.broadcast_to(np.asarray(cov_diag, dtype=np.float64), (dim,)).copy()
    if (var <= 0).any():
        raise ValueError("cov_diag must be positive")
    log_z = 0.5 * float(np.sum(np.log(2 * np.pi * var)))

    def logp(t: Tape, z: Var) -> Var:
        return t.mul(-0.5, t.sum(t.div(t.square(t.sub(z, mu)), var)))

    def score(t: Tape, z: Var) -> Var:
        return t.div(t.sub(mu, z), var)

    return TargetModel(
        name=f"toy{dim}", dim=dim, logp=logp, score=score, log_z=log_z,
        meta={"mean": mu.tolist(), "cov_diag": var.tolist()})


# ------------------------------------------------------------------- registry

TARGET_NAMES = ("ionosphere", "sonar", "brownian", "lorenz", "seeds", "toy")


def get_target(name: str, data_dir=None, toy_dim: int = 2) -> TargetModel:
    """Resolve a benchmark target by CLI name."""
    data_dir = pathlib.Path(data_dir) if data_dir else default_data_dir()
    if name == "ionosphere":
        data = load_binary_classification_csv(data_dir / "ionosphere.csv", "g")
        model = logistic_regression_target(data, "ionosphere")
        _expect_dim(model, 35)
        return model
    if name == "sonar":
        data = load_binary_classification_csv(data_dir / "sonar.csv", "M")
        model = logistic_regression_target(data, "sonar")
        _expect_dim(model, 61)
        return model
    if name == "brownian":
        return brownian_motion_target()
    if name == "lorenz":
        return lorenz_target()
    if name == "seeds":
        return seeds_target()
    if name == "toy":
        return gaussian_toy_target(toy_dim, mean=1.0, cov_diag=1.5)
    raise ValueError(f"unknown model {name!r} (valid: {', '.join(TARGET_NAMES)})")


def _expect_dim(model: TargetModel, dim: int) -> None:
    if model.dim != dim:
        raise ValueError(f"{model.name}: expected {dim} parameters, got {model.dim}")
