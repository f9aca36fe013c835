"""Generate the bundled stand-in data files.

The logistic-regression benchmarks are normally run against the UCI
"ionosphere" (351 rows, 34 features) and "sonar" (208 rows, 60 features)
files, which cannot be redistributed here. This script generates synthetic
stand-ins with the same shape and label conventions so the whole pipeline is
runnable out of the box. Pass a directory containing the real files as
`TrainPlan.data_dir` (or `get_target(..., data_dir=...)`) to use them instead.

Also regenerates `src/ldvi/data/_observations.py`, the simulated observation
records for the Brownian-motion and Lorenz time-series models.

Run from the repository root:  python3 tools/make_standin_data.py
"""

import pathlib

import numpy as np

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "ldvi" / "data"

SYNTHETIC_MARKER = "# synthetic stand-in generated by tools/make_standin_data.py"


def make_classification_csv(path, n_rows, n_features, labels, seed,
                            signal=1.6, constant_cols=()):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_rows, n_features))
    for c in constant_cols:
        X[:, c] = 0.0
    w = rng.normal(size=n_features) * signal / np.sqrt(n_features)
    logits = X @ w + 0.3 * rng.normal()
    y = rng.random(n_rows) < 1.0 / (1.0 + np.exp(-logits))
    neg, pos = labels
    with open(path, "w") as fh:
        fh.write(SYNTHETIC_MARKER + "\n")
        fh.write(f"# shape mimics the real dataset: {n_rows} rows x {n_features} features\n")
        for i in range(n_rows):
            row = ",".join(f"{v:.5f}" for v in X[i])
            fh.write(f"{row},{pos if y[i] else neg}\n")
    print(f"wrote {path} ({n_rows}x{n_features}, positives={y.sum()})")


def simulate_brownian(seed, n=30, alpha_inn=0.1, alpha_obs=0.15):
    rng = np.random.default_rng(seed)
    x = np.cumsum(alpha_inn * rng.normal(size=n))
    y = x + alpha_obs * rng.normal(size=n)
    return y


def simulate_lorenz(seed, n=30, dt=0.02, obs_scale=1.0):
    # classic Lorenz-63 convection equations, Euler-discretized; the model's
    # transition means are the un-integrated drifts, so this only provides a
    # plausible observed x-trajectory.
    rng = np.random.default_rng(seed)
    x, y, z = 1.2, 1.1, 20.0
    xs = []
    for _ in range(n):
        dx = 10.0 * (y - x)
        dy = x * (28.0 - z) - y
        dz = x * y - (8.0 / 3.0) * z
        x, y, z = x + dt * dx, y + dt * dy, z + dt * dz
        xs.append(x)
    return np.asarray(xs) + obs_scale * rng.normal(size=n)


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    make_classification_csv(OUT / "ionosphere.csv", 351, 34, ("b", "g"),
                            seed=20240, constant_cols=(1,))
    make_classification_csv(OUT / "sonar.csv", 208, 60, ("R", "M"), seed=20241)

    brown = simulate_brownian(seed=11)
    lorenz = simulate_lorenz(seed=13)
    lines = [
        '"""Simulated observations for the time-series benchmarks.',
        "",
        "Generated by tools/make_standin_data.py (fixed seeds documented there);",
        "stand-ins for the observation records of the published benchmark tasks.",
        '"""',
        "",
        "import numpy as np",
        "",
        "# Brownian random walk, innovation scale 0.1, observation scale 0.15, seed 11",
        "BROWNIAN_OBSERVATIONS = np.array([",
    ]
    lines += [f"    {float(v)!r}," for v in brown]
    lines += [
        "])",
        "",
        "# Euler-discretized Lorenz-63 x-coordinate plus unit observation noise, seed 13",
        "LORENZ_OBSERVATIONS = np.array([",
    ]
    lines += [f"    {float(v)!r}," for v in lorenz]
    lines += ["])", ""]
    (OUT / "_observations.py").write_text("\n".join(lines))
    print(f"wrote {OUT / '_observations.py'}")


if __name__ == "__main__":
    main()
