"""Exact posteriors that the filter is checked against, used only by the tests.

A QND model has diagonal S, L and H, so under a constant beta the
populations p_i of the conditional state change by Bayes' rule alone,
whatever the coherences do, and their posterior at T has a closed form:

    quadrature: p_i(T) ~ p_i(0) exp(c_i Y_T - c_i^2 T / 2),  c_i = 2 Re(l_i + s_i beta);
    counting:   p_i(T) ~ p_i(0) r_i^N_T exp(-r_i T),          r_i = |l_i + s_i beta|^2,

with Y_T the integrated quadrature record and N_T the number of clicks.
`qnd_levels` draws records from that exact law, at the finest level, and
bins them to each coarser one; `replay_errors` runs every path of a level
in one batch through `propagate(..., increments=(steps, P))` and measures
the distance of each final state's populations to the exact posterior;
`fitted_order` is the least-squares slope of log error against log dt.
`qnd_table` runs one case over its levels; `PYTHONPATH=src python
tests/oracles.py` prints the table of the cases `test_oracle.py` gates.

The averaged dynamics of such a model has a closed form too: each entry of
rho evolves on its own, rho_ij(t) = rho_ij(0) exp(int_0^t kappa_ij(beta(s)) ds),

    kappa_ij = -i(eta_i - eta_j) + lambda_i lambda_j* - (|lambda_i|^2 + |lambda_j|^2) / 2,

with lambda_i = l_i + s_i beta and eta_i = h_i + Im(beta l_i* s_i), the
diagonals of L^beta and H^beta.  `diagonal_rates` gives kappa at one beta
and `diagonal_master` the states under it, the oracle of `integrate_master`.
"""

import numpy as np

from qfilter.linalg import NumericalError, random_density
from qfilter.master import TimeGrid
from qfilter.model import CoherentInput, HPModel
from qfilter.trajectory import COUNTING, KINDS, QUADRATURE, TRACE_LOSS_LIMIT, propagate

QND_T = 1.0
QND_LEVELS = {QUADRATURE: (16, 64, 256, 1024), COUNTING: (64, 256, 1024)}  # steps per level
QND_PATHS = {QUADRATURE: 200, COUNTING: 50}
# max_i |l_i + s_i b|: c_i^2 dt <= 1/4 and r_i dt <= 1/16 on the coarsest grid
QND_BOUND = {QUADRATURE: 1.0, COUNTING: 2.0}
QND_DIMS = (2, 3, 4, 5, 6)


def qnd_model(rng: np.random.Generator, dim: int, bound: float):
    """A QND model and a constant beta b, with max_i |l_i + s_i b| = bound.

    S has random phases, H is real and L and b are complex normal, L and b
    scaled together to the bound.
    """
    s = np.exp(2j * np.pi * rng.random(dim))
    l = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    b = complex(rng.standard_normal(), rng.standard_normal())
    scale = bound / np.abs(l + s * b).max()
    h = np.diag(rng.standard_normal(dim)).astype(complex)
    return HPModel(S=np.diag(s), L=np.diag(scale * l), H=h), scale * b


def qnd_parameters(model: HPModel, kind: str, b: complex) -> np.ndarray:
    """c_i = 2 Re(l_i + s_i b) for quadrature, r_i = |l_i + s_i b|^2 for counting."""
    lb = np.diag(model.L) + np.diag(model.S) * b
    return 2.0 * lb.real if kind == QUADRATURE else np.abs(lb) ** 2


def diagonal_rates(model: HPModel, b: complex) -> np.ndarray:
    """The (d, d) kappa_ij of a model with diagonal S, L and H at beta = b."""
    s, l, h = (np.diag(m) for m in (model.S, model.L, model.H))
    lam = l + s * b
    eta = h.real + np.imag(b * l.conj() * s)
    power = np.abs(lam) ** 2
    return -1j * (eta[:, None] - eta) + np.outer(lam, lam.conj()) - 0.5 * (power[:, None] + power)


def diagonal_master(model: HPModel, b: complex, rho: np.ndarray, durations) -> np.ndarray:
    """The exact states rho_ij exp(kappa_ij(b) t) after each duration t under a constant beta = b."""
    return rho * np.exp(np.multiply.outer(durations, diagonal_rates(model, b)))


def qnd_levels(model, kind, b, p0, T, level_steps, paths, rng):
    """[(increments (steps, paths), exact populations at T (paths, d), cells with two clicks)].

    Each path draws its true level i from p0 and then its record from the
    exact law given i: Brownian motion with drift c_i on the finest grid,
    summed to the coarser ones, or Poisson clicks at rate r_i in continuous
    time, a cell of a grid with one or more of them replaying as one click.
    The posterior is the one given the whole record: Y_T of the finest grid,
    or every click.  `level_steps` lists steps per level, each dividing the last.
    """
    theta = qnd_parameters(model, kind, b)
    truth = rng.choice(len(p0), size=paths, p=p0)
    fine = level_steps[-1]
    if kind == QUADRATURE:
        dt = T / fine
        dy = theta[truth] * dt + np.sqrt(dt) * rng.standard_normal((fine, paths))
        log_post = np.log(p0) + np.outer(dy.sum(axis=0), theta) - 0.5 * theta**2 * T
        records = [dy.reshape(steps, fine // steps, paths).sum(axis=1) for steps in level_steps]
        doubles = [0] * len(level_steps)
    else:
        clicks = rng.poisson(theta[truth] * T)
        times = rng.random(clicks.sum()) * T
        owner = np.repeat(np.arange(paths), clicks)
        log_post = np.log(p0) + np.outer(clicks, np.log(theta)) - theta * T
        records, doubles = [], []
        for steps in level_steps:
            cells = np.minimum((times / (T / steps)).astype(int), steps - 1)
            counts = np.zeros((steps, paths))
            np.add.at(counts, (cells, owner), 1.0)
            records.append(np.minimum(counts, 1.0))
            doubles.append(int((counts > 1).sum()))
    post = np.exp(log_post - log_post.max(axis=1, keepdims=True))
    post /= post.sum(axis=1, keepdims=True)
    return [(inc, post, n) for inc, n in zip(records, doubles)]


def replay_errors(model, kind, b, rho0, T, increments, exact):
    """Per path, half the L1 distance of the final populations to the exact ones, and diverged paths.

    A path whose final state is off trace 1 by more than TRACE_LOSS_LIMIT,
    or not finite, keeps its place with error inf; so, when the batch
    raises, do the paths that raise alone.
    """
    steps, paths = increments.shape
    grid = TimeGrid(dt=T / steps, steps=steps)
    beta = CoherentInput.constant(b)

    def final(rhos, inc):
        for x, _, _ in propagate(model, beta, rhos, kind, grid, increments=inc):
            pass
        return x

    d = len(rho0)
    try:
        x = final(np.broadcast_to(rho0, (paths, d, d)), increments)
    except NumericalError:
        x = np.full((paths, d, d), np.nan)
        for i in range(paths):
            try:
                x[i] = final(rho0, increments[:, i])
            except NumericalError:
                pass
    pops = np.diagonal(x, axis1=1, axis2=2)
    errors = 0.5 * np.abs(pops - exact).sum(axis=1)
    diverged = ~(np.abs(pops.sum(axis=1) - 1.0) <= TRACE_LOSS_LIMIT)
    errors[diverged] = np.inf
    return errors, int(diverged.sum())


def fitted_order(dts, errors) -> float:
    """The least-squares slope of log(errors) against log(dts)."""
    return float(np.polyfit(np.log(dts), np.log(errors), 1)[0])


def qnd_table(kind: str, dim: int, seed: int) -> list:
    """One QND case's levels, coarsest first: (dt, median error, diverged paths, two-click cells).

    The model, beta and a random mixed rho0 are drawn from `seed`, then every
    level's records; a diverged path's error is inf, so it counts in the median.
    """
    rng = np.random.default_rng(seed)
    model, b = qnd_model(rng, dim, QND_BOUND[kind])
    rho0 = random_density(rng, dim)
    p0 = np.diagonal(rho0).real
    levels = QND_LEVELS[kind]
    rows = []
    records = qnd_levels(model, kind, b, p0, QND_T, levels, QND_PATHS[kind], rng)
    for steps, (inc, exact, doubles) in zip(levels, records):
        errors, diverged = replay_errors(model, kind, b, rho0, QND_T, inc, exact)
        rows.append((QND_T / steps, float(np.median(errors)), diverged, doubles))
    return rows


if __name__ == "__main__":
    print("kind,d,seed,dt,median_error,diverged,two_click_cells,order")
    for kind in KINDS:
        for dim in QND_DIMS:
            rows = qnd_table(kind, dim, dim)
            order = fitted_order([r[0] for r in rows], [r[1] for r in rows])
            for dt, error, diverged, doubles in rows:
                print(f"{kind},{dim},{dim},{dt:g},{error:.3e},{diverged},{doubles},{order:.2f}")
