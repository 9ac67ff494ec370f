"""Matrix-form references for the package's loops, used only by the tests.

`quad_step_arrays` and `count_step_arrays` are the Euler filter steps on
(..., d, d) states that `trajectory.propagate` is checked against;
`rk4_reference` is the RK4 step on matrices that `master.integrate_master`
is checked against.  They raise the package's error types with its messages.
`reference_noise` draws one trajectory's noise from a numpy Generator, the
stream that `trajectory.draw_noise` reproduces column by column from seeds.
`joint_spectral_projections` refines one commuting family a block at a
time, the per-family loop that `linalg.joint_spectra` runs over whole stacks.
"""

import numpy as np

from qfilter.linalg import (
    COMMUTE_TOL,
    EIG_CLUSTER_TOL,
    as_operator,
    check_dims,
    commutator,
    dagger,
    is_hermitian,
    max_norm,
)
from qfilter.master import TimeGrid
from qfilter.model import adjoint_generator, lindblad_adjoint
from qfilter.trajectory import (
    JUMP_RATE_FLOOR,
    QUADRATURE,
    TRACE_UNDERFLOW,
    JumpRateError,
    _btrace,
    _underflow_error,
)


def reference_noise(rng: np.random.Generator, kind: str, grid: TimeGrid) -> np.ndarray:
    """Pre-drawn per-step randomness: Gaussian dI for quadrature, uniforms for counting."""
    if kind == QUADRATURE:
        return rng.standard_normal(grid.steps) * np.sqrt(grid.dt)
    return rng.random(grid.steps)


def _hermitize_normalize(rho: np.ndarray) -> np.ndarray:
    rho = 0.5 * (rho + dagger(rho))
    tr = _btrace(rho).real
    bad = ~np.isfinite(tr) | (np.abs(tr) < TRACE_UNDERFLOW)
    if np.any(bad):
        raise _underflow_error(bad, tr)
    return rho / tr[..., None, None]


def quad_step_arrays(rho: np.ndarray, dy, lb: np.ndarray, hb: np.ndarray, dt: float):
    """One quadrature filter step on (..., d, d) states.

    rho <- rho + L'rho dt + (L^b rho + rho L^b† - m rho)(dY - m dt),
    m = tr[(L^b + L^b†) rho], followed by Hermitian projection and trace
    renormalization.  Returns (new rho, m).
    """
    dy = np.asarray(dy, dtype=float)
    drift = lindblad_adjoint(lb, hb, rho)
    gain = lb @ rho + rho @ dagger(lb)
    m = _btrace(gain).real
    innov = dy - m * dt
    rho_new = rho + drift * dt + (gain - m[..., None, None] * rho) * innov[..., None, None]
    return _hermitize_normalize(rho_new), m


def count_step_arrays(rho: np.ndarray, dy, lb: np.ndarray, hb: np.ndarray, dt: float):
    """One counting filter step on (..., d, d) states.

    dY = 1: jump rho <- L^b rho L^b† / tr, then one no-jump drift step;
    dY = 0: rho <- rho + (L'rho - L^b rho L^b† + r rho) dt,
    r = tr(L^b† L^b rho).  Returns (new rho, r evaluated before the step).
    """
    dy = np.asarray(dy, dtype=float)
    lbd = dagger(lb)

    def no_jump(state):
        drift = lindblad_adjoint(lb, hb, state)
        jump_part = lb @ state @ lbd
        rate = _btrace(jump_part).real
        return state + (drift - jump_part + rate[..., None, None] * state) * dt

    jump_part = lb @ rho @ lbd
    rate = _btrace(jump_part).real
    mask = dy != 0.0
    if np.any(mask & (rate < JUMP_RATE_FLOOR)):
        raise JumpRateError("detection event in a state with vanishing jump rate")

    survived = no_jump(rho)
    if np.any(mask):
        safe_rate = np.where(rate < JUMP_RATE_FLOOR, 1.0, rate)
        jumped = no_jump(jump_part / safe_rate[..., None, None])
        rho_new = np.where(mask[..., None, None], jumped, survived)
    else:
        rho_new = survived
    return _hermitize_normalize(rho_new), rate


def rk4_reference(model, beta, rho0, grid):
    """Classical RK4 on adjoint_generator, one matrix stage at a time."""
    rho, dt, states = rho0.astype(complex), grid.dt, [rho0]
    for k in range(grid.steps):
        t = k * dt
        k1 = adjoint_generator(model, beta.value(t), rho)
        k2 = adjoint_generator(model, beta.value(t + 0.5 * dt), rho + 0.5 * dt * k1)
        k3 = adjoint_generator(model, beta.value(t + 0.5 * dt), rho + 0.5 * dt * k2)
        k4 = adjoint_generator(model, beta.value(t + dt), rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(rho)
    return np.array(states)


def joint_spectral_projections(family) -> tuple[tuple, tuple]:
    """Simultaneously diagonalize a commuting Hermitian family.

    Returns (eigenvalues, projections): eigenvalues[k] is the tuple of
    eigenvalues of the family members on the range of projections[k].
    Eigenspaces are refined one family member at a time; eigenvalues closer
    than EIG_CLUSTER_TOL are grouped into a single degenerate subspace.
    """
    mats = [as_operator(a) for a in family]
    if not mats:
        raise ValueError("empty operator family")
    d = check_dims(*mats)
    for j, a in enumerate(mats):
        if not is_hermitian(a, COMMUTE_TOL):
            raise ValueError(f"family member {j} is not Hermitian")
        for b in mats[j + 1 :]:
            if max_norm(commutator(a, b)) > COMMUTE_TOL:
                raise ValueError("family members do not commute")

    # Each block is (basis Q, eigenvalue tuple so far); Q has orthonormal columns.
    blocks = [(np.eye(d, dtype=complex), ())]
    for a in mats:
        refined = []
        for q, vals in blocks:
            sub = dagger(q) @ a @ q
            w, v = np.linalg.eigh(0.5 * (sub + dagger(sub)))
            start = 0
            for i in range(1, len(w) + 1):
                if i == len(w) or w[i] - w[start] > EIG_CLUSTER_TOL:
                    vecs = v[:, start:i]
                    lam = float(w[start:i].sum()) / (i - start)
                    refined.append((q @ vecs, vals + (lam,)))
                    start = i
        blocks = refined

    return tuple(vals for _, vals in blocks), tuple(q @ dagger(q) for q, _ in blocks)
