"""Stochastic master equations for quadrature and photon-counting records.

Filters are propagated in density-matrix (Schroedinger) form.  `propagate`
is the one filter loop; `simulate_record`, `filter_record` and
`zakai_filter` collect it into arrays (states of shape (steps+1, d, d),
the (steps,) innovations, the Zakai log-normalization), and the ensemble
harness aggregates it on the fly.

The loop steps in Liouville space on real coordinates (conventions in
`master`): a state is a row vector x(rho) of d^2 reals, and the linear
work of a step is one real per-row product, (N, 1, d^2) @ (d^2, w), so
that trajectory i of a batch is bit for bit the trajectory run alone.
The loop tests no measurement kind; each kind's `_STEPS` entry gives its
maps, its dY draw and the rest of its step.  The step matrix is the Euler
step, a = tr(A x), tau = tr x and the pre-step intensity: for quadrature
[A | gain | a | tau | m], w = 2 d^2 + 3, A = I + L' dt, m = tr(gain),
dY = dI + m dt; for counting [A | a | tau | r], w = d^2 + 3,
A = I + (L' - J) dt, J rho = L^b rho L^b†, r = tr(J rho), dY a
Bernoulli(r dt) click, and a row that clicked first jumps by J / r.
The loop yields each new row over its trace, formed from these scalars,
a + (m - m tau)(dY - m dt) or a + r dt tau; consumers form the states,
Hermitian by construction, where needed.  Each map is formed from its
four affine pieces in beta, built once per run: the step matrices
streamed by `master.maps_at`, which forms them a block of grid times at a
time, in one product where beta(t) changes, and the jump map, from the
step's beta weights, when a row clicks.  `quad_step_arrays` and
`count_step_arrays` are the reference Euler kernels it is tested against.

The unnormalized (Zakai) state is kept in factorized form: the normalized
filter state plus an accumulated log-normalization, whose per-step
increment comes from the Zakai trace SDE and the kernel's pre-step
intensity.  This keeps the Kallianpur-Striebel relation exact at the
discrete level and avoids likelihood overflow on long records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, dagger, validate_density
from .master import TimeGrid, affine_superoperator, coordinates, hermitian_in_place, maps_at
from .model import CoherentInput, HPModel, lindblad_adjoint

JUMP_RATE_FLOOR = 1e-12
TRACE_UNDERFLOW = 1e-12
COUNTING_BETA_MIN = 1e-3
MAX_JUMP_PROBABILITY = 0.1

QUADRATURE = "quadrature"
COUNTING = "counting"
KINDS = (QUADRATURE, COUNTING)


class TraceUnderflowError(NumericalError):
    """The (un)normalized state trace collapsed below the floor."""


class JumpRateError(NumericalError):
    """A detection event occurred in a state with vanishing jump rate,
    or the per-step jump probability exceeds the validity bound."""


@dataclass(frozen=True)
class MeasurementRecord:
    """Discretized observation path for one trajectory."""

    kind: str
    grid: TimeGrid
    increments: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        inc = np.asarray(self.increments, dtype=float)
        if inc.shape != (self.grid.steps,):
            raise ValueError(
                f"record length {inc.shape} does not match grid steps {self.grid.steps}"
            )
        if not np.all(np.isfinite(inc)):
            raise ValueError("record increments must be finite")
        if self.kind == COUNTING and not np.all((inc == 0.0) | (inc == 1.0)):
            raise ValueError("counting increments must be exactly 0 or 1")
        object.__setattr__(self, "increments", inc)


def _btrace(x: np.ndarray) -> np.ndarray:
    return np.einsum("...ii->...", x)


def _row_error(error, bad: np.ndarray, message: str) -> NumericalError:
    """error(message), naming the first bad row when `bad` is over a batch."""
    where = f"trajectory {np.flatnonzero(bad)[0]}: " if np.ndim(bad) else ""
    return error(where + message)


def _underflow_error(bad: np.ndarray, tr: np.ndarray) -> TraceUnderflowError:
    """TraceUnderflowError naming the first bad row, its trace and whether that is finite."""
    value = np.ravel(tr)[np.argmax(bad)]
    cause = f"below {TRACE_UNDERFLOW:g}" if np.isfinite(value) else "non-finite"
    msg = f"state trace underflow during renormalization: trace {value:.3g} ({cause})"
    return _row_error(TraceUnderflowError, bad, msg)


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


def _quadrature_maps(lb: np.ndarray, hb: np.ndarray, rho: np.ndarray):
    """[drift | gain | m]: L'rho, L^b rho + rho L^b† and its trace m."""
    gain = lb @ rho + rho @ dagger(lb)
    return lindblad_adjoint(lb, hb, rho), gain, _btrace(gain)


def _counting_maps(lb: np.ndarray, hb: np.ndarray, rho: np.ndarray):
    """[no-jump drift | r]: L'rho - L^b rho L^b† and r = tr(L^b rho L^b†)."""
    jump = lb @ rho @ dagger(lb)
    return lindblad_adjoint(lb, hb, rho) - jump, _btrace(jump)


def _jump_map(lb: np.ndarray, hb: np.ndarray, rho: np.ndarray):
    """L^b rho L^b†, the unnormalized state after a click."""
    return (lb @ rho @ dagger(lb),)


def _step_pieces(pieces: np.ndarray, d: int, dt: float) -> np.ndarray:
    """A map's pieces [drift | ... | intensity] as [I + dt drift | ... | a | tau | intensity]."""
    tau = np.multiply.outer([1.0, 0.0, 0.0, 0.0], np.eye(d).reshape(-1, 1))  # x @ tau[0] = tr x
    a = dt * pieces[..., : d * d]
    a[0] += np.eye(d * d)  # in piece 0, of beta-weight 1
    return np.concatenate([a, pieces[..., d * d : -1], a @ tau[0], tau, pieces[..., -1:]], axis=-1)


def _quadrature_draw(di, m, dt):
    """dY = dI + m dt, with dI ~ N(0, dt) pre-drawn."""
    return di + m * dt


def _quadrature_finish(v, out, m, dy, dt, *_):
    """rho + L'rho dt + (L^b rho + rho L^b† - m rho)(dY - m dt) and its trace, in rows."""
    d2 = v.shape[-1]
    m, a, tau = out[..., -1:], out[..., -3:-2], out[..., -2:-1]
    innov = dy.reshape(-1, 1, 1) - m * dt
    return out[..., :d2] + (out[..., d2:-3] - m * v) * innov, a + (m - m * tau) * innov


def _counting_draw(u, r, dt):
    """dY ~ Bernoulli(r dt) from pre-drawn uniforms, within MAX_JUMP_PROBABILITY."""
    prob = r * dt
    if not prob.max() <= MAX_JUMP_PROBABILITY:  # also true on nan, which the mask lets pass
        bad = prob > MAX_JUMP_PROBABILITY
        if np.any(bad):
            msg = f"jump probability {prob[bad][0]:.3g} exceeds bound {MAX_JUMP_PROBABILITY}"
            raise _row_error(JumpRateError, bad, msg)
    return (u < prob).astype(float)


def _no_jump(v, out, dt):
    """rho + (L'rho - L^b rho L^b† + r rho) dt and its trace, from out = v @ [A | a | tau | r]."""
    rdt = out[..., -1:] * dt
    return out[..., :-3] + rdt * v, out[..., -3:-2] + rdt * out[..., -2:-1]


def _counting_finish(v, out, r, dy, dt, sup, w, jump):
    """Each row's no-jump step and trace; a row that clicked (r >= JUMP_RATE_FLOOR) first jumps.

    The jump map is formed from w, the step's beta weights, only when a row clicked.
    """
    new, tr = _no_jump(v, out, dt)
    jumped = dy.reshape(-1).nonzero()[0]  # np.flatnonzero(dy), without its Python wrapper
    if jumped.size:
        rate = out[jumped, :, -1:]
        if not rate.min() >= JUMP_RATE_FLOOR:  # also true on nan, which the mask lets pass
            bad = (dy != 0.0) & (r < JUMP_RATE_FLOOR)
            if np.any(bad):
                msg = "detection event in a state with vanishing jump rate"
                raise _row_error(JumpRateError, bad, msg)
        post = v[jumped] @ (w @ jump.reshape(4, -1)).reshape(jump.shape[1:]) / rate
        new[jumped], tr[jumped] = _no_jump(post, post @ sup, dt)
    return new, tr


# kind -> (the step matrix's maps, then those whose pieces finish takes; dY draw; rest of step)
_STEPS = {
    QUADRATURE: ((_quadrature_maps,), _quadrature_draw, _quadrature_finish),
    COUNTING: ((_counting_maps, _jump_map), _counting_draw, _counting_finish),
}


def draw_noise(rng: np.random.Generator, kind: str, grid: TimeGrid) -> np.ndarray:
    """Pre-drawn per-step randomness: Gaussian dI for quadrature, uniforms for counting."""
    if kind == QUADRATURE:
        return rng.standard_normal(grid.steps) * np.sqrt(grid.dt)
    return rng.random(grid.steps)


def propagate(
    model: HPModel,
    beta: CoherentInput,
    rho0: np.ndarray,
    kind: str,
    grid: TimeGrid,
    *,
    increments=None,
    noise=None,
):
    """The filter loop: yield (x after step k, dY_k, intensity before step k).

    rho0, (d, d) or (N, d, d), is not validated; x, a fresh real array of its
    shape, holds the coordinates of the state `master.hermitian(x)`.  Replays
    `increments` if given, else draws dY from `noise` (pre-drawn, step index
    first) and the pre-step intensity.  The step matrices are streamed from
    `master.maps_at` at the grid times, formed where beta(t) changes, so a
    constant beta forms one per run.  A trace, formed per row from the step
    product, that is not finite or below TRACE_UNDERFLOW fails the step; a
    numerical failure, a beta whose weights fail included, names its step,
    time and, over a batch, trajectory.
    """
    if kind not in _STEPS:
        raise ValueError(f"unknown measurement kind {kind!r}")
    maps, draw, finish = _STEPS[kind]
    step_map, *extra = (affine_superoperator(model, m) for m in maps)
    x = coordinates(np.asarray(rho0, dtype=complex))
    shape = x.shape
    d = shape[-1]
    x = x.reshape(-1, 1, d * d)
    dt = grid.dt
    values = (beta.value(k * dt) for k in range(grid.steps))
    step_maps = maps_at(_step_pieces(step_map, d, dt), values)
    for k in range(grid.steps):
        t = k * dt
        try:
            sup, w = next(step_maps)
            out = x @ sup
            intensity = out[..., -1].reshape(shape[:-2])
            dy = increments[k] if increments is not None else draw(noise[k], intensity, dt)
            new, tr = finish(x, out, intensity, dy, dt, sup, w, *extra)
            size = np.abs(tr)
            if not (size.min() >= TRACE_UNDERFLOW and size.max() < np.inf):  # false on nan
                bad = ~np.isfinite(tr) | (size < TRACE_UNDERFLOW)
                raise _underflow_error(bad.reshape(shape[:-2]), tr)
            x = new / tr
        except NumericalError as exc:
            raise type(exc)(f"step {k}, t={t:g}: {exc}") from exc
        yield x.reshape(shape), dy, intensity


def _filter_path(model, beta, rho0, kind, grid, **source):
    """(states, dY, pre-step intensities) of a `propagate` run from one valid rho0 on source."""
    rho0 = validate_density(rho0)  # as given, as a complex array
    states = np.empty((grid.steps + 1,) + rho0.shape, dtype=complex)
    states[0] = rho0
    dys = np.empty(grid.steps)
    intensities = np.empty(grid.steps)
    for k, (x, dy, intensity) in enumerate(propagate(model, beta, rho0, kind, grid, **source)):
        states.real[k + 1] = x
        dys[k] = dy
        intensities[k] = intensity
    hermitian_in_place(states[1:])
    return states, dys, intensities


def simulate_record(
    model: HPModel,
    beta: CoherentInput,
    rho0: np.ndarray,
    kind: str,
    grid: TimeGrid,
    seed: int,
):
    """Generate a measurement record and the co-evolved filter path.

    Returns (record, states, innovations): states of shape (steps+1, d, d)
    and the (steps,) innovations dY - intensity dt.  Deterministic given
    (seed, grid, model); the filter states are the conditional states of
    the very record being generated.
    """
    noise = draw_noise(np.random.default_rng(seed), kind, grid)
    states, dys, intensities = _filter_path(model, beta, rho0, kind, grid, noise=noise)
    record = MeasurementRecord(kind=kind, grid=grid, increments=dys)
    return record, states, dys - intensities * grid.dt


def _replay(model: HPModel, beta: CoherentInput, rho0: np.ndarray, record: MeasurementRecord):
    return _filter_path(model, beta, rho0, record.kind, record.grid, increments=record.increments)


def filter_record(
    model: HPModel, beta: CoherentInput, rho0: np.ndarray, record: MeasurementRecord
):
    """Replay the filter against a stored record.

    Returns (states, innovations) as simulate_record does, from the same
    loop, so replaying a simulated record reproduces its states exactly.
    """
    states, dys, intensities = _replay(model, beta, rho0, record)
    return states, dys - intensities * record.grid.dt


def zakai_filter(
    model: HPModel, beta: CoherentInput, rho0: np.ndarray, record: MeasurementRecord
):
    """Replay the unnormalized (Zakai) filter in factorized form.

    Returns (states, log_norm): states, shape (steps+1, d, d), are the
    normalized states of `filter_record`, so the Kallianpur-Striebel
    relation pi = sigma / sigma(1) holds exactly at every step; log_norm,
    shape (steps+1,), is log sigma(1) with log_norm[0] = 0.  Step k's
    factor, from the Zakai trace SDE at beta = beta(k dt) and the
    pre-step intensity, is

        quadrature: 1 + (m - b - b*)(dY - (b + b*) dt),
        counting:   1 + (r - |b|^2) / |b|^2 (dY - |b|^2 dt),

    the counting form valid only for |beta| >= COUNTING_BETA_MIN on the grid.
    """
    grid = record.grid
    b = np.array([beta.value(k * grid.dt) for k in range(grid.steps)])
    # hypot rounds as abs() of a Python complex does; np.abs of a complex array need not.
    abs_b = np.hypot(b.real, b.imag)
    if record.kind == COUNTING and np.min(abs_b) < COUNTING_BETA_MIN:
        raise ValueError(f"counting-mode Zakai propagation requires |beta| >= {COUNTING_BETA_MIN}")
    states, dys, intensities = _replay(model, beta, rho0, record)
    if record.kind == QUADRATURE:
        c = 2.0 * b.real
        factor = 1.0 + (intensities - c) * (dys - c * grid.dt)
    else:
        a = abs_b**2
        factor = 1.0 + (intensities - a) / a * (dys - a * grid.dt)
    underflow = np.flatnonzero(factor <= TRACE_UNDERFLOW)
    if underflow.size:
        k = underflow[0]
        raise TraceUnderflowError(
            f"step {k}, t={k * grid.dt:g}: "
            f"Zakai normalization factor {factor[k]:.3g} underflowed"
        )
    return states, np.concatenate([[0.0], np.cumsum(np.log(factor))])
