"""Stochastic master equations for quadrature and photon-counting records.

Filters are propagated in density-matrix (Schroedinger) form.  `propagate`
is the one filter loop; `simulate_record`, `filter_record` and
`zakai_filter` collect it into arrays (states of shape (steps+1, d, d),
the (steps,) innovations, the Zakai log-normalization), and the ensemble
harness aggregates it on the fly.

The loop steps in Liouville space on real coordinates (conventions in
`master`): a state is a vector x(rho) of d^2 reals, and the N states of a
batch are the columns of one (d^2, Npad) buffer, N rounded up to whole
chunks of COLUMN_CHUNK columns, with the columns past N zero.  The linear
work of a step is one real product per chunk, (w, d^2) @ (d^2,
COLUMN_CHUNK), of the transposed step matrix with the chunk, which BLAS
writes into the chunk's columns of one (w, Npad) output buffer (leading
dimension Npad), so that each quantity of the step is one contiguous row
over the batch; both buffers are allocated once per run, and nothing
yielded is a view of either.  A trajectory alone is column 0 of one such
chunk.  BLAS computes each column of a product of this fixed shape the
same way whatever its place, and the jump products, over the states that
clicked, stay one product per state, so trajectory i of a batch is bit
for bit the trajectory run alone.
The loop tests no measurement kind; each kind's `_STEPS` entry gives its
maps, its dY draw and the rest of its step.  The step matrix is the Euler
step, a = tr(A x), tau = tr x and the pre-step intensity, in row form
(x @ M) and held transposed: for quadrature
[A | gain | a | tau | m], w = 2 d^2 + 3, A = I + L' dt, m = tr(gain),
dY = dI + m dt; for counting [A | a | tau | r], w = d^2 + 3,
A = I + (L' - J) dt, J rho = L^b rho L^b†, r = tr(J rho), dY a
Bernoulli(r dt) click, and a state that clicked first jumps by J / r.
The loop yields each new state over its trace, formed from these scalars,
a + (m - m tau)(dY - m dt) or a + r dt tau; consumers form the states,
Hermitian by construction, where needed, and check that rounding has left
them at trace 1 (`check_trace`).  Each map is formed from its
four affine pieces in beta, built once per run: the step matrices
streamed by `master.maps_at`, which forms them a block of grid times at a
time, in one product where beta(t) changes, and the jump map, from the
step's beta weights, when a state clicks.

The unnormalized (Zakai) state is kept in factorized form: the normalized
filter state plus an accumulated log-normalization, whose per-step
increment comes from the Zakai trace SDE and the kernel's pre-step
intensity.  This keeps the Kallianpur-Striebel relation exact at the
discrete level and avoids likelihood overflow on long records.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, dagger, validate_density
from .master import TimeGrid, affine_superoperator, coordinates, hermitian_in_place, maps_at
from .model import CoherentInput, HPModel, lindblad_adjoint

JUMP_RATE_FLOOR = 1e-12
TRACE_UNDERFLOW = 1e-12
COUNTING_BETA_MIN = 1e-3
MAX_JUMP_PROBABILITY = 0.1
TRACE_LOSS_LIMIT = 1e-9  # largest |tr - 1| of a returned state; the loop normalizes each to trace 1
COLUMN_CHUNK = 16  # columns per step product: one fixed GEMM shape, whatever the batch size

QUADRATURE = "quadrature"
COUNTING = "counting"
KINDS = (QUADRATURE, COUNTING)

# numpy's SeedSequence (pool of four uint32 words): hashmix, generate_state and
# mix constants; and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


class TraceUnderflowError(NumericalError):
    """The (un)normalized state trace collapsed below the floor."""


class JumpRateError(NumericalError):
    """A detection event occurred in a state with vanishing jump rate,
    or the per-step jump probability exceeds the validity bound."""


class TraceLossError(NumericalError):
    """A state normalized to trace 1 is off it by more than TRACE_LOSS_LIMIT: its entries
    grew so large that rounding, not the filter, sets its trace."""


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


def check_trace(x: np.ndarray, steps, dt: float) -> None:
    """Raise TraceLossError at the first state of x off trace 1 by more than TRACE_LOSS_LIMIT.

    x holds the coordinates of the states after each of `steps`: one (d, d)
    state, or an (N, d, d) batch, per step.  The error names the step and
    its time, as `propagate`'s failures do, and over a batch the trajectory.
    """
    loss = np.abs(_btrace(x) - 1.0)
    bad = ~(loss <= TRACE_LOSS_LIMIT)  # nan counts as lost
    if np.any(bad):
        first = np.argmax(bad.reshape(len(bad), -1).any(axis=1))
        value = np.ravel(loss[first])[np.argmax(bad[first])]
        msg = f"state trace lost: |tr - 1| = {value:.3g} > {TRACE_LOSS_LIMIT:g} after renormalization"
        exc = _row_error(TraceLossError, bad[first], msg)
        raise TraceLossError(f"step {steps[first]}, t={steps[first] * dt:g}: {exc}")


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
    """A map's pieces [drift | ... | intensity] as rows [I + dt drift | ... | a | tau | intensity].

    The step matrix acts on the left of a state's coordinates as a column:
    its row j is column j of the row-form map.
    """
    tau = np.multiply.outer([1.0, 0.0, 0.0, 0.0], np.eye(d).reshape(-1, 1))  # x @ tau[0] = tr x
    a = dt * pieces[..., : d * d]
    a[0] += np.eye(d * d)  # in piece 0, of beta-weight 1
    rows = np.concatenate([a, pieces[..., d * d : -1], a @ tau[0], tau, pieces[..., -1:]], axis=-1)
    return np.ascontiguousarray(rows.transpose(0, 2, 1))


def _quadrature_draw(di, m, dt):
    """dY = dI + m dt, with dI ~ N(0, dt) pre-drawn."""
    return di + m * dt


def _quadrature_finish(v, out, m, dy, dt, *_):
    """rho + L'rho dt + (L^b rho + rho L^b† - m rho)(dY - m dt) and its trace, in columns."""
    d2 = len(v)
    m, a, tau = out[-1], out[-3], out[-2]
    innov = dy - m * dt
    return out[:d2] + (out[d2:-3] - m * v) * innov, a + (m - m * tau) * innov


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
    """rho + (L'rho - L^b rho L^b† + r rho) dt and its trace, from out = [A | a | tau | r]^T @ v."""
    rdt = out[-1] * dt
    return out[:-3] + rdt * v, out[-3] + rdt * out[-2]


def _counting_finish(v, out, r, dy, dt, sup, w, jump):
    """Each column's no-jump step and trace; a column that clicked (r >= JUMP_RATE_FLOOR) jumps first.

    The jump map is formed from w, the step's beta weights, only when a
    column clicked; each clicked state takes its own products, as a row.
    """
    new, tr = _no_jump(v, out, dt)
    jumped = dy.reshape(-1).nonzero()[0]  # np.flatnonzero(dy), without its Python wrapper
    if jumped.size:
        rate = out[-1, jumped]
        if not rate.min() >= JUMP_RATE_FLOOR:  # also true on nan, which the mask lets pass
            bad = (dy != 0.0) & (r < JUMP_RATE_FLOOR)
            if np.any(bad):
                msg = "detection event in a state with vanishing jump rate"
                raise _row_error(JumpRateError, bad, msg)
        jump_map = (w @ jump.reshape(4, -1)).reshape(jump.shape[1:])
        post = v.T[jumped, None] @ jump_map / rate[:, None, None]  # (clicked, 1, d^2)
        new[:, jumped], tr[jumped] = _no_jump(post[:, 0].T, (post @ sup.T)[:, 0].T, dt)
    return new, tr


# kind -> (the step matrix's maps, then those whose pieces finish takes; dY draw; rest of step)
_STEPS = {
    QUADRATURE: ((_quadrature_maps,), _quadrature_draw, _quadrature_finish),
    COUNTING: ((_counting_maps, _jump_map), _counting_draw, _counting_finish),
}


def check_seeds(seeds) -> list:
    """The seeds as ints, each in [0, 2**64), the range of a seed's two 32-bit words."""
    seeds = [operator.index(s) for s in seeds]
    for s in seeds:
        if not 0 <= s < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {s}")
    return seeds


def _hash(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashes j = 0, 1, ... of uint32 words, stacked on a first axis.

    Hash j xors words[j] (or words, broadcast) with consts[j], multiplies by
    consts[j + 1], the const it advances SeedSequence to, and xor-shifts.
    """
    words = (words ^ consts[:-1, None]) * consts[1:, None]
    return words ^ (words >> np.uint32(16))


def _consts(init: int, mult: int, n: int) -> np.ndarray:
    """init and the n consts that SeedSequence's hashes advance it to, as uint32."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _pcg64_states(seeds: list):
    """Yield the PCG64 (state, inc) that np.random.default_rng(seed) starts from, for each seed.

    SeedSequence hashes the seed's two 32-bit words, zero-padded to its pool
    of four, mixes the pool and expands it to four 64-bit words, here on
    uint32 arrays over all seeds at once; pcg_setseq_128_srandom_r then takes
    the first two words as the initial state and the last two as the stream.
    """
    s = np.array(seeds, dtype=np.uint64)
    words = np.zeros((4, len(seeds)), dtype=np.uint32)
    words[0], words[1] = s, s >> np.uint64(32)  # low and high word, wrapped into uint32
    hash_consts = _consts(_INIT_A, _MULT_A, 4 + 4 * 3)  # the pool's 4 hashes, 3 per round
    pool = _hash(words, hash_consts[:5])
    for src in range(4):  # each other word mixes in its own hash of pool[src], in order
        dst = [d for d in range(4) if d != src]
        hashed = _hash(pool[src], hash_consts[4 + 3 * src : 8 + 3 * src])
        mixed = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * hashed
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _consts(_INIT_B, _MULT_B, 8))
    out = np.ascontiguousarray(out.T, dtype="<u4")
    for row in out.view("<u8"):  # a row at a time: a list of N lists would fragment the heap
        high, low, inc_high, inc_low = row.tolist()
        inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
        yield ((((high << 64 | low) + inc) * _PCG_MULT + inc) & _MASK128, inc)


def draw_noise(seeds, kind: str, grid: TimeGrid) -> np.ndarray:
    """Pre-drawn per-step randomness, (steps, N): Gaussian dI for quadrature, uniforms for counting.

    Column i is bit for bit what np.random.default_rng(seeds[i]) draws,
    standard_normal(steps) * sqrt(dt) or random(steps): one PCG64, set to
    each seed's state in turn, draws into one reused row.
    """
    seeds = check_seeds(seeds)
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    draw = generator.standard_normal if kind == QUADRATURE else generator.random
    noise = np.empty((grid.steps, len(seeds)))
    row = np.empty(grid.steps)
    seeded = bit_generator.state  # of a fresh PCG64: no buffered 32-bit half word
    for i, (state, inc) in enumerate(_pcg64_states(seeds)):
        seeded["state"] = {"state": state, "inc": inc}
        bit_generator.state = seeded
        draw(out=row)
        noise[:, i] = row
    if kind == QUADRATURE:
        noise *= np.sqrt(grid.dt)  # rounds as scaling each column's draw does
    return noise


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

    rho0, (d, d) or (N, d, d), is not validated; x, a real array of its
    shape, holds the coordinates of the state `master.hermitian(x)`: it is
    the transpose of the step's fresh (d^2, N) columns, which are copied
    into the buffer of the next step's product.  The intensity, of the
    batch shape, is fresh too: neither is a view of either buffer.  Replays
    `increments` (step index first) if given, else draws dY from `noise`
    (pre-drawn, step index first) and the pre-step intensity.
    The step matrices are streamed from `master.maps_at` at the grid times,
    formed where beta(t) changes, so a constant beta forms one per run.  A
    trace, formed per row from the step product, that is not finite or
    below TRACE_UNDERFLOW fails the step; a numerical failure, a beta whose
    weights fail included, names its step, time and, over a batch,
    trajectory.
    """
    if kind not in _STEPS:
        raise ValueError(f"unknown measurement kind {kind!r}")
    maps, draw, finish = _STEPS[kind]
    step_map, *extra = (affine_superoperator(model, m) for m in maps)
    x = coordinates(np.asarray(rho0, dtype=complex))
    shape = x.shape
    d = shape[-1]
    n = x.size // (d * d)
    dt = grid.dt
    pieces = _step_pieces(step_map, d, dt)
    chunks = -(-n // COLUMN_CHUNK)
    xbuf = np.zeros((d * d, chunks * COLUMN_CHUNK))  # columns past n stay zero
    obuf = np.empty((len(pieces[0]), chunks * COLUMN_CHUNK))  # each step's sup @ xbuf
    xin, prod = (b.reshape(len(b), chunks, COLUMN_CHUNK).transpose(1, 0, 2) for b in (xbuf, obuf))
    v, out = xbuf[:, :n], obuf[:, :n]
    v[...] = x.reshape(n, d * d).T
    intensity = out[-1].reshape(shape[:-2])  # a view: copied when yielded
    values = (beta.value(k * dt) for k in range(grid.steps))
    step_maps = maps_at(pieces, values)
    for k in range(grid.steps):
        t = k * dt
        try:
            sup, w = next(step_maps)
            np.matmul(sup, xin, out=prod)
            dy = increments[k] if increments is not None else draw(noise[k], intensity, dt)
            new, tr = finish(v, out, intensity, dy, dt, sup, w, *extra)
            size = np.abs(tr)
            low, high = np.minimum.reduce(size, None), np.maximum.reduce(size, None)
            if not (low >= TRACE_UNDERFLOW and high < np.inf):  # false on nan
                bad = ~np.isfinite(tr) | (size < TRACE_UNDERFLOW)
                raise _underflow_error(bad.reshape(shape[:-2]), tr)
            v[...] = x = new / tr
        except NumericalError as exc:
            raise type(exc)(f"step {k}, t={t:g}: {exc}") from exc
        yield x.T.reshape(shape), dy, intensity.copy()


def _filter_path(model, beta, rho0, kind, grid, **source):
    """(states, dY, pre-step intensities) of a `propagate` run from one valid rho0 on source."""
    rho0 = validate_density(rho0)  # as given, as a complex array
    states = np.empty((grid.steps + 1,) + rho0.shape, dtype=complex)
    states[0] = rho0
    dys = np.empty(grid.steps)
    intensities = np.empty(grid.steps)
    real = states.real
    for k, (x, dy, intensity) in enumerate(propagate(model, beta, rho0, kind, grid, **source)):
        real[k + 1] = x
        dys[k] = dy
        intensities[k] = intensity
    check_trace(real[1:], range(grid.steps), grid.dt)
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
    noise = draw_noise((seed,), kind, grid)[:, 0]
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
