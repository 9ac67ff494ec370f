"""Deterministic integration of the coherent-state master equation.

Classical RK4 on d(rho)/dt = L'^{beta(t)}(rho).  Serves as the
ensemble-average oracle for the stochastic filters.

Linear maps of d x d matrices act here, and in the filter loop, in
Liouville space (Havel, J. Math. Phys. 44, 534 (2003)) restricted to
Hermitian matrices, a real space of dimension d^2.  A Hermitian rho is
held as its real coordinates x: the d x d real matrix with x_ab = Re rho_ab
on and above the diagonal and x_ab = Im rho_ab below it (`coordinates`),
flattened row-major to d^2 entries.  The inverse (`hermitian`) takes the
real part from the upper triangle and the imaginary part from the lower,
so it round-trips exactly and its result is Hermitian bit for bit; the
trace is the sum of the diagonal of x.  A Hermitian-preserving map F acts
on the right of a row vector, x(F(rho)) = x(rho) @ M, row ab of M being
x(F(h_ab)) for h_ab = hermitian(e_ab), the preimage of the coordinate unit
vector e_ab; a scalar-valued map takes the real part.  Since
L^beta = L + beta S and H^beta is affine in (beta, beta*), every map built
from them is M(beta) = M0 + Re(beta) M1 + Im(beta) M2 + |beta|^2 M3 with
real pieces, built once per run as one (4, d^2, w) array
(`affine_superoperator`).  `at` forms M(beta) in one product of the weights
(1, Re beta, Im beta, |beta|^2) with the pieces.  A loop over the grid
streams its maps from `maps_at`, which reads the loop's beta values
BETA_BLOCK at a time and forms the maps where beta changes in one
product, so a constant beta forms one map per run.  RK4 streams the
d^2 x d^2 generators at its grid and half-step times, and each stage
under a time-varying beta is one product with one of them; a run of steps
under one generator is filled from powers of its RK4 polynomial, by
repeated squaring, in O(log n) products for n steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, islice, repeat
from operator import itemgetter

import numpy as np

from .linalg import NumericalError, validate_density
from .model import CoherentInput, HPModel, lindblad_adjoint, modulated_operators

TRACE_DRIFT_LIMIT = 1e-6
STATE_BLOCK = 256  # states made Hermitian in place at a time, bounding the copy this takes
BETA_BLOCK = 8  # beta values whose maps are formed in one product


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid: times k dt for k = 0..steps."""

    dt: float
    steps: int

    def __post_init__(self):
        if not 0 < self.dt < np.inf:  # also False for nan
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")
        if isinstance(self.steps, bool) or not isinstance(self.steps, (int, np.integer)):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    @classmethod
    def from_duration(cls, dt: float, duration: float) -> "TimeGrid":
        return cls(dt=dt, steps=int(round(duration / dt)))

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)


class StepSizeError(NumericalError):
    """Trace drift indicates the RK4 step is too large for the generator."""


# The two index tables are built in Python lists: built from numpy integer
# arrays, they raised a run's resident memory by about 0.3 MB of loop code.
@cache
def _below_diagonal(d: int) -> np.ndarray:
    return np.array([[a > b for b in range(d)] for a in range(d)])


def coordinates(rho: np.ndarray) -> np.ndarray:
    """The real coordinates x of Hermitian (..., d, d) rho: Re on and above the diagonal, Im below."""
    return np.where(_below_diagonal(rho.shape[-1]), rho.imag, rho.real)


@cache
def _hermitian_gather(d: int) -> np.ndarray:
    """Where each real and imaginary part of hermitian(x), interleaved, sits in [x, -x, 0]."""
    index = []
    for a in range(d):
        for b in range(d):
            x_ab, x_ba = a * d + b, b * d + a
            index.append(x_ab if a <= b else x_ba)
            index.append(x_ab if a > b else d * d + x_ba if a < b else 2 * d * d)
    return np.array(index)


def hermitian(x: np.ndarray) -> np.ndarray:
    """The Hermitian (..., d, d) matrix with real coordinates x, the exact inverse of `coordinates`.

    Every entry is a copy of an entry of x or of its negation, or zero, so
    the result is Hermitian bit for bit.
    """
    d = x.shape[-1]
    flat = x.reshape(x.shape[:-2] + (d * d,))
    signed = np.concatenate([flat, -flat, np.zeros(flat.shape[:-1] + (1,))], axis=-1)
    return signed.take(_hermitian_gather(d), axis=-1).view(complex).reshape(x.shape)


def hermitian_in_place(states: np.ndarray) -> np.ndarray:
    """Complex (n, d, d) states whose real parts hold their coordinates, made Hermitian."""
    for block in np.split(states, range(STATE_BLOCK, len(states), STATE_BLOCK)):
        block[...] = hermitian(block.real)
    return states


def _beta_weights(b: complex) -> list:
    """The weights of the pieces M0, M1, M2, M3 at beta = b."""
    b = complex(b)  # Python floats: a square past float range raises OverflowError, not inf
    try:
        return [1.0, b.real, b.imag, b.real**2 + b.imag**2]
    except OverflowError:
        raise NumericalError(f"|beta|^2 overflows a float at beta = {b}") from None


def at(pieces: np.ndarray, b: complex) -> np.ndarray:
    """M(b) = M0 + Re(b) M1 + Im(b) M2 + |b|^2 M3 from the (4, d*d, w) pieces."""
    return (np.array(_beta_weights(b)) @ pieces.reshape(4, -1)).reshape(pieces.shape[1:])


def _form(weights: np.ndarray, pieces: np.ndarray) -> np.ndarray:
    """The flat maps at each row of (n, 4) weights, from the (4, d*d*w) pieces, in one product."""
    return weights @ pieces


def maps_at(pieces: np.ndarray, values):
    """Yield (M(b), the list of weights of b) from the (4, d*d, w) pieces for each beta value b.

    The values are read BETA_BLOCK at a time, and only the changes of beta
    are formed, in one product (changes, 4) @ pieces.reshape(4, -1) per
    block: a value equal to the one before it yields that value's pair
    again, the same objects, so a constant beta forms one map per run.  A
    value whose weights fail ends its block's product; the values before
    it are yielded, and its failure is raised when it is reached.
    """
    flat, shape = pieces.reshape(4, -1), pieces.shape[1:]
    values, last, pair = iter(values), None, None
    while block := list(islice(values, BETA_BLOCK)):
        if block.count(last) == len(block):  # beta unchanged: nothing to form
            yield from repeat(pair, len(block))
            continue
        rows, slots, error = [], [], None
        for b in block:
            if b != last:
                try:
                    rows.append(_beta_weights(b))
                except NumericalError as exc:
                    error = exc
                    break
                last = b
            slots.append(len(rows))
        pairs = [pair]  # slot 0: the values before the block's first change
        if rows:
            pairs += zip(_form(np.array(rows), flat).reshape((len(rows),) + shape), rows)
        for slot in slots:
            yield pairs[slot]
        pair = pairs[-1]
        if error:
            raise error


def affine_superoperator(model: HPModel, maps) -> np.ndarray:
    """The real (4, d*d, w) pieces of the row-form maps `maps(L^beta, H^beta, units)`, side by side.

    `maps` returns a tuple of arrays, each one Hermitian-preserving map
    applied to the stack of the d*d preimages h_ab of the coordinate unit
    vectors: (d*d, d, d) for a matrix-valued map, of which the coordinates
    are taken (d*d columns), and (d*d,) for a scalar-valued one, of which
    the real part is taken (one column).  The maps are evaluated at
    beta = 0, 1, -1, i and the four pieces solved for, so each map keeps
    its one definition.
    """
    d = model.dim
    units = hermitian(np.eye(d * d).reshape(d * d, d, d))

    def evaluate(b):
        lb, hb = modulated_operators(model, b)
        outs = maps(lb, hb, units)
        return np.concatenate(
            [(coordinates(m) if m.ndim == 3 else m.real).reshape(d * d, -1) for m in outs], axis=1
        )

    f0, f_plus, f_minus, f_i = (evaluate(b) for b in (0j, 1 + 0j, -1 + 0j, 1j))
    p3 = 0.5 * (f_plus + f_minus) - f0
    return np.stack([f0, 0.5 * (f_plus - f_minus), f_i - f0 - p3, p3])


def drift_superoperator(model: HPModel) -> np.ndarray:
    """The pieces of the generator L'^beta in row form."""
    return affine_superoperator(model, lambda lb, hb, units: (lindblad_adjoint(lb, hb, units),))


def _rk4_polynomial(a: np.ndarray) -> np.ndarray:
    """sum_{k=0}^4 a^k / k!, one RK4 step of a constant linear generator."""
    eye = np.eye(a.shape[0], dtype=a.dtype)
    out = eye + a / 4
    for k in (3, 2, 1):
        out = eye + (a @ out) / k
    return out


def integrate_master(
    model: HPModel, beta: CoherentInput, rho0: np.ndarray, grid: TimeGrid
) -> np.ndarray:
    """The (steps+1, d, d) states by RK4, with beta sampled at the substage times.

    The state steps as a row vector of real coordinates through the
    row-form generator A(b), streamed by `maps_at` at beta(0) and then at
    each step's half-step and end times: a step's end time is the next
    step's start, and its two middle stages share one generator.  A step
    whose three stage generators are the same map, beta unchanged across
    it, is one product with the RK4 polynomial P of that map (exactly
    RK4).  Such steps come in runs, found by pulling stage generators
    while they are the run's map, and a run of n steps is filled in
    O(log n) products by repeated squaring: with the first f states of
    the run known, the next m <= f are those m states @ P^f, and f
    doubles while P^2f is finite.  Otherwise each stage is one product
    v @ A(b).  The real
    parts of the states hold the coordinates until `hermitian_in_place`.
    A failure names its step and time, and failures come in step order:
    a beta that fails ends a run, which is filled and checked before the
    failure is raised.
    """
    rho = validate_density(rho0)
    d = rho.shape[0]
    states = np.empty((grid.steps + 1, d, d), dtype=complex)
    path = states.real.reshape(grid.steps + 1, d * d)
    path[0] = v = coordinates(rho).reshape(d * d)
    dt = grid.dt
    value = beta.value

    def drift_error(drift: float, k: int) -> StepSizeError:
        return StepSizeError(
            f"trace drift {drift:.3e} at step {k}: dt={dt} too large for this generator"
            f" at t={k * dt:g}, beta = {value(k * dt)}"
        )

    times = (t for i in range(grid.steps) for t in (i * dt + 0.5 * dt, (i + 1) * dt))
    values = chain([value(0.0)], map(value, times))
    generators = map(itemgetter(0), maps_at(drift_superoperator(model), values))
    pairs = zip(generators, generators)  # each step's half-step and end generators
    k = 0
    while k < grid.steps:
        try:
            if not k:  # A(b(0)), taken here so that its failure names step 0
                a3 = next(generators)
            a1, (a2, a3) = a3, next(pairs)
        except NumericalError as exc:
            raise type(exc)(f"step {k}, t={k * dt:g}: {exc}") from exc
        if a1 is a2 is a3:
            run, error = 1, None
            try:
                for a2, a3 in pairs:
                    if a2 is not a1 or a3 is not a1:
                        break  # (a2, a3) are the generators of the step after the run
                    run += 1
            except NumericalError as exc:
                error = exc
            # path[k : k + known] is filled and power is P^f: the next m <= f states are
            # the m states f steps before them @ P^f.  f doubles while P^2f is finite; an
            # RK4-unstable mode that the states do not hold would overflow it, not them.
            power, f, known = _rk4_polynomial(dt * a1), 1, 1
            while known <= run:
                m = min(f, run + 1 - known)
                rows = path[k + known : k + known + m]
                np.matmul(path[k + known - f : k + known - f + m], power, out=rows)
                drift = np.abs(rows[:, :: d + 1].sum(axis=1) - 1.0)
                if not drift.max() <= TRACE_DRIFT_LIMIT:  # a non-finite trace counts as drift
                    first = np.argmax(~(drift <= TRACE_DRIFT_LIMIT))
                    raise drift_error(drift[first], k + known - 1 + first)
                known += m
                if known == 2 * f <= run:
                    with np.errstate(over="ignore", invalid="ignore"):
                        square = power @ power
                    if np.isfinite(square).all():
                        power, f = square, 2 * f
            k += run
            if error:
                raise type(error)(f"step {k}, t={k * dt:g}: {error}") from error
            if k == grid.steps:
                break
            v = path[k].copy()
        k1 = v @ a1
        k2 = (v + 0.5 * dt * k1) @ a2
        k3 = (v + 0.5 * dt * k2) @ a2
        k4 = (v + dt * k3) @ a3
        v = v + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        drift = abs(v[:: d + 1].sum() - 1.0)
        if not drift <= TRACE_DRIFT_LIMIT:
            raise drift_error(drift, k)
        path[k + 1] = v
        k += 1
    return hermitian_in_place(states)
