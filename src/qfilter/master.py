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
forms its maps through `BetaBlock`, BETA_BLOCK steps at a time: beta is
evaluated once per time, and the maps at the times where it changes are
formed in one product, so a constant beta forms one map per run.  RK4
forms the d^2 x d^2 generators at a block's grid and half-step times, and
each stage under a time-varying beta is one product with one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import NumericalError, validate_density
from .model import CoherentInput, HPModel, lindblad_adjoint, modulated_operators

TRACE_DRIFT_LIMIT = 1e-6
STATE_BLOCK = 256  # states made Hermitian in place at a time, bounding the copy this takes
BETA_BLOCK = 8  # grid steps whose beta-dependent maps are formed in one product


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


def _form(weights: np.ndarray, pieces: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The flat maps at each row of (n, 4) weights, from the (4, d*d*w) pieces, in one product."""
    return np.matmul(weights, pieces, out=out)


class BetaBlock:
    """The maps M(b) of one (4, d*d, w) piece array at the beta values of a block of grid times.

    `form(values)` gives each value a slot of `maps`, holding M(b), and of
    `weights`, holding the weights of b; `take(i)` is the pair for value i.
    A value equal to the one before it shares that slot, so only the
    changes of beta are formed, in one product
    (changes, 4) @ pieces.reshape(4, -1) into buffers allocated once.  The
    last value of a block carries over: a next block starting with it
    takes its map, copied to slot 0 first, and forms nothing for it.  A
    value whose weights fail ends the block's slots, and `take` raises
    that failure at its position, in the step that first needs it.
    """

    def __init__(self, pieces: np.ndarray, size: int):
        self.pieces = pieces.reshape(4, -1)
        self.maps = np.empty((size,) + pieces.shape[1:])
        self.weights = np.empty((size, 4))
        self.views = list(zip(self.maps, self.weights))
        self.last, self.slot, self.taken, self.error = None, 0, [], None

    def form(self, values) -> None:
        """Form the maps of the (at most size) beta values, up to the first that fails."""
        if values.count(self.last) == len(values):  # beta unchanged: nothing to form
            self.taken = [self.views[self.slot]] * len(values)
            return
        start = int(values[0] == self.last)
        if start and self.slot:
            self.maps[0], self.weights[0] = self.maps[self.slot], self.weights[self.slot]
        last, slot, rows, taken, views = self.last, start - 1, [], [], self.views
        for b in values:
            if b != last:
                try:
                    rows.append(_beta_weights(b))
                except NumericalError as exc:
                    self.error = exc
                    break
                last, slot = b, slot + 1
            taken.append(views[slot])
        if rows:
            end = start + len(rows)
            self.weights[start:end] = rows
            out = self.maps[start:end].reshape(end - start, -1)
            _form(self.weights[start:end], self.pieces, out)
        self.last, self.slot, self.taken = last, max(slot, 0), taken

    def take(self, i: int) -> tuple:
        """(M(b), weights of b) for value i of the last `form`; raises the failure of that value."""
        if i < len(self.taken):
            return self.taken[i]
        raise self.error


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
    row-form generator A(b).  The generators at a block of BETA_BLOCK steps'
    grid and half-step times are formed in one `BetaBlock` product, where
    beta changes; a step's end time is the next step's start, and its two
    middle stages share one generator.  A step whose three stage values of
    beta agree is one product with the RK4 polynomial of that generator
    (exactly RK4), kept while beta is unchanged; otherwise each stage is
    one product v @ A(b).  The real parts of the states hold the
    coordinates until `hermitian_in_place`.  A failure names its step and time.
    """
    rho = validate_density(rho0)
    d = rho.shape[0]
    generators = BetaBlock(drift_superoperator(model), 2 * BETA_BLOCK + 1)
    states = np.empty((grid.steps + 1, d, d), dtype=complex)
    path = states.real.reshape(grid.steps + 1, d * d)
    path[0] = v = coordinates(rho).reshape(d * d)
    dt = grid.dt
    b_poly = poly = None
    value = beta.value
    values = [value(0.0)]
    for k in range(grid.steps):
        t = k * dt
        j = 2 * (k % BETA_BLOCK)  # the step's start in `values`
        try:
            if not j:  # b(t_k), then b(t_i + dt/2) and b(t_i+1) for each step i of the block
                values = values[-1:]
                for i in range(k, min(k + BETA_BLOCK, grid.steps)):
                    values += value(i * dt + 0.5 * dt), value((i + 1) * dt)
                generators.form(values)
            b1, b2, b3 = values[j : j + 3]
            if b1 == b2 == b3:
                if b1 != b_poly:
                    b_poly, poly = b1, _rk4_polynomial(dt * generators.take(j)[0])
                v = v @ poly
            else:
                k1 = v @ generators.take(j)[0]
                a2 = generators.take(j + 1)[0]
                k2 = (v + 0.5 * dt * k1) @ a2
                k3 = (v + 0.5 * dt * k2) @ a2
                k4 = (v + dt * k3) @ generators.take(j + 2)[0]
                v = v + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        except NumericalError as exc:
            raise type(exc)(f"step {k}, t={t:g}: {exc}") from exc
        drift = abs(v[:: d + 1].sum() - 1.0)
        if not drift <= TRACE_DRIFT_LIMIT:  # a non-finite trace counts as drift
            raise StepSizeError(
                f"trace drift {drift:.3e} at step {k}: dt={dt} too large for this generator"
                f" at t={t:g}, beta = {b1}"
            )
        path[k + 1] = v
    return hermitian_in_place(states)
