"""The system model: (S, L, H) triple, coherent input, modulated operators.

S is the scattering unitary, L the coupling (units time^-1/2), H the
Hamiltonian (units time^-1).  The coherent input is the amplitude beta(t)
alone, a function of time built by one of `CoherentInput`'s constructors;
it carries units time^-1/2, so all generator terms scale as time^-1.

A model may hold stacks (n, d, d) of n triples; the operator functions
below then act instance by instance, with beta a scalar or a stack
(n, 1, 1) of amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import (
    as_operator,
    check_dims,
    commutator,
    dagger,
    is_hermitian,
    is_unitary,
)


@dataclass(frozen=True)
class HPModel:
    """System triple (S, L, H) on a dim-dimensional Hilbert space, or a stack of triples."""

    S: np.ndarray
    L: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        s = as_operator(self.S)
        l = as_operator(self.L)
        h = as_operator(self.H)
        check_dims(s, l, h)
        if not is_unitary(s, 1e-9):
            raise ValueError("S is not unitary within tolerance")
        if not is_hermitian(h, 1e-9):
            raise ValueError("H is not Hermitian within tolerance")
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "L", l)
        object.__setattr__(self, "H", h)

    @property
    def dim(self) -> int:
        return self.S.shape[-1]


@dataclass(frozen=True)
class CoherentInput:
    """Coherent-state amplitude beta(t), held as the function `value`: t -> beta(t).

    Build it with `constant`, `sinusoid` (a * exp(i omega t) + c) or
    `piecewise` (piecewise constant on a uniform grid, left endpoints).  A
    time within rounding of a sample boundary j * sample_dt takes sample j.
    """

    value: Callable[[float], complex]

    @classmethod
    def constant(cls, value: complex) -> "CoherentInput":
        value = complex(value)
        _check_finite("constant", value=value)
        return cls(lambda t: value)

    @classmethod
    def sinusoid(cls, amplitude: complex, frequency: float, offset: complex = 0.0) -> "CoherentInput":
        a, w, c = complex(amplitude), float(frequency), complex(offset)
        _check_finite("sinusoid", amplitude=a, frequency=w, offset=c)
        return cls(lambda t: a * np.exp(1j * w * t) + c)

    @classmethod
    def piecewise(cls, t0: float, sample_dt: float, samples) -> "CoherentInput":
        samples = tuple(complex(v) for v in samples)
        t0, sample_dt, last = float(t0), float(sample_dt), len(samples) - 1
        if not (0 < sample_dt < np.inf and abs(t0) < np.inf and samples):  # also False on nan
            raise ValueError("piecewise input needs a finite t0, 0 < sample_dt < inf and samples")
        finite = np.isfinite(samples)
        if not finite.all():
            j = int(np.argmin(finite))
            raise ValueError(f"piecewise input needs finite samples, got {samples[j]} at sample {j}")

        def value(t: float) -> complex:
            # Clamped first, so a quotient that overflows to +-inf takes an end
            # sample; within 1e-9 sample intervals of a boundary (float rounding) is on it.
            x = min(max((t - t0) / sample_dt, 0.0), last)
            return samples[int(np.floor(x + 1e-9 * max(1.0, x)))]

        return cls(value)


def _check_finite(kind: str, **values) -> None:
    """ValueError naming the first argument of a `kind` input whose value is not finite."""
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValueError(f"{kind} input needs a finite {name}, got {value}")


def modulated_coupling(model: HPModel, b: complex) -> np.ndarray:
    """L^beta = S beta + L at the amplitude beta = b."""
    return model.S * b + model.L


def modulated_hamiltonian(model: HPModel, b: complex) -> np.ndarray:
    """H + (1/2i)(beta L†S - beta* S†L) at the amplitude beta = b.

    The S factors are forced by matching the Lindblad form of the
    coherent-state generator against the Evans-Hudson sum; for S = I this
    reduces to H + (1/2i)(beta L† - beta* L).
    """
    cross = b * (dagger(model.L) @ model.S) - np.conj(b) * (dagger(model.S) @ model.L)
    return model.H + cross / 2j


def modulated_operators(model: HPModel, b: complex):
    """(L^beta, H^beta) at beta = b: the effective coupling and total Hamiltonian."""
    return modulated_coupling(model, b), modulated_hamiltonian(model, b)


def evans_hudson(model: HPModel, index: tuple, x: np.ndarray) -> np.ndarray:
    """The four coefficient maps of the quantum Langevin equation."""
    x = as_operator(x)
    check_dims(x, model.S)
    s, l, h = model.S, model.L, model.H
    if index == (1, 1):
        return dagger(s) @ x @ s - x
    if index == (1, 0):
        return dagger(s) @ commutator(x, l)
    if index == (0, 1):
        return commutator(dagger(l), x) @ s
    if index == (0, 0):
        return lindblad_heisenberg(l, h, x)
    raise ValueError(f"invalid Evans-Hudson index {index!r}")


def lindblad_heisenberg(l: np.ndarray, h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(1/2) L†[X, L] + (1/2)[L†, X] L - i[X, H]."""
    ld = dagger(l)
    return 0.5 * ld @ commutator(x, l) + 0.5 * commutator(ld, x) @ l - 1j * commutator(x, h)


def heisenberg_generator(model: HPModel, b: complex, x: np.ndarray) -> np.ndarray:
    """L_00 X + beta* L_10 X + beta L_01 X + |beta|^2 L_11 X at beta = b."""
    return (
        evans_hudson(model, (0, 0), x)
        + np.conj(b) * evans_hudson(model, (1, 0), x)
        + b * evans_hudson(model, (0, 1), x)
        + abs(b) ** 2 * evans_hudson(model, (1, 1), x)
    )


def lindblad_adjoint(l: np.ndarray, h: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """-i[H, rho] + L rho L† - (1/2){L†L, rho}.

    Accepts batched rho of shape (..., d, d).
    """
    ld = dagger(l)
    ldl = ld @ l
    return -1j * (h @ rho - rho @ h) + l @ rho @ ld - 0.5 * (ldl @ rho + rho @ ldl)


def adjoint_generator(model: HPModel, b: complex, rho: np.ndarray) -> np.ndarray:
    """Schroedinger-picture generator dual to heisenberg_generator.

    L'rho = -i[H^beta, rho] + L^beta rho L^beta† - (1/2){L^beta† L^beta, rho}.
    """
    lb, hb = modulated_operators(model, b)
    return lindblad_adjoint(lb, hb, np.asarray(rho, dtype=complex))
