"""Numeric-symbolic quantum Ito calculus.

Increment polynomials carry concrete matrix coefficients over the basis
{dt, dB, dB†, dLambda}.  Products follow the quantum Ito table

        dB dB† = dt,   dB dLambda = dB,
        dLambda dLambda = dLambda,   dLambda dB† = dB†,

with every other increment pair (and anything involving dt) vanishing.
Identities are verified numerically at machine precision rather than by
term rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_operator, check_dims, commutator, dagger, max_norm
from .model import (
    HPModel,
    evans_hudson,
    heisenberg_generator,
    modulated_coupling,
)

# Nonzero table entries: (left symbol, right symbol) -> result symbol.
# Symbols: "dt", "dB", "dBdag", "dLambda".
_ITO_TABLE = {
    ("dB", "dBdag"): "dt",
    ("dB", "dLambda"): "dB",
    ("dLambda", "dLambda"): "dLambda",
    ("dLambda", "dBdag"): "dBdag",
}

_SYMBOLS = ("dt", "dB", "dBdag", "dLambda")


@dataclass(frozen=True)
class IncrementPolynomial:
    """Matrix-coefficient polynomial a dt + b dB + c dB† + e dLambda."""

    coeff_dt: np.ndarray
    coeff_dB: np.ndarray
    coeff_dBdag: np.ndarray
    coeff_dLambda: np.ndarray

    def __post_init__(self):
        coeffs = tuple(as_operator(getattr(self, "coeff_" + s)) for s in _SYMBOLS)
        check_dims(*coeffs)
        for name, c in zip(_SYMBOLS, coeffs):
            object.__setattr__(self, "coeff_" + name, c)

    def coeff(self, symbol: str) -> np.ndarray:
        return getattr(self, "coeff_" + symbol)

    @classmethod
    def single(cls, symbol: str, coeff: np.ndarray) -> "IncrementPolynomial":
        coeff = as_operator(coeff)
        parts = {s: np.zeros_like(coeff) for s in _SYMBOLS}
        parts[symbol] = coeff
        return cls(parts["dt"], parts["dB"], parts["dBdag"], parts["dLambda"])

    def adjoint(self) -> "IncrementPolynomial":
        """Adjoint polynomial: dB <-> dB†, dt and dLambda self-adjoint."""
        return IncrementPolynomial(
            coeff_dt=dagger(self.coeff_dt),
            coeff_dB=dagger(self.coeff_dBdag),
            coeff_dBdag=dagger(self.coeff_dB),
            coeff_dLambda=dagger(self.coeff_dLambda),
        )

    def left_mul(self, a: np.ndarray) -> "IncrementPolynomial":
        return IncrementPolynomial(*(as_operator(a) @ self.coeff(s) for s in _SYMBOLS))

    def right_mul(self, a: np.ndarray) -> "IncrementPolynomial":
        return IncrementPolynomial(*(self.coeff(s) @ as_operator(a) for s in _SYMBOLS))

    def __add__(self, other: "IncrementPolynomial") -> "IncrementPolynomial":
        return IncrementPolynomial(*(self.coeff(s) + other.coeff(s) for s in _SYMBOLS))

    def __sub__(self, other: "IncrementPolynomial") -> "IncrementPolynomial":
        return IncrementPolynomial(*(self.coeff(s) - other.coeff(s) for s in _SYMBOLS))


def ito_product(p: IncrementPolynomial, q: IncrementPolynomial) -> IncrementPolynomial:
    """Product of two increment polynomials routed by the quantum Ito table."""
    check_dims(p.coeff_dt, q.coeff_dt)
    parts = {s: np.zeros_like(p.coeff_dt) for s in _SYMBOLS}
    for (a, b), target in _ITO_TABLE.items():
        parts[target] = parts[target] + p.coeff(a) @ q.coeff(b)
    return IncrementPolynomial(parts["dt"], parts["dB"], parts["dBdag"], parts["dLambda"])


def ito_product_many(*polys: IncrementPolynomial) -> IncrementPolynomial:
    """Left-to-right fold of ito_product."""
    out = polys[0]
    for p in polys[1:]:
        out = ito_product(out, p)
    return out


def coherent_expectation(p: IncrementPolynomial, beta: complex) -> np.ndarray:
    """dt-rate of the polynomial on a coherent state with amplitude beta.

    Uses dB Psi(beta) = beta dt Psi(beta) and dLambda Psi(beta) = beta dB† Psi(beta),
    which compose to the rates (1, beta, beta*, |beta|^2) on (dt, dB, dB†, dLambda).
    """
    b = complex(beta)
    return (
        p.coeff_dt
        + b * p.coeff_dB
        + np.conj(b) * p.coeff_dBdag
        + abs(b) ** 2 * p.coeff_dLambda
    )


def langevin_increment(model: HPModel, x: np.ndarray) -> IncrementPolynomial:
    """dj_t(X) with its four Evans-Hudson coefficients."""
    return IncrementPolynomial(
        coeff_dt=evans_hudson(model, (0, 0), x),
        coeff_dB=evans_hudson(model, (0, 1), x),
        coeff_dBdag=evans_hudson(model, (1, 0), x),
        coeff_dLambda=evans_hudson(model, (1, 1), x),
    )


def output_increments(model: HPModel):
    """(dB_out, dLambda_out) as increment polynomials.

    dB_out = S dB + L dt;
    dLambda_out = dLambda + L†S dB + S†L dB† + L†L dt.
    """
    d = model.dim
    eye = np.eye(d, dtype=complex)
    db_out = IncrementPolynomial(
        coeff_dt=model.L,
        coeff_dB=model.S,
        coeff_dBdag=np.zeros((d, d), dtype=complex),
        coeff_dLambda=np.zeros((d, d), dtype=complex),
    )
    dlambda_out = IncrementPolynomial(
        coeff_dt=dagger(model.L) @ model.L,
        coeff_dB=dagger(model.L) @ model.S,
        coeff_dBdag=dagger(model.S) @ model.L,
        coeff_dLambda=eye,
    )
    return db_out, dlambda_out


def verify_generator(model: HPModel, b: complex, x: np.ndarray) -> float:
    """Residual of E^beta[dj_t(X)] = E^beta[j_t(L^beta X)] dt at beta = b."""
    rate = coherent_expectation(langevin_increment(model, x), b)
    gen = heisenberg_generator(model, b, x)
    return max_norm(rate - gen)


def girsanov_coefficients(model: HPModel, b: complex, kind: str):
    """Change-of-measure coefficients for the Zakai dynamics at beta = b.

    Quadrature: (tilde_L, tilde_K) with
        tilde_L = L + (S - I) beta = L^beta - beta I,
        tilde_K = -L†S beta - (1/2)L†L - iH - L^beta beta + beta^2.
    Counting: ((1/beta) tilde_L, -((1/2)L†L + iH + L†S beta)).
    """
    d = model.dim
    eye = np.eye(d, dtype=complex)
    tilde_l = modulated_coupling(model, b) - b * eye
    base = -dagger(model.L) @ model.S * b - 0.5 * dagger(model.L) @ model.L - 1j * model.H
    if kind == "quadrature":
        tilde_k = base - modulated_coupling(model, b) * b + b * b * eye
        return tilde_l, tilde_k
    if kind == "counting":
        if abs(b) == 0:
            raise ValueError("counting-mode Girsanov coefficients require beta != 0")
        return tilde_l / b, base
    raise ValueError(f"unknown measurement kind {kind!r}")


def zakai_expansion(model: HPModel, b: complex, x: np.ndarray, kind: str):
    """Gain and drift of d(F†XF) from the Ito table, at the system level, at beta = b.

    Expands dF† X + X dF + dF† X dF with dF = coeff dY + K dt stripped of
    the F factors.  Returns (gain, drift) where for quadrature the
    increment of the unnormalized filter is gain dY + drift dt, and for
    counting the gain multiplies dLambda.
    """
    x = as_operator(x)
    d = model.dim
    if kind == "quadrature":
        tilde_l, tilde_k = girsanov_coefficients(model, b, "quadrature")
        dy = IncrementPolynomial(
            coeff_dt=np.zeros((d, d), dtype=complex),
            coeff_dB=np.eye(d, dtype=complex),
            coeff_dBdag=np.eye(d, dtype=complex),
            coeff_dLambda=np.zeros((d, d), dtype=complex),
        )
        df = dy.left_mul(tilde_l) + IncrementPolynomial.single("dt", tilde_k)
    elif kind == "counting":
        coeff, k_c = girsanov_coefficients(model, b, "counting")
        df = IncrementPolynomial.single("dLambda", coeff) + IncrementPolynomial.single("dt", k_c)
    else:
        raise ValueError(f"unknown measurement kind {kind!r}")

    total = df.adjoint().right_mul(x) + df.left_mul(x) + ito_product(df.adjoint().right_mul(x), df)
    if kind == "quadrature":
        # dY = dB + dB†: both coefficients must agree and form the gain.
        gain = total.coeff("dB")
        if max_norm(total.coeff("dB") - total.coeff("dBdag")) > 1e-12 * (1 + max_norm(gain)):
            raise AssertionError("quadrature expansion is not a dY polynomial")
        return gain, total.coeff("dt")
    return total.coeff("dLambda"), total.coeff("dt")


def nondemolition_residual(x: np.ndarray) -> float:
    """Residual of [X (x) I, I (x) M] = 0 over stand-ins for the increment basis.

    System observables commute with field increments by tensor structure;
    this asserts the representation-level statement with 2x2 stand-ins for
    dt, dB, dB† and dLambda.
    """
    x = as_operator(x)
    d = x.shape[0]
    eye_sys = np.eye(d, dtype=complex)
    annihilate = np.array([[0, 1], [0, 0]], dtype=complex)
    stand_ins = [
        np.eye(2, dtype=complex),          # dt
        annihilate,                        # dB
        dagger(annihilate),                # dB†
        dagger(annihilate) @ annihilate,   # dLambda
    ]
    system_side = np.kron(x, np.eye(2, dtype=complex))
    residual = 0.0
    for m in stand_ins:
        field_side = np.kron(eye_sys, m)
        residual = max(residual, max_norm(commutator(system_side, field_side)))
    return residual
