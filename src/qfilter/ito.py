"""Numeric-symbolic quantum Ito calculus.

An increment polynomial a dt + b dB + c dB† + e dLambda is held as its
complex coefficient array of shape (4, ..., d, d), in the symbol order
dt, dB, dB†, dLambda; `polynomial` builds one from its four coefficients
and `single` from one symbol.  Array +, - and the broadcast products
a @ p and p @ a act on it coefficient by coefficient.  Products of
polynomials follow the quantum Ito table

        dB dB† = dt,   dB dLambda = dB,
        dLambda dLambda = dLambda,   dLambda dB† = dB†,

with every other increment pair (and anything involving dt) vanishing.
Identities are verified numerically at machine precision rather than by
term rewriting.  Every function here also takes stacks: a polynomial of
shape (4, n, d, d), or a model of stacked (S, L, H), is n instances,
and beta is then a scalar or an (n, 1, 1) stack.  `qfilter verify` checks
each identity once per dimension on its random instances stacked as
(n, d, d) arrays; a given seed draws the same instances.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_operator, check_dims, commutator, dagger, max_norm
from .model import (
    HPModel,
    evans_hudson,
    heisenberg_generator,
    modulated_coupling,
)

_SYMBOLS = ("dt", "dB", "dBdag", "dLambda")
_INDEX = {s: i for i, s in enumerate(_SYMBOLS)}

# Nonzero table entries: (left symbol, right symbol) -> result symbol.
# Each entry has its own result symbol.
_ITO_TABLE = {
    ("dB", "dBdag"): "dt",
    ("dB", "dLambda"): "dB",
    ("dLambda", "dLambda"): "dLambda",
    ("dLambda", "dBdag"): "dBdag",
}


def polynomial(coeff_dt, coeff_dB, coeff_dBdag, coeff_dLambda) -> np.ndarray:
    """The polynomial a dt + b dB + c dB† + e dLambda as its (4, ..., d, d) coefficients.

    The one validating constructor: each coefficient must be a finite
    square operator, and the four broadcast to one shape.
    """
    coeffs = [as_operator(c) for c in (coeff_dt, coeff_dB, coeff_dBdag, coeff_dLambda)]
    check_dims(*coeffs)
    return np.stack(np.broadcast_arrays(*coeffs))


def single(symbol: str, coeff) -> np.ndarray:
    """The polynomial coeff d(symbol)."""
    coeff = as_operator(coeff)
    p = np.zeros((4, *coeff.shape), dtype=complex)
    p[_INDEX[symbol]] = coeff
    return p


def adjoint(p: np.ndarray) -> np.ndarray:
    """Adjoint polynomial: dB <-> dB†, dt and dLambda self-adjoint."""
    return dagger(p[[0, 2, 1, 3]])


def ito_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product of two increment polynomials routed by the quantum Ito table.

    One gather of the left and right coefficients of the table entries, one
    stacked product, and one scatter into the entries' result symbols.
    """
    check_dims(p, q)
    entries = [(_INDEX[a], _INDEX[b], _INDEX[t]) for (a, b), t in _ITO_TABLE.items()]
    left, right, target = (list(i) for i in zip(*entries))
    products = p[left] @ q[right]
    out = np.zeros((4, *products.shape[1:]), dtype=complex)
    out[target] = products
    return out


def coherent_expectation(p: np.ndarray, beta) -> np.ndarray:
    """dt-rate of the polynomial on a coherent state with amplitude beta.

    Uses dB Psi(beta) = beta dt Psi(beta) and dLambda Psi(beta) = beta dB† Psi(beta),
    which compose to the rates (1, beta, beta*, |beta|^2) on (dt, dB, dB†, dLambda).
    """
    return p[0] + beta * p[1] + np.conj(beta) * p[2] + abs(beta) ** 2 * p[3]


def langevin_increment(model: HPModel, x: np.ndarray) -> np.ndarray:
    """dj_t(X) with its four Evans-Hudson coefficients."""
    indices = ((0, 0), (0, 1), (1, 0), (1, 1))  # dt, dB, dB†, dLambda
    return np.stack([evans_hudson(model, i, x) for i in indices])


def output_increments(model: HPModel):
    """(dB_out, dLambda_out) as (4, ..., d, d) increment polynomials.

    dB_out = S dB + L dt;
    dLambda_out = dLambda + L†S dB + S†L dB† + L†L dt.
    """
    s, l = model.S, model.L
    zero = np.zeros_like(s)
    eye = np.broadcast_to(np.eye(model.dim, dtype=complex), s.shape)
    db_out = np.stack([l, s, zero, zero])
    dlambda_out = np.stack([dagger(l) @ l, dagger(l) @ s, dagger(s) @ l, eye])
    return db_out, dlambda_out


def verify_generator(model: HPModel, b, x: np.ndarray) -> float:
    """Residual of E^beta[dj_t(X)] = E^beta[j_t(L^beta X)] dt at beta = b."""
    rate = coherent_expectation(langevin_increment(model, x), b)
    gen = heisenberg_generator(model, b, x)
    return max_norm(rate - gen)


def girsanov_coefficients(model: HPModel, b, kind: str):
    """Change-of-measure coefficients for the Zakai dynamics at beta = b.

    Quadrature: (tilde_L, tilde_K) with
        tilde_L = L + (S - I) beta = L^beta - beta I,
        tilde_K = -L†S beta - (1/2)L†L - iH - L^beta beta + beta^2.
    Counting: ((1/beta) tilde_L, -((1/2)L†L + iH + L†S beta)).
    """
    eye = np.eye(model.dim, dtype=complex)
    lb = modulated_coupling(model, b)
    tilde_l = lb - b * eye
    base = -dagger(model.L) @ model.S * b - 0.5 * dagger(model.L) @ model.L - 1j * model.H
    if kind == "quadrature":
        return tilde_l, base - lb * b + b * b * eye
    if kind == "counting":
        if np.any(b == 0):
            raise ValueError("counting-mode Girsanov coefficients require beta != 0")
        return tilde_l / b, base
    raise ValueError(f"unknown measurement kind {kind!r}")


def zakai_expansion(model: HPModel, b, x: np.ndarray, kind: str):
    """Gain and drift of d(F†XF) from the Ito table, at the system level, at beta = b.

    Expands dF† X + X dF + dF† X dF with dF = coeff dY + K dt stripped of
    the F factors.  Returns (gain, drift) where for quadrature the
    increment of the unnormalized filter is gain dY + drift dt, and for
    counting the gain multiplies dLambda.
    """
    x = as_operator(x)
    if kind == "quadrature":
        # dF = tilde_L dY + tilde_K dt with dY = dB + dB†.
        tilde_l, tilde_k = girsanov_coefficients(model, b, "quadrature")
        coeffs = [tilde_k, tilde_l, tilde_l, np.zeros_like(tilde_l)]
    elif kind == "counting":
        coeff, k_c = girsanov_coefficients(model, b, "counting")
        coeffs = [k_c, np.zeros_like(k_c), np.zeros_like(k_c), coeff]
    else:
        raise ValueError(f"unknown measurement kind {kind!r}")
    df = np.stack(coeffs)

    dfx = adjoint(df) @ x
    total = dfx + x @ df + ito_product(dfx, df)
    if kind == "quadrature":
        # dY = dB + dB†: both coefficients must agree, instance by instance, and form the gain.
        gain = total[_INDEX["dB"]]
        mismatch = np.abs(gain - total[_INDEX["dBdag"]]).max(axis=(-2, -1))
        if np.any(mismatch > 1e-12 * (1 + np.abs(gain).max(axis=(-2, -1)))):
            raise AssertionError("quadrature expansion is not a dY polynomial")
        return gain, total[_INDEX["dt"]]
    return total[_INDEX["dLambda"]], total[_INDEX["dt"]]


def nondemolition_residual(x: np.ndarray) -> float:
    """Residual of [X (x) I, I (x) M] = 0 over stand-ins for the increment basis.

    System observables commute with field increments by tensor structure;
    this asserts the representation-level statement with 2x2 stand-ins for
    dt, dB, dB† and dLambda.
    """
    x = as_operator(x)
    eye_sys = np.eye(x.shape[-1], dtype=complex)
    annihilate = np.array([[0, 1], [0, 0]], dtype=complex)
    stand_ins = [
        np.eye(2, dtype=complex),          # dt
        annihilate,                        # dB
        dagger(annihilate),                # dB†
        dagger(annihilate) @ annihilate,   # dLambda
    ]
    system_side = np.kron(x, np.eye(2, dtype=complex))
    return float(np.max([max_norm(commutator(system_side, np.kron(eye_sys, m))) for m in stand_ins]))
