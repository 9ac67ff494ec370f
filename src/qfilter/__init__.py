"""Finite-dimensional quantum filtering for coherent-state input fields.

Simulates quadrature and photon-counting measurement records of an open
quantum system driven by a coherent field, propagates the corresponding
stochastic master equations (normalized and unnormalized), integrates the
averaged master equation, and cross-checks against classical particle
filtering on scalar benchmarks.

Import from the modules themselves; the package re-exports nothing.
"""

__version__ = "0.1.0"
