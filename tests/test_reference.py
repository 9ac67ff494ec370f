import numpy as np
import pytest

from conftest import EXCITED, decay_model
from qfilter.linalg import dagger, max_norm, random_density
from qfilter.model import modulated_operators
from qfilter.trajectory import JumpRateError, TraceUnderflowError
from reference import count_step_arrays, quad_step_arrays


def test_quad_step_preserves_state_properties():
    rng = np.random.default_rng(40)
    model = decay_model()
    lb, hb = modulated_operators(model, 0.3 + 0.1j)
    rho = random_density(rng, 2)
    new, m = quad_step_arrays(rho, 0.02, lb, hb, 1e-3)
    assert abs(np.trace(new) - 1.0) < 1e-12
    assert max_norm(new - dagger(new)) < 1e-14
    assert m == pytest.approx(np.trace((lb @ rho + rho @ dagger(lb))).real)


def test_step_arrays_batched_matches_single():
    rng = np.random.default_rng(41)
    model = decay_model()
    lb, hb = modulated_operators(model, 0.5 + 0j)
    batch = np.stack([random_density(rng, 2) for _ in range(6)])
    dys = rng.standard_normal(6) * 0.03
    out, ms = quad_step_arrays(batch, dys, lb, hb, 1e-3)
    for i in range(6):
        single, m = quad_step_arrays(batch[i], dys[i], lb, hb, 1e-3)
        assert max_norm(out[i] - single) == 0
        assert ms[i] == pytest.approx(m)

    counts = (rng.random(6) < 0.5).astype(float)
    outc, rates = count_step_arrays(batch, counts, lb, hb, 1e-3)
    for i in range(6):
        single, rate = count_step_arrays(batch[i], counts[i], lb, hb, 1e-3)
        assert max_norm(outc[i] - single) == 0
        assert rates[i] == pytest.approx(rate)


def test_count_jump_from_excited_lands_in_ground():
    model = decay_model()
    lb, hb = modulated_operators(model, 0j)
    new, rate = count_step_arrays(EXCITED, 1.0, lb, hb, 1e-6)
    assert rate == pytest.approx(1.0)
    assert new[1, 1].real == pytest.approx(1.0, abs=1e-5)


def test_count_jump_with_zero_rate_raises():
    model = decay_model()
    lb, hb = modulated_operators(model, 0j)
    ground = np.array([[0, 0], [0, 1]], dtype=complex)
    with pytest.raises(JumpRateError):
        count_step_arrays(ground, 1.0, lb, hb, 1e-3)


def test_trace_underflow_detected():
    model = decay_model()
    lb, hb = modulated_operators(model, 0j)
    nan_state = np.full((2, 2), np.nan, dtype=complex)
    with pytest.raises(TraceUnderflowError):
        quad_step_arrays(nan_state, 0.0, lb, hb, 1e-3)
