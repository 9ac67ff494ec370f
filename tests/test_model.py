import numpy as np
import pytest

from conftest import decay_model, random_model
from qfilter.linalg import (
    SIGMA_MINUS,
    dagger,
    max_norm,
    random_density,
    random_hermitian,
    random_matrix,
)
from qfilter.model import (
    CoherentInput,
    HPModel,
    adjoint_generator,
    evans_hudson,
    heisenberg_generator,
    lindblad_adjoint,
    lindblad_heisenberg,
    modulated_coupling,
    modulated_hamiltonian,
)


def test_model_validation():
    with pytest.raises(ValueError):
        HPModel(S=2 * np.eye(2), L=SIGMA_MINUS, H=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        HPModel(S=np.eye(2), L=SIGMA_MINUS, H=SIGMA_MINUS)
    with pytest.raises(Exception):
        HPModel(S=np.eye(2), L=np.zeros((3, 3)), H=np.zeros((2, 2)))


def test_coherent_input_kinds():
    const = CoherentInput.constant(1 + 2j)
    assert const.value(0.0) == 1 + 2j
    assert const.value(17.3) == 1 + 2j
    assert CoherentInput.constant(0.0).value(1.0) == 0

    sin = CoherentInput.sinusoid(amplitude=2.0, frequency=np.pi, offset=1j)
    assert sin.value(0.0) == pytest.approx(2.0 + 1j)
    assert sin.value(1.0) == pytest.approx(-2.0 + 1j)

    pw = CoherentInput.piecewise(t0=0.0, sample_dt=0.5, samples=[1.0, 2.0, 3.0])
    assert pw.value(0.0) == 1.0
    assert pw.value(0.49) == 1.0
    assert pw.value(0.5) == 2.0
    assert pw.value(100.0) == 3.0  # clamped to the last sample
    assert pw.value(-1.0) == 1.0  # clamped to the first
    # (t - t0) / sample_dt overflows to -inf and to +inf: still the end samples.
    assert CoherentInput.piecewise(t0=1e308, sample_dt=0.05, samples=[1.0, 2.0]).value(0.0) == 1.0
    assert CoherentInput.piecewise(t0=0.0, sample_dt=1e-320, samples=[1.0, 2.0]).value(1.0) == 2.0

    with pytest.raises(ValueError):
        CoherentInput.piecewise(t0=0.0, sample_dt=0.0, samples=[1.0])


@pytest.mark.parametrize(
    "t0, sample_dt", [(0.0, np.nan), (0.0, np.inf), (np.nan, 0.5), (np.inf, 0.5), (-np.inf, 0.5)]
)
def test_piecewise_input_rejects_non_finite_times(t0, sample_dt):
    with pytest.raises(ValueError, match="finite t0, 0 < sample_dt < inf"):
        CoherentInput.piecewise(t0=t0, sample_dt=sample_dt, samples=[1.0, 2.0])


REAL_BAD = [np.nan, np.inf, -np.inf]
COMPLEX_BAD = REAL_BAD + [complex(0.5, np.nan), complex(-np.inf, 0.5)]
VALID_INPUTS = {
    "constant": {"value": 0.5},
    "sinusoid": {"amplitude": 1.0, "frequency": 1.0, "offset": 0.0},
    "piecewise": {"t0": 0.0, "sample_dt": 0.1, "samples": [1.0, 2.0]},
}
NON_FINITE_ARGS = {
    ("constant", "value"): COMPLEX_BAD,
    ("sinusoid", "amplitude"): COMPLEX_BAD,
    ("sinusoid", "frequency"): REAL_BAD,
    ("sinusoid", "offset"): COMPLEX_BAD,
    ("piecewise", "samples"): COMPLEX_BAD,
}


@pytest.mark.parametrize(
    "kind, arg, bad", [(*key, bad) for key, bads in NON_FINITE_ARGS.items() for bad in bads]
)
def test_coherent_input_rejects_non_finite_values(kind, arg, bad):
    args = dict(VALID_INPUTS[kind])
    args[arg] = [1.0, bad] if arg == "samples" else bad
    with pytest.raises(ValueError, match=f"^{kind} input needs (a )?finite {arg}"):
        getattr(CoherentInput, kind)(**args)


@pytest.mark.parametrize("sample_dt, steps_per_sample", [(0.1, 100), (0.05, 50)])
def test_piecewise_input_on_grid_boundaries(sample_dt, steps_per_sample):
    # Grid time t0 + k dt on the boundary j sample_dt selects sample j, even
    # where (t - t0) / sample_dt rounds just below j (k = 300, 600 at 0.1;
    # k = 150, 300, 600 at 0.05).
    dt = 1e-3
    pw = CoherentInput.piecewise(t0=0.0, sample_dt=sample_dt, samples=range(20))
    got = [pw.value(0.0 + k * dt).real for k in range(1000)]
    want = [k // steps_per_sample for k in range(1000)]
    assert got == want


def test_modulated_coupling_and_hamiltonian_vacuum_reduction():
    rng = np.random.default_rng(8)
    model = random_model(rng, 3)
    assert max_norm(modulated_coupling(model, 0j) - model.L) == 0
    assert max_norm(modulated_hamiltonian(model, 0j) - model.H) == 0


def test_modulated_hamiltonian_is_hermitian():
    rng = np.random.default_rng(9)
    for _ in range(10):
        model = random_model(rng, 3)
        b = rng.standard_normal() + 1j * rng.standard_normal()
        hb = modulated_hamiltonian(model, b)
        assert max_norm(hb - dagger(hb)) < 1e-12


def test_evans_hudson_index_validation():
    model = decay_model()
    x = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        evans_hudson(model, (2, 0), x)


def test_evans_hudson_trivial_scattering():
    # For S = I the scattering map L_11 vanishes identically.
    rng = np.random.default_rng(10)
    model = decay_model()
    x = random_hermitian(rng, 2)
    assert max_norm(evans_hudson(model, (1, 1), x)) == 0


def test_generator_lindblad_identity_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        dim = int(rng.choice([2, 3, 4]))
        model = random_model(rng, dim)
        b = rng.standard_normal() + 1j * rng.standard_normal()
        x = random_hermitian(rng, dim)
        lb = modulated_coupling(model, b)
        hb = modulated_hamiltonian(model, b)
        res = max_norm(heisenberg_generator(model, b, x) - lindblad_heisenberg(lb, hb, x))
        assert res < 1e-10


def test_generator_duality():
    rng = np.random.default_rng(12)
    for _ in range(25):
        dim = int(rng.choice([2, 3, 4]))
        model = random_model(rng, dim)
        b = rng.standard_normal() + 1j * rng.standard_normal()
        x = random_hermitian(rng, dim)
        rho = random_density(rng, dim)
        lhs = np.trace(rho @ heisenberg_generator(model, b, x))
        rhs = np.trace(adjoint_generator(model, b, rho) @ x)
        assert abs(lhs - rhs) < 1e-10


def test_generator_annihilates_identity_and_preserves_trace():
    rng = np.random.default_rng(13)
    model = random_model(rng, 3)
    b = 0.3 - 0.7j
    eye = np.eye(3, dtype=complex)
    assert max_norm(heisenberg_generator(model, b, eye)) < 1e-12
    rho = random_density(rng, 3)
    assert abs(np.trace(adjoint_generator(model, b, rho))) < 1e-12


def test_lindblad_adjoint_batched_matches_loop():
    rng = np.random.default_rng(14)
    l, h = random_matrix(rng, 2), random_hermitian(rng, 2)
    batch = np.stack([random_density(rng, 2) for _ in range(7)])
    out = lindblad_adjoint(l, h, batch)
    for i in range(7):
        assert max_norm(out[i] - lindblad_adjoint(l, h, batch[i])) == 0
