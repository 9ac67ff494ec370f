import numpy as np
import pytest

from conftest import EXCITED, bias_ensemble_records, decay_model, martingale_test
from qfilter.ensemble import N_CHECKPOINTS, mix_seed, run_ensemble
from qfilter.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z
from qfilter.master import TimeGrid
from qfilter.model import CoherentInput
from qfilter.trajectory import simulate_record


def small_run(**overrides):
    base = dict(
        model=decay_model(),
        beta=CoherentInput.constant(0.5),
        rho0=EXCITED,
        kind="quadrature",
        grid=TimeGrid(dt=1e-3, steps=400),
        n_traj=50,
        master_seed=3,
        observables={"sigma_z": SIGMA_Z},
    )
    base.update(overrides)
    return base


def test_mix_seed_spreads_and_is_deterministic():
    seeds = {mix_seed(0, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert mix_seed(42, 7) == mix_seed(42, 7)
    assert mix_seed(42, 7) != mix_seed(43, 7)
    assert all(0 <= s < 2**64 for s in seeds)


def test_config_validation():
    with pytest.raises(ValueError):
        run_ensemble(**small_run(n_traj=0))
    with pytest.raises(ValueError):
        run_ensemble(**small_run(kind="heterodyne"))
    with pytest.raises(ValueError):
        run_ensemble(**small_run(rho0=2 * EXCITED))


def test_report_shapes_and_determinism():
    cols1 = run_ensemble(**small_run())
    cols2 = run_ensemble(**small_run())
    assert list(cols1) == [
        "t", "mean_sigma_z", "stderr_sigma_z", "innovations_mean", "innovations_stderr",
        "trace_distance_to_master", "mean_purity",
    ]
    assert all(v.shape == (N_CHECKPOINTS,) for v in cols1.values())
    assert cols1["t"][-1] == 400 * 1e-3
    assert all(np.array_equal(cols1[k], cols2[k]) for k in cols1)


def test_rho0_as_nested_lists_runs_as_its_array():
    # simulate_record takes rho0 as nested lists; so does run_ensemble.
    run = small_run(rho0=EXCITED.tolist(), grid=TimeGrid(dt=1e-3, steps=10), n_traj=4)
    got = run_ensemble(**run)
    expected = run_ensemble(**{**run, "rho0": EXCITED})
    assert {name: column.tobytes() for name, column in got.items()} == {
        name: column.tobytes() for name, column in expected.items()
    }


def test_trajectory_reproducible_in_isolation():
    # Trajectory i of the ensemble equals a standalone simulation with the
    # mixed per-trajectory seed; the Pauli means fix the whole mean state.
    paulis = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
    run = small_run(n_traj=3, observables=paulis)
    cols = run_ensemble(**run)
    rhos = []
    for i in range(3):
        _, states, _ = simulate_record(
            run["model"], run["beta"], run["rho0"], run["kind"], run["grid"],
            seed=mix_seed(run["master_seed"], i),
        )
        rhos.append(states[-1])
    mean_final = sum(rhos) / 3
    for name, op in paulis.items():
        assert abs(cols[f"mean_{name}"][-1] - np.trace(mean_final @ op).real) <= 1e-12


def test_ensemble_mean_near_master_small_n():
    cols = run_ensemble(**small_run(n_traj=200, kind="counting"))
    assert np.max(cols["trace_distance_to_master"]) < 0.12


def test_martingale_pass_and_bias_control(monkeypatch):
    run = small_run(n_traj=150, grid=TimeGrid(dt=1e-3, steps=600))
    ok, z = martingale_test(run_ensemble(**run), 150)
    assert ok, f"max |z| = {np.max(np.abs(z))}"
    # A deliberately biased record generator must be flagged.
    bias_ensemble_records(monkeypatch, 1.0)
    ok_biased, _ = martingale_test(run_ensemble(**run), 150)
    assert not ok_biased
