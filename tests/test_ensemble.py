import numpy as np
import pytest

from conftest import EXCITED, decay_model
from qfilter.ensemble import (
    EnsembleConfig,
    martingale_test,
    mix_seed,
    run_ensemble,
)
from qfilter.linalg import SIGMA_Z
from qfilter.master import TimeGrid
from qfilter.model import CoherentInput
from qfilter.trajectory import simulate_record


def small_config(**overrides):
    base = dict(
        model=decay_model(),
        beta=CoherentInput.constant(0.5),
        rho0=EXCITED,
        grid=TimeGrid(dt=1e-3, steps=400),
        kind="quadrature",
        n_traj=50,
        master_seed=3,
        observables={"sigma_z": SIGMA_Z},
        n_checkpoints=10,
    )
    base.update(overrides)
    return EnsembleConfig(**base)


def test_mix_seed_spreads_and_is_deterministic():
    seeds = {mix_seed(0, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert mix_seed(42, 7) == mix_seed(42, 7)
    assert mix_seed(42, 7) != mix_seed(43, 7)
    assert all(0 <= s < 2**64 for s in seeds)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(n_traj=0)
    with pytest.raises(ValueError):
        small_config(kind="heterodyne")
    with pytest.raises(ValueError):
        small_config(rho0=2 * EXCITED)


def test_report_shapes_and_determinism():
    cfg = small_config()
    rep1 = run_ensemble(cfg)
    rep2 = run_ensemble(cfg)
    n_cp = len(rep1.checkpoint_times)
    assert n_cp == 10
    assert rep1.observable_means["sigma_z"].shape == (n_cp,)
    assert rep1.innovations_mean.shape == (n_cp,)
    assert rep1.trace_distances_to_master.shape == (n_cp,)
    assert np.array_equal(rep1.observable_means["sigma_z"], rep2.observable_means["sigma_z"])
    summary = rep1.summary_dict()
    assert summary["n_trajectories"] == 50
    assert summary["sup_trace_distance_to_master"] == rep1.sup_trace_distance


def test_trajectory_reproducible_in_isolation():
    # Trajectory i of the ensemble equals a standalone simulation with the
    # mixed per-trajectory seed.
    cfg = small_config(n_traj=3, n_checkpoints=1)
    grid = cfg.grid
    rep = run_ensemble(cfg)
    rhos = []
    for i in range(3):
        _, states, _ = simulate_record(
            cfg.model, cfg.beta, cfg.rho0, cfg.kind, grid, seed=mix_seed(cfg.master_seed, i)
        )
        rhos.append(states[-1])
    mean_final = sum(rhos) / 3
    assert np.allclose(rep.mean_states[-1], mean_final, atol=1e-12)


def test_ensemble_mean_near_master_small_n():
    rep = run_ensemble(small_config(n_traj=200, kind="counting"))
    assert rep.sup_trace_distance < 0.12


def test_martingale_test_requires_enough_trajectories():
    rep = run_ensemble(small_config(n_traj=50))
    with pytest.raises(ValueError):
        martingale_test(rep)


def test_martingale_pass_and_bias_control():
    cfg = small_config(n_traj=150, grid=TimeGrid(dt=1e-3, steps=600))
    ok, z = martingale_test(run_ensemble(cfg))
    assert ok, f"max |z| = {np.max(np.abs(z))}"
    # A deliberately biased record generator must be flagged.
    biased = small_config(n_traj=150, grid=TimeGrid(dt=1e-3, steps=600), record_bias=1.0)
    ok_biased, _ = martingale_test(run_ensemble(biased))
    assert not ok_biased
