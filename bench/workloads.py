"""Workload generators and output checks.

Each workload is a list of CLI commands run on one generated config.  The
config depends only on the workload's size and the seed; the seed is also
passed to every command as ``--seed``.  A seed is never re-drawn because a
command failed: failures are counted, not hidden.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qfilter.config import matrix_to_json
from qfilter.linalg import random_density, random_hermitian, random_matrix, random_unitary

DT = 1e-3
# (||L||_2 + max|beta|)^2 dt bounds the per-step jump probability; keep it
# well inside the validity bound trajectory.MAX_JUMP_PROBABILITY = 0.1.
JUMP_PROBABILITY_BUDGET = 0.05

# Output-check bounds: master trace drift, and acceptance criteria 7 and 5.
MASTER_TRACE_TOL = 1e-6
MAX_INNOVATIONS_Z = 4.0
MAX_TRACE_DISTANCE_TO_MASTER = 0.05


@dataclass(frozen=True)
class Size:
    steps: int
    trajectories: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    make_config: Callable[[int, int], dict]  # (seed, steps) -> config JSON
    size: Size  # the benchmark size
    tiny: Size  # the smoke-run size
    check_master_distance: bool = False

    def config(self, seed: int, size: Size) -> dict:
        return self.make_config(seed, size.steps)


def readme_qubit_config(seed: int, steps: int) -> dict:
    """The README's qubit: S = I, L = sigma_-, H = 0, beta = 0.5, quadrature.

    The model is fixed; the seed reaches the program only through --seed.
    """
    one, zero = [1.0, 0.0], [0.0, 0.0]
    return {
        "model": {
            "dim": 2,
            "S": [one, zero, zero, one],
            "L": [zero, zero, one, zero],
            "H": [zero, zero, zero, zero],
        },
        "beta": {"kind": "constant", "value": [0.5, 0.0]},
        "rho0": "excited",
        "grid": {"dt": DT, "T": steps * DT},
        "measurement": "quadrature",
        "observables": ["sigma_z", "p_excited"],
        "classical": {"preset": "linear", "particles": 1000},
    }


def counting_d8_config(seed: int, steps: int) -> dict:
    """A random d = 8 model with a sinusoidal beta, photon counting.

    L is scaled down, when needed, so that (||L||_2 + max|beta|)^2 dt stays
    within JUMP_PROBABILITY_BUDGET.
    """
    dim = 8
    rng = np.random.default_rng(seed)
    s = random_unitary(rng, dim)
    l = random_matrix(rng, dim)
    h = random_hermitian(rng, dim)
    rho0 = random_density(rng, dim)
    obs = random_hermitian(rng, dim)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    amplitude = 0.5 * complex(math.cos(phase), math.sin(phase))
    offset = 0.5
    max_beta = abs(amplitude) + abs(offset)
    l_max = math.sqrt(JUMP_PROBABILITY_BUDGET / DT) - max_beta
    l *= min(1.0, l_max / np.linalg.norm(l, 2))
    return {
        "model": {
            "dim": dim,
            "S": matrix_to_json(s),
            "L": matrix_to_json(l),
            "H": matrix_to_json(h),
        },
        "beta": {
            "kind": "sinusoid",
            "amplitude": [amplitude.real, amplitude.imag],
            "frequency": 2.0 * math.pi,
            "offset": [offset, 0.0],
        },
        "rho0": {"matrix": matrix_to_json(rho0)},
        "grid": {"dt": DT, "T": steps * DT},
        "measurement": "counting",
        "observables": [{"name": "obs", "matrix": matrix_to_json(obs)}],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pipeline-d2",
            ("master", "simulate", "filter", "classical", "verify"),
            readme_qubit_config,
            size=Size(steps=2000),
            tiny=Size(steps=50),
        ),
        Workload(
            "ensemble-d2",
            ("ensemble",),
            readme_qubit_config,
            size=Size(steps=500, trajectories=1000),
            tiny=Size(steps=50, trajectories=100),
            check_master_distance=True,
        ),
        Workload(
            "counting-d8",
            ("simulate", "filter", "ensemble"),
            counting_d8_config,
            size=Size(steps=1000, trajectories=100),
            tiny=Size(steps=50, trajectories=100),
        ),
    )
}


# --- output checks: each returns None when the output is correct, else a reason


def _columns(path: Path) -> dict:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    return {name: body[:, i] for i, name in enumerate(header)}


def check_master(out: Path, w: Workload, size: Size, stdout: str, memo: dict):
    drift = float(np.max(np.abs(_columns(out / "master.csv")["trace"] - 1.0)))
    if drift > MASTER_TRACE_TOL:
        return f"master.csv trace drifts {drift:.3e} from 1"
    return None


def check_simulate(out: Path, w: Workload, size: Size, stdout: str, memo: dict):
    memo["states"] = (out / "states.csv").read_bytes()
    return None


def check_filter(out: Path, w: Workload, size: Size, stdout: str, memo: dict):
    if (out / "states.csv").read_bytes() != memo.pop("states", None):
        return "filter states.csv differs from simulate's"
    return None


def check_ensemble(out: Path, w: Workload, size: Size, stdout: str, memo: dict):
    summary = json.loads((out / "ensemble.json").read_text())
    z = summary["max_abs_innovations_z"]
    if not z <= MAX_INNOVATIONS_Z:
        return f"max_abs_innovations_z {z:.3f} > {MAX_INNOVATIONS_Z}"
    dist = summary["sup_trace_distance_to_master"]
    if w.check_master_distance and not dist <= MAX_TRACE_DISTANCE_TO_MASTER:
        return f"sup_trace_distance_to_master {dist:.4f} > {MAX_TRACE_DISTANCE_TO_MASTER}"
    return None


def check_classical(out: Path, w: Workload, size: Size, stdout: str, memo: dict):
    cols = _columns(out / "classical.csv")
    rows = len(cols["t"])
    if rows != size.steps + 1:
        return f"classical.csv has {rows} rows, expected {size.steps + 1}"
    if not all(np.all(np.isfinite(cols[c])) for c in ("kalman_mean", "kalman_var")):
        return "classical.csv Kalman columns are not finite"
    return None


def check_verify(out: Path, w: Workload, size: Size, stdout: str, memo: dict):
    lines = stdout.strip().splitlines()
    if not lines or not re.fullmatch(r"all \d+ identity checks passed", lines[-1]):
        return "verify did not report that all identity checks passed"
    return None


CHECKS = {
    "master": check_master,
    "simulate": check_simulate,
    "filter": check_filter,
    "ensemble": check_ensemble,
    "classical": check_classical,
    "verify": check_verify,
}
