"""CSV and JSON emitters.

Fixed column orders, UTF-8, LF line endings; floats are written with
enough digits ('%.17g') that simulate/filter round-trips byte-identically.
The CSV writers format ROW_BLOCK rows at a time, each block in one `%`
call, and write it before the next.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .master import TimeGrid
from .trajectory import MeasurementRecord

ROW_BLOCK = 256


def _write_rows(path, head: str, columns: list) -> None:
    """The `head` line, then one CSV row per index of the equal-length `columns`.

    Rows are formatted and written ROW_BLOCK at a time, a block's rows in
    one `%` call, so no copy of the whole table, as numbers or as text, is
    held.
    """
    fmt = ",".join(["%.17g"] * len(columns)) + "\n"
    with Path(path).open("w", encoding="utf-8", newline="\n") as f:
        f.write(head + "\n")
        for start in range(0, len(columns[0]), ROW_BLOCK):
            block = np.array([c[start : start + ROW_BLOCK] for c in columns], dtype=float)
            f.write((fmt * block.shape[1]) % tuple(block.T.ravel().tolist()))


def _trace(x: np.ndarray) -> np.ndarray:
    return np.trace(x, axis1=-2, axis2=-1).real


def write_states_csv(path, times, rhos, observables: dict, innovations=None) -> None:
    """Columns: t, tr(rho O_i) per observable, trace, purity[, innovations].

    rhos is the state path, shape (len(times), d, d); innovations, when
    given, is the cumulative innovations path aligned with the times.
    """
    rhos = np.asarray(rhos)
    header = ["t", *observables, "trace", "purity"]
    columns = [times, *(_trace(rhos @ op) for op in observables.values())]
    columns += [_trace(rhos), _trace(rhos @ rhos)]
    if innovations is not None:
        header.append("innovations")
        columns.append(innovations)
    _write_rows(path, ",".join(header), columns)


def write_record_csv(path, record: MeasurementRecord) -> None:
    """The header kind,dt,steps and its row, then one increment a line (counts read 0 and 1)."""
    head = "kind,dt,steps\n%s,%.17g,%d" % (record.kind, record.grid.dt, record.grid.steps)
    _write_rows(path, head, [record.increments])


def read_record_csv(path) -> MeasurementRecord:
    try:  # a file that is not UTF-8 fails here too, with a UnicodeDecodeError
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
        if len(lines) < 2 or lines[0] != "kind,dt,steps":
            raise ValueError("not a measurement-record CSV")
        kind, dt_s, steps_s = lines[1].split(",")
        steps = int(steps_s)
        values = [float(v) for v in lines[2:]]
        if len(values) != steps:
            raise ValueError(f"expected {steps} increments, found {len(values)}")
        grid = TimeGrid(dt=float(dt_s), steps=steps)
        return MeasurementRecord(kind=kind, grid=grid, increments=np.array(values))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_ensemble_outputs(
    summary_path, series_path, columns: dict, n_traj: int, master_seed: int, kind: str
) -> None:
    """ensemble.json (the run and its headline numbers) and ensemble.csv (`columns`, in order)."""
    from .ensemble import innovations_z  # only an ensemble run loads ensemble
    summary = {
        "n_trajectories": n_traj,
        "master_seed": master_seed,
        "kind": kind,
        "sup_trace_distance_to_master": float(np.max(columns["trace_distance_to_master"])),
        "max_abs_innovations_z": float(np.max(np.abs(innovations_z(columns)))),
        "checkpoint_times": columns["t"].tolist(),
    }
    Path(summary_path).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    _write_rows(series_path, ",".join(columns), list(columns.values()))


def write_classical_csv(path, times, columns: dict) -> None:
    """Columns: t plus the given name -> array mapping, in insertion order."""
    _write_rows(path, ",".join(["t", *columns]), [times, *columns.values()])
