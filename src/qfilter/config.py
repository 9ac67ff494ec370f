"""Run configuration: JSON schema, validation and presets.

Complex numbers serialize as two-element arrays [re, im]; matrices as
flat row-major arrays of [re, im] pairs of length dim^2.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classical import PRESETS as CLASSICAL_PRESETS
from .linalg import PAULI_BY_NAME, is_hermitian, is_unitary, validate_density
from .master import TimeGrid
from .model import CoherentInput, HPModel
from .trajectory import KINDS


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
    return data[key]


def parse_real(value, path: str) -> float:
    # abs(x) <= max is False for nan, inf and ints too large for a float.
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return float(value)


def parse_complex(value, path: str) -> complex:
    """A finite real, or a pair [re, im] of them (each checked by parse_real)."""
    if not isinstance(value, (list, tuple)):
        return complex(parse_real(value, path))
    if len(value) != 2:
        raise ConfigError(path, f"expected [re, im], got {value!r}")
    return complex(*(parse_real(v, f"{path}[{i}]") for i, v in enumerate(value)))


def parse_matrix(value, dim: int, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != dim * dim:
        raise ConfigError(path, f"expected a flat row-major list of {dim * dim} [re, im] pairs")
    entries = [parse_complex(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return np.array(entries, dtype=complex).reshape((dim, dim))


def matrix_to_json(m: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).ravel()]


def parse_beta(data, path: str = "beta") -> CoherentInput:
    if not isinstance(data, dict):
        raise ConfigError(path, "expected an object")
    kind = _require(data, "kind", path)
    if kind == "constant":
        return CoherentInput.constant(parse_complex(_require(data, "value", path), f"{path}.value"))
    if kind == "sinusoid":
        return CoherentInput.sinusoid(
            amplitude=parse_complex(_require(data, "amplitude", path), f"{path}.amplitude"),
            frequency=parse_real(_require(data, "frequency", path), f"{path}.frequency"),
            offset=parse_complex(data.get("offset", 0.0), f"{path}.offset"),
        )
    if kind == "samples":
        values = _require(data, "values", path)
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{path}.values", "expected a nonempty list")
        sample_dt = parse_real(_require(data, "dt", path), f"{path}.dt")
        if sample_dt <= 0:
            raise ConfigError(f"{path}.dt", f"expected a positive number, got {sample_dt!r}")
        return CoherentInput.piecewise(
            t0=parse_real(data.get("t0", 0.0), f"{path}.t0"),
            sample_dt=sample_dt,
            samples=[parse_complex(v, f"{path}.values[{i}]") for i, v in enumerate(values)],
        )
    raise ConfigError(f"{path}.kind", f"unknown coherent input kind {kind!r}")


def parse_model(data, path: str = "model") -> HPModel:
    if not isinstance(data, dict):
        raise ConfigError(path, "expected an object")
    dim = _require(data, "dim", path)
    if type(dim) is not int or dim < 1:
        raise ConfigError(f"{path}.dim", f"expected a positive integer, got {dim!r}")
    s = parse_matrix(_require(data, "S", path), dim, f"{path}.S")
    l = parse_matrix(_require(data, "L", path), dim, f"{path}.L")
    h = parse_matrix(_require(data, "H", path), dim, f"{path}.H")
    if not is_unitary(s):
        raise ConfigError(f"{path}.S", "matrix is not unitary within tolerance")
    if not is_hermitian(h, 1e-9):
        raise ConfigError(f"{path}.H", "matrix is not Hermitian within tolerance")
    return HPModel(S=s, L=l, H=h)


RHO0_PRESETS = {
    "excited": np.array([[1, 0], [0, 0]], dtype=complex),
    "ground": np.array([[0, 0], [0, 1]], dtype=complex),
    "plus": 0.5 * np.array([[1, 1], [1, 1]], dtype=complex),
}


def parse_rho0(data, dim: int, path: str = "rho0") -> np.ndarray:
    if isinstance(data, str):
        if data not in RHO0_PRESETS:
            raise ConfigError(path, f"unknown preset {data!r}; options: {sorted(RHO0_PRESETS)}")
        rho = RHO0_PRESETS[data]
        if rho.shape[0] != dim:
            raise ConfigError(path, f"preset {data!r} is dimension 2, model has dim {dim}")
        return rho.copy()
    if isinstance(data, dict) and "matrix" in data:
        rho = parse_matrix(data["matrix"], dim, f"{path}.matrix")
        try:
            return validate_density(rho)
        except ValueError as exc:
            raise ConfigError(f"{path}.matrix", str(exc)) from exc
    raise ConfigError(path, "expected a preset name or an object with a 'matrix' key")


# Fixed columns of the state CSVs; "purity" would also repeat mean_purity in ensemble.csv.
RESERVED_COLUMNS = ("t", "trace", "purity", "innovations")
CSV_SPECIAL = ',"\n\r'  # an observable name is written unquoted into CSV headers


def parse_observables(data, dim: int, path: str = "observables") -> dict:
    if data is None:
        return {}
    if not isinstance(data, list):
        raise ConfigError(path, "expected a list")
    out = {}
    for i, item in enumerate(data):
        here = f"{path}[{i}]"
        if isinstance(item, str):
            if item not in PAULI_BY_NAME:
                raise ConfigError(here, f"unknown observable name {item!r}")
            name, op = item, PAULI_BY_NAME[item]
            if op.shape[0] != dim:
                raise ConfigError(here, f"named observable is dimension 2, model has dim {dim}")
        elif isinstance(item, dict):
            name = _require(item, "name", here)
            if not isinstance(name, str):
                raise ConfigError(f"{here}.name", f"expected a string, got {name!r}")
            if any(c in name for c in CSV_SPECIAL):
                raise ConfigError(
                    f"{here}.name", f"expected a name without , \" or line breaks, got {name!r}"
                )
            op = parse_matrix(_require(item, "matrix", here), dim, f"{here}.matrix")
        else:
            raise ConfigError(here, "expected a name or an object with name/matrix")
        if name in out or name in RESERVED_COLUMNS:
            taken = "a fixed column" if name in RESERVED_COLUMNS else "already used"
            raise ConfigError(here, f"observable name {name!r} is {taken}")
        out[name] = op
    return out


def parse_grid(data, path: str = "grid") -> TimeGrid:
    if not isinstance(data, dict):
        raise ConfigError(path, "expected an object")
    dt = parse_real(_require(data, "dt", path), f"{path}.dt")
    duration = parse_real(_require(data, "T", path), f"{path}.T")
    if dt <= 0 or duration <= 0:
        raise ConfigError(path, "dt and T must be positive")
    try:
        return TimeGrid.from_duration(dt=dt, duration=duration)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(path, f"T/dt = {duration / dt:g}: {exc}") from exc


CLASSICAL_DEFAULTS = {
    "preset": "linear",
    "a": -1.0,
    "c": 1.0,
    "sigma": 1.0,
    "particles": 1000,
    "x0": 0.0,
    "prior_std": 1.0,
}


def parse_classical(data, path: str = "classical") -> dict:
    """The keyword arguments of classical.run_benchmark, defaults filled in."""
    if not isinstance(data, dict):
        raise ConfigError(path, "expected an object")
    for key in data:
        if key not in CLASSICAL_DEFAULTS:
            raise ConfigError(f"{path}.{key}", f"unknown key; options: {sorted(CLASSICAL_DEFAULTS)}")
    spec = {**CLASSICAL_DEFAULTS, **data}
    if not isinstance(spec["preset"], str) or spec["preset"] not in CLASSICAL_PRESETS:
        raise ConfigError(
            f"{path}.preset",
            f"unknown preset {spec['preset']!r}; options: {sorted(CLASSICAL_PRESETS)}",
        )
    for key in ("a", "c", "sigma", "x0", "prior_std"):
        spec[key] = parse_real(spec[key], f"{path}.{key}")
    if type(spec["particles"]) is not int or spec["particles"] < 1:
        raise ConfigError(f"{path}.particles", f"expected an integer >= 1, got {spec['particles']!r}")
    return spec


DEFAULT_OUTPUTS = {
    "record": "record.csv",
    "states": "states.csv",
    "master": "master.csv",
    "ensemble_summary": "ensemble.json",
    "ensemble_series": "ensemble.csv",
    "classical": "classical.csv",
}


@dataclass(frozen=True)
class RunConfig:
    model: HPModel
    beta: CoherentInput
    rho0: np.ndarray
    grid: TimeGrid
    measurement: str
    observables: dict
    outputs: dict
    classical: dict | None = None


def parse_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(str(path), "config file does not exist")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"malformed JSON: {exc}") from exc
    return parse_config_dict(data)


def parse_config_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("", "top-level config must be an object")
    model = parse_model(_require(data, "model", ""))
    beta = parse_beta(_require(data, "beta", ""))
    rho0 = parse_rho0(_require(data, "rho0", ""), model.dim)
    grid = parse_grid(_require(data, "grid", ""))
    measurement = _require(data, "measurement", "")
    if measurement not in KINDS:
        raise ConfigError("measurement", f"expected one of {KINDS}, got {measurement!r}")
    observables = parse_observables(data.get("observables"), model.dim)
    outputs = dict(DEFAULT_OUTPUTS)
    extra = data.get("output", {})
    if not isinstance(extra, dict):
        raise ConfigError("output", "expected an object of output-path overrides")
    for key, value in extra.items():
        if key not in DEFAULT_OUTPUTS:
            raise ConfigError(f"output.{key}", f"unknown output key; options: {sorted(DEFAULT_OUTPUTS)}")
        if not isinstance(value, str) or value in ("", ".", "..") or any(c in value for c in "/\0"):
            raise ConfigError(f"output.{key}", f"expected a bare file name, got {value!r}")
        outputs[key] = value
    names = list(outputs.values())
    for key in extra:
        if names.count(outputs[key]) > 1:
            raise ConfigError(f"output.{key}", f"file name {outputs[key]!r} is already used")
    classical = data.get("classical")
    if classical is not None:
        classical = parse_classical(classical)
    return RunConfig(
        model=model,
        beta=beta,
        rho0=rho0,
        grid=grid,
        measurement=measurement,
        observables=observables,
        outputs=outputs,
        classical=classical,
    )
