import copy
import re

import numpy as np
import pytest

from qfilter.config import (
    CLASSICAL_DEFAULTS,
    ConfigError,
    matrix_to_json,
    parse_beta,
    parse_complex,
    parse_config,
    parse_config_dict,
    parse_matrix,
)
from qfilter.io import ROW_BLOCK, read_record_csv, write_classical_csv, write_record_csv, write_states_csv
from qfilter.linalg import SIGMA_Z, max_norm, random_density, random_hermitian
from qfilter.master import TimeGrid
from qfilter.trajectory import COUNTING, MeasurementRecord, QUADRATURE

EYE2 = matrix_to_json(np.eye(2))
ZERO2 = matrix_to_json(np.zeros((2, 2)))


def base_config():
    return {
        "model": {"dim": 2, "S": EYE2, "L": matrix_to_json(np.array([[0, 0], [1, 0]])), "H": ZERO2},
        "beta": {"kind": "constant", "value": [0.5, 0.0]},
        "rho0": "excited",
        "grid": {"dt": 1e-3, "T": 0.5},
        "measurement": "quadrature",
        "observables": ["sigma_z"],
    }


def test_parse_complex_and_matrix():
    assert parse_complex(2, "x") == 2 + 0j
    assert parse_complex([1, -2], "x") == 1 - 2j
    with pytest.raises(ConfigError):
        parse_complex("nope", "x")
    m = parse_matrix(matrix_to_json(SIGMA_Z), 2, "m")
    assert max_norm(m - SIGMA_Z) == 0
    with pytest.raises(ConfigError):
        parse_matrix([[1, 0]], 2, "m")


def test_matrix_round_trip():
    rng = np.random.default_rng(60)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert max_norm(parse_matrix(matrix_to_json(a), 3, "m") - a) == 0


def test_parse_beta_kinds():
    assert parse_beta({"kind": "constant", "value": 1.0}).value(0.0) == 1.0
    sin = parse_beta({"kind": "sinusoid", "amplitude": [1, 0], "frequency": np.pi})
    assert sin.value(1.0) == pytest.approx(-1.0)
    pw = parse_beta({"kind": "samples", "dt": 0.5, "values": [[1, 0], [2, 0]]})
    assert pw.value(0.6) == 2.0
    with pytest.raises(ConfigError):
        parse_beta({"kind": "square-wave"})


def test_full_config_parses():
    cfg = parse_config_dict(base_config())
    assert cfg.model.dim == 2
    assert cfg.measurement == "quadrature"
    assert "sigma_z" in cfg.observables
    assert cfg.grid.steps == 500
    assert cfg.outputs["record"] == "record.csv"


def test_error_messages_name_key_paths():
    data = base_config()
    data["model"]["S"] = matrix_to_json(2 * np.eye(2))
    with pytest.raises(ConfigError, match="model.S"):
        parse_config_dict(data)

    data = base_config()
    del data["grid"]
    with pytest.raises(ConfigError, match="grid"):
        parse_config_dict(data)

    data = base_config()
    data["measurement"] = "heterodyne"
    with pytest.raises(ConfigError, match="measurement"):
        parse_config_dict(data)

    data = base_config()
    data["rho0"] = "cat-state"
    with pytest.raises(ConfigError, match="rho0"):
        parse_config_dict(data)

    data = base_config()
    data["observables"] = ["sigma_w"]
    with pytest.raises(ConfigError, match=r"observables\[0\]"):
        parse_config_dict(data)

    data = base_config()
    data["output"] = {"unknown_key": "x.csv"}
    with pytest.raises(ConfigError, match="output.unknown_key"):
        parse_config_dict(data)


OBS = {"name": "n", "matrix": EYE2}


@pytest.mark.parametrize(
    "observables, match",
    [
        (["sigma_z", {**OBS, "name": "sigma_z"}], r"^observables\[1\]: .* 'sigma_z' is already used"),
        ([OBS, {**OBS, "name": "t"}], r"^observables\[1\]: .* 't' is a fixed column"),
        ([{**OBS, "name": "trace"}], r"^observables\[0\]: .* 'trace' is a fixed column"),
        ([{**OBS, "name": "purity"}], r"^observables\[0\]: .* 'purity' is a fixed column"),
        ([{**OBS, "name": "innovations"}], r"^observables\[0\]: .* 'innovations' is a fixed column"),
        ([{**OBS, "name": 5}], r"^observables\[0\]\.name: expected a string, got 5"),
        ([{**OBS, "name": None}], r"^observables\[0\]\.name: expected a string, got None"),
        ([{**OBS, "name": "a,b"}], r"^observables\[0\]\.name: expected a name without"),
        ([OBS, {**OBS, "name": 'a"b'}], r"^observables\[1\]\.name: expected a name without"),
        ([{**OBS, "name": "a\nb"}], r"^observables\[0\]\.name: expected a name without"),
        ([{**OBS, "name": "a\rb"}], r"^observables\[0\]\.name: expected a name without"),
    ],
)
def test_bad_observable_names_fail_naming_the_entry(observables, match):
    data = base_config()
    data["observables"] = observables
    with pytest.raises(ConfigError, match=match):
        parse_config_dict(data)


@pytest.mark.parametrize(
    "output, match",
    [
        ({"states": "record.csv"}, r"^output\.states: file name 'record\.csv' is already used"),
        ({"master": "m.csv", "classical": "m.csv"}, r"^output\.master: .* 'm\.csv' is already used"),
        ({"master": None}, r"^output\.master: expected a bare file name, got None"),
        ({"master": 5}, r"^output\.master: expected a bare file name, got 5"),
        ({"master": "sub/m.csv"}, r"^output\.master: expected a bare file name, got 'sub/m\.csv'"),
        ({"record": ""}, r"^output\.record: expected a bare file name, got ''"),
        ({"record": "."}, r"^output\.record: expected a bare file name"),
        ({"record": ".."}, r"^output\.record: expected a bare file name"),
        ({"master": "m\0.csv"}, r"^output\.master: expected a bare file name, got 'm\\x00\.csv'"),
    ],
)
def test_bad_output_names_fail_naming_the_key(output, match):
    data = base_config()
    data["output"] = output
    with pytest.raises(ConfigError, match=match):
        parse_config_dict(data)


def test_output_names_may_be_swapped():
    data = base_config()
    data["output"] = {"record": "states.csv", "states": "record.csv"}
    outputs = parse_config_dict(data).outputs
    assert (outputs["record"], outputs["states"]) == ("states.csv", "record.csv")


def test_classical_section_defaults():
    data = base_config()
    data["classical"] = {"preset": "bistable-double-well", "sigma": 0.5}
    assert parse_config_dict(data).classical == {
        **CLASSICAL_DEFAULTS, "preset": "bistable-double-well", "sigma": 0.5,
    }
    assert parse_config_dict(base_config()).classical is None


@pytest.mark.parametrize(
    "section, match",
    [
        ({"a": None}, r"^classical\.a: expected a finite number"),
        ({"a": [1, 2]}, r"^classical\.a: expected a finite number"),
        ({"sigma": "1"}, r"^classical\.sigma: expected a finite number"),
        ({"x0": float("inf")}, r"^classical\.x0: expected a finite number"),
        ({"prior_std": 10**400}, r"^classical\.prior_std: expected a finite number"),
        ({"particles": "abc"}, r"^classical\.particles: expected an integer >= 1"),
        ({"particles": 2.7}, r"^classical\.particles: expected an integer >= 1"),
        ({"particles": 0}, r"^classical\.particles: expected an integer >= 1"),
        ({"partciles": 10}, r"^classical\.partciles: unknown key"),
        ({"preset": "triple-well"}, r"^classical\.preset: unknown preset"),
        ({"preset": ["linear"]}, r"^classical\.preset: unknown preset"),
        ([], r"^classical: expected an object"),
    ],
)
def test_classical_section_errors_name_the_key(section, match):
    data = base_config()
    data["classical"] = section
    with pytest.raises(ConfigError, match=match):
        parse_config_dict(data)


REAL_KEYS = [
    ("grid", {"dt": 1e-3, "T": 0.5}, "dt"),
    ("grid", {"dt": 1e-3, "T": 0.5}, "T"),
    ("beta", {"kind": "sinusoid", "amplitude": [0.5, 0], "frequency": 1.0}, "frequency"),
    ("beta", {"kind": "samples", "dt": 0.1, "values": [[0.5, 0]]}, "dt"),
    ("beta", {"kind": "samples", "dt": 0.1, "values": [[0.5, 0]], "t0": 0.0}, "t0"),
]


@pytest.mark.parametrize("section, body, key", REAL_KEYS)
@pytest.mark.parametrize("bad", [None, "0.1", True, [0.1]])
def test_real_valued_keys_reject_non_numbers_naming_the_key(section, body, key, bad):
    data = base_config()
    data[section] = {**body, key: bad}
    with pytest.raises(ConfigError, match=rf"^{section}\.{key}: expected a finite number"):
        parse_config_dict(data)


MODEL = {"dim": 2, "S": EYE2, "L": matrix_to_json(np.zeros((2, 2))), "H": ZERO2}
SINUSOID = {"kind": "sinusoid", "amplitude": [0.5, 0], "frequency": 1.0, "offset": [0.1, 0]}
COMPLEX_ENTRIES = [
    ("beta", {"kind": "constant", "value": [0.5, 0]}, ("value",), "beta.value"),
    ("beta", SINUSOID, ("amplitude",), "beta.amplitude"),
    ("beta", SINUSOID, ("offset",), "beta.offset"),
    ("beta", {"kind": "samples", "dt": 0.1, "values": [[0.5, 0], [0.2, 0]]}, ("values", 1), "beta.values[1]"),
    ("model", MODEL, ("S", 0), "model.S[0]"),
    ("model", MODEL, ("L", 2), "model.L[2]"),
    ("model", MODEL, ("H", 3), "model.H[3]"),
    ("rho0", {"matrix": [[1, 0], [0, 0], [0, 0], [0, 0]]}, ("matrix", 0), "rho0.matrix[0]"),
    ("observables", [{"name": "n", "matrix": EYE2}], (0, "matrix", 1), "observables[0].matrix[1]"),
]


@pytest.mark.parametrize(
    "section, body, entry, path", COMPLEX_ENTRIES, ids=[e[-1] for e in COMPLEX_ENTRIES]
)
@pytest.mark.parametrize(
    "bad",
    [float("nan"), float("inf"), True, [float("nan"), 0], [0, True], [0, 10**400]],
    ids=["nan", "inf", "true", "[nan,0]", "[0,true]", "[0,1e400]"],
)
def test_complex_valued_entries_reject_non_finite_numbers_naming_the_key(
    section, body, entry, path, bad
):
    data = base_config()
    data[section] = target = copy.deepcopy(body)
    for key in entry[:-1]:
        target = target[key]
    target[entry[-1]] = bad
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}(\[[01]\])?: expected a finite number"):
        parse_config_dict(data)


def test_boolean_dim_is_rejected_naming_the_key():
    data = base_config()
    data["model"]["dim"] = True
    with pytest.raises(ConfigError, match=r"^model\.dim: expected a positive integer"):
        parse_config_dict(data)


@pytest.mark.parametrize(
    "section, body, match",
    [
        ("grid", {"dt": 1.0, "T": 0.4}, r"^grid: T/dt = 0\.4: steps must be >= 1"),
        ("grid", {"dt": 0.3, "T": 0.1}, r"^grid: T/dt = 0\.333333: steps must be >= 1"),
        ("grid", {"dt": 1e-10, "T": 1e308}, r"^grid: T/dt = inf"),
        ("beta", {"kind": "samples", "dt": -0.1, "values": [[0.5, 0]]}, r"^beta\.dt: expected a positive"),
        ("beta", {"kind": "samples", "dt": 0.0, "values": [[0.5, 0]]}, r"^beta\.dt: expected a positive"),
    ],
)
def test_out_of_range_values_name_the_key(section, body, match):
    data = base_config()
    data[section] = body
    with pytest.raises(ConfigError, match=match):
        parse_config_dict(data)


def test_parse_config_file_errors(tmp_path):
    missing = tmp_path / "none.json"
    with pytest.raises(ConfigError, match="does not exist"):
        parse_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed JSON"):
        parse_config(bad)


def test_record_csv_round_trip(tmp_path):
    grid = TimeGrid(dt=1e-3, steps=50)
    rng = np.random.default_rng(61)
    quad = MeasurementRecord(kind=QUADRATURE, grid=grid, increments=rng.standard_normal(50) * 0.03)
    path = tmp_path / "rec.csv"
    write_record_csv(path, quad)
    back = read_record_csv(path)
    assert back.kind == QUADRATURE
    assert back.grid.dt == grid.dt
    assert np.array_equal(back.increments, quad.increments)  # byte-exact floats

    jumps = rng.random(50) < 0.1
    cnt = MeasurementRecord(kind=COUNTING, grid=grid, increments=jumps.astype(float))
    write_record_csv(path, cnt)
    counts = "".join("%d\n" % jump for jump in jumps)
    assert path.read_bytes() == ("kind,dt,steps\ncounting,0.001,50\n" + counts).encode()
    back = read_record_csv(path)
    assert np.array_equal(back.increments, cnt.increments)


def test_read_record_rejects_malformed(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("bogus\n1,2,3\n")
    with pytest.raises(ValueError):
        read_record_csv(path)
    path.write_text("kind,dt,steps\nquadrature,0.001,3\n0.1\n0.2\n")
    with pytest.raises(ValueError):
        read_record_csv(path)


def test_states_csv_layout(tmp_path):
    grid = TimeGrid(dt=0.5, steps=2)
    rhos = [np.eye(2, dtype=complex) / 2] * 3
    path = tmp_path / "states.csv"
    write_states_csv(path, grid.times(), rhos, {"sigma_z": SIGMA_Z}, innovations=np.array([0.0, 0.1, 0.2]))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,sigma_z,trace,purity,innovations"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[1]) == 0.0  # sigma_z of the maximally mixed state
    assert float(first[3]) == pytest.approx(0.5)


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_states_csv_matches_per_row_reference(tmp_path, dim):
    # The columns are computed on the whole state array; each value must be
    # bit-identical to the per-state np.trace form, so outputs stay stable.
    rng = np.random.default_rng(dim)
    rhos = np.stack([random_density(rng, dim) for _ in range(20)])
    obs = {"a": random_hermitian(rng, dim), "b": random_hermitian(rng, dim)}
    times = TimeGrid(dt=0.1, steps=19).times()
    path = tmp_path / "states.csv"
    write_states_csv(path, times, rhos, obs)
    want = ["t,a,b,trace,purity"]
    for t, rho in zip(times, rhos):
        row = [t, *(np.trace(rho @ o).real for o in obs.values()), np.trace(rho).real, np.trace(rho @ rho).real]
        want.append(",".join(format(float(x), ".17g") for x in row))
    assert path.read_text() == "\n".join(want) + "\n"


@pytest.mark.parametrize("kind", [QUADRATURE, COUNTING])
def test_csv_writers_across_row_blocks_match_per_row_reference(tmp_path, kind):
    # 2 ROW_BLOCK + 1 rows: two whole blocks, each formatted in one call, and a one-row block.
    rng = np.random.default_rng(7)
    n = 2 * ROW_BLOCK + 1
    times = TimeGrid(dt=0.1, steps=n - 1).times()
    rhos = np.stack([random_density(rng, 2) for _ in range(n)])
    innovations = rng.standard_normal(n).cumsum()

    def per_row(header, columns):
        rows = [",".join(format(float(x), ".17g") for x in row) for row in zip(*columns)]
        return "\n".join([header, *rows]) + "\n"

    write_states_csv(tmp_path / "states.csv", times, rhos, {"sigma_z": SIGMA_Z}, innovations)
    columns = [times, *(np.trace(rhos @ o, axis1=1, axis2=2).real for o in (SIGMA_Z, rhos))]
    columns.insert(2, np.trace(rhos, axis1=1, axis2=2).real)
    want = per_row("t,sigma_z,trace,purity,innovations", columns + [innovations])
    assert (tmp_path / "states.csv").read_text() == want

    classical = {"x_true": rng.standard_normal(n) * 1e-300, "x_hat": rng.standard_normal(n) * 1e300}
    write_classical_csv(tmp_path / "classical.csv", times, classical)
    want = per_row("t,x_true,x_hat", [times, *classical.values()])
    assert (tmp_path / "classical.csv").read_text() == want

    increments = rng.standard_normal(n) if kind == QUADRATURE else (rng.random(n) < 0.3) * 1.0
    record = MeasurementRecord(kind=kind, grid=TimeGrid(dt=0.1, steps=n), increments=increments)
    write_record_csv(tmp_path / "record.csv", record)
    want = per_row(f"kind,dt,steps\n{kind},0.10000000000000001,{n}", [increments])
    assert (tmp_path / "record.csv").read_text() == want
