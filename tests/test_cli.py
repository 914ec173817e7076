"""Checkpoint format, NDJSON stream, and the command-line entry points."""

import dataclasses
import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from landau.cli import (load_checkpoint, main, read_ndjson, record_to_json,
                        save_checkpoint, write_ndjson)
from landau.config import initial_data, parse_config
from landau.diagnostics import DiagnosticRecord
from landau.errors import CheckpointInvalid, LandauError
from landau.phase_state import DistributionField, Grid
from landau.stepper import run


def _field():
    g = Grid(1, 2, 4, 6, 12.0, 3.0)
    rng = np.random.default_rng(2)
    return DistributionField(1.25, rng.random(g.shape), g)


@st.composite
def _fields(draw):
    d_v = draw(st.sampled_from([2, 3]))
    d_x = draw(st.integers(0, 2))
    grid = Grid(d_x, d_v, draw(st.integers(1, 4)), draw(st.integers(2, 5)),
                draw(st.floats(0.5, 1e3)), draw(st.floats(0.5, 20.0)))
    values = draw(hnp.arrays(np.float64, grid.shape, elements=st.floats(0.0, 1e300)))
    return DistributionField(draw(st.floats(0.0, 1e6)), values, grid)


@settings(max_examples=50, deadline=None)
@given(f=_fields(), gamma=st.floats(-2.0, 0.0, exclude_min=True, exclude_max=True))
def test_checkpoint_round_trip(tmp_path_factory, f, gamma):
    path = str(tmp_path_factory.mktemp("lndk") / "state.lndk")
    save_checkpoint(path, f, gamma)
    back, back_gamma = load_checkpoint(path)
    assert back_gamma == gamma
    assert back.time == f.time
    assert back.grid == f.grid
    assert np.array_equal(back.values, f.values)


def test_checkpoint_layout_is_frozen(tmp_path):
    path = str(tmp_path / "state.lndk")
    f = _field()
    save_checkpoint(path, f, -1.0)
    blob = open(path, "rb").read()
    assert blob[:4] == b"LNDK"
    assert struct.unpack("<I", blob[4:8])[0] == 1
    d_x, d_v, n_x, n_v = struct.unpack("<4q", blob[8:40])
    assert (d_x, d_v, n_x, n_v) == (1, 2, 4, 6)
    L_x, v_max, gamma, t = struct.unpack("<4d", blob[40:72])
    assert (L_x, v_max, gamma, t) == (12.0, 3.0, -1.0, 1.25)
    assert len(blob) == 72 + 8 * 4 * 6 * 6


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.lndk"
    path.write_bytes(b"NOPE" + b"\x00" * 100)
    with pytest.raises(LandauError):
        load_checkpoint(str(path))


@pytest.mark.parametrize("kind", ["body", "trailing", "header", "grid", "inf", "nan"])
def test_checkpoint_rejects_corrupt_file(tmp_path, capsys, kind):
    path = tmp_path / "state.lndk"
    save_checkpoint(str(path), _field(), -1.0)
    blob = bytearray(path.read_bytes())
    if kind == "body":
        del blob[-8:]
    elif kind == "trailing":
        blob += bytes(8)
    elif kind == "header":
        del blob[40:]
    elif kind == "grid":
        struct.pack_into("<q", blob, 8, 3)  # d_x = 3 > d_v = 2
    elif kind == "inf":
        struct.pack_into("<d", blob, 48, math.inf)  # v_max
    else:
        struct.pack_into("<d", blob, 72, math.nan)  # the first cell
    path.write_bytes(blob)
    with pytest.raises(CheckpointInvalid):
        load_checkpoint(str(path))
    assert main(["maxfit", str(path)]) == 1
    assert "CheckpointInvalid" in capsys.readouterr().err


def _record(t):
    return DiagnosticRecord(
        t=t, mass=1.0, momentum=[0.0, 0.0], energy=2.0, rho_sup=0.5,
        m_sup=0.1, e_sup=0.2, E_norms={"a_b_s_": 1.0}, Z_norms={"a_b_s_": 2.0},
        a_bar_plain_sup=0.3, a_bar_weighted_sup=0.2, c_bar_sup=0.1,
        null_term_sup=0.05, sharp_diff_vs_t0=0.0, h_value=-1.0,
        clipped_mass=0.0)


def test_ndjson_round_trip(tmp_path):
    path = str(tmp_path / "diag.ndjson")
    write_ndjson(path, [_record(0.0), _record(2.5)])
    rows = read_ndjson(path)
    assert len(rows) == 2
    assert rows[1]["t"] == 2.5
    assert rows[0]["Z_norms"]["a_b_s_"] == 2.0
    # one compact object per line, keys sorted
    line = open(path).readline().strip()
    obj = json.loads(line)
    assert list(obj) == sorted(obj)


def test_record_to_json_deterministic():
    assert record_to_json(_record(1.0)) == record_to_json(_record(1.0))


def _write_cfg(tmp_path, checkpoint_every=0.0, **time_over):
    time = {"t_final": 2.0, "dt_max": 0.25, "output_every": 1.0}
    time.update(time_over)
    raw = {
        "gamma": -1.0,
        "epsilon": 1e-6,
        "dims": {"d_x": 1, "d_v": 2},
        "grid": {"n_x": 48, "n_v": 16, "L_x": 480.0, "v_max": 6.5},
        "time": time,
        "initial_data": {"kind": "gaussian",
                         "parameters": {"x_width": 35.0, "v_width": 1.0}},
        "output": {"directory": str(tmp_path / "out"), "checkpoint_every": checkpoint_every},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_run_and_fit_report(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "out")
    code = main(["run", "--config", cfg, "--output", out, "--quiet"])
    assert code == 0
    rows = read_ndjson(out + "/diagnostics.ndjson")
    assert rows[0]["t"] == 0.0
    assert rows[-1]["t"] == pytest.approx(2.0)
    back, gamma = load_checkpoint(out + "/final.lndk")
    assert gamma == -1.0
    assert back.time == pytest.approx(2.0)


def test_fit_report_prints_the_predicted_null_structure_gain(tmp_path, capsys):
    # d_v = 2 is the length of the records' momentum; at d_x = 1 < d_v the
    # predicted gain is 0, at d_x = d_v it is min{1, 2+gamma}
    path = str(tmp_path / "diag.ndjson")
    write_ndjson(path, [dataclasses.replace(_record(t), a_bar_plain_sup=(1.0 + t) ** -1.0,
                                            a_bar_weighted_sup=(1.0 + t) ** -1.04)
                        for t in np.linspace(5.0, 20.0, 8)])
    main(["fit-report", path])
    out = capsys.readouterr().out
    assert "null_structure_gain: +0.040 predicted +0.000 (d_x 1 < d_v 2)\n" in out
    main(["fit-report", path, "--d-x", "2"])
    assert "null_structure_gain: +0.040 predicted min{1, 2+gamma}\n" in capsys.readouterr().out
    cfg = json.loads(open(_write_cfg(tmp_path, t_final=25.0)).read())
    cfg.update(gamma=-1.5, dims={"d_x": 2, "d_v": 2}, diagnostics={"fit_window": [5.0, 20.0]})
    cfg["grid"]["L_x"] = 900.0
    (tmp_path / "d2.json").write_text(json.dumps(cfg))
    main(["fit-report", path, "--config", str(tmp_path / "d2.json")])
    assert "null_structure_gain: +0.040 predicted +0.500\n" in capsys.readouterr().out
    # without the key the dispersive window (87.5, 25) of this data holds no record
    del cfg["diagnostics"]
    (tmp_path / "d2.json").write_text(json.dumps(cfg))
    assert main(["fit-report", path, "--config", str(tmp_path / "d2.json")]) == 0
    assert "null_structure_gain: skipped (0 points in window" in capsys.readouterr().out


def test_cli_resume_from_checkpoint(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--output", out, "--quiet"]) == 0
    # resuming at t_final takes no step and records the stored field once
    assert main(["run", "--config", cfg, "--output", out,
                 "--resume", out + "/final.lndk", "--quiet"]) == 0
    assert [row["t"] for row in read_ndjson(out + "/diagnostics.ndjson")] == [2.0]
    assert load_checkpoint(out + "/final.lndk")[0].time == 2.0


def test_resume_matches_uninterrupted_run(tmp_path):
    whole = run(parse_config(_write_cfg(tmp_path)))
    first = run(parse_config(_write_cfg(tmp_path, t_final=1.0)))
    second = run(parse_config(_write_cfg(tmp_path)), data=first.final)
    assert second.final.time == whole.final.time == 2.0
    assert np.array_equal(second.final.values, whole.final.values)
    assert [r.t for r in second.records] == [r.t for r in whole.records if r.t >= 1.0]


def test_resume_writes_the_uninterrupted_checkpoints(tmp_path):
    whole, split = tmp_path / "whole", tmp_path / "split"
    timing = dict(output_every=0.25, checkpoint_every=1.0)
    cfg = _write_cfg(tmp_path, **timing)
    assert main(["run", "--config", cfg, "--output", str(whole), "--quiet"]) == 0
    first = _write_cfg(tmp_path, t_final=1.0, **timing)
    assert main(["run", "--config", first, "--output", str(split), "--quiet"]) == 0
    cfg = _write_cfg(tmp_path, **timing)
    assert main(["run", "--config", cfg, "--output", str(split),
                 "--resume", str(split / "final.lndk"), "--quiet"]) == 0
    names = sorted(p.name for p in whole.glob("checkpoint_*"))
    assert names == [f"checkpoint_{k:05d}.lndk" for k in range(3)]
    assert [load_checkpoint(str(whole / n))[0].time for n in names] == [0.0, 1.0, 2.0]
    assert sorted(p.name for p in split.glob("checkpoint_*")) == names
    assert all((whole / n).read_bytes() == (split / n).read_bytes() for n in names)


@pytest.mark.parametrize("gamma,n_v", [(-1.5, 24), (-1.5, 16), (-1.0, 24)])
def test_resume_rejects_a_checkpoint_of_another_config(tmp_path, capsys, gamma, n_v):
    cfg = _write_cfg(tmp_path)
    f = initial_data(parse_config(cfg))
    stored = str(tmp_path / "final.lndk")
    save_checkpoint(stored, DistributionField(2.0, f.values, f.grid), -1.0)
    raw = json.loads(open(cfg).read())
    raw["gamma"] = gamma
    raw["grid"]["n_v"] = n_v
    other = tmp_path / "other.json"
    other.write_text(json.dumps(raw))
    out = tmp_path / "resumed"
    assert main(["run", "--config", str(other), "--output", str(out),
                 "--resume", stored, "--quiet"]) == 1
    assert "ConfigInvalid: resume" in capsys.readouterr().err
    assert not out.exists()


def test_cli_maxfit_on_checkpoint(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "out")
    main(["run", "--config", cfg, "--output", out, "--quiet"])
    code = main(["maxfit", out + "/final.lndk"])
    assert code == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert "residual" in first
    assert int(first.split(" evaluations ")[1].split()[0]) >= 1


def test_cli_error_exit_code(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--config", missing, "--quiet"]) == 1


@pytest.mark.parametrize("key", ["n_v", "v_max"])
def test_cli_run_refuses_a_malformed_grid(tmp_path, capsys, key):
    path = _write_cfg(tmp_path)
    raw = json.loads(open(path).read())
    raw["grid"][key] = 0
    with open(path, "w") as fh:
        json.dump(raw, fh)
    assert main(["run", "--config", path, "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ConfigInvalid: grid: ")


@pytest.mark.parametrize("text, error", [
    ("", "InsufficientPoints: "),
    ("\n\n", "InsufficientPoints: "),
    ('{"t": 0.0}\n{"t": 1.0\n', "ParseError: line 2: "),
    ('{"t": 0.0}\n\n[1, 2]\n', "ParseError: line 3: "),
])
def test_fit_report_refuses_an_empty_or_malformed_stream(tmp_path, capsys, text, error):
    path = tmp_path / "diag.ndjson"
    path.write_text(text)
    assert main(["fit-report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}") and str(path) in err


@pytest.mark.parametrize("drop, update, key", [
    ("rho_sup", {}, "rho_sup"),
    (None, {"rho_sup": "a"}, "rho_sup"),
    (None, {"t": None}, "t"),
    (None, {"a_bar_weighted_sup": True}, "a_bar_weighted_sup"),
    ("momentum", {}, "momentum"),
], ids=["no-rho_sup", "string-rho_sup", "null-t", "bool-sup", "no-momentum"])
def test_fit_report_names_the_line_and_key_of_a_malformed_record(tmp_path, capsys, drop, update,
                                                                 key):
    good = dataclasses.asdict(_record(1.0))
    bad = dict(good, **update)
    bad.pop(drop, None)
    path = tmp_path / "diag.ndjson"
    path.write_text(f"{json.dumps(good)}\n\n{json.dumps(bad)}\n")
    assert main(["fit-report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ParseError: line 3: {path}: {key!r} is missing or not a")


def _with_parameters(raw, **over):
    raw["initial_data"]["parameters"].update(over)
    return raw


@pytest.mark.parametrize("edit, error", [
    (lambda raw: [], "ParseError"),
    (lambda raw: dict(raw, dims=[1, 2]), "ParseError"),
    (lambda raw: dict(raw, initial_data={"kind": "gaussian", "parameters": "x"}), "ParseError"),
    (lambda raw: _with_parameters(raw, drift=3), "ConfigInvalid"),
    (lambda raw: _with_parameters(raw, drift=[0.1, 0.2, 0.3]), "ConfigInvalid"),
], ids=["list", "dims-list", "parameters-string", "drift-number", "drift-past-d_v"])
def test_cli_run_refuses_a_malformed_config(tmp_path, capsys, edit, error):
    path = _write_cfg(tmp_path)
    raw = edit(json.loads(open(path).read()))
    with open(path, "w") as fh:
        json.dump(raw, fh)
    assert main(["run", "--config", path, "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {error}: ")


@pytest.mark.parametrize("kind, parameters, key", [
    ("gaussian", {"x_width": "wide"}, "x_width"),
    ("gaussian", {"v_width": [1.0]}, "v_width"),
    ("gaussian", {"x_center": None}, "x_center"),
    ("seed", {"x_width": 0.0}, "x_width"),
    ("gaussian", {"v_width": 0.0}, "v_width"),
    ("gaussian", {"x_width": -35.0}, "x_width"),
    ("seed", {"v_width": float("inf")}, "v_width"),
    ("maxwellian", {"m": "one"}, "m"),
    ("maxwellian", {"alpha": "a"}, "alpha"),
    ("maxwellian", {"sigma": {}}, "sigma"),
    ("maxwellian", {"beta": "b"}, "beta"),
    ("maxwellian", {"B": "skew"}, "B"),
    ("maxwellian", {"B": [[0.0, 1.0], [-1.0]]}, "B"),
    ("maxwellian", {"B": [[0.0] * 3] * 3}, "B"),
], ids=["x_width-string", "v_width-list", "x_center-null", "x_width-0", "v_width-0",
        "x_width-negative", "v_width-inf", "m-string", "alpha-string", "sigma-object",
        "beta-string", "B-string", "B-ragged", "B-3x3-at-d_v-2"])
def test_cli_run_names_a_malformed_initial_data_parameter(tmp_path, capsys, kind, parameters,
                                                          key):
    path = _write_cfg(tmp_path)
    raw = json.loads(open(path).read())
    raw["initial_data"] = {"kind": kind, "parameters": parameters}
    with open(path, "w") as fh:
        json.dump(raw, fh)
    assert main(["run", "--config", path, "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: ConfigInvalid: initial_data: {key} ")


def test_cli_import_loads_no_scipy():
    # scipy is needed only by landau.oracles, which `landau oracle` imports
    # lazily; the worker threads are made at their first use
    import landau
    src = os.path.dirname(os.path.dirname(os.path.abspath(landau.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, threading, landau, landau.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "'concurrent.futures' in sys.modules, 'logging' in sys.modules, "
            "threading.active_count())")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[] False False 1"
