"""Checkpoint format, NDJSON stream, and the command-line entry points."""

import json
import struct

import numpy as np
import pytest

from landau.cli import (load_checkpoint, main, read_ndjson, record_to_json,
                        save_checkpoint, write_ndjson)
from landau.config import parse_config
from landau.diagnostics import DiagnosticRecord
from landau.errors import LandauError
from landau.phase_state import DistributionField, Grid
from landau.stepper import run


def _field():
    g = Grid(1, 2, 4, 6, 12.0, 3.0)
    rng = np.random.default_rng(2)
    return DistributionField(1.25, rng.random(g.shape), g)


def test_checkpoint_round_trip(tmp_path):
    path = str(tmp_path / "state.lndk")
    f = _field()
    save_checkpoint(path, f, -1.3)
    back, gamma = load_checkpoint(path)
    assert gamma == -1.3
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


def _write_cfg(tmp_path, **time_over):
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
        "output": {"directory": str(tmp_path / "out")},
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


def test_cli_maxfit_on_checkpoint(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "out")
    main(["run", "--config", cfg, "--output", out, "--quiet"])
    code = main(["maxfit", out + "/final.lndk"])
    assert code == 0
    text = capsys.readouterr().out
    assert "residual" in text


def test_cli_error_exit_code(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--config", missing, "--quiet"]) == 1
