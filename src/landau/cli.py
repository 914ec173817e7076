"""Command-line driver: run orchestration, serialization, reports.

Subcommands:
  run           advance a configured simulation, stream NDJSON diagnostics
  oracle        verify the convolution inequalities on the analytic catalog
  fit-report    fit decay slopes from an NDJSON stream against rate targets
  maxfit        traveling-Maxwellian fit residual of a checkpointed field

Formats are bit-exact: NDJSON (one object per output time, keys matching
DiagnosticRecord fields) and LNDK binary checkpoints.
"""

import argparse
import dataclasses
import json
import math
import os
import struct
import sys

import numpy as np

from .config import parse_config
from .diagnostics import fit_decay_rate, null_structure_gain
from .errors import CheckpointInvalid, ConfigInvalid, InsufficientPoints, LandauError, ParseError
from .maxwellian import fit_maxwellian
from .phase_state import DistributionField, Grid
from .stepper import run as run_sim
from .transport import pullback_sharp

CHECKPOINT_MAGIC = b"LNDK"
CHECKPOINT_VERSION = 1
CHECKPOINT_HEADER_BYTES = 72  # magic, version, 4 int64 and 4 float64


def save_checkpoint(path, f: DistributionField, gamma):
    """Write magic, version, header (dims, grid, gamma, t), then f (LE f64)."""
    g = f.grid
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<4q", g.d_x, g.d_v, g.n_x, g.n_v))
        fh.write(struct.pack("<4d", g.L_x, g.v_max, gamma, f.time))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns (DistributionField, gamma).

    Raises CheckpointInvalid unless the file is a whole checkpoint of a valid
    grid with a finite header and finite values.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointInvalid(f"{path}: bad checkpoint magic {blob[:4]!r}")
    if len(blob) < CHECKPOINT_HEADER_BYTES:
        raise CheckpointInvalid(f"{path}: header truncated at {len(blob)} bytes")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointInvalid(f"{path}: unsupported checkpoint version {version}")
    d_x, d_v, n_x, n_v = struct.unpack_from("<4q", blob, 8)
    L_x, v_max, gamma, t = struct.unpack_from("<4d", blob, 40)
    if not all(map(math.isfinite, (L_x, v_max, gamma, t))):
        raise CheckpointInvalid(f"{path}: nonfinite header value")
    try:
        grid = Grid(d_x, d_v, n_x, n_v, L_x, v_max)
    except ValueError as exc:
        raise CheckpointInvalid(f"{path}: invalid grid: {exc}") from exc
    size = CHECKPOINT_HEADER_BYTES + 8 * math.prod(grid.shape)
    if len(blob) != size:
        raise CheckpointInvalid(f"{path}: {len(blob)} bytes, its grid needs {size}")
    vals = np.frombuffer(blob, dtype="<f8", offset=CHECKPOINT_HEADER_BYTES)
    if not np.all(np.isfinite(vals)):
        raise CheckpointInvalid(f"{path}: nonfinite values in the field")
    return DistributionField(t, vals.reshape(grid.shape).copy(), grid), gamma


def record_to_json(rec):
    obj = dataclasses.asdict(rec)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_ndjson(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(record_to_json(rec) + "\n")


def _numbered_rows(path):
    """(line number, JSON object) of the file's nonblank lines; ParseError names a line that is not one."""
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(number, f"{path}: not JSON: {exc.msg}") from exc
            if not isinstance(row, dict):
                raise ParseError(number, f"{path}: not a JSON object")
            yield number, row


def read_ndjson(path):
    """The JSON objects of the file's nonblank lines; ParseError names a line that is not one."""
    return [row for _, row in _numbered_rows(path)]


def _checkpoint_index(t, cfg):
    """Index k of the checkpoint that the output at time t holds, or None.

    Checkpoint k is the first output at or after k * checkpoint_every.  Outputs
    fall on the multiples of output_every and on t_final, so the output before
    t is the last multiple of output_every below t.  The index depends on t
    alone, so a resumed run continues the numbering of an uninterrupted one.
    """
    k = math.floor((t + 1e-9) / cfg.checkpoint_every)
    prev_out = cfg.output_every * (math.ceil((t - 1e-9) / cfg.output_every) - 1)
    return k if k * cfg.checkpoint_every > prev_out + 1e-9 else None


def cmd_run(args):
    cfg = parse_config(args.config)
    data = None
    if args.resume:
        data, gamma = load_checkpoint(args.resume)
        if data.grid != cfg.grid() or gamma != cfg.gamma:
            raise ConfigInvalid(
                "resume", f"{args.resume} holds gamma = {gamma} on {data.grid}, "
                f"the config gamma = {cfg.gamma} on {cfg.grid()}")
    outdir = args.output or cfg.output_directory
    os.makedirs(outdir, exist_ok=True)

    def checkpoint_cb(f):
        k = _checkpoint_index(f.time, cfg)
        if k is not None:
            save_checkpoint(os.path.join(outdir, f"checkpoint_{k:05d}.lndk"), f, cfg.gamma)

    art = run_sim(cfg, data=data,
                  checkpoint_cb=checkpoint_cb if cfg.checkpoint_every > 0.0 else None)
    ndjson_path = os.path.join(outdir, "diagnostics.ndjson")
    write_ndjson(ndjson_path, art.records)
    save_checkpoint(os.path.join(outdir, "final.lndk"), art.final, cfg.gamma)
    if not args.quiet:
        print(f"wrote {len(art.records)} records to {ndjson_path}")
        print(f"clipped mass {art.clipped_mass:.3e}")
    return 0


def cmd_oracle(args):
    from .oracles import check_dispersion, check_hls, check_interpolation, default_catalog
    cat = default_catalog()
    failures = 0
    print(f"{'check':<16}{'function':<18}{'nu':>5}  {'ratio':>12}")
    for h in cat:
        for nu in (0.5, 1.0, 1.5, 2.5):
            rep = check_interpolation(h, nu)
            print(f"{'interpolation':<16}{rep['name']:<18}{nu:>5}  {rep['ratio']:>12.4f}")
            if not np.isfinite(rep["ratio"]):
                failures += 1
    disp = check_dispersion()
    worst = max(r["ratio"] for r in disp)
    print(f"{'dispersion':<16}{'gaussian':<18}{'-':>5}  {worst:>12.4f}")
    for h in cat[:4]:
        for nu, branch in ((1.0, "L15over4nu"), (2.0, "L2"), (2.5, "L2")):
            rep = check_hls(h, nu, branch)
            print(f"{'hls-' + branch:<16}{rep['name']:<18}{nu:>5}  {rep['ratio']:>12.4f}")
            if not np.isfinite(rep["ratio"]):
                failures += 1
    return 2 if failures else 0


def _fit_rows(path):
    """The records of an NDJSON file; ParseError names the line and the key of a
    record without a number at t or a fitted sup, or without a momentum list."""
    numbered = list(_numbered_rows(path))  # every line JSON first
    for number, row in numbered:
        for key in ("t", "rho_sup", "a_bar_plain_sup", "a_bar_weighted_sup"):
            if type(row.get(key)) not in (int, float):
                raise ParseError(number, f"{path}: {key!r} is missing or not a number")
        if not isinstance(row.get("momentum"), list):
            raise ParseError(number, f"{path}: 'momentum' is missing or not a list")
    return [row for _, row in numbered]


def cmd_fit_report(args):
    rows = _fit_rows(args.ndjson)
    if not rows:
        raise InsufficientPoints(f"{args.ndjson} holds no records")
    cfg = parse_config(args.config) if args.config else None
    d_x = cfg.d_x if cfg else args.d_x
    window = cfg.fit_window if cfg else (5.0, rows[-1]["t"])
    targets = {
        "rho_sup": (-float(d_x), 0.1),
        "a_bar_plain_sup": (-1.0, 0.15),
    }
    code = 0
    for key, (target, tol) in targets.items():
        series = [(r["t"], r[key]) for r in rows if r[key] > 0.0]
        try:
            slope, err = fit_decay_rate(series, window)
        except LandauError as exc:
            print(f"{key}: skipped ({exc})")
            continue
        ok = abs(slope - target) <= tol
        print(f"{key}: slope {slope:+.3f} target {target:+.1f} +/- {tol} "
              f"-> {'pass' if ok else 'FAIL'}")
        if not ok:
            code = 2
    plain = [(r["t"], r["a_bar_plain_sup"]) for r in rows if r["a_bar_plain_sup"] > 0]
    weighted = [(r["t"], r["a_bar_weighted_sup"]) for r in rows if r["a_bar_weighted_sup"] > 0]
    try:
        gain = null_structure_gain(plain, weighted, window)
    except InsufficientPoints as exc:
        print(f"null_structure_gain: skipped ({exc})")
        return code
    # the gain min{1, 2+gamma} needs every velocity axis paired with x
    d_v = len(rows[0]["momentum"])
    if d_x < d_v:
        predicted = f"+0.000 (d_x {d_x} < d_v {d_v})"
    elif cfg is not None:
        predicted = f"{min(1.0, 2.0 + cfg.gamma):+.3f}"
    else:
        predicted = "min{1, 2+gamma}"
    print(f"null_structure_gain: {gain:+.3f} predicted {predicted}")
    return code


def cmd_maxfit(args):
    f, gamma = load_checkpoint(args.checkpoint)
    sharp = pullback_sharp(f)
    fit = fit_maxwellian(sharp)
    norm = float(np.sqrt(np.sum(sharp.values ** 2) * sharp.grid.cell_volume))
    print(f"t {f.time:.3f} residual {fit.residual:.6e} field_l2 {norm:.6e} "
          f"relative {fit.residual / norm:.6e} converged {fit.converged} "
          f"evaluations {fit.evaluations}")
    print(f"params m {fit.params.m:.6g} alpha {fit.params.alpha:.6g} "
          f"sigma {fit.params.sigma:.6g} beta {fit.params.beta:.6g}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="landau")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="advance a configured simulation")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output", default=None)
    p_run.add_argument("--resume", default=None)
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_or = sub.add_parser("oracle", help="verify convolution inequalities")
    p_or.set_defaults(func=cmd_oracle)

    p_fit = sub.add_parser("fit-report", help="decay-slope report from NDJSON")
    p_fit.add_argument("ndjson")
    p_fit.add_argument("--config", default=None)
    p_fit.add_argument("--d-x", type=int, default=1, dest="d_x")
    p_fit.set_defaults(func=cmd_fit_report)

    p_max = sub.add_parser("maxfit", help="traveling-Maxwellian fit residual")
    p_max.add_argument("checkpoint")
    p_max.set_defaults(func=cmd_maxfit)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LandauError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
