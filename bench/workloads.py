"""The benchmark's three workloads.

Each workload draws its inputs from a seed, writes them where the program
reads them, runs one round of operations through the program's public entry
points, and checks the outputs against closed forms and properties computed
here, apart from the program.  The seed moves the inputs within the
workload's family and leaves every size unchanged.

    near_vacuum     `landau run` on the near-vacuum config of criterion 8
    free_stream     `landau.stepper.run(cfg, transport_only=True)`, d_x = d_v = 2
    maxwellian_fit  the `landau maxfit` path on three checkpoints

Call the program through its modules (`cli.main`, `stepper.run`), never through
names bound here, so that a traced run sees every call.
"""

import contextlib
import dataclasses
import glob
import io
import json
import math
import os

import numpy as np

import landau
from landau import cli, coefficients, config, maxwellian, stepper, transport
from landau.errors import LandauError

EPSILON = 1e-3
V_MAX = 6.0
GAMMA = -1.0
ROUNDOFF = 1e-12


# ---------------------------------------------------------------------------
# Closed forms, on cell centres computed here


def cell_centres(n, half_width):
    return -half_width + (np.arange(n) + 0.5) * (2.0 * half_width / n)


def wrap(u, length):
    return (u + 0.5 * length) % length - 0.5 * length


def _along(values, axis, ndim):
    shape = [1] * ndim
    shape[axis] = values.size
    return values.reshape(shape)


def gaussian_config(d_x, n_x, n_v, L_x, t_final, output_every, x_center, drift,
                    checkpoint_every=0.0):
    """A Gaussian run config: eps exp(-|x - x_center|^2/w^2) exp(-|v - drift|^2)."""
    return {
        "gamma": GAMMA, "d0": 0.2, "epsilon": EPSILON,
        "dims": {"d_x": d_x, "d_v": 2},
        "grid": {"n_x": n_x, "n_v": n_v, "L_x": L_x, "v_max": V_MAX},
        "time": {"t_final": t_final, "dt_max": 0.25, "output_every": output_every},
        "initial_data": {"kind": "gaussian", "parameters": {
            "x_width": 3.5 * L_x / n_x, "v_width": 1.0,
            "x_center": x_center, "drift": list(drift)}},
        "output": {"checkpoint_every": checkpoint_every},
    }


class GaussianData:
    """Free-transport closed forms for the Gaussian data of a config dict."""

    def __init__(self, raw):
        self.d_x = raw["dims"]["d_x"]
        self.d_v = raw["dims"]["d_v"]
        grid = raw["grid"]
        par = raw["initial_data"]["parameters"]
        self.L_x = grid["L_x"]
        self.x = cell_centres(grid["n_x"], 0.5 * grid["L_x"])
        self.v = cell_centres(grid["n_v"], grid["v_max"])
        self.dx = grid["L_x"] / grid["n_x"]
        self.dv = 2.0 * grid["v_max"] / grid["n_v"]
        self.w = par["x_width"]
        self.xc = par["x_center"]
        self.u = np.array(par["drift"], dtype=float)
        self.eps = raw["epsilon"]

    def density(self, t):
        """rho(t, x) = eps pi^{d_v/2} prod_a (1 + t^2/w^2)^{-1/2}
        exp(-(x_a - x_center - u_a t)^2 / (w^2 + t^2)), the velocity integral
        of the free solution f0(x - t v, v)."""
        rho = np.full((1,) * self.d_x, self.eps * math.pi ** (0.5 * self.d_v))
        for a in range(self.d_x):
            y = wrap(self.x - self.xc - self.u[a] * t, self.L_x)
            line = np.exp(-y ** 2 / (self.w ** 2 + t ** 2)) / math.sqrt(1.0 + t ** 2 / self.w ** 2)
            rho = rho * _along(line, a, self.d_x)
        return rho

    def initial_moments(self):
        """Discrete mass and momentum of the sampled initial data."""
        xsum = float(np.sum(np.exp(-((self.x - self.xc) / self.w) ** 2))) * self.dx
        mass = self.eps * xsum ** self.d_x
        mean = np.empty(self.d_v)
        for a in range(self.d_v):
            g = np.exp(-(self.v - self.u[a]) ** 2)
            mass *= float(np.sum(g)) * self.dv
            mean[a] = float(np.sum(self.v * g) / np.sum(g))
        return mass, mass * mean

    def field_density(self, values):
        v_axes = tuple(range(self.d_x, self.d_x + self.d_v))
        return np.sum(values, axis=v_axes) * self.dv ** self.d_v

    def weighted_sup(self):
        """sup <v>^2 <x>^2 f0, the scale of sharp_diff_vs_t0."""
        ndim = self.d_x + self.d_v
        value = np.full((1,) * ndim, self.eps)
        for a in range(self.d_x):
            value = value * _along(np.exp(-((self.x - self.xc) / self.w) ** 2), a, ndim)
        x2 = sum(_along(self.x ** 2, a, ndim) for a in range(self.d_x))
        v2 = 0.0
        for a in range(self.d_v):
            value = value * _along(np.exp(-(self.v - self.u[a]) ** 2), self.d_x + a, ndim)
            v2 = v2 + _along(self.v ** 2, self.d_x + a, ndim)
        return float(np.max((1.0 + v2) * (1.0 + x2) * value))


def _check(name, ok, detail):
    return name, bool(ok), detail


def _relative_max(a, b, scale):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


class GaussianRun:
    """Shared by the workloads that run Gaussian data from a config file."""

    def __init__(self, raw, workdir):
        self.raw = raw
        self.config_path = os.path.join(workdir, f"{self.name}.json")
        self.data = GaussianData(raw)
        self.cfg = None

    def write_inputs(self):
        with open(self.config_path, "w") as fh:
            json.dump(self.raw, fh)

    def setup(self):
        """What a run does before its first step, on warm imports: the
        config, the initial data and its gates, and the kernel tables."""
        self.cfg = config.parse_config(self.config_path)
        data = config.initial_data(self.cfg)
        config.validate_config(self.cfg, data)
        coefficients.kernel_tables(self.cfg.grid(), self.cfg.kernel_params())


# ---------------------------------------------------------------------------
# near_vacuum


class NearVacuum(GaussianRun):
    """`landau run` in-process on criterion 8's config over t in [0, 1].

    gamma = -1, eps = 1e-3, d_x = 1, d_v = 2, n_x = 128, n_v = 64, L_x = 900,
    v_max = 6, x_width = 3.5 L_x / n_x, dt_max = 0.25; a record and a
    checkpoint every 0.5, i.e. every two steps.  The seed draws the centre in
    [-10, 10] and the drift in [-0.08, 0.08]^2.
    """

    name = "near_vacuum"
    ops_per_round = 1
    t_final = 1.0
    output_every = 0.5
    sim_time = t_final

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        super().__init__(gaussian_config(1, 128, 64, 900.0, self.t_final, self.output_every,
                                         float(rng.uniform(-10.0, 10.0)),
                                         rng.uniform(-0.08, 0.08, 2).tolist(),
                                         checkpoint_every=self.output_every), workdir)
        self.outdir = os.path.join(workdir, "near_vacuum_out")

    def round(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["run", "--config", self.config_path, "--output", self.outdir])
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def collect(self, result):
        """Read the run's files back, then delete them for the next round."""
        failed = result["rc"] != 0
        out = dict(result, failed=int(failed), errors=[result["stderr"].strip()] if failed else [])
        ndjson = os.path.join(self.outdir, "diagnostics.ndjson")
        final = os.path.join(self.outdir, "final.lndk")
        if out["failed"] == 0:
            out["ndjson_path"] = ndjson
            out["rows"] = cli.read_ndjson(ndjson)
            out["checkpoints"] = []
            for path in sorted(glob.glob(os.path.join(self.outdir, "checkpoint_*.lndk"))):
                f, _ = cli.load_checkpoint(path)
                out["checkpoints"].append((f.time, f.values))
            f, _ = cli.load_checkpoint(final)
            out["final"] = (f.time, f.values)
        for path in glob.glob(os.path.join(self.outdir, "*")):
            os.remove(path)
        return out

    def check(self, out):
        if out["failed"]:
            return []
        d = self.data
        rows = out["rows"]
        mass0, mom0 = d.initial_moments()
        expected_t = [k * self.output_every for k in range(int(round(self.t_final / self.output_every)) + 1)]
        printed = out["stdout"].splitlines()
        want = [f"wrote {len(rows)} records to {out['ndjson_path']}",
                f"clipped mass {rows[-1]['clipped_mass']:.3e}"]
        times_ok = len(rows) == len(expected_t) and all(
            abs(r["t"] - t) < 1e-9 for r, t in zip(rows, expected_t))
        drift = max(abs(r["mass"] - mass0) - r["clipped_mass"] for r in rows) / mass0
        mom_err = max(float(np.max(np.abs(np.array(r["momentum"]) - mom0)))
                      - V_MAX * r["clipped_mass"] for r in rows) / mass0
        rho_err = 0.0
        for t, values in out["checkpoints"] + [out["final"]]:
            exact = d.density(t)
            tol = EPSILON * t + ROUNDOFF
            rho_err = max(rho_err, _relative_max(d.field_density(values), exact,
                                                 float(np.max(exact))) / tol)
        t_end, final_values = out["final"]
        final_mass = float(np.sum(final_values)) * d.dx * d.dv ** d.d_v
        return [
            _check("ndjson_matches_printed", printed == want and times_ok,
                   f"{len(rows)} records at t = {[r['t'] for r in rows]}"),
            _check("mass", drift <= ROUNDOFF,
                   f"max (|mass - mass0| - clipped) / mass0 = {drift:.2e}"),
            _check("momentum", mom_err <= ROUNDOFF,
                   f"max (|p - p0| - v_max clipped) / mass0 = {mom_err:.2e}"),
            _check("density_vs_free", rho_err <= 1.0,
                   f"max |rho - rho_free| / (peak (eps t + 1e-12)) = {rho_err:.2e}"),
            _check("final_checkpoint",
                   abs(t_end - self.t_final) < 1e-9
                   and abs(final_mass - rows[-1]["mass"]) <= ROUNDOFF * mass0,
                   f"final.lndk at t = {t_end}, mass {final_mass:.15g} vs "
                   f"{rows[-1]['mass']:.15g}"),
        ]


# ---------------------------------------------------------------------------
# free_stream


class FreeStream(GaussianRun):
    """`landau.stepper.run(cfg, transport_only=True)` at d_x = d_v = 2.

    n_x = 48, n_v = 32, L_x = 400, v_max = 6, x_width = 3.5 L_x / n_x,
    eps = 1e-3, dt_max = 0.25, over t in [0, 0.5] with a record every 0.5.
    The seed draws the centre in [-10, 10] and the drift in [-0.08, 0.08]^2.
    """

    name = "free_stream"
    ops_per_round = 1
    t_final = 0.5
    output_every = 0.5
    sim_time = t_final

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        super().__init__(gaussian_config(2, 48, 32, 400.0, self.t_final, self.output_every,
                                         float(rng.uniform(-10.0, 10.0)),
                                         rng.uniform(-0.08, 0.08, 2).tolist()), workdir)

    def round(self):
        try:
            return {"art": stepper.run(self.cfg, transport_only=True)}
        except LandauError as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}

    def collect(self, result):
        if "error" in result:
            return {"failed": 1, "errors": [result["error"]]}
        art = result["art"]
        return {"failed": 0, "errors": [],
                "records": [dataclasses.asdict(r) for r in art.records],
                "final": (art.final.time, art.final.values)}

    def check(self, out):
        if out["failed"]:
            return []
        d = self.data
        mass0, _ = d.initial_moments()
        t_end, values = out["final"]
        exact = d.density(t_end)
        peak = float(np.max(exact))
        rho_err = _relative_max(d.field_density(values), exact, peak)
        sup_err = max(abs(r["rho_sup"] - float(np.max(d.density(r["t"])))) for r in out["records"]) / peak
        scale = d.weighted_sup()
        sharp = max(r["sharp_diff_vs_t0"] for r in out["records"]) / scale
        mass_err = max(abs(r["mass"] - mass0) for r in out["records"]) / mass0
        return [
            _check("density_exact", rho_err <= ROUNDOFF and sup_err <= ROUNDOFF,
                   f"final |rho - rho_free| / peak = {rho_err:.2e}, "
                   f"records' rho_sup {sup_err:.2e}"),
            _check("sharp_frozen", sharp <= 10 * ROUNDOFF,
                   f"max sharp_diff_vs_t0 / sup <v>^2<x>^2 f0 = {sharp:.2e}"),
            _check("mass", mass_err <= ROUNDOFF, f"max |mass - mass0| / mass0 = {mass_err:.2e}"),
        ]


# ---------------------------------------------------------------------------
# maxwellian_fit


def maxwellian_sharp(par, d_x, x, v):
    """M-sharp(x, v) of the traveling Maxwellian family on a tensor grid.

    A Gaussian in u = (v, x) with precision S = [[sigma I, C], [C^T, alpha I]],
    C = (beta I + B) restricted to the first d_x columns, normalised to mass m.
    """
    m, alpha, sigma, beta, b01 = par
    d = 2
    bmat = np.array([[0.0, b01], [-b01, 0.0]])
    s = np.zeros((d + d_x, d + d_x))
    s[:d, :d] = sigma * np.eye(d)
    s[:d, d:] = (beta * np.eye(d) + bmat)[:, :d_x]
    s[d:, :d] = s[:d, d:].T
    s[d:, d:] = alpha * np.eye(d_x)
    ndim = d_x + d
    coords = [_along(v, d_x + a, ndim) for a in range(d)] + [x[a] for a in range(d_x)]
    expo = sum(s[i, j] * coords[i] * coords[j]
               for i in range(d + d_x) for j in range(d + d_x) if s[i, j] != 0.0)
    pref = m * math.sqrt(np.linalg.det(s)) / (2.0 * math.pi) ** (0.5 * (d + d_x))
    return pref * np.exp(-0.5 * expo)


class MaxwellianFit:
    """The `landau maxfit` path, load_checkpoint -> pullback_sharp -> fit_maxwellian.

    One round fits three checkpoints written before timing:
      c9        an in-family traveling Maxwellian with criterion 9's parameters
                on its grid (d_x = 1, n_x = 64, n_v = 64, L_x = 880, v_max = 8),
                at t = 0;
      grid24    an in-family Maxwellian at d_x = d_v = 2 on a 24^4 grid
                (L_x = 26, v_max = 7) with the parameters of
                tests/test_maxwellian.py, at t = 0;
      two_bump  criterion 9's two-bump seed on the c9 grid, observed at a time
                t in [0.5, 5] under free transport.
    The seed draws t and the signs of beta and B on both in-family fields.
    Each sign flip is a mirror of the grid (v_1 -> -v_1, or v_2 and x_2 ->
    their negatives), and the pullback undoes t, so the optimiser's work
    barely moves with the seed.  Perturbing the parameters themselves
    changes the number of Nelder-Mead steps by up to 9x.  The in-family
    fields stay at t = 0 because the c9 Maxwellian is 2e-12 of its peak at
    the box edge, and the seam that a shift drags in lifts the weighted
    residual above 1e-8 of the L2 norm.
    """

    name = "maxwellian_fit"
    ops_per_round = 3
    sim_time = None
    c9_grid = (1, 64, 64, 880.0, 8.0)
    grid24 = (2, 24, 24, 26.0, 7.0)

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        t = float(rng.uniform(0.5, 5.0))
        s = np.where(rng.integers(0, 2, 4) == 1, 1.0, -1.0)
        self.cases = {
            "c9": {"grid": self.c9_grid, "t": 0.0, "in_family": True,
                   "par": (1.3, 2.78e-4, 1.0, s[0] * 1e-3, s[1] * 2e-3)},
            "grid24": {"grid": self.grid24, "t": 0.0, "in_family": True,
                       "par": (1.7, 1.2, 0.9, s[2] * 0.25, s[3] * 0.3)},
            "two_bump": {"grid": self.c9_grid, "t": t, "in_family": False},
        }
        for name, case in self.cases.items():
            case["path"] = os.path.join(workdir, f"{name}.lndk")

    def _field(self, case):
        """The checkpoint's field; records the norms the checks compare against."""
        d_x, n_x, n_v, L_x, v_max = case["grid"]
        x = cell_centres(n_x, 0.5 * L_x)
        v = cell_centres(n_v, v_max)
        if case["in_family"]:
            def sharp(xs):
                return maxwellian_sharp(case["par"], d_x, xs, v)
        else:
            w = 3.5 * L_x / n_x
            vv = [_along(v, d_x + a, d_x + 2) for a in range(2)]

            def sharp(xs):
                bumps = (np.exp(-(vv[0] - 2.0) ** 2 - vv[1] ** 2)
                         + np.exp(-(vv[0] + 2.0) ** 2 - vv[1] ** 2))
                return EPSILON * np.exp(-(xs[0] / w) ** 2) * bumps
        # f(t, x, v) = f_sharp(x - t v, v), the field a run would hold at time t
        field = sharp([wrap(_along(x, a, d_x + 2) - case["t"] * _along(v, d_x + a, d_x + 2), L_x)
                       for a in range(d_x)])
        vol = (L_x / n_x) ** d_x * (2.0 * v_max / n_v) ** 2
        x2 = sum(_along(x ** 2, a, d_x + 2) for a in range(d_x))
        v2 = sum(_along(v ** 2, d_x + a, d_x + 2) for a in range(2))
        at_zero = sharp([_along(x, a, d_x + 2) for a in range(d_x)])
        case["l2"] = math.sqrt(float(np.sum(at_zero ** 2)) * vol)
        case["weighted_l2"] = math.sqrt(float(np.sum(((1 + v2) * (1 + x2) * at_zero) ** 2)) * vol)
        return landau.Grid(d_x, 2, n_x, n_v, L_x, v_max), field

    def write_inputs(self):
        for case in self.cases.values():
            grid, values = self._field(case)
            cli.save_checkpoint(case["path"], landau.DistributionField(case["t"], values, grid),
                                GAMMA)

    def setup(self):
        """`landau maxfit` needs nothing beyond its imports."""

    def round(self):
        fits = {}
        for name, case in self.cases.items():
            try:
                f, _ = cli.load_checkpoint(case["path"])
                fits[name] = maxwellian.fit_maxwellian(transport.pullback_sharp(f))
            except LandauError as exc:
                fits[name] = f"{type(exc).__name__}: {exc}"
        return fits

    def collect(self, result):
        errors = [f"{name}: {fit}" for name, fit in result.items() if isinstance(fit, str)]
        out = {"failed": len(errors), "errors": errors, "fits": {}}
        for name, fit in result.items():
            if not isinstance(fit, str):
                p = fit.params
                out["fits"][name] = {"par": (p.m, p.alpha, p.sigma, p.beta, float(p.B[0, 1])),
                                     "residual": fit.residual}
        return out

    def check(self, out):
        checks = []
        for name, case in self.cases.items():
            fit = out["fits"].get(name)
            if fit is None:
                continue
            if case["in_family"]:
                err = max(abs(a - b) / abs(b) for a, b in zip(fit["par"], case["par"]))
                rel = fit["residual"] / case["l2"]
                checks.append(_check(f"{name}_parameters", err <= 1e-6,
                                     f"max relative parameter error {err:.2e}"))
                checks.append(_check(f"{name}_residual", rel <= 1e-8,
                                     f"residual / L2 norm = {rel:.2e}"))
            else:
                ratio = fit["residual"] / case["weighted_l2"]
                checks.append(_check(f"{name}_residual", ratio >= 0.5,
                                     f"residual / <v>^2<x>^2-weighted norm = {ratio:.3f}"))
        return checks


WORKLOADS = {w.name: w for w in (NearVacuum, FreeStream, MaxwellianFit)}
