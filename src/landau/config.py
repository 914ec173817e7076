"""Run configuration: schema, parsing, validation gates, initial data."""

import json
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import dispersive_window
from .errors import ConfigInvalid, ParseError
from .kernel import KernelParams
from .maxwellian import TravelingMaxwellianParams, maxwellian_sharp_field
from .phase_state import DistributionField, Grid

BOUNDARY_TOL = 1e-14  # Gaussian-dominated data gate at the velocity boundary


@dataclass
class SimulationConfig:
    gamma: float
    d0: float
    epsilon: float
    d_x: int
    d_v: int
    n_x: int
    n_v: int
    L_x: float
    v_max: float
    t_final: float
    cfl_safety: float = 0.5
    dt_max: float = 0.25
    output_every: float = 2.5
    initial_kind: str = "gaussian"
    initial_parameters: dict = field(default_factory=dict)
    fit_window: tuple = None
    output_directory: str = "."
    checkpoint_every: float = 0.0

    def __post_init__(self):
        # the dispersive window of Gaussian-in-x data, else (5, 0.8 t_final)
        if self.fit_window is None and self.initial_kind in ("gaussian", "seed"):
            par = self.initial_parameters
            try:
                self.fit_window = dispersive_window(
                    float(par.get("x_width", 1.0)), float(par.get("v_width", 1.0)),
                    2.0 * self.v_max / self.n_v, self.t_final)
            except ZeroDivisionError:
                pass  # a zero width or velocity grid, which validate_config refuses
        if self.fit_window is None:
            self.fit_window = (5.0, 0.8 * self.t_final)

    def grid(self):
        return Grid(self.d_x, self.d_v, self.n_x, self.n_v, self.L_x, self.v_max)

    def kernel_params(self):
        return KernelParams(self.gamma, self.d_v)


def parse_config(path):
    """Read and validate a JSON run configuration."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from exc
    except OSError as exc:
        raise ParseError(0, str(exc)) from exc
    return config_from_dict(raw)


def config_from_dict(raw):
    try:
        dims = raw.get("dims", {})
        grid = raw.get("grid", {})
        time = raw.get("time", {})
        init = raw.get("initial_data", {})
        diag = raw.get("diagnostics", {})
        out = raw.get("output", {})
        cfg = SimulationConfig(
            gamma=float(raw["gamma"]),
            d0=float(raw.get("d0", 1.0)),
            epsilon=float(raw.get("epsilon", 1e-3)),
            d_x=int(dims.get("d_x", 1)),
            d_v=int(dims.get("d_v", 2)),
            n_x=int(grid.get("n_x", 1)),
            n_v=int(grid["n_v"]),
            L_x=float(grid.get("L_x", 1.0)),
            v_max=float(grid["v_max"]),
            t_final=float(time["t_final"]),
            cfl_safety=float(time.get("cfl_safety", 0.5)),
            dt_max=float(time.get("dt_max", 0.25)),
            output_every=float(time.get("output_every", 2.5)),
            initial_kind=init.get("kind", "gaussian"),
            initial_parameters=init.get("parameters", {}),
            fit_window=tuple(diag["fit_window"]) if "fit_window" in diag else None,
            output_directory=out.get("directory", "."),
            checkpoint_every=float(out.get("checkpoint_every", 0.0)),
        )
    except KeyError as exc:
        raise ParseError(0, f"missing required key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(0, str(exc)) from exc
    validate_config(cfg)
    return cfg


def _padded_vector(params, key, default, d):
    """params[key] as a length-d vector, zero-padded past its given entries."""
    vec = np.zeros(d)
    given = params.get(key, default)
    vec[: len(given)] = given
    return vec


def _x_gaussian(grid, center, width):
    """prod_a exp(-((x_a - center) / width)^2) over the spatial axes, of shape
    (n_x,)*d_x + (1,)*d_v."""
    vals = np.ones((grid.n_x,) * grid.d_x + (1,) * grid.d_v)
    for xm in grid.x_mesh():
        vals = vals * np.exp(-((xm - center) / width) ** 2)
    return vals


def _v_gaussian(grid, u, width):
    """exp(-sum_a ((v_a - u_a) / width)^2) over the velocity axes, of shape
    (1,)*d_x + (n_v,)*d_v."""
    tot = np.zeros((1,) * grid.d_x + (grid.n_v,) * grid.d_v)
    for a, vm in enumerate(grid.v_mesh()):
        tot = tot + ((vm - u[a]) / width) ** 2
    return np.exp(-tot)


def initial_data(cfg: SimulationConfig):
    """Build the initial DistributionField for a config.

    The Gaussian and seed kinds are a product of a factor in x and one in v,
    each built on its own axes, so only the product spans the grid.
    """
    grid = cfg.grid()
    params = dict(cfg.initial_parameters)
    if cfg.initial_kind in ("gaussian", "seed"):
        x_width = float(params.get("x_width", 1.0))
        v_width = float(params.get("v_width", 1.0))
        if cfg.initial_kind == "gaussian":
            drift = _padded_vector(params, "drift", [], grid.d_v)
            vals = (_x_gaussian(grid, float(params.get("x_center", 0.0)), x_width)
                    * _v_gaussian(grid, drift, v_width))
        else:
            # Two separated velocity bumps: deliberately far from any single
            # traveling Maxwellian, the generic non-Maxwellian seed.
            u = _padded_vector(params, "bump_velocity", [2.0], grid.d_v)
            vals = _x_gaussian(grid, 0.0, x_width) * (_v_gaussian(grid, u, v_width)
                                                       + _v_gaussian(grid, -u, v_width))
    elif cfg.initial_kind == "maxwellian":
        d = grid.d_v
        b = np.array(params.get("B", np.zeros((d, d))), dtype=float)
        mp = TravelingMaxwellianParams(
            m=float(params.get("m", 1.0)),
            alpha=float(params.get("alpha", 1.0)),
            sigma=float(params.get("sigma", 1.0)),
            beta=float(params.get("beta", 0.0)),
            B=b,
        )
        vals = maxwellian_sharp_field(mp, grid).values
    else:
        raise ConfigInvalid("initial_data", f"unknown kind {cfg.initial_kind!r}")
    return DistributionField(0.0, cfg.epsilon * vals, grid)


def support_radius(f: DistributionField):
    """Largest |x| of a cell whose v-slice exceeds BOUNDARY_TOL * max f."""
    grid = f.grid
    if grid.d_x == 0:
        return 0.0
    peak = float(np.max(f.values))
    if peak <= 0.0:
        return 0.0
    v_axes = tuple(range(grid.d_x, grid.d_x + grid.d_v))
    slab = np.max(f.values, axis=v_axes)
    live = slab > BOUNDARY_TOL * peak
    if not np.any(live):
        return 0.0
    ax = np.abs(grid.x_axis())
    rad = 0.0
    for a in range(grid.d_x):
        other = tuple(i for i in range(grid.d_x) if i != a)
        line = np.any(live, axis=other) if other else live
        rad = max(rad, float(np.max(ax[line])))
    return rad


def boundary_fraction(f: DistributionField):
    """max f on the velocity-box boundary cells relative to max f."""
    peak = float(np.max(f.values))
    if peak <= 0.0:
        return 0.0
    worst = 0.0
    nd = f.values.ndim
    for a in range(f.grid.d_v):
        ax = nd - f.grid.d_v + a
        for idx in (0, -1):
            sl = [slice(None)] * nd
            sl[ax] = idx
            worst = max(worst, float(np.max(f.values[tuple(sl)])))
    return worst / peak


def validate_config(cfg: SimulationConfig, data: DistributionField = None):
    """Gate checks; raises ConfigInvalid naming the violated gate."""
    if not (-2.0 < cfg.gamma < 0.0):
        raise ConfigInvalid("gamma", "gamma must lie in (-2, 0)")
    if cfg.d_v not in (2, 3):
        raise ConfigInvalid("dims", "collision runs need d_v in {2, 3}")
    if cfg.d_x > cfg.d_v:
        raise ConfigInvalid("dims", "d_x must not exceed d_v")
    if not (0.0 < cfg.cfl_safety <= 1.0):
        raise ConfigInvalid("cfl_safety", "cfl_safety must lie in (0, 1]")
    if cfg.t_final < 0.0 or cfg.dt_max <= 0.0 or cfg.output_every <= 0.0:
        raise ConfigInvalid("time", "time controls must be positive")
    try:
        cfg.grid()
    except ValueError as exc:  # malformed grid numbers
        raise ConfigInvalid("grid", str(exc)) from exc
    if data is None and cfg.epsilon > 0.0:
        data = initial_data(cfg)
    if data is not None and cfg.epsilon > 0.0:
        if cfg.d_x > 0:
            rad = support_radius(data)
            if cfg.v_max * cfg.t_final + rad > 0.5 * cfg.L_x:
                raise ConfigInvalid(
                    "no-wrap",
                    f"v_max*t_final + support = {cfg.v_max * cfg.t_final + rad:.3g}"
                    f" > L_x/2 = {0.5 * cfg.L_x:.3g}")
        frac = boundary_fraction(data)
        if frac > BOUNDARY_TOL:
            raise ConfigInvalid(
                "gaussian-dominated",
                f"data at the velocity boundary is {frac:.3g} of max f")
    return cfg
