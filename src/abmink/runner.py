"""Config parsing, scenario dispatch and report emission.

Config files are flat UTF-8 ``key = value`` documents, one scenario per
file.  Every physical key carries its unit in the name (``E0_V_per_m``,
``a_m``, ...) so there is no unit inference anywhere.  Example::

    scenario = wgm
    a_m = 100e-6
    P0_W = 100
    omega0_rad_per_s = 1000
    # n defaults to 1.45 (fused silica)

Optional keys: ``tag = abraham|minkowski|both`` and a linear parameter sweep
``sweep = <param>:[<lo>,<hi>,<count>]``.

Running a request is deterministic: the same request produces byte-identical
reports.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from . import covariant, scenarios
from .core import (
    SI,
    FieldPoint,
    Medium,
    MomentumTag,
    RegimeError,
    interface_pressure,
    mechanical_momentum_density,
    momentum_density,
)

__all__ = [
    "SCENARIO_NAMES",
    "DEFAULT_TOL",
    "MAX_SWEEP_COUNT",
    "ConfigError",
    "SweepSpec",
    "ScenarioRequest",
    "ScenarioReport",
    "CheckResult",
    "parse_config",
    "run",
    "emit",
    "parse_tolerance",
    "check_suite",
]

DEFAULT_TOL = 1e-6

# Largest sweep count a config may ask for: it bounds the arrays a sweep
# allocates (the mirror evaluates all of its points in one batch).
MAX_SWEEP_COUNT = 100_000


class ConfigError(ValueError):
    """A config document is malformed or inconsistent with its scenario."""


_REQUIRED = object()

# key -> (lower bound, whether the bound itself is allowed); finiteness is
# required of every number.  n, n0, n_from and n_to are refractive indices in
# every scenario that has them, and no medium is optically rarer than vacuum.
_LOWER_BOUNDS = {
    "guard_k_over_alpha": (0.0, False),
    "quadrature_tol": (0.0, False),
    "n": (1.0, True),
    "n0": (1.0, True),
    "n_from": (1.0, True),
    "n_to": (1.0, True),
    "mu_r": (0.0, False),
    "grid_step": (0.0, False),
}

@dataclass(frozen=True)
class SweepSpec:
    param: str
    lo: float
    hi: float
    count: int


@dataclass(frozen=True)
class ScenarioRequest:
    scenario: str
    params: dict[str, float]
    tag: MomentumTag | None = None
    sweep: SweepSpec | None = None


@dataclass
class ScenarioReport:
    scenario: str
    params: dict[str, float]
    tag: str
    sweep: dict | None
    provenance: str
    columns: list[str]
    rows: list[list]
    residuals: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.bound


_SWEEP_RE = re.compile(
    r"^\s*([A-Za-z0-9_]+)\s*:\s*\[\s*([^,\]]+)\s*,\s*([^,\]]+)\s*,\s*([^,\]]+)\s*\]\s*$"
)


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"value for '{key}' is not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"value for '{key}' must be finite, got {raw!r}")
    return value


def parse_config(text: str) -> ScenarioRequest:
    """Parse and validate a config document into a ScenarioRequest.

    Applies scenario defaults, rejects unknown scenarios and keys (a wrong
    unit suffix shows up as an unknown key), and reports every problem with
    the offending key name.
    """
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.split("#", 1)[0].strip()
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        pairs[key] = raw

    if "scenario" not in pairs:
        raise ConfigError("missing required key 'scenario'")
    scenario = pairs.pop("scenario")
    if scenario not in _SCENARIOS:
        raise ConfigError(
            f"unknown scenario '{scenario}'; expected one of: "
            + ", ".join(SCENARIO_NAMES)
        )
    schema = _SCENARIOS[scenario].keys

    raw = pairs.pop("tag", "both").lower()
    try:
        tag = None if raw == "both" else MomentumTag(raw)
    except ValueError:
        raise ConfigError(
            f"tag must be abraham, minkowski or both, got '{raw}'") from None

    sweep: SweepSpec | None = None
    if "sweep" in pairs:
        raw = pairs.pop("sweep")
        m = _SWEEP_RE.match(raw)
        if m is None:
            raise ConfigError(
                f"sweep must look like 'param:[lo,hi,count]', got '{raw}'"
            )
        param = m.group(1)
        if param not in schema:
            raise ConfigError(
                f"sweep parameter '{param}' is not a parameter of scenario "
                f"'{scenario}'"
            )
        lo = _parse_float("sweep lo", m.group(2))
        hi = _parse_float("sweep hi", m.group(3))
        if not math.isfinite(hi - lo):  # linspace would give nan and inf
            raise ConfigError(f"sweep span must be finite, got {lo!r} to {hi!r}")
        raw_count = m.group(4).strip()
        if (re.fullmatch(r"[0-9]+", raw_count) is None
                or not 2 <= int(raw_count) <= MAX_SWEEP_COUNT):
            raise ConfigError(
                f"sweep count must be an integer >= 2 and <= {MAX_SWEEP_COUNT}, "
                f"got {raw_count!r}")
        count = int(raw_count)
        if not _SCENARIOS[scenario].sweepable:
            raise ConfigError(f"scenario '{scenario}' does not support sweeps")
        sweep = SweepSpec(param=param, lo=lo, hi=hi, count=count)

    params: dict[str, float] = {}
    for key, raw in pairs.items():
        if key not in schema:
            raise ConfigError(
                f"unknown key '{key}' for scenario '{scenario}'; allowed keys: "
                + ", ".join(schema)
            )
        params[key] = _parse_float(key, raw)

    for key, default in schema.items():
        if key in params:
            continue
        if sweep is not None and key == sweep.param:
            continue  # supplied per sweep point
        if default is _REQUIRED:
            raise ConfigError(
                f"missing required parameter '{key}' for scenario '{scenario}'"
            )
        params[key] = float(default)  # type: ignore[arg-type]

    swept = {} if sweep is None else {sweep.param: min(sweep.lo, sweep.hi)}
    for key, (bound, inclusive) in _LOWER_BOUNDS.items():
        value = min(params.get(key, math.inf), swept.get(key, math.inf))
        if value < bound or (value == bound and not inclusive):
            raise ConfigError(f"'{key}' must be {'>=' if inclusive else '>'} "
                              f"{bound:g}, got {value!r}")

    return ScenarioRequest(scenario=scenario, params=params, tag=tag, sweep=sweep)


# ---------------------------------------------------------------------------
# Per-scenario evaluation
# ---------------------------------------------------------------------------

def _tags(tag: MomentumTag | None):
    if tag is None:
        return (MomentumTag.MINKOWSKI, MomentumTag.ABRAHAM)
    return (tag,)


def _checked(cls, **fields):
    return cls(**fields)


def _unchecked(cls, **fields):
    """A ``cls`` holding ``fields`` as given, without its checks.

    The closed-form functions only read a config's fields, so one config
    whose fields are (m,) arrays evaluates m points; each row has passed the
    checks of a scalar ``cls`` before.
    """
    config = object.__new__(cls)
    config.__dict__.update(fields)
    return config


# A scenario's config from its parameters, through make = _checked (one
# point, raising the config's rejection message) or _unchecked (arrays).

def _drag_config(p, make=_checked):
    return make(scenarios.DragConfig, intensity=p["intensity_W_per_m2"],
                sigma_a=p["sigma_a_m2"], omega=p["omega_rad_per_s"], n=p["n"])


def _wgm_config(p, make=_checked):
    return make(scenarios.TorqueConfig, n=p["n"], a=p["a_m"], P0=p["P0_W"],
                omega0=p["omega0_rad_per_s"])


def _sphere_config(p, make=_checked):
    # the two fluids are Medium.from_index(n, viscosity=...)
    return make(scenarios.SphereKickConfig, M=p["M_kg"], a=p["a_m"],
                deltaG=p["deltaG_kg_m_per_s"], pulse_energy=p["pulse_energy_J"],
                fluid=make(Medium, eps_r=p["n"] * p["n"], n=p["n"],
                           viscosity=p["viscosity_Pa_s"]),
                L0=p["L0_m"],
                reference_fluid=make(Medium, eps_r=p["n0"] * p["n0"], n=p["n0"],
                                     viscosity=p["viscosity0_Pa_s"]))


def _drag_columns(p, tag):
    cfg = _drag_config(p, _unchecked)
    cols = {key: p[key] for key in ("n", "intensity_W_per_m2", "sigma_a_m2",
                                    "omega_rad_per_s")}
    for t in _tags(tag):
        cols[f"field_{t.value}_V_per_m"] = scenarios.photon_drag_field(cfg, t)
    if tag is None:
        cols["minkowski_to_abraham_ratio"] = (
            cols["field_minkowski_V_per_m"] / cols["field_abraham_V_per_m"])
    return cols


def _wgm_columns(p, tag):
    cfg = _wgm_config(p, _unchecked)
    cols = {key: p[key] for key in ("n", "a_m", "P0_W", "omega0_rad_per_s", "t_s")}
    for t in _tags(tag):
        res = scenarios.wgm_torque(cfg, p["t_s"], t)
        cols[f"torque_{t.value}_N_m"] = res.torque
        cols[f"amplitude_{t.value}_N_m"] = res.amplitude
    return cols


def _sphere_columns(p, tag):
    cfg = _sphere_config(p, _unchecked)
    cols = {key: p[key] for key in ("M_kg", "a_m", "deltaG_kg_m_per_s",
                                    "pulse_energy_J", "n", "viscosity_Pa_s",
                                    "L0_m")}
    for t in _tags(tag):
        cols[f"vmax_{t.value}_m_per_s"] = scenarios.sphere_kick_vmax(cfg, t)
        cols[f"L_{t.value}_m"] = scenarios.sphere_total_displacement(cfg, t)
        cols[f"ratio_{t.value}"] = scenarios.displacement_ratio(cfg, t)
    cols["correction_magnitude"] = scenarios.displacement_correction(
        p["pulse_energy_J"], p["a_m"], p["L0_m"], p["viscosity0_Pa_s"])
    return cols


def _fiber_columns(p, tag):
    return {"pulse_energy_J": p["pulse_energy_J"], "n": p["n"],
            "impulse_N_s": scenarios.fiber_exit_impulse(p["pulse_energy_J"],
                                                        p["n"])}


def _bec_columns(p, tag):
    return {"n": p["n"], "omega_rad_per_s": p["omega_rad_per_s"],
            "recoil_kg_m_per_s": scenarios.bec_recoil(p["n"],
                                                      p["omega_rad_per_s"])}


def _interface_columns(p, tag):
    return {"E_t_V_per_m": p["E_t_V_per_m"], "n_from": p["n_from"],
            "n_to": p["n_to"],
            "pressure_Pa": interface_pressure(p["E_t_V_per_m"], p["n_from"],
                                              p["n_to"])}


def _covariant_check_rows(n: float, mu_r: float, grid_step: float):
    """Deterministic covariant self-checks (reduced units, c = 1): check
    name -> value, and residual name -> value."""
    rng = np.random.default_rng(20240811)
    eps_r = n * n / mu_r
    rest = covariant.FourVelocity.rest()
    const_err = 0.0
    for _ in range(16):
        E = rng.normal(size=3)
        B = rng.normal(size=3)
        F = covariant.field_tensor_from_EB(E, B)
        H = covariant.excitation_from_constitutive(F, rest, n, mu_r)
        scale = max(np.max(np.abs(E)), np.max(np.abs(B)), 1e-300)
        const_err = max(
            const_err,
            float(np.max(np.abs(H.D - eps_r * E))) / scale,
            float(np.max(np.abs(H.H - B / mu_r))) / scale,
        )

    sampler = covariant.plane_wave_sampler(n=n, mu_r=mu_r,
                                           omega=2.0 * math.pi, E0=1.0)
    x = np.array([0.123, 0.0, 0.0])
    t = 0.077
    res = [np.linalg.norm(covariant.divergence_residual(sampler, x, t, h))
           for h in (grid_step, grid_step / 2.0, grid_step / 4.0)]
    ratios = (res[0] / res[1], res[1] / res[2])

    F, Hx = sampler(x, 0.0)
    S = covariant.minkowski_tensor4(F, Hx)
    cls_m = covariant.classify_four_momentum(
        covariant.pulse_four_momentum(S, 1.0, MomentumTag.MINKOWSKI))
    cls_a = covariant.classify_four_momentum(
        covariant.pulse_four_momentum(S, 1.0, MomentumTag.ABRAHAM))
    vac = covariant.plane_wave_sampler(n=1.0, mu_r=1.0, omega=2.0 * math.pi,
                                       E0=1.0)(x, 0.0)
    S_vac = covariant.minkowski_tensor4(*vac)
    cls_vac = covariant.classify_four_momentum(
        covariant.pulse_four_momentum(S_vac, 1.0, MomentumTag.MINKOWSKI))

    checks = {
        "constitutive_rest_frame_max_rel_err": const_err,
        "divergence_ratio_coarse": ratios[0],
        "divergence_ratio_fine": ratios[1],
        "four_momentum_class_minkowski": cls_m,
        "four_momentum_class_abraham": cls_a,
        "four_momentum_class_vacuum": cls_vac,
    }
    residuals = {
        "constitutive_max_rel_err": const_err,
        "divergence_ratio_err": max(abs(r / 4.0 - 1.0) for r in ratios),
    }
    return checks, residuals


def _where(sweep: SweepSpec | None, value) -> str:
    return "" if sweep is None else f"{sweep.param}={value:g}: "


def _sweep_values(sweep: SweepSpec | None):
    return [None] if sweep is None else np.linspace(sweep.lo, sweep.hi,
                                                    sweep.count)


def _evaluate_closed_form(request: ScenarioRequest):
    """All sweep points at once: the swept key goes through the scenario's
    closed-form functions as an (m,) array, once per tag."""
    form = _SCENARIOS[request.scenario]
    sweep, values = request.sweep, _sweep_values(request.sweep)
    rejected: dict[int, str] = {}  # row -> message
    if form.check is not None:
        swept = {} if sweep is None else {sweep.param: values}
        cleared = form.cleared(dict(request.params, **swept))
        for i in np.flatnonzero(~np.broadcast_to(cleared, len(values))):
            point = dict(request.params)
            if sweep is not None:
                point[sweep.param] = float(values[i])
            try:
                form.check(point)
            except ValueError as exc:
                rejected[i] = str(exc)
    ok = np.delete(np.arange(len(values)), list(rejected))
    columns, rows = {}, []
    if ok.size:
        # numpy scalars: a division by zero or an overflow gives inf or nan
        p = {key: np.float64(v) for key, v in request.params.items()}
        if sweep is not None:
            p[sweep.param] = values[ok] if rejected else values
        with np.errstate(all="ignore"):
            columns = form.columns(p, request.tag)
            table, bad = scenarios._non_finite(columns)
        rejected.update((ok[j], message) for j, message in bad.items())
        rows = np.delete(table, list(bad), axis=0).tolist()
    errors = [f"{_where(sweep, values[i])}{rejected[i]}" for i in sorted(rejected)]
    return list(columns) if rows else [], rows, {}, errors


def _evaluate_mirror(request: ScenarioRequest):
    """All sweep points in one batch; the three-way spread is the residual."""
    sweep, values = request.sweep, _sweep_values(request.sweep)
    p = dict(request.params, **({} if sweep is None else {sweep.param: values}))
    b = scenarios.mirror_batch(p["n"], p["E0_V_per_m"], p["omega_rad_per_s"],
                               p["sigma_S_per_m"], p["guard_k_over_alpha"],
                               p["quadrature_tol"])
    ok = [i for i, exc in enumerate(b.errors) if exc is None]
    rows = np.column_stack(list(b.columns.values()))[ok].tolist()
    errors = [f"{_where(sweep, value)}{exc}"
              for value, exc in zip(values, b.errors) if exc is not None]
    residuals = {} if b.spread is None else {"three_way_max_rel_diff": b.spread}
    return list(b.columns) if rows else [], rows, residuals, errors


def _evaluate_covariant(request: ScenarioRequest):
    """One row per check; a value that is not finite is an error instead
    (a coarse grid_step can make the convergence ratios nan)."""
    p = request.params
    with np.errstate(all="ignore"):
        checks, residuals = _covariant_check_rows(p["n"], p["mu_r"], p["grid_step"])
    errors = {name: scenarios._non_finite({name: value})[1][0]
              for name, value in (checks | residuals).items()
              # the four-momentum classes are words
              if not isinstance(value, str) and not math.isfinite(value)}
    return (["check", "value"],
            [[name, value] for name, value in checks.items() if name not in errors],
            {name: value for name, value in residuals.items() if name not in errors},
            list(errors.values()))


class _Scenario(NamedTuple):
    """What the runner knows about one scenario.

    ``keys`` maps each parameter (its unit in the name) to its default,
    _REQUIRED for a mandatory one.  ``evaluate(request)`` returns the
    report's (columns, rows, residuals, errors).  A closed-form scenario,
    evaluated by _evaluate_closed_form, also has ``columns(p, tag)``, which
    maps parameters (the swept one an (m,) array) to report columns, each
    an (m,) array or a value shared by all rows.  ``check(p)`` raises the
    ValueError rejecting one point; ``cleared(p)`` marks the rows it surely
    accepts, the only rows that skip it.
    """

    keys: dict[str, object]
    provenance: str
    evaluate: Callable = _evaluate_closed_form
    columns: Callable | None = None
    check: Callable | None = None
    cleared: Callable | None = None
    sweepable: bool = True


_SCENARIOS = {
    "mirror": _Scenario(
        keys={"n": _REQUIRED, "E0_V_per_m": _REQUIRED,
              "omega_rad_per_s": _REQUIRED, "sigma_S_per_m": _REQUIRED,
              "guard_k_over_alpha": 0.2, "quadrature_tol": 1e-8},
        provenance=("sigma_x = (n/c)(1+R) S_i with R = 1 - 2 k/alpha; "
                    "Lorentz route (mu0 sigma/2) Re int E_y H_z* dx; "
                    "transport route c g_x / n plus n R S_i / c"),
        evaluate=_evaluate_mirror),
    "drag": _Scenario(
        keys={"intensity_W_per_m2": _REQUIRED, "sigma_a_m2": _REQUIRED,
              "omega_rad_per_s": _REQUIRED, "n": _REQUIRED},
        provenance=("I sigma_a p / (hbar omega) = e E with p = hbar n omega / c "
                    "(minkowski) or hbar omega / (n c) (abraham)"),
        columns=_drag_columns, check=_drag_config, cleared=lambda p: (
            (p["intensity_W_per_m2"] > 0.0) & (p["sigma_a_m2"] > 0.0)
            & (p["omega_rad_per_s"] > 0.0) & (p["n"] > 0.0))),
    "wgm": _Scenario(
        keys={"a_m": _REQUIRED, "P0_W": _REQUIRED,
              "omega0_rad_per_s": _REQUIRED, "n": 1.45, "t_s": 0.0},
        provenance=("N_z = -((n^2-1)/c^2) 2 pi a^2 omega0 P0 sin(omega0 t); "
                    "identically zero under minkowski"),
        columns=_wgm_columns, check=_wgm_config, cleared=lambda p: (
            (p["a_m"] > 0.0) & (p["omega0_rad_per_s"] > 0.0) & (p["P0_W"] >= 0.0)
            & (p["n"] >= 1.0))),
    "sphere-kick": _Scenario(
        keys={"M_kg": _REQUIRED, "a_m": _REQUIRED,
              "deltaG_kg_m_per_s": _REQUIRED, "pulse_energy_J": _REQUIRED,
              "n": _REQUIRED, "viscosity_Pa_s": _REQUIRED, "L0_m": _REQUIRED,
              "n0": 1.0, "viscosity0_Pa_s": 1.8e-5},
        provenance=("M v_max = deltaG + p_pulse with p_pulse = n H / c "
                    "(minkowski) or H / (n c) (abraham); "
                    "v(t) = v_max exp(-6 pi mu a t / M); "
                    "L/L0 correction scale H / (6 pi a c L0 mu0)"),
        # displacement_ratio holds the check on L0; a finite n >= 1 always
        # gives a consistent Medium
        columns=_sphere_columns, check=lambda p: scenarios.displacement_ratio(
            _sphere_config(p), MomentumTag.MINKOWSKI), cleared=lambda p: (
            (p["M_kg"] > 0.0) & (p["a_m"] > 0.0) & (p["pulse_energy_J"] >= 0.0)
            & (p["L0_m"] > 0.0) & (p["viscosity_Pa_s"] > 0.0)
            & (p["viscosity0_Pa_s"] > 0.0) & np.isfinite(p["n"]) & (p["n"] >= 1.0)
            & np.isfinite(p["n0"]) & (p["n0"] >= 1.0))),
    "fiber": _Scenario(
        keys={"pulse_energy_J": _REQUIRED, "n": _REQUIRED},
        provenance="J = (n - 1) H / c along propagation", columns=_fiber_columns),
    "bec": _Scenario(
        keys={"n": _REQUIRED, "omega_rad_per_s": _REQUIRED},
        provenance="p = hbar n omega / c", columns=_bec_columns),
    "interface": _Scenario(
        keys={"E_t_V_per_m": _REQUIRED, "n_from": _REQUIRED, "n_to": _REQUIRED},
        provenance="P = (eps0/2) E_t^2 (n_from^2 - n_to^2), positive toward n_to",
        columns=_interface_columns),
    "covariant-checks": _Scenario(
        keys={"n": 1.5, "mu_r": 1.0, "grid_step": 1e-3},
        provenance=("rest-frame constitutive reduction; second-order "
                    "convergence of the four-divergence residual; "
                    "four-momentum classification"),
        evaluate=_evaluate_covariant, sweepable=False),
}

SCENARIO_NAMES = tuple(_SCENARIOS)


def run(request: ScenarioRequest) -> ScenarioReport:
    """Evaluate a request into a report; pure and deterministic.

    Scenario preconditions violated at a sweep point (for example the
    good-conductor bound) become entries in ``report.errors`` carrying the
    violated bound and the supplied value; in-regime points still produce
    rows.
    """
    scenario = _SCENARIOS[request.scenario]
    columns, rows, residuals, errors = scenario.evaluate(request)
    return ScenarioReport(
        scenario=request.scenario,
        params=dict(request.params),
        tag="both" if request.tag is None else request.tag.value,
        sweep=None if request.sweep is None else asdict(request.sweep),
        provenance=scenario.provenance,
        columns=columns, rows=rows, residuals=residuals, errors=errors)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _float_rows(report: ScenarioReport) -> bool:
    """Whether every row holds one exact float per column, so that one
    %-template renders all rows the way the per-cell formatting would."""
    width = len(report.columns)
    return (width > 0 and set(map(len, report.rows)) <= {width}
            and set(map(type, chain.from_iterable(report.rows))) <= {float})


def emit(report: ScenarioReport, fmt: str = "table") -> bytes:
    """Render a report as 'table', 'csv' or 'json' bytes."""
    if fmt == "json":
        payload = dict(vars(report))  # the report's fields, in their order
        # a sum that merely overflows sends finite rows the slow way too
        if not (report.rows and _float_rows(report)
                and math.isfinite(sum(map(sum, report.rows)))):
            return (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode()
        # json writes a float as float.__repr__ (%r); the rows go where the
        # document holds an empty list, the only top-level key "rows"
        payload["rows"] = []
        head, key, tail = json.dumps(payload, indent=2, allow_nan=False).partition(
            '\n  "rows": [')
        row = "    [\n" + ",\n".join(["      %r"] * len(report.columns)) + "\n    ]"
        rows = ",\n".join([row] * len(report.rows)) % tuple(
            chain.from_iterable(report.rows))
        return f"{head}{key}\n{rows}\n  {tail}\n".encode()

    if fmt == "csv":
        header = ",".join(report.columns)
        # 17 significant digits: parses back to the identical double
        if _float_rows(report):
            row = ",".join(["%.16e"] * len(report.columns))
            rows = ("\n" + row) * len(report.rows) % tuple(
                chain.from_iterable(report.rows))
            return (header + rows + "\n").encode()
        lines = [header]
        for row in report.rows:
            lines.append(",".join(
                format(v, ".16e") if isinstance(v, float) else str(v) for v in row))
        return ("\n".join(lines) + "\n").encode()

    if fmt == "table":
        cells = [[f"{v:.6e}" if isinstance(v, float) else str(v) for v in row]
                 for row in report.rows]
        widths = [max(len(name), *(len(r[i]) for r in cells), 1)
                  if cells else len(name)
                  for i, name in enumerate(report.columns)]
        lines = [f"# scenario: {report.scenario}  (tag: {report.tag})",
                 f"# {report.provenance}"]
        lines.append("  ".join(name.ljust(w)
                               for name, w in zip(report.columns, widths)))
        for r in cells:
            lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
        for key, val in report.residuals.items():
            lines.append(f"# residual {key} = {val:.6e}")
        for err in report.errors:
            lines.append(f"# error: {err}")
        return ("\n".join(lines) + "\n").encode()

    raise ValueError(f"unknown format '{fmt}'; expected table, csv or json")


# ---------------------------------------------------------------------------
# Built-in cross-check suite
# ---------------------------------------------------------------------------

def parse_tolerance(tol) -> float:
    """``tol`` as a float, which must be finite and > 0 (ValueError otherwise)."""
    try:
        value = float(tol)
    except (TypeError, ValueError):
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"tolerance must be a finite number > 0, got {tol!r}")
    return value


def check_suite(tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Three structural cross-checks on the whole stack.

    1. The three independent mirror-pressure routes agree over a small
       in-regime parameter grid.
    2. The four-divergence residual of the plane-wave energy-momentum tensor
       shrinks by 4x per halving of the grid step.
    3. Over seeded random nonmagnetic field points, the Abraham momentum plus
       the accompanying mechanical momentum equals the Minkowski momentum,
       which is n^2 times the Abraham momentum.
    """
    tol = parse_tolerance(tol)
    results = []

    sweep = scenarios.mirror_three_way_sweep(
        n_values=(1.0, 1.3, 1.6), sigma_values=(1e7, 1e8),
        omega_values=(2.6e15, 4.0e15), quadrature_tol=1e-8)
    results.append(CheckResult(
        name="three-way-mirror",
        residual=max(pt["max_rel_diff"] for pt in sweep),
        bound=tol))

    _, residuals = _covariant_check_rows(n=1.5, mu_r=1.0, grid_step=1e-3)
    results.append(CheckResult(name="divergence-convergence",
                               residual=residuals["divergence_ratio_err"],
                               bound=0.2))

    # the seeded stream of the point-by-point draws, evaluated as one stack
    count = 1000
    rng = np.random.default_rng(7)
    n, E, H = np.empty(count), np.empty((count, 3)), np.empty((count, 3))
    for i in range(count):
        n[i] = rng.uniform(1.0, 2.0)
        E[i] = rng.normal(size=3)
        H[i] = rng.normal(size=3)
    medium = Medium.from_index(n)
    fp = FieldPoint.from_EH(medium, E, H / SI.mu0 / SI.c)
    g_a = momentum_density(fp, MomentumTag.ABRAHAM)
    g_m = momentum_density(fp, MomentumTag.MINKOWSKI)
    g_mech = mechanical_momentum_density(medium, fp)
    scale = np.max(np.abs(g_m), axis=1)
    kept = scale != 0.0
    rel = [np.max(np.abs(d), axis=1)[kept] / scale[kept]
           for d in (g_a + g_mech - g_m, (n * n)[:, None] * g_a - g_m)]
    worst = float(np.max(rel, initial=0.0))
    results.append(CheckResult(name="momentum-ledger", residual=worst,
                               bound=tol))
    return results
