"""Config parsing, scenario dispatch, report emission and the check suite.

Config files are flat UTF-8 ``key = value`` documents, one scenario per
file.  Every physical key carries its unit in the name (``E0_V_per_m``,
``a_m``, ...) so there is no unit inference anywhere.  Example::

    scenario = wgm
    a_m = 100e-6
    P0_W = 100
    omega0_rad_per_s = 1000
    # n defaults to 1.45 (fused silica)

Optional keys: ``tag = abraham|minkowski|both`` and a linear parameter sweep
``sweep = <param>:[<lo>,<hi>,<count>]``.  A swept key may not also be set.

Running a request is deterministic: the same request produces byte-identical
reports.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
from dataclasses import dataclass, field, fields
from types import MappingProxyType, SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import covariant, scenarios
from .core import (
    SI,
    FieldPoint,
    Medium,
    MomentumTag,
    bounds,
    check_rules,
    interface_pressure,
    mechanical_momentum_density,
    momentum_density,
    unchecked,
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
# Largest divergence_ratio_err, the ratios' distance from the 4x per halving
# of grid_step that second-order convergence gives, a covariant check passes.
_RATIO_ERR_BOUND = 0.2

# Largest sweep count a config may ask for: it bounds the arrays a sweep
# allocates (the mirror evaluates all of its points in one batch).
MAX_SWEEP_COUNT = 100_000


class ConfigError(ValueError):
    """A config document is malformed or inconsistent with its scenario."""


_REQUIRED = object()

# parse-time bounds, for each scenario that has the key (every number must also
# be finite): no medium, whatever its index key, is optically rarer than vacuum
_LOWER_BOUNDS = bounds(guard_k_over_alpha="> 0", n=">= 1", n0=">= 1", n_from=">= 1",
                       n_to=">= 1", mu_r="> 0", grid_step="> 0")

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


@dataclass(frozen=True, eq=False)
class ScenarioReport:
    """A scenario's report, frozen: ``dataclasses.replace`` derives an edited
    one.  ``run`` gives an all-float scenario its rows as one read-only
    (m, k) float64 table, whose ``tolist()`` is the lists of Python floats;
    ``covariant-checks`` and a report constructed by hand hold lists of cells.
    Two reports are equal field by field, their rows by numpy.array_equal.
    """

    scenario: str
    params: dict[str, float]
    tag: str
    sweep: dict | None
    provenance: str
    columns: list[str]
    rows: np.ndarray | list[list]
    residuals: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(self.rows, other.rows) if name == "rows"
                   else getattr(self, name) == getattr(other, name) for name in _FIELDS)


_FIELDS = [f.name for f in fields(ScenarioReport)]  # a report's JSON keys, in order


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
    try:  # float() also takes 1_5 and digits that are not ASCII
        value = float(raw if raw.isascii() and "_" not in raw else "?")
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
    text = text.removeprefix("\ufeff")  # the byte order mark some editors save
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
        if param in pairs:
            raise ConfigError(f"'{param}' is both set and swept: drop one of the two")
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
        if key in params or (sweep is not None and key == sweep.param):
            continue  # set, or supplied per sweep point
        if default is _REQUIRED:
            raise ConfigError(
                f"missing required parameter '{key}' for scenario '{scenario}'"
            )
        params[key] = float(default)  # type: ignore[arg-type]

    swept = {} if sweep is None else {sweep.param: min(sweep.lo, sweep.hi)}
    values = SimpleNamespace(**params, **swept)
    for fails, message, _ in _LOWER_BOUNDS:
        key, text = message.split(" ", 1)  # each message starts with its key
        if hasattr(values, key) and fails(values):
            raise ConfigError(f"'{key}' " + text.format(c=values))

    return ScenarioRequest(scenario=scenario, params=params, tag=tag, sweep=sweep)


# ---------------------------------------------------------------------------
# Per-scenario evaluation
# ---------------------------------------------------------------------------

def _tags(tag: MomentumTag | None):
    if tag is None:
        return (MomentumTag.MINKOWSKI, MomentumTag.ABRAHAM)
    return (tag,)


def _drag_columns(cfg, p, tag):
    cols = {key: p[key] for key in ("n", "intensity_W_per_m2", "sigma_a_m2",
                                    "omega_rad_per_s")}
    for t in _tags(tag):
        cols[f"field_{t.value}_V_per_m"] = scenarios.photon_drag_field(cfg, t)
    if tag is None:
        cols["minkowski_to_abraham_ratio"] = (
            cols["field_minkowski_V_per_m"] / cols["field_abraham_V_per_m"])
    return cols


def _wgm_columns(cfg, p, tag):
    cols = {key: p[key] for key in ("n", "a_m", "P0_W", "omega0_rad_per_s", "t_s")}
    for t in _tags(tag):
        res = scenarios.wgm_torque(cfg, p["t_s"], t)
        cols[f"torque_{t.value}_N_m"] = res.torque
        cols[f"amplitude_{t.value}_N_m"] = res.amplitude
    return cols


def _sphere_columns(cfg, p, tag):
    cols = {key: p[key] for key in ("M_kg", "a_m", "deltaG_kg_m_per_s",
                                    "pulse_energy_J", "n", "viscosity_Pa_s",
                                    "L0_m")}
    for t in _tags(tag):
        cols[f"vmax_{t.value}_m_per_s"] = scenarios.sphere_kick_vmax(cfg, t)
        cols[f"L_{t.value}_m"] = scenarios.sphere_total_displacement(cfg, t)
        cols[f"ratio_{t.value}"] = scenarios._displacement_ratio(cfg, t)
    cols["correction_magnitude"] = scenarios.displacement_correction(
        p["pulse_energy_J"], p["a_m"], p["L0_m"], p["viscosity0_Pa_s"])
    return cols


def _fiber_columns(cfg, p, tag):
    return {"pulse_energy_J": p["pulse_energy_J"], "n": p["n"],
            "impulse_N_s": scenarios.fiber_exit_impulse(cfg.pulse_energy_J, cfg.n)}


def _bec_columns(cfg, p, tag):
    return {"n": p["n"], "omega_rad_per_s": p["omega_rad_per_s"],
            "recoil_kg_m_per_s": scenarios.bec_recoil(cfg.n, cfg.omega_rad_per_s)}


def _interface_columns(cfg, p, tag):
    return {"E_t_V_per_m": p["E_t_V_per_m"], "n_from": p["n_from"], "n_to": p["n_to"],
            "pressure_Pa": interface_pressure(cfg.E_t_V_per_m, cfg.n_from, cfg.n_to)}


def _weyl(count, dims):
    """(count, dims) points k sqrt(p) mod 1, k = 1..count, p the first dims
    primes: correctly rounded, so every SIMD level gives the same bits."""
    return np.arange(1.0, count + 1)[:, None] * np.sqrt([2.0, 3, 5, 7, 11, 13, 17][:dims]) % 1


@functools.cache
def _constitutive_draws():
    """The constitutive check's 16 (E, B) pairs, each component in [-1, 1),
    with their field tensor and scales, made on first use."""
    draws = (2.0 * _weyl(16, 6) - 1.0).reshape(16, 2, 3)
    scale = np.maximum(np.max(np.abs(draws), axis=(1, 2)), 1e-300)
    draws.flags.writeable = scale.flags.writeable = False
    return draws, covariant.field_tensor_from_EB(draws[:, 0], draws[:, 1]), scale


_PROBE = (0.123, 0.0, 0.0)  # the point x where the covariant checks sample waves
_REST = covariant.FourVelocity.rest()  # the constitutive check's frame


def _two_waves(n: float, mu_r: float):
    """The divergence check's sampler: a wave along x, polarized along y, plus
    one of 0.7 at 60 degrees in the x-y plane, polarized along z (a single
    wave's x and ct truncation errors cancel at n = 1, this pair's cannot)."""
    return covariant.plane_wave_sampler(
        n, mu_r, 2.0 * math.pi, [1.0, 0.7], polarization=[[0, 1, 0], [0, 0, 1]],
        direction=[[1, 0, 0], [0.5, math.sqrt(0.75), 0]])


def _divergence_ratios(two_waves, grid_step: float):
    """The four-divergence residual's norm ratios per halving of grid_step,
    coarse and fine (4 at second order), and divergence_ratio_err: each call
    samples the _two_waves sampler ``two_waves`` on the 24-point stencil."""
    res = covariant.divergence_residual(two_waves, np.array(_PROBE), 0.077,
                                        grid_step / np.array([1.0, 2.0, 4.0]))
    norms = np.sqrt(np.vecdot(res, res))  # np.linalg.norm of each, bit for bit
    ratios = norms[:-1] / norms[1:]
    # Python's max: a nan fine ratio leaves a finite coarse one standing
    return *ratios.tolist(), max(np.abs(ratios / 4.0 - 1.0).tolist())


def _covariant_check_rows(n: float, mu_r: float, grid_step: float):
    """Deterministic covariant self-checks (reduced units, c = 1): check
    name -> value, and residual name -> value."""
    draws, F, scale = _constitutive_draws()
    H = covariant.excitation_from_constitutive(F, _REST, n, mu_r)
    err = np.maximum(np.max(np.abs(H.D - n * n / mu_r * draws[:, 0]), axis=1),
                     np.max(np.abs(H.H - draws[:, 1] / mu_r), axis=1)) / scale
    const_err = float(np.max(err, initial=0.0))
    coarse, fine, ratio_err = _divergence_ratios(_two_waves(n, mu_r), grid_step)

    # the single wave along x in the medium and in vacuum, as one stack
    S = covariant.minkowski_tensor4(*covariant.plane_wave_sampler(
        [n, 1.0], [mu_r, 1.0], 2.0 * math.pi, 1.0)(np.array(_PROBE), 0.0))
    classes = covariant.classify_four_momentum(covariant.FourMomentum(
        G=[S.momentum_density[0], S.poynting[0], S.momentum_density[1]],
        W=S.energy_density[[0, 0, 1]]))

    checks = {
        "constitutive_rest_frame_max_rel_err": const_err,
        "divergence_ratio_coarse": coarse,
        "divergence_ratio_fine": fine,
    }
    for name, cls in zip(("minkowski", "abraham", "vacuum"), classes.tolist()):
        # nan, so that the non-finite rule reports a class not decided
        checks[f"four_momentum_class_{name}"] = math.nan if cls == "undecidable" else cls
    residuals = {
        "constitutive_max_rel_err": const_err,
        "divergence_ratio_err": ratio_err,
    }
    return checks, residuals


def _non_finite(table: np.ndarray, names: list[str]) -> dict[int, str]:
    """Row -> the message rejecting that row of the float ``table``: it
    names the row's first column whose value is not finite."""
    finite = np.isfinite(table)
    if finite.all():  # the common case, without the per-row reduction
        return {}
    return {i: f"result '{names[j]}' is not finite: {float(table[i, j])}"
            for i in np.flatnonzero(~finite.all(axis=1)).tolist()
            for j in [np.argmin(finite[i])]}


def _evaluate_closed_form(form, p, tag, m):
    """All m points at once: the rules judge all m rows of one config, its
    array-valued parameters (m,) arrays, the closed-form functions evaluate
    that same config once per tag, and one index keeps the accepted rows."""
    config = unchecked(form.config, **p)
    errors = check_rules(getattr(form.config, "RULES", ()) + form.rules, config, m)
    keep = slice(None)
    if errors:
        if len(errors) == m:
            return [], np.empty((0, 0)), {}, errors
        keep = np.ones(m, bool)
        keep[list(errors)] = False
    columns = form.columns(config, p, tag)
    table = np.empty((m, len(columns)))
    for j, column in enumerate(columns.values()):
        table[:, j] = column  # an (m,) array or a value shared by all rows
    table = table[keep]
    # finite inputs can still overflow (E0^2 beyond the double range)
    if bad := _non_finite(table, list(columns)):
        rows = np.arange(m)[keep]
        errors.update((int(rows[i]), message) for i, message in bad.items())
        table = np.delete(table, list(bad), axis=0)
    return list(columns), table, {}, errors


def _evaluate_mirror(form, p, tag, m):
    """_evaluate_closed_form's report; its residual is the largest
    max_rel_diff, the three-way spread, of the kept rows (none if none is)."""
    columns, table, _, errors = _evaluate_closed_form(form, p, tag, m)
    residuals = {} if not len(table) else {
        "three_way_max_rel_diff": float(table[:, columns.index("max_rel_diff")].max())}
    return columns, table, residuals, errors


def _evaluate_covariant(form, p, tag, m):
    """One row per check; a value that is not finite is an error instead
    (a coarse grid_step can make the convergence ratios nan), and a finite
    divergence_ratio_err above its bound adds one."""
    checks, residuals = _covariant_check_rows(p["n"], p["mu_r"], p["grid_step"])
    errors = {name: f"result '{name}' is not finite: {value}"
              for name, value in (checks | residuals).items()
              # the four-momentum classes are words
              if not isinstance(value, str) and not math.isfinite(value)}
    messages = list(errors.values())
    ratio_err = residuals["divergence_ratio_err"]
    if _RATIO_ERR_BOUND < ratio_err < math.inf:
        messages.append(f"divergence_ratio_err = {ratio_err:.6g} is above its bound "
                        f"{_RATIO_ERR_BOUND}: the four-divergence residual does not "
                        "shrink 4x per halving of grid_step")
    return (["check", "value"],
            [[name, value] for name, value in checks.items() if name not in errors],
            {name: value for name, value in residuals.items() if name not in errors},
            dict(enumerate(messages)))


class _Scenario(NamedTuple):
    """What the runner knows about one scenario.

    ``keys`` maps each parameter (its unit in the name) to its default,
    _REQUIRED for a mandatory one.  ``evaluate(form, p, tag, m)`` maps this
    record, the np.float64 parameters ``p`` that ``run`` builds (a swept one
    an (m,) array) and the point count m to the report's (columns, rows,
    residuals, {row: error message}), the rows an (m, k) float table or
    lists of cells.  A closed-form scenario, evaluated by
    _evaluate_closed_form, also has ``config``, the class whose fields are
    its keys (by default SimpleNamespace, which holds any): the runner holds
    ``p`` in one, unchecked, and judges all its rows by the class's RULES and
    then by ``rules`` (see core.check_rules); and ``columns(config, p,
    tag)``, which maps that config and ``p``, all m rows, to report columns,
    each an (m,) array or a value shared by all rows.
    """

    keys: dict[str, object]
    provenance: str
    evaluate: Callable = _evaluate_closed_form
    columns: Callable | None = None
    config: type = SimpleNamespace
    rules: tuple = ()
    sweepable: bool = True


_SCENARIOS = {
    "mirror": _Scenario(
        keys={"n": _REQUIRED, "E0_V_per_m": _REQUIRED,
              "omega_rad_per_s": _REQUIRED, "sigma_S_per_m": _REQUIRED,
              "guard_k_over_alpha": scenarios.MirrorConfig.guard_k_over_alpha},
        provenance=("sigma_x = (n/c)(1+R) S_i with R = 1 - 2 k/alpha; "
                    "Lorentz route (mu0 sigma/2) Re int E_y H_z* dx; "
                    "transport route c g_x / n plus n R S_i / c"),
        evaluate=_evaluate_mirror, config=scenarios.MirrorConfig,
        columns=lambda config, p, tag: scenarios.mirror_pressures(config)),
    "drag": _Scenario(
        keys={"intensity_W_per_m2": _REQUIRED, "sigma_a_m2": _REQUIRED,
              "omega_rad_per_s": _REQUIRED, "n": _REQUIRED},
        provenance=("I sigma_a p / (hbar omega) = e E with p = hbar n omega / c "
                    "(minkowski) or hbar omega / (n c) (abraham)"),
        columns=_drag_columns, config=scenarios.DragConfig),
    "wgm": _Scenario(
        keys={"a_m": _REQUIRED, "P0_W": _REQUIRED,
              "omega0_rad_per_s": _REQUIRED, "n": 1.45, "t_s": 0.0},
        provenance=("N_z = -((n^2-1)/c^2) 2 pi a^2 omega0 P0 sin(omega0 t); "
                    "identically zero under minkowski"),
        columns=_wgm_columns, config=scenarios.TorqueConfig),
    "sphere-kick": _Scenario(
        keys={"M_kg": _REQUIRED, "a_m": _REQUIRED,
              "deltaG_kg_m_per_s": _REQUIRED, "pulse_energy_J": _REQUIRED,
              "n": _REQUIRED, "viscosity_Pa_s": _REQUIRED, "L0_m": _REQUIRED,
              "n0": scenarios.SphereKickConfig.n0,
              "viscosity0_Pa_s": scenarios.SphereKickConfig.viscosity0_Pa_s},
        provenance=("M v_max = deltaG + p_pulse with p_pulse = n H / c "
                    "(minkowski) or H / (n c) (abraham); "
                    "v(t) = v_max exp(-6 pi mu a t / M); "
                    "L/L0 correction scale H / (6 pi a c L0 mu0)"),
        columns=_sphere_columns, config=scenarios.SphereKickConfig,
        rules=scenarios._L0_RULES),
    "fiber": _Scenario(
        keys={"pulse_energy_J": _REQUIRED, "n": _REQUIRED},
        provenance="J = (n - 1) H / c along propagation", columns=_fiber_columns,
        rules=bounds(pulse_energy_J=">= 0")),
    "bec": _Scenario(
        keys={"n": _REQUIRED, "omega_rad_per_s": _REQUIRED},
        provenance="p = hbar n omega / c", columns=_bec_columns,
        rules=bounds(omega_rad_per_s="> 0")),
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

    The one place that turns a sweep into parameter arrays.  Scenario
    preconditions violated at a sweep point (for example the good-conductor
    bound) become entries in ``report.errors`` carrying the violated bound
    and the supplied value, prefixed ``<param>=<value>: ``; in-regime points
    still produce rows.
    """
    scenario, sweep = _SCENARIOS[request.scenario], request.sweep
    # numpy scalars: a division by zero or an overflow gives inf or nan
    p = {key: np.float64(v) for key, v in request.params.items()}
    m = 1 if sweep is None else sweep.count
    with np.errstate(all="ignore"):  # linspace's step times m - 1 can overflow too
        if sweep is not None:
            p[sweep.param] = values = np.linspace(sweep.lo, sweep.hi, m)
        columns, rows, residuals, errors = scenario.evaluate(scenario, p, request.tag, m)
    bad = sorted(errors)
    where = ([""] * len(bad) if sweep is None or not bad else ("\0".join(
        [sweep.param.replace("%", "%%") + "=%g: "] * len(bad)) % tuple(values[bad].tolist())
    ).split("\0"))
    if isinstance(rows, np.ndarray):
        if not len(rows):  # no row kept, so no column either
            columns, rows = [], np.empty((0, 0))
        rows.flags.writeable = False
    return ScenarioReport(
        scenario=request.scenario,
        params=dict(request.params),
        tag="both" if request.tag is None else request.tag.value,
        sweep=None if sweep is None else dict(vars(sweep)),
        provenance=scenario.provenance, columns=columns, rows=rows,
        residuals=residuals, errors=[w + errors[i] for w, i in zip(where, bad)])


def emit(report: ScenarioReport, fmt: str = "table") -> bytes:
    """Render a report as table, CSV or JSON bytes (emission.emit, loaded on first use)."""
    from . import emission
    return emission.emit(report, fmt)


# ---------------------------------------------------------------------------
# Built-in cross-check suite
# ---------------------------------------------------------------------------

def parse_tolerance(tol) -> float:
    """``tol`` as a float, which must be finite and > 0 (ValueError
    otherwise): a real number but a bool, or its text, which must be ASCII
    without '_', as a config value's."""
    real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    try:
        value = float(tol) if real else _parse_float("tol", str(tol))
    except (ValueError, OverflowError):  # ConfigError among them
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"tolerance must be a finite number > 0, got {tol!r}")
    return value


def _ledger_residual(medium: Medium, E, H) -> float:
    """Worst relative miss of g_A + g_mech = g_M and of g_M = n^2 g_A over
    nonmagnetic points: ``medium`` of (m,) indices n, E (V/m) and H (A/m)
    (m, 3) stacks.  Points where g_M is zero are skipped."""
    fp = FieldPoint.from_EH(medium, E, H)
    g_a = momentum_density(fp, MomentumTag.ABRAHAM)
    g_m = momentum_density(fp, MomentumTag.MINKOWSKI)
    g_mech = mechanical_momentum_density(medium, fp)
    n = medium.n
    # each row's largest |component|, the bits of np.max(axis=1) without
    # numpy's slow reduction along a length-3 axis
    scale, *misses = [np.maximum(np.maximum(a[:, 0], a[:, 1]), a[:, 2]) for a in map(
        np.abs, (g_m, g_a + g_mech - g_m, (n * n)[:, None] * g_a - g_m))]
    kept = scale != 0.0
    return float(np.max([d[kept] / scale[kept] for d in misses], initial=0.0))


@functools.cache
def _check_inputs():
    """check_suite's fixed inputs, built and validated on first use (as
    _constitutive_draws) and read-only: the mirror's parameters over a
    3 x 2 x 2 grid of n, sigma and omega, one contiguous row each, at the
    mirror's default guard, judged once by its rules (a rejected row raises);
    the divergence check's wave pair at the covariant-checks defaults; and
    the momentum ledger's Medium, E and H over 1000 quasi-random points: n in
    [1, 2), each component of E (V/m) and of c mu0 H in [-1, 1)."""
    grid = np.array(np.meshgrid((1.0, 1.3, 1.6), (1e7, 1e8), (2.6e15, 4.0e15),
                                indexing="ij")).reshape(3, -1)
    u = _weyl(1000, 7)
    n, E, H = 1.0 + u[:, 0], 2.0 * u[:, 1:4] - 1.0, (2.0 * u[:, 4:] - 1.0) / SI.mu0 / SI.c
    grid.flags.writeable = E.flags.writeable = H.flags.writeable = False
    form = _SCENARIOS["mirror"]
    mirror = MappingProxyType({
        "n": grid[0], "E0_V_per_m": np.float64(1e3), "omega_rad_per_s": grid[2],
        "sigma_S_per_m": grid[1],
        "guard_k_over_alpha": np.float64(form.keys["guard_k_over_alpha"])})
    check_rules(form.config.RULES, unchecked(form.config, **mirror))
    defaults = _SCENARIOS["covariant-checks"].keys
    return mirror, _two_waves(defaults["n"], defaults["mu_r"]), (Medium.from_index(n), E, H)


def check_suite(tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Three structural cross-checks on the whole stack.

    1. The three independent mirror-pressure routes agree over a small
       in-regime parameter grid.
    2. The four-divergence residual of the plane-wave energy-momentum tensor
       shrinks by 4x per halving of the grid step.
    3. Over 1000 fixed quasi-random nonmagnetic field points, the Abraham
       momentum plus the accompanying mechanical momentum equals the
       Minkowski momentum, which is n^2 times the Abraham momentum.
    """
    tol = parse_tolerance(tol)
    p, two_waves, ledger = _check_inputs()
    # the grid's rows were judged once, in _check_inputs: here only its routes run
    spread = scenarios.mirror_pressures(
        unchecked(scenarios.MirrorConfig, **p))["max_rel_diff"].max()
    *_, ratio_err = _divergence_ratios(
        two_waves, _SCENARIOS["covariant-checks"].keys["grid_step"])
    return [CheckResult(name="three-way-mirror", residual=float(spread), bound=tol),
            CheckResult(name="divergence-convergence",
                        residual=ratio_err, bound=_RATIO_ERR_BOUND),
            CheckResult(name="momentum-ledger", residual=_ledger_residual(*ledger),
                        bound=tol)]
