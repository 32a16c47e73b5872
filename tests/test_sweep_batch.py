"""The array evaluation of the six closed-form scenarios against the
per-point loop it replaced.

``per_point`` below is the runner's former evaluation, kept as the oracle:
for each sweep value it built the scenario's configs and one row dict, and
turned a rejected or non-finite point into an error.  ``run`` must give the
same columns, rows and errors, and ``emit`` the same bytes as the per-cell
rendering of those rows, in every format.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_emit import emit_per_cell

from abmink import MomentumTag, interface_pressure, scenarios
from abmink.core import SI, Medium
from abmink.runner import emit, parse_config, run


def _tags(tag):
    return (MomentumTag.MINKOWSKI, MomentumTag.ABRAHAM) if tag is None else (tag,)


def _point_drag(p, tag):
    cfg = scenarios.DragConfig(intensity=p["intensity_W_per_m2"],
                               sigma_a=p["sigma_a_m2"],
                               omega=p["omega_rad_per_s"], n=p["n"])
    row = {"n": p["n"], "intensity_W_per_m2": p["intensity_W_per_m2"],
           "sigma_a_m2": p["sigma_a_m2"], "omega_rad_per_s": p["omega_rad_per_s"]}
    for t in _tags(tag):
        row[f"field_{t.value}_V_per_m"] = scenarios.photon_drag_field(cfg, t)
    if tag is None:
        row["minkowski_to_abraham_ratio"] = (
            row["field_minkowski_V_per_m"] / row["field_abraham_V_per_m"])
    return row


def _point_wgm(p, tag):
    cfg = scenarios.TorqueConfig(n=p["n"], a=p["a_m"], P0=p["P0_W"],
                                 omega0=p["omega0_rad_per_s"])
    row = {"n": p["n"], "a_m": p["a_m"], "P0_W": p["P0_W"],
           "omega0_rad_per_s": p["omega0_rad_per_s"], "t_s": p["t_s"]}
    for t in _tags(tag):
        res = scenarios.wgm_torque(cfg, p["t_s"], t)
        row[f"torque_{t.value}_N_m"] = res.torque
        row[f"amplitude_{t.value}_N_m"] = res.amplitude
    return row


def _point_sphere(p, tag):
    cfg = scenarios.SphereKickConfig(
        M=p["M_kg"], a=p["a_m"], deltaG=p["deltaG_kg_m_per_s"],
        pulse_energy=p["pulse_energy_J"],
        fluid=Medium.from_index(p["n"], viscosity=p["viscosity_Pa_s"]),
        L0=p["L0_m"],
        reference_fluid=Medium.from_index(p["n0"],
                                          viscosity=p["viscosity0_Pa_s"]))
    row = {"M_kg": p["M_kg"], "a_m": p["a_m"],
           "deltaG_kg_m_per_s": p["deltaG_kg_m_per_s"],
           "pulse_energy_J": p["pulse_energy_J"], "n": p["n"],
           "viscosity_Pa_s": p["viscosity_Pa_s"], "L0_m": p["L0_m"]}
    for t in _tags(tag):
        row[f"vmax_{t.value}_m_per_s"] = scenarios.sphere_kick_vmax(cfg, t)
        row[f"L_{t.value}_m"] = scenarios.sphere_total_displacement(cfg, t)
        row[f"ratio_{t.value}"] = scenarios.displacement_ratio(cfg, t)
    row["correction_magnitude"] = scenarios.displacement_correction(
        p["pulse_energy_J"], p["a_m"], p["L0_m"], p["viscosity0_Pa_s"])
    return row


def _point_fiber(p, tag):
    return {"pulse_energy_J": p["pulse_energy_J"], "n": p["n"],
            "impulse_N_s": scenarios.fiber_exit_impulse(p["pulse_energy_J"], p["n"])}


def _point_bec(p, tag):
    return {"n": p["n"], "omega_rad_per_s": p["omega_rad_per_s"],
            "recoil_kg_m_per_s": scenarios.bec_recoil(p["n"], p["omega_rad_per_s"])}


def _point_interface(p, tag):
    return {"E_t_V_per_m": p["E_t_V_per_m"], "n_from": p["n_from"],
            "n_to": p["n_to"],
            "pressure_Pa": interface_pressure(p["E_t_V_per_m"], p["n_from"],
                                              p["n_to"])}


POINTS = {"drag": _point_drag, "wgm": _point_wgm, "sphere-kick": _point_sphere,
          "fiber": _point_fiber, "bec": _point_bec, "interface": _point_interface}


def per_point(request):
    """(columns, rows, errors) as the former per-point loop produced them."""
    point, sweep = POINTS[request.scenario], request.sweep
    values = [None] if sweep is None else np.linspace(sweep.lo, sweep.hi, sweep.count)
    columns, rows, errors = [], [], []
    for value in values:
        where = "" if sweep is None else f"{sweep.param}={value:g}: "
        params = dict(request.params)
        if value is not None:
            params[sweep.param] = float(value)
        try:
            with np.errstate(all="ignore"):
                row = point(params, request.tag)
            for key, v in row.items():
                if not math.isfinite(v):
                    raise ValueError(f"result '{key}' is not finite: {v}")
        except ValueError as exc:
            errors.append(f"{where}{exc}")
            continue
        columns = columns or list(row)
        rows.append(list(row.values()))
    return columns, rows, errors


def assert_matches_per_point(text):
    request = parse_config(text)
    report = run(request)
    columns, rows, errors = per_point(request)
    assert report.columns == columns
    assert report.rows == rows
    assert report.errors == errors
    oracle = dataclasses.replace(report, columns=columns, rows=rows, errors=errors)
    for fmt in ("table", "csv", "json"):
        assert emit(report, fmt) == emit_per_cell(oracle, fmt)


# key -> (lo, hi) of in-domain values; a drawn value may also be negated,
# zero or far beyond the range (where a result overflows)
_RANGES = {
    "drag": {"intensity_W_per_m2": (1e3, 1e7), "sigma_a_m2": (1e-22, 1e-18),
             "omega_rad_per_s": (1e13, 2e14), "n": (1.0, 4.0)},
    "wgm": {"a_m": (1e-5, 1e-3), "P0_W": (1.0, 200.0),
            "omega0_rad_per_s": (1e2, 1e5), "n": (1.0, 2.0), "t_s": (1e-6, 1e-3)},
    "sphere-kick": {"M_kg": (1e-15, 1e-12), "a_m": (1e-6, 1e-5),
                    "deltaG_kg_m_per_s": (1e-20, 1e-17),
                    "pulse_energy_J": (1e-9, 1e-6), "n": (1.0, 1.6),
                    "viscosity_Pa_s": (5e-4, 2e-3), "L0_m": (1e-7, 1e-4),
                    "n0": (1.0, 1.5), "viscosity0_Pa_s": (1e-5, 1e-3)},
    "fiber": {"pulse_energy_J": (1e-9, 1e-3), "n": (1.0, 2.0)},
    "bec": {"n": (1.0, 1.5), "omega_rad_per_s": (2e15, 4e15)},
    "interface": {"E_t_V_per_m": (1e2, 1e6), "n_from": (1.0, 1.7),
                  "n_to": (1.0, 1.7)},
}
_INDICES = {"n", "n0", "n_from", "n_to"}  # >= 1 at parse time


def _value(key, lo, hi):
    inside = st.floats(lo, hi)
    if key in _INDICES:
        return st.one_of(inside, st.floats(1.0, 1e160))
    return st.one_of(inside, inside.map(lambda v: -v), st.just(0.0),
                     st.sampled_from([1e160, 1e200, 1e300, -1e200]))


@st.composite
def _configs(draw):
    scenario = draw(st.sampled_from(sorted(_RANGES)))
    ranges = _RANGES[scenario]
    params = {key: draw(_value(key, *r)) for key, r in ranges.items()}
    lines = [f"scenario = {scenario}"]
    swept = draw(st.one_of(st.none(), st.sampled_from(sorted(ranges))))
    if swept is not None:
        lo, hi = (draw(_value(swept, *ranges[swept])) for _ in range(2))
        count = draw(st.integers(2, 40))
        lines.append(f"sweep = {swept}:[{lo!r}, {hi!r}, {count}]")
        del params[swept]
    lines += [f"{key} = {v!r}" for key, v in params.items()]
    tag = draw(st.sampled_from(["both", "abraham", "minkowski"]))
    lines.append(f"tag = {tag}")
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(_configs())
def test_random_sweeps_match_the_per_point_loop(text):
    assert_matches_per_point(text)


DRAG = ("scenario = drag\nintensity_W_per_m2 = 1e4\nsigma_a_m2 = 1e-19\n"
        "omega_rad_per_s = 1.6e13\nn = 3.5\n")
WGM = "scenario = wgm\na_m = 1e-4\nP0_W = 100\nomega0_rad_per_s = 1e3\n"
SPHERE = ("scenario = sphere-kick\nM_kg = 1e-10\na_m = 25e-6\n"
          "deltaG_kg_m_per_s = 8.1e-12\npulse_energy_J = 5.9e-6\nn = 1.33\n"
          "viscosity_Pa_s = 1e-3\nL0_m = 300e-6\n")
INTERFACE = "scenario = interface\nE_t_V_per_m = 1e3\nn_from = 1\nn_to = 1.33\n"


def _without(text, key):
    return "".join(line + "\n" for line in text.splitlines()
                   if not line.startswith(key + " "))


@pytest.mark.parametrize("text", [
    _without(DRAG, "intensity_W_per_m2") + "sweep = intensity_W_per_m2:[-1, 1, 3]\n",
    _without(DRAG, "n") + "sweep = n:[1, 1e160, 7]\ntag = abraham\n",
    WGM + "sweep = P0_W:[-50, 50, 5]\n",
    WGM.replace("P0_W = 100", "P0_W = -1"),
    WGM + "sweep = t_s:[0, 1e-2, 9]\n",
    _without(SPHERE, "L0_m") + "sweep = L0_m:[-1e-4, 1e-4, 5]\n",
    SPHERE.replace("L0_m = 300e-6", "L0_m = 0"),
    _without(SPHERE, "viscosity_Pa_s") + "sweep = viscosity_Pa_s:[-1e-3, 1e-3, 4]\n",
    SPHERE + "sweep = pulse_energy_J:[-1e-6, 1e-6, 6]\ntag = minkowski\n",
    _without(INTERFACE, "E_t_V_per_m") + "sweep = E_t_V_per_m:[1e150, 1e160, 5]\n",
    INTERFACE.replace("E_t_V_per_m = 1e3", "E_t_V_per_m = 1e200"),
    "scenario = fiber\npulse_energy_J = 1e300\nsweep = n:[1, 1e10, 4]\n",
    "scenario = bec\nomega_rad_per_s = 1e300\nsweep = n:[1, 1e10, 4]\n",
])
def test_out_of_domain_sweeps_match_the_per_point_loop(text):
    assert_matches_per_point(text)


def test_interface_overflow_names_its_column():
    report = run(parse_config(INTERFACE.replace("1e3", "1e200")))
    assert report.errors == ["result 'pressure_Pa' is not finite: -inf"]


# ---------------------------------------------------------------------------
# the scalar functions now square through float_power: still C pow
# ---------------------------------------------------------------------------

def _pow_differs_from_multiply(size, seed):
    x = np.random.default_rng(seed).uniform(1.0, 3.0, size)
    return [float(v) for v in x if float(v) ** 2 != float(v) * float(v)]


def test_scalar_wgm_torque_equals_the_python_pow_formula():
    ns = _pow_differs_from_multiply(20000, 5)
    assert ns
    for n in ns:
        cfg = scenarios.TorqueConfig(n=n, a=n * 1e-4, P0=100.0, omega0=1e3)
        res = scenarios.wgm_torque(cfg, 3e-4)
        amplitude = ((n**2 - 1.0) / SI.c**2 * 2.0 * math.pi * cfg.a**2
                     * cfg.omega0 * cfg.P0)
        assert res.amplitude == amplitude
        assert res.torque == -amplitude * math.sin(cfg.omega0 * 3e-4) + 0.0


def test_scalar_interface_pressure_equals_the_python_pow_formula():
    ns = _pow_differs_from_multiply(20000, 6)
    for n_from, n_to, E_t in zip(ns, ns[1:], ns[2:]):
        expected = 0.5 * SI.eps0 * E_t**2 * (n_from**2 - n_to**2)
        assert interface_pressure(E_t, n_from, n_to) == expected


def test_array_rows_equal_the_scalar_calls_where_pow_and_multiply_round_apart():
    ns = np.array(_pow_differs_from_multiply(20000, 7))
    fields = SimpleNamespace(n=ns, a=ns * 1e-4, P0=100.0, omega0=1e3, constants=SI)
    res = scenarios.wgm_torque(fields, 3e-4)
    pressure = interface_pressure(ns, ns[::-1], ns * 1e3)
    for i, n in enumerate(ns.tolist()):
        one = scenarios.wgm_torque(
            scenarios.TorqueConfig(n=n, a=n * 1e-4, P0=100.0, omega0=1e3), 3e-4)
        assert (res.amplitude[i], res.torque[i]) == (one.amplitude, one.torque)
        assert pressure[i] == interface_pressure(n, float(ns[::-1][i]), n * 1e3)
