"""The declared input rules against the checks they replaced.

Each rejecting config states its rules once, in a RULES tuple that
``core.check_rules`` evaluates on scalars (raising) and on (m,) rows
(returning row -> message).  A row's message must be the former error's
text, and the scalar config built for that row must raise the former
error's type.  Two guards hold that to the former behaviour:

* a property test against the scalar ``__post_init__`` bodies
  and the ``displacement_ratio`` L0 check as they were before the rules
  existed, copied verbatim;
* the literal ``report.errors`` of one request per rule that a config can
  reach, as a single point and as a sweep across the bound, captured from
  the runner before the change (the fiber and bec bounds are new).  The
  oracle above builds the configs under test, so only this catches a
  reworded template or a change in rule order.
"""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abmink import SI, MomentumTag, RegimeError, core, runner, scenarios
from abmink.core import Medium, check_rules, unchecked
from abmink.runner import parse_config, run
from abmink.scenarios import DragConfig, MirrorConfig, SphereKickConfig, TorqueConfig

_REL_TOL = 1e-12


# ---------------------------------------------------------------------------
# the checks before the rules, verbatim (``self`` is a namespace)
# ---------------------------------------------------------------------------

def _medium(self):
    if self.n == 0.0:
        object.__setattr__(self, "n", math.sqrt(self.eps_r * self.mu_r))
    eps_r, n = self.eps_r, self.n
    expect = math.sqrt(eps_r * self.mu_r)
    # each rule is written so that NaN fails it
    if not eps_r >= 1.0:
        raise ValueError(f"eps_r must be >= 1, got {eps_r}")
    if not self.mu_r > 0.0:
        raise ValueError(f"mu_r must be > 0, got {self.mu_r}")
    # not in the former checks: an infinite mu_r passed the n check, inf <= inf
    if self.mu_r == math.inf:
        raise ValueError(f"mu_r must be finite, got {self.mu_r}")
    if self.viscosity is not None and not self.viscosity > 0.0:
        raise ValueError(f"viscosity must be > 0, got {self.viscosity}")
    if not abs(n - expect) <= _REL_TOL * expect:
        raise ValueError(
            f"n={n} inconsistent with sqrt(eps_r*mu_r)={expect}"
        )


def _mirror(self):
    if not self.medium.nonmagnetic:
        raise RegimeError("the mirror routes are derived for a nonmagnetic "
                          f"liquid; got mu_r={self.medium.mu_r}")
    # not in the former checks, which read ``self.E0 < 0.0`` and
    # ``self.omega <= 0.0 or self.conductivity <= 0.0``: a NaN E0, omega or
    # conductivity passed them, and a NaN guard the k/alpha comparison
    if not self.E0 >= 0.0:
        raise ValueError(f"E0 must be >= 0, got {self.E0}")
    if not (self.omega > 0.0 and self.conductivity > 0.0):
        raise ValueError("omega and conductivity must be > 0")
    if not self.guard > 0.0:
        raise ValueError(f"guard must be > 0, got {self.guard}")
    r = self.k_over_alpha
    if r >= self.guard:
        raise RegimeError(
            f"good-conductor approximation requires k/alpha < {self.guard}, "
            f"got k/alpha = {r:.6g}"
        )


def _drag(self):
    for name in ("intensity", "sigma_a", "omega", "n"):
        if getattr(self, name) <= 0.0:
            raise ValueError(f"{name} must be > 0")


def _torque(self):
    if self.a <= 0.0 or self.omega0 <= 0.0 or self.P0 < 0.0 or self.n < 1.0:
        raise ValueError("require a > 0, omega0 > 0, P0 >= 0, n >= 1")


def _sphere(self):
    if self.M <= 0.0 or self.a <= 0.0:
        raise ValueError("require M > 0 and a > 0")
    if self.pulse_energy < 0.0:
        raise ValueError(f"pulse_energy must be >= 0, got {self.pulse_energy}")
    if self.fluid.viscosity is None or self.reference_fluid.viscosity is None:
        raise ValueError("both fluids need a dynamic viscosity")


def _l0(cfg):  # the head of displacement_ratio
    if np.any(cfg.L0 <= 0.0):
        raise ValueError(f"reference displacement L0 must be > 0, got {cfg.L0}")


def _medium_ns(eps_r, mu_r=1.0, n=0.0, viscosity=None):
    ns = SimpleNamespace(eps_r=eps_r, mu_r=mu_r, n=n, viscosity=viscosity)
    ns.nonmagnetic = mu_r == 1.0
    return ns


class _MirrorNS(SimpleNamespace):
    @property
    def k_over_alpha(self):  # the former MirrorConfig properties
        k = self.medium.n * self.omega / self.constants.c
        return k / math.sqrt(self.constants.mu0 * self.conductivity * self.omega / 2.0)


def _first_error(*checks):
    """The error of the first check that raises, or None."""
    try:
        for check, ns in checks:
            check(ns)
    except ValueError as exc:
        return exc
    return None


def _raised(build):
    """The error that ``build()`` raises, or None."""
    try:
        build()
    except ValueError as exc:
        return exc
    return None


def assert_same_message(got, want):
    """``got``, a row's message from check_rules, is the text of ``want``."""
    if want is None:
        assert got is None
    elif str(want) == "math domain error":
        # the former Medium took sqrt(eps_r mu_r) before its checks, so a
        # negative product raised this; the rules name the field at fault
        assert got.startswith(("eps_r must be >= 1", "mu_r must be > 0"))
    else:
        assert got == str(want)


def assert_same_error(got, want):
    if want is None:
        assert got is None
    else:
        assert type(got) is type(want)
        assert_same_message(str(got), want)


# ---------------------------------------------------------------------------
# draws: 0, negative values, +-inf, nan and ordinary in-range values
# ---------------------------------------------------------------------------

_SPECIAL = st.sampled_from([0.0, -0.0, -1.0, 1.0, math.inf, -math.inf, math.nan])


def _value(lo, hi):
    return st.one_of(_SPECIAL, st.floats(lo, hi), st.floats(-hi, -lo))


def _rows(draw, ranges, m):
    return {key: np.array([draw(_value(*r)) for _ in range(m)]) for key, r in ranges.items()}


# ---------------------------------------------------------------------------
# Medium
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scalar_medium_matches_the_former_checks(data):
    eps_r = data.draw(_value(1.0, 5.0))
    mu_r = data.draw(_value(0.5, 2.0))
    n = data.draw(st.one_of(st.just(0.0), _value(1.0, 3.0),
                            st.just(math.sqrt(abs(eps_r * mu_r)))))
    viscosity = data.draw(st.one_of(st.none(), _value(1e-5, 1e-2)))
    want = _first_error((_medium, _medium_ns(eps_r, mu_r, n, viscosity)))
    try:
        Medium(eps_r, mu_r, n, viscosity)
        got = None
    except ValueError as exc:
        got = exc
    assert_same_error(got, want)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_medium_rows_match_the_former_checks(data):
    m = data.draw(st.integers(1, 8))
    mu_r = data.draw(_value(0.5, 2.0))
    n = np.array([data.draw(_value(1.0, 3.0).filter(lambda v: v != 0.0))
                  for _ in range(m)])
    # eps_r either consistent with n or drawn on its own
    eps_r = np.array([v * v / mu_r if mu_r > 0.0 and data.draw(st.booleans())
                      else data.draw(_value(1.0, 5.0)) for v in n.tolist()])
    viscosity = data.draw(st.one_of(st.none(), _value(1e-5, 1e-2),
                                    st.just(np.array([data.draw(_value(1e-5, 1e-2))
                                                      for _ in range(m)]))))
    rows = unchecked(Medium, eps_r=eps_r, mu_r=mu_r, n=n, viscosity=viscosity)
    got = check_rules(Medium.RULES, rows, m)
    want = {}
    for i in range(m):
        v = viscosity if not isinstance(viscosity, np.ndarray) else float(viscosity[i])
        exc = _first_error((_medium, _medium_ns(float(eps_r[i]), mu_r, float(n[i]), v)))
        if exc is not None:
            want[i] = exc
        assert_same_message(got.get(i), want.get(i))
        assert_same_error(_raised(lambda: Medium(float(eps_r[i]), mu_r, float(n[i]), v)),
                          want.get(i))
    # the (m,) constructor raises the error of the first rejected row
    try:
        Medium(eps_r, mu_r, n, viscosity)
        assert not want
    except ValueError as exc:
        assert_same_error(exc, want[min(want)])


# ---------------------------------------------------------------------------
# MirrorConfig, as the runner judges its points
# ---------------------------------------------------------------------------

def _sigma_for_ratio(n, omega, ratio):
    alpha = n * omega / SI.c / ratio
    return 2.0 * alpha**2 / (SI.mu0 * omega)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mirror_points_match_the_former_checks(data):
    m = data.draw(st.integers(1, 8))
    n = np.array([data.draw(st.one_of(_SPECIAL, st.floats(-3.0, 3.0))) for _ in range(m)])
    E0 = np.array([data.draw(_value(1.0, 1e4)) for _ in range(m)])
    omega = np.array([data.draw(st.one_of(_SPECIAL, st.floats(1e15, 5e15)))
                      for _ in range(m)])
    guard = np.array([data.draw(st.sampled_from([0.2, 0.05, 0.5, 0.0, math.nan]))
                      for _ in range(m)])
    # k/alpha on both sides of the guard where n and omega allow it
    sigma = np.array([
        _sigma_for_ratio(abs(n[i]), omega[i], data.draw(st.floats(0.01, 0.4)))
        if 1.0 <= abs(n[i]) < math.inf and 1e15 <= omega[i] < math.inf
        and data.draw(st.booleans())
        else data.draw(st.one_of(_SPECIAL, st.floats(1e5, 1e9)))
        for i in range(m)])
    with np.errstate(all="ignore"):
        rows = unchecked(MirrorConfig, medium=unchecked(Medium, eps_r=n * n, n=n),
                         E0=E0, omega=omega, conductivity=sigma, guard=guard,
                         constants=SI)
    got = check_rules(MirrorConfig.RULES, rows, m)
    form = runner._SCENARIOS["mirror"]
    with np.errstate(all="ignore"):
        _, _, _, errors = form.evaluate(form, {
            "n": n, "E0_V_per_m": E0, "omega_rad_per_s": omega, "sigma_S_per_m": sigma,
            "guard_k_over_alpha": guard}, None, m)
    for i in range(m):
        v = float(n[i])
        want = _first_error(
            (_medium, _medium_ns(v * v / 1.0, 1.0, v)),
            (_mirror, _MirrorNS(medium=_medium_ns(v * v, 1.0, v), E0=float(E0[i]),
                                      omega=float(omega[i]),
                                      conductivity=float(sigma[i]),
                                      guard=float(guard[i]), constants=SI)))
        assert_same_message(got.get(i), want)
        assert_same_error(_raised(lambda: MirrorConfig(
            Medium(v * v, 1.0, v), float(E0[i]), float(omega[i]), float(sigma[i]),
            float(guard[i]))), want)
        if want is not None:  # the runner keeps the message
            assert errors[i] == got[i]


@pytest.mark.parametrize("mu_r", [1.0, 2.0, 0.5])
@pytest.mark.parametrize("E0, omega, ratio", [
    (1e3, 3e15, 0.1), (-1.0, 3e15, 0.1), (1e3, -3e15, 0.1), (1e3, 3e15, 0.3),
    (math.nan, 3e15, 0.1), (1e3, math.inf, 0.1)])
def test_scalar_mirror_config_matches_the_former_checks(mu_r, E0, omega, ratio):
    medium = Medium.from_index(1.6, mu_r=mu_r)
    sigma = _sigma_for_ratio(1.6, 3e15, ratio)
    ns = _MirrorNS(medium=_medium_ns(medium.eps_r, mu_r, 1.6), E0=E0,
                         omega=omega, conductivity=sigma, guard=0.2, constants=SI)
    want = _first_error((_mirror, ns))
    try:
        MirrorConfig(medium, E0, omega, sigma)
        got = None
    except ValueError as exc:
        got = exc
    assert_same_error(got, want)


# ---------------------------------------------------------------------------
# DragConfig, TorqueConfig, SphereKickConfig + the L0 check
# ---------------------------------------------------------------------------

_DRAG = {"intensity": (1e3, 1e7), "sigma_a": (1e-22, 1e-18), "omega": (1e13, 2e14),
         "n": (1.0, 4.0)}
_TORQUE = {"n": (1.0, 2.0), "a": (1e-5, 1e-3), "P0": (1.0, 200.0),
           "omega0": (1e2, 1e5)}
_SPHERE = {"M": (1e-15, 1e-12), "a": (1e-6, 1e-5), "pulse_energy": (1e-9, 1e-6),
           "n": (1.0, 1.6), "viscosity": (5e-4, 2e-3), "L0": (1e-7, 1e-4),
           "n0": (1.0, 1.5), "viscosity0": (1e-5, 1e-3)}


def _scalar_or_rows(draw, ranges, m):
    """Each field an (m,) array or one value shared by all rows."""
    rows = _rows(draw, ranges, m)
    return {k: v if draw(st.booleans()) else float(v[0]) for k, v in rows.items()}


def _at(fields, i):
    return {k: float(v[i]) if isinstance(v, np.ndarray) else v for k, v in fields.items()}


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(["drag", "torque"]))
def test_drag_and_torque_rows_match_the_former_checks(data, kind):
    cls, ranges, oracle = {"drag": (DragConfig, _DRAG, _drag),
                           "torque": (TorqueConfig, _TORQUE, _torque)}[kind]
    m = data.draw(st.integers(1, 8))
    fields = _scalar_or_rows(data.draw, ranges, m)
    got = check_rules(cls.RULES, unchecked(cls, **fields), m)
    for i in range(m):
        want = _first_error((oracle, SimpleNamespace(**_at(fields, i))))
        assert_same_message(got.get(i), want)
        assert_same_error(_raised(lambda: cls(**_at(fields, i))), want)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sphere_kick_rows_match_the_former_checks(data):
    m = data.draw(st.integers(1, 8))
    f = _scalar_or_rows(data.draw, _SPHERE, m)
    with np.errstate(all="ignore"):
        rows = unchecked(
            SphereKickConfig, M=f["M"], a=f["a"], deltaG=1e-18,
            pulse_energy=f["pulse_energy"],
            fluid=unchecked(Medium, eps_r=np.multiply(f["n"], f["n"]), n=f["n"],
                            viscosity=f["viscosity"]),
            L0=f["L0"],
            reference_fluid=unchecked(Medium, eps_r=np.multiply(f["n0"], f["n0"]),
                                      n=f["n0"], viscosity=f["viscosity0"]))
    got = check_rules(SphereKickConfig.RULES + scenarios._L0_RULES, rows, m)
    for i in range(m):
        p = _at(f, i)
        fluid = _medium_ns(p["n"] * p["n"], n=p["n"], viscosity=p["viscosity"])
        reference = _medium_ns(p["n0"] * p["n0"], n=p["n0"], viscosity=p["viscosity0"])
        cfg = SimpleNamespace(M=p["M"], a=p["a"], pulse_energy=p["pulse_energy"],
                              fluid=fluid, reference_fluid=reference, L0=p["L0"])
        want = _first_error((_medium, fluid), (_medium, reference), (_sphere, cfg),
                            (_l0, cfg))
        assert_same_message(got.get(i), want)
        # the scalar config raises its fluids' errors and its own, and
        # displacement_ratio the L0 error
        assert_same_error(_raised(lambda: scenarios.displacement_ratio(SphereKickConfig(
            M=p["M"], a=p["a"], deltaG=1e-18, pulse_energy=p["pulse_energy"],
            fluid=Medium(p["n"] * p["n"], n=p["n"], viscosity=p["viscosity"]),
            L0=p["L0"], reference_fluid=Medium(p["n0"] * p["n0"], n=p["n0"],
                                               viscosity=p["viscosity0"])),
            MomentumTag.MINKOWSKI)), want)


def test_sphere_kick_needs_both_viscosities():
    water = Medium.from_index(1.33)
    with pytest.raises(ValueError, match="^both fluids need a dynamic viscosity$"):
        SphereKickConfig(M=1e-10, a=1e-5, deltaG=0.0, pulse_energy=1e-6, fluid=water)


# ---------------------------------------------------------------------------
# the messages a report carries, pinned
# ---------------------------------------------------------------------------

MIRROR = {"n": "1.33", "E0_V_per_m": "1e3", "omega_rad_per_s": "3e15",
          "sigma_S_per_m": "5e7"}
DRAG = {"intensity_W_per_m2": "1e4", "sigma_a_m2": "1e-19", "omega_rad_per_s": "1.6e13",
        "n": "3.5"}
WGM = {"a_m": "1e-4", "P0_W": "100", "omega0_rad_per_s": "1e3"}
SPHERE = {"M_kg": "1e-10", "a_m": "25e-6", "deltaG_kg_m_per_s": "8.1e-12",
          "pulse_energy_J": "5.9e-6", "n": "1.33", "viscosity_Pa_s": "1e-3",
          "L0_m": "300e-6"}
FIBER = {"pulse_energy_J": "1e-6", "n": "1.45"}
BEC = {"n": "1.33", "omega_rad_per_s": "3e15"}
BASES = {"mirror": MIRROR, "drag": DRAG, "wgm": WGM, "sphere-kick": SPHERE,
         "fiber": FIBER, "bec": BEC}

GUARD = "good-conductor approximation requires k/alpha < 0.2, got k/alpha = 0.969397"
OMEGA_SIGMA = "omega and conductivity must be > 0"
TORQUE = "require a > 0, omega0 > 0, P0 >= 0, n >= 1"
M_A = "require M > 0 and a > 0"

# (scenario, the value or values set, sweep or None, report.errors)
PINNED = [
    ("mirror", {"E0_V_per_m": "-1"}, None, ["E0 must be >= 0, got -1.0"]),
    ("mirror", {}, "E0_V_per_m:[-2, 2, 3]",
     ["E0_V_per_m=-2: E0 must be >= 0, got -2.0"]),
    ("mirror", {"omega_rad_per_s": "0"}, None, [OMEGA_SIGMA]),
    ("mirror", {}, "omega_rad_per_s:[-3e15, 3e15, 3]",
     [f"omega_rad_per_s=-3e+15: {OMEGA_SIGMA}", f"omega_rad_per_s=0: {OMEGA_SIGMA}"]),
    ("mirror", {"sigma_S_per_m": "-5e7"}, None, [OMEGA_SIGMA]),
    ("mirror", {}, "sigma_S_per_m:[-5e7, 5e7, 3]",
     [f"sigma_S_per_m=-5e+07: {OMEGA_SIGMA}", f"sigma_S_per_m=0: {OMEGA_SIGMA}"]),
    ("mirror", {"sigma_S_per_m": "1e5"}, None, [GUARD]),
    ("mirror", {}, "sigma_S_per_m:[1e5, 1e8, 4]", [f"sigma_S_per_m=100000: {GUARD}"]),
    ("mirror", {"E0_V_per_m": "-1", "sigma_S_per_m": "1e5"}, None,
     ["E0 must be >= 0, got -1.0"]),
    ("mirror", {"omega_rad_per_s": "-1", "sigma_S_per_m": "1e5"}, None, [OMEGA_SIGMA]),
    ("drag", {"intensity_W_per_m2": "-1"}, None, ["intensity must be > 0"]),
    ("drag", {}, "intensity_W_per_m2:[-1, 1, 3]",
     ["intensity_W_per_m2=-1: intensity must be > 0",
      "intensity_W_per_m2=0: intensity must be > 0"]),
    ("drag", {"sigma_a_m2": "0"}, None, ["sigma_a must be > 0"]),
    ("drag", {}, "sigma_a_m2:[-1e-19, 1e-19, 3]",
     ["sigma_a_m2=-1e-19: sigma_a must be > 0", "sigma_a_m2=0: sigma_a must be > 0"]),
    ("drag", {"omega_rad_per_s": "-1.6e13"}, None, ["omega must be > 0"]),
    ("drag", {}, "omega_rad_per_s:[-1.6e13, 1.6e13, 3]",
     ["omega_rad_per_s=-1.6e+13: omega must be > 0", "omega_rad_per_s=0: omega must be > 0"]),
    ("drag", {"intensity_W_per_m2": "-1", "omega_rad_per_s": "-1"}, None,
     ["intensity must be > 0"]),
    ("drag", {"sigma_a_m2": "-1", "omega_rad_per_s": "-1"}, None, ["sigma_a must be > 0"]),
    ("wgm", {"a_m": "0"}, None, [TORQUE]),
    ("wgm", {}, "a_m:[-1e-4, 1e-4, 3]", [f"a_m=-0.0001: {TORQUE}", f"a_m=0: {TORQUE}"]),
    ("wgm", {"P0_W": "-1"}, None, [TORQUE]),
    ("wgm", {}, "P0_W:[-50, 50, 3]", [f"P0_W=-50: {TORQUE}"]),
    ("wgm", {"omega0_rad_per_s": "-1e3"}, None, [TORQUE]),
    ("wgm", {}, "omega0_rad_per_s:[-1e3, 1e3, 3]",
     [f"omega0_rad_per_s=-1000: {TORQUE}", f"omega0_rad_per_s=0: {TORQUE}"]),
    ("sphere-kick", {"M_kg": "0"}, None, [M_A]),
    ("sphere-kick", {}, "M_kg:[-1e-10, 1e-10, 3]", [f"M_kg=-1e-10: {M_A}", f"M_kg=0: {M_A}"]),
    ("sphere-kick", {"a_m": "-25e-6"}, None, [M_A]),
    ("sphere-kick", {}, "a_m:[-25e-6, 25e-6, 3]", [f"a_m=-2.5e-05: {M_A}", f"a_m=0: {M_A}"]),
    ("sphere-kick", {"pulse_energy_J": "-1e-6"}, None,
     ["pulse_energy must be >= 0, got -1e-06"]),
    ("sphere-kick", {}, "pulse_energy_J:[-1e-6, 1e-6, 3]",
     ["pulse_energy_J=-1e-06: pulse_energy must be >= 0, got -1e-06"]),
    ("sphere-kick", {"viscosity_Pa_s": "-1e-3"}, None,
     ["viscosity must be > 0, got -0.001"]),
    ("sphere-kick", {}, "viscosity_Pa_s:[-1e-3, 1e-3, 3]",
     ["viscosity_Pa_s=-0.001: viscosity must be > 0, got -0.001",
      "viscosity_Pa_s=0: viscosity must be > 0, got 0.0"]),
    ("sphere-kick", {"viscosity0_Pa_s": "0"}, None, ["viscosity must be > 0, got 0.0"]),
    ("sphere-kick", {}, "viscosity0_Pa_s:[-1e-5, 1e-5, 3]",
     ["viscosity0_Pa_s=-1e-05: viscosity must be > 0, got -1e-05",
      "viscosity0_Pa_s=0: viscosity must be > 0, got 0.0"]),
    ("sphere-kick", {"L0_m": "0"}, None, ["reference displacement L0 must be > 0, got 0.0"]),
    ("sphere-kick", {}, "L0_m:[-1e-4, 1e-4, 3]",
     ["L0_m=-0.0001: reference displacement L0 must be > 0, got -0.0001",
      "L0_m=0: reference displacement L0 must be > 0, got 0.0"]),
    # the fluid is judged before the config that holds it, the L0 check last
    ("sphere-kick", {"M_kg": "0", "viscosity_Pa_s": "-1e-3"}, None,
     ["viscosity must be > 0, got -0.001"]),
    ("sphere-kick", {"pulse_energy_J": "-1", "L0_m": "0", "viscosity0_Pa_s": "0"}, None,
     ["viscosity must be > 0, got 0.0"]),
    ("sphere-kick", {"a_m": "0", "pulse_energy_J": "-1", "L0_m": "-1"}, None, [M_A]),
    # new bounds
    ("fiber", {"pulse_energy_J": "-5"}, None, ["pulse_energy_J must be >= 0, got -5.0"]),
    ("fiber", {}, "pulse_energy_J:[-5, 5, 3]",
     ["pulse_energy_J=-5: pulse_energy_J must be >= 0, got -5.0"]),
    ("bec", {"omega_rad_per_s": "-3"}, None, ["omega_rad_per_s must be > 0, got -3.0"]),
    ("bec", {}, "omega_rad_per_s:[-3, 3, 3]",
     ["omega_rad_per_s=-3: omega_rad_per_s must be > 0, got -3.0",
      "omega_rad_per_s=0: omega_rad_per_s must be > 0, got 0.0"]),
]


@pytest.mark.parametrize("scenario, values, sweep, errors", PINNED)
def test_report_errors_are_pinned(scenario, values, sweep, errors):
    swept = sweep and sweep.split(":")[0]
    params = {k: v for k, v in {**BASES[scenario], **values}.items() if k != swept}
    text = "".join([f"scenario = {scenario}\n"] + [f"{k} = {v}\n" for k, v in params.items()]
                   + ([f"sweep = {sweep}\n"] if sweep else []))
    report = run(parse_config(text))
    assert report.errors == errors
    points = int(sweep.rsplit(",", 1)[1].rstrip("]")) if sweep else 1
    assert len(report.rows) == points - len(errors)


# ---------------------------------------------------------------------------
# the one-pass message formatter against str.format, row by row
# ---------------------------------------------------------------------------

RULE_SETS = {"Medium": Medium.RULES, "MirrorConfig": MirrorConfig.RULES,
             "DragConfig": DragConfig.RULES, "TorqueConfig": TorqueConfig.RULES,
             "SphereKickConfig": SphereKickConfig.RULES, "_L0_RULES": scenarios._L0_RULES,
             "fiber": runner._SCENARIOS["fiber"].rules, "bec": runner._SCENARIOS["bec"].rules}
TEMPLATES = sorted({message for rules in RULE_SETS.values() for _, message, _ in rules})
_EDGE = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.2]
_NUMBER = st.one_of(st.sampled_from(_EDGE), st.floats())


def _nest(values: dict) -> SimpleNamespace:
    """A namespace holding each value at its dotted name."""
    root = SimpleNamespace()
    for name, value in values.items():
        *path, leaf = name.split(".")
        node = root
        for part in path:
            node = node.__dict__.setdefault(part, SimpleNamespace())
        setattr(node, leaf, value)
    return root


def test_every_rule_template_is_drawn():
    assert len(TEMPLATES) == 21  # 5 + 5 + 4 + 1 + 3 + 1 + 1 + 1, none shared
    assert any(":" in t for t in TEMPLATES) and any("{" not in t for t in TEMPLATES)


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from(TEMPLATES))
def test_one_pass_messages_equal_str_format_row_by_row(data, template):
    m = data.draw(st.integers(1, 6))
    fields = {}
    for name, spec in re.findall(r"\{c\.([\w.]+)(:[^}]*)?\}", template):
        kind = data.draw(st.sampled_from(["rows", "shared"] + ["none"] * (not spec)))
        fields[name] = (np.array([data.draw(_NUMBER) for _ in range(m)]) if kind == "rows"
                        else None if kind == "none" else data.draw(_NUMBER))
    rows = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
    got = core._messages(template, _nest(fields), rows)
    want = [template.format(c=_nest({name: float(v[i]) if isinstance(v, np.ndarray) else v
                                     for name, v in fields.items()})) for i in rows]
    assert got == want


@settings(max_examples=200, deadline=None)
@given(*[st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, -1.0, 1.7e308])
         | st.floats(allow_nan=False, allow_infinity=False)] * 2, st.integers(2, 12))
def test_run_prefixes_each_error_with_the_swept_value_as_g(lo, hi, count):
    # a fiber sweep of the pulse energy: a negative value breaks the rule, and
    # a span beyond the double range (which only a request built in Python
    # can hold) gives values that are not finite, a non-finite column
    request = runner.ScenarioRequest(
        "fiber", {"n": 1.5}, sweep=runner.SweepSpec("pulse_energy_J", lo, hi, count))
    report = run(request)
    with np.errstate(all="ignore"):  # a step times count - 1 can overflow
        values = np.linspace(lo, hi, count)
    want = [f"pulse_energy_J={v:g}: " + (f"pulse_energy_J must be >= 0, got {v}" if v < 0
                                          else f"result 'pulse_energy_J' is not finite: {v}")
            for v in values.tolist() if not (v >= 0 and math.isfinite(v))]
    assert report.errors == want
