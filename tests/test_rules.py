"""The declared input rules against the checks they replaced.

Each rejecting config states its rules once, in a RULES tuple that
``core.check_rules`` evaluates on scalars (raising) and on (m,) rows
(returning row -> message).  A row's message must be the former error's
text, and the scalar config built for that row must raise the former
error's type.  Two guards hold that to the former behaviour:

* a property test against the scalar ``__post_init__`` bodies
  and the ``displacement_ratio`` L0 check as they were before the rules
  existed, copied verbatim but for three later changes: each field and
  message now carries its config-file key; the ``n >= 1`` and
  ``viscosity > 0`` checks of the key itself stand where a ``Medium`` held in
  the config was checked; and every one-key bound is now written as
  ``core.bounds`` declares it (NaN breaks it, its message is "<key> must be
  <limit>, got <value>", and a check of several keys is split into one per
  key, in its former order), as is the k/alpha guard (NaN breaks it);
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
    if not abs(n - expect) <= _REL_TOL * expect:
        raise ValueError(
            f"n={n} inconsistent with sqrt(eps_r*mu_r)={expect}"
        )


def _mirror(self):
    # where the held Medium's eps_r = n^2 >= 1 and n = sqrt(eps_r) checks stood
    if not self.n >= 1.0:
        raise ValueError(f"n must be >= 1, got {self.n}")
    # not in the former checks, which read ``self.E0 < 0.0`` and
    # ``self.omega <= 0.0 or self.conductivity <= 0.0``: a NaN E0, omega or
    # conductivity passed them, and a NaN guard the k/alpha comparison
    if not self.E0_V_per_m >= 0.0:
        raise ValueError(f"E0_V_per_m must be >= 0, got {self.E0_V_per_m}")
    if not self.omega_rad_per_s > 0.0:
        raise ValueError(f"omega_rad_per_s must be > 0, got {self.omega_rad_per_s}")
    if not self.sigma_S_per_m > 0.0:
        raise ValueError(f"sigma_S_per_m must be > 0, got {self.sigma_S_per_m}")
    if not self.guard_k_over_alpha > 0.0:
        raise ValueError(f"guard_k_over_alpha must be > 0, got {self.guard_k_over_alpha}")
    r = self.k_over_alpha
    if not r < self.guard_k_over_alpha:  # a NaN k/alpha (inf/inf) once passed
        raise RegimeError(
            f"good-conductor approximation requires k/alpha < {self.guard_k_over_alpha}, "
            f"got k/alpha = {r:.6g}"
        )


def _drag(self):
    for name in ("intensity_W_per_m2", "sigma_a_m2", "omega_rad_per_s"):
        if not getattr(self, name) > 0.0:
            raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
    if not self.n >= 1.0:  # once n > 0, as if an index could be below 1
        raise ValueError(f"n must be >= 1, got {self.n}")


def _torque(self):
    if not self.a_m > 0.0:
        raise ValueError(f"a_m must be > 0, got {self.a_m}")
    if not self.omega0_rad_per_s > 0.0:
        raise ValueError(f"omega0_rad_per_s must be > 0, got {self.omega0_rad_per_s}")
    if not self.P0_W >= 0.0:
        raise ValueError(f"P0_W must be >= 0, got {self.P0_W}")
    if not self.n >= 1.0:
        raise ValueError(f"n must be >= 1, got {self.n}")


def _sphere(self):
    # where the two held fluids' checks stood, working fluid first
    if not self.n >= 1.0:
        raise ValueError(f"n must be >= 1, got {self.n}")
    if not self.viscosity_Pa_s > 0.0:
        raise ValueError(f"viscosity_Pa_s must be > 0, got {self.viscosity_Pa_s}")
    if not self.n0 >= 1.0:
        raise ValueError(f"n0 must be >= 1, got {self.n0}")
    if not self.viscosity0_Pa_s > 0.0:
        raise ValueError(f"viscosity0_Pa_s must be > 0, got {self.viscosity0_Pa_s}")
    if not self.M_kg > 0.0:
        raise ValueError(f"M_kg must be > 0, got {self.M_kg}")
    if not self.a_m > 0.0:
        raise ValueError(f"a_m must be > 0, got {self.a_m}")
    if not self.pulse_energy_J >= 0.0:
        raise ValueError(f"pulse_energy_J must be >= 0, got {self.pulse_energy_J}")


def _l0(cfg):  # the head of displacement_ratio
    if not np.all(cfg.L0_m > 0.0):
        raise ValueError(f"L0_m must be > 0, got {cfg.L0_m}")


def _medium_ns(eps_r, mu_r=1.0, n=0.0):
    return SimpleNamespace(eps_r=eps_r, mu_r=mu_r, n=n)


class _MirrorNS(SimpleNamespace):
    @property
    def k_over_alpha(self):  # the former MirrorConfig properties
        k = self.n * self.omega_rad_per_s / self.constants.c
        return k / math.sqrt(self.constants.mu0 * self.sigma_S_per_m
                             * self.omega_rad_per_s / 2.0)


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
    want = _first_error((_medium, _medium_ns(eps_r, mu_r, n)))
    try:
        Medium(eps_r, mu_r, n)
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
    rows = unchecked(Medium, eps_r=eps_r, mu_r=mu_r, n=n)
    got = check_rules(Medium.RULES, rows, m)
    want = {}
    for i in range(m):
        exc = _first_error((_medium, _medium_ns(float(eps_r[i]), mu_r, float(n[i]))))
        if exc is not None:
            want[i] = exc
        assert_same_message(got.get(i), want.get(i))
        assert_same_error(_raised(lambda: Medium(float(eps_r[i]), mu_r, float(n[i]))),
                          want.get(i))
    # the (m,) constructor raises the error of the first rejected row
    try:
        Medium(eps_r, mu_r, n)
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
    rows = unchecked(MirrorConfig, n=n, E0_V_per_m=E0, omega_rad_per_s=omega,
                     sigma_S_per_m=sigma, guard_k_over_alpha=guard)
    got = check_rules(MirrorConfig.RULES, rows, m)
    form = runner._SCENARIOS["mirror"]
    with np.errstate(all="ignore"):
        _, _, _, errors = form.evaluate(form, {
            "n": n, "E0_V_per_m": E0, "omega_rad_per_s": omega, "sigma_S_per_m": sigma,
            "guard_k_over_alpha": guard}, None, m)
    for i in range(m):
        v = float(n[i])
        want = _first_error(
            (_mirror, _MirrorNS(n=v, E0_V_per_m=float(E0[i]),
                                omega_rad_per_s=float(omega[i]),
                                sigma_S_per_m=float(sigma[i]),
                                guard_k_over_alpha=float(guard[i]), constants=SI)))
        assert_same_message(got.get(i), want)
        assert_same_error(_raised(lambda: MirrorConfig(
            v, float(E0[i]), float(omega[i]), float(sigma[i]), float(guard[i]))), want)
        if want is not None:  # the runner keeps the message
            assert errors[i] == got[i]


@pytest.mark.parametrize("E0, omega, ratio", [
    (1e3, 3e15, 0.1), (-1.0, 3e15, 0.1), (1e3, -3e15, 0.1), (1e3, 3e15, 0.3),
    (math.nan, 3e15, 0.1), (1e3, math.inf, 0.1)])
def test_scalar_mirror_config_matches_the_former_checks(E0, omega, ratio):
    sigma = _sigma_for_ratio(1.6, 3e15, ratio)
    ns = _MirrorNS(n=1.6, E0_V_per_m=E0, omega_rad_per_s=omega, sigma_S_per_m=sigma,
                   guard_k_over_alpha=0.2, constants=SI)
    want = _first_error((_mirror, ns))
    try:
        MirrorConfig(1.6, E0, omega, sigma)
        got = None
    except ValueError as exc:
        got = exc
    assert_same_error(got, want)


# ---------------------------------------------------------------------------
# DragConfig, TorqueConfig, SphereKickConfig + the L0 check
# ---------------------------------------------------------------------------

_DRAG = {"intensity_W_per_m2": (1e3, 1e7), "sigma_a_m2": (1e-22, 1e-18),
         "omega_rad_per_s": (1e13, 2e14), "n": (1.0, 4.0)}
_TORQUE = {"n": (1.0, 2.0), "a_m": (1e-5, 1e-3), "P0_W": (1.0, 200.0),
           "omega0_rad_per_s": (1e2, 1e5)}
_SPHERE = {"M_kg": (1e-15, 1e-12), "a_m": (1e-6, 1e-5), "pulse_energy_J": (1e-9, 1e-6),
           "n": (1.0, 1.6), "viscosity_Pa_s": (5e-4, 2e-3), "L0_m": (1e-7, 1e-4),
           "n0": (1.0, 1.5), "viscosity0_Pa_s": (1e-5, 1e-3)}


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
    rows = unchecked(SphereKickConfig, deltaG_kg_m_per_s=1e-18, **f)
    got = check_rules(SphereKickConfig.RULES + scenarios._L0_RULES, rows, m)
    for i in range(m):
        cfg = SimpleNamespace(**_at(f, i))
        want = _first_error((_sphere, cfg), (_l0, cfg))
        assert_same_message(got.get(i), want)
        # the scalar config raises its own errors, and displacement_ratio the
        # L0 error
        assert_same_error(_raised(lambda: scenarios.displacement_ratio(SphereKickConfig(
            deltaG_kg_m_per_s=1e-18, **_at(f, i)), MomentumTag.MINKOWSKI)), want)


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

# (scenario, the value or values set, sweep or None, report.errors)
PINNED = [
    ("mirror", {"E0_V_per_m": "-1"}, None, ["E0_V_per_m must be >= 0, got -1.0"]),
    ("mirror", {}, "E0_V_per_m:[-2, 2, 3]",
     ["E0_V_per_m=-2: E0_V_per_m must be >= 0, got -2.0"]),
    ("mirror", {"omega_rad_per_s": "0"}, None, ["omega_rad_per_s must be > 0, got 0.0"]),
    ("mirror", {}, "omega_rad_per_s:[-3e15, 3e15, 3]",
     ["omega_rad_per_s=-3e+15: omega_rad_per_s must be > 0, got -3000000000000000.0",
      "omega_rad_per_s=0: omega_rad_per_s must be > 0, got 0.0"]),
    ("mirror", {"sigma_S_per_m": "-5e7"}, None,
     ["sigma_S_per_m must be > 0, got -50000000.0"]),
    ("mirror", {}, "sigma_S_per_m:[-5e7, 5e7, 3]",
     ["sigma_S_per_m=-5e+07: sigma_S_per_m must be > 0, got -50000000.0",
      "sigma_S_per_m=0: sigma_S_per_m must be > 0, got 0.0"]),
    ("mirror", {"sigma_S_per_m": "1e5"}, None, [GUARD]),
    ("mirror", {}, "sigma_S_per_m:[1e5, 1e8, 4]", [f"sigma_S_per_m=100000: {GUARD}"]),
    ("mirror", {"E0_V_per_m": "-1", "sigma_S_per_m": "1e5"}, None,
     ["E0_V_per_m must be >= 0, got -1.0"]),
    ("mirror", {"omega_rad_per_s": "-1", "sigma_S_per_m": "1e5"}, None,
     ["omega_rad_per_s must be > 0, got -1.0"]),
    ("drag", {"intensity_W_per_m2": "-1"}, None, ["intensity_W_per_m2 must be > 0, got -1.0"]),
    ("drag", {}, "intensity_W_per_m2:[-1, 1, 3]",
     ["intensity_W_per_m2=-1: intensity_W_per_m2 must be > 0, got -1.0",
      "intensity_W_per_m2=0: intensity_W_per_m2 must be > 0, got 0.0"]),
    ("drag", {"sigma_a_m2": "0"}, None, ["sigma_a_m2 must be > 0, got 0.0"]),
    ("drag", {}, "sigma_a_m2:[-1e-19, 1e-19, 3]",
     ["sigma_a_m2=-1e-19: sigma_a_m2 must be > 0, got -1e-19",
      "sigma_a_m2=0: sigma_a_m2 must be > 0, got 0.0"]),
    ("drag", {"omega_rad_per_s": "-1.6e13"}, None,
     ["omega_rad_per_s must be > 0, got -16000000000000.0"]),
    ("drag", {}, "omega_rad_per_s:[-1.6e13, 1.6e13, 3]",
     ["omega_rad_per_s=-1.6e+13: omega_rad_per_s must be > 0, got -16000000000000.0",
      "omega_rad_per_s=0: omega_rad_per_s must be > 0, got 0.0"]),
    ("drag", {"intensity_W_per_m2": "-1", "omega_rad_per_s": "-1"}, None,
     ["intensity_W_per_m2 must be > 0, got -1.0"]),
    ("drag", {"sigma_a_m2": "-1", "omega_rad_per_s": "-1"}, None,
     ["sigma_a_m2 must be > 0, got -1.0"]),
    ("wgm", {"a_m": "0"}, None, ["a_m must be > 0, got 0.0"]),
    ("wgm", {}, "a_m:[-1e-4, 1e-4, 3]",
     ["a_m=-0.0001: a_m must be > 0, got -0.0001", "a_m=0: a_m must be > 0, got 0.0"]),
    ("wgm", {"P0_W": "-1"}, None, ["P0_W must be >= 0, got -1.0"]),
    ("wgm", {}, "P0_W:[-50, 50, 3]", ["P0_W=-50: P0_W must be >= 0, got -50.0"]),
    ("wgm", {"omega0_rad_per_s": "-1e3"}, None, ["omega0_rad_per_s must be > 0, got -1000.0"]),
    ("wgm", {}, "omega0_rad_per_s:[-1e3, 1e3, 3]",
     ["omega0_rad_per_s=-1000: omega0_rad_per_s must be > 0, got -1000.0",
      "omega0_rad_per_s=0: omega0_rad_per_s must be > 0, got 0.0"]),
    # the former combined rules, split per key in their former order
    ("wgm", {"a_m": "0", "P0_W": "-1"}, None, ["a_m must be > 0, got 0.0"]),
    ("wgm", {"omega0_rad_per_s": "0", "P0_W": "-1"}, None,
     ["omega0_rad_per_s must be > 0, got 0.0"]),
    ("sphere-kick", {"M_kg": "0"}, None, ["M_kg must be > 0, got 0.0"]),
    ("sphere-kick", {}, "M_kg:[-1e-10, 1e-10, 3]",
     ["M_kg=-1e-10: M_kg must be > 0, got -1e-10", "M_kg=0: M_kg must be > 0, got 0.0"]),
    ("sphere-kick", {"a_m": "-25e-6"}, None, ["a_m must be > 0, got -2.5e-05"]),
    ("sphere-kick", {}, "a_m:[-25e-6, 25e-6, 3]",
     ["a_m=-2.5e-05: a_m must be > 0, got -2.5e-05", "a_m=0: a_m must be > 0, got 0.0"]),
    ("sphere-kick", {"M_kg": "-1", "a_m": "0"}, None, ["M_kg must be > 0, got -1.0"]),
    ("sphere-kick", {"pulse_energy_J": "-1e-6"}, None,
     ["pulse_energy_J must be >= 0, got -1e-06"]),
    ("sphere-kick", {}, "pulse_energy_J:[-1e-6, 1e-6, 3]",
     ["pulse_energy_J=-1e-06: pulse_energy_J must be >= 0, got -1e-06"]),
    ("sphere-kick", {"viscosity_Pa_s": "-1e-3"}, None,
     ["viscosity_Pa_s must be > 0, got -0.001"]),
    ("sphere-kick", {}, "viscosity_Pa_s:[-1e-3, 1e-3, 3]",
     ["viscosity_Pa_s=-0.001: viscosity_Pa_s must be > 0, got -0.001",
      "viscosity_Pa_s=0: viscosity_Pa_s must be > 0, got 0.0"]),
    ("sphere-kick", {"viscosity0_Pa_s": "0"}, None,
     ["viscosity0_Pa_s must be > 0, got 0.0"]),
    ("sphere-kick", {}, "viscosity0_Pa_s:[-1e-5, 1e-5, 3]",
     ["viscosity0_Pa_s=-1e-05: viscosity0_Pa_s must be > 0, got -1e-05",
      "viscosity0_Pa_s=0: viscosity0_Pa_s must be > 0, got 0.0"]),
    ("sphere-kick", {"L0_m": "0"}, None, ["L0_m must be > 0, got 0.0"]),
    ("sphere-kick", {}, "L0_m:[-1e-4, 1e-4, 3]",
     ["L0_m=-0.0001: L0_m must be > 0, got -0.0001", "L0_m=0: L0_m must be > 0, got 0.0"]),
    # the fluids' keys are judged before the sphere's, the L0 check last
    ("sphere-kick", {"M_kg": "0", "viscosity_Pa_s": "-1e-3"}, None,
     ["viscosity_Pa_s must be > 0, got -0.001"]),
    ("sphere-kick", {"pulse_energy_J": "-1", "L0_m": "0", "viscosity0_Pa_s": "0"}, None,
     ["viscosity0_Pa_s must be > 0, got 0.0"]),
    ("sphere-kick", {"a_m": "0", "pulse_energy_J": "-1", "L0_m": "-1"}, None,
     ["a_m must be > 0, got 0.0"]),
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


def test_every_rule_template_is_drawn():
    # 4 + 6 + 2 + 3 + 5 + 1: the mirror, drag, torque and sphere-kick share
    # the n rule's template, drag and bec the mirror's omega_rad_per_s one,
    # sphere-kick the torque's a_m one, and fiber sphere-kick's pulse_energy_J one
    assert len(TEMPLATES) == 21
    # every rule now names its value; the formatter test draws a template
    # without fields as well
    assert any(":" in t for t in TEMPLATES) and all("{" in t for t in TEMPLATES)


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from(TEMPLATES + ["a rule without fields"]))
def test_one_pass_messages_equal_str_format_row_by_row(data, template):
    m = data.draw(st.integers(1, 6))
    fields = {}
    for name, spec in re.findall(r"\{c\.(\w+)(:[^}]*)?\}", template):
        kind = data.draw(st.sampled_from(["rows", "shared"] + ["none"] * (not spec)))
        fields[name] = (np.array([data.draw(_NUMBER) for _ in range(m)]) if kind == "rows"
                        else None if kind == "none" else data.draw(_NUMBER))
    rows = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
    got = core._messages(template, SimpleNamespace(**fields), rows)
    want = [template.format(c=SimpleNamespace(**{
        name: float(v[i]) if isinstance(v, np.ndarray) else v for name, v in fields.items()}))
        for i in rows]
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
    # NaN breaks the rule; an infinite value meets it, and its result is not finite
    want = [f"pulse_energy_J={v:g}: " + (f"pulse_energy_J must be >= 0, got {v}"
                                          if not v >= 0
                                          else f"result 'pulse_energy_J' is not finite: {v}")
            for v in values.tolist() if not (v >= 0 and math.isfinite(v))]
    assert report.errors == want
