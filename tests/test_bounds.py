"""One-key input bounds, declared through ``core.bounds``.

Each bound is a rule ``np.logical_not(value OP b)``, so NaN breaks it, with
the message "<key> must be <limit>, got <value>".  NaN must break every
bounded field of ``Medium``, the four scenario configs, ``displacement_ratio``'s
L0 and the fiber and bec record rules, on the raising constructor and as one
row of an (m,) config; the mirror's k/alpha guard must reject the NaN an
infinite omega and sigma give.  The parse-time bounds keep the quoted
``ConfigError`` texts of the checks they replaced.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abmink import Medium, MomentumTag, RegimeError, runner, scenarios
from abmink.core import Checked, bounds, check_rules, unchecked
from abmink.runner import ConfigError, parse_config
from abmink.scenarios import DragConfig, MirrorConfig, SphereKickConfig, TorqueConfig

# a valid value for every field, and each bounded field's limit
VALID = {
    Medium: {"eps_r": 2.25, "mu_r": 1.0, "n": 1.5},
    MirrorConfig: {"n": 1.33, "E0_V_per_m": 1e3, "omega_rad_per_s": 3e15,
                   "sigma_S_per_m": 5e7, "guard_k_over_alpha": 0.2},
    DragConfig: {"intensity_W_per_m2": 1e4, "sigma_a_m2": 1e-19,
                 "omega_rad_per_s": 1.6e13, "n": 3.5},
    TorqueConfig: {"n": 1.45, "a_m": 1e-4, "P0_W": 100.0, "omega0_rad_per_s": 1e3},
    SphereKickConfig: {"M_kg": 1e-10, "a_m": 25e-6, "deltaG_kg_m_per_s": 8.1e-12,
                       "pulse_energy_J": 5.9e-6, "n": 1.33, "viscosity_Pa_s": 1e-3,
                       "L0_m": 300e-6, "n0": 1.0, "viscosity0_Pa_s": 1.8e-5},
}
LIMITS = {
    Medium: {"eps_r": ">= 1", "mu_r": "> 0"},
    MirrorConfig: {"n": ">= 1", "E0_V_per_m": ">= 0", "omega_rad_per_s": "> 0",
                   "sigma_S_per_m": "> 0", "guard_k_over_alpha": "> 0"},
    DragConfig: {"intensity_W_per_m2": "> 0", "sigma_a_m2": "> 0",
                 "omega_rad_per_s": "> 0", "n": ">= 1"},
    TorqueConfig: {"a_m": "> 0", "omega0_rad_per_s": "> 0", "P0_W": ">= 0", "n": ">= 1"},
    SphereKickConfig: {"n": ">= 1", "viscosity_Pa_s": "> 0", "n0": ">= 1",
                       "viscosity0_Pa_s": "> 0", "M_kg": "> 0", "a_m": "> 0",
                       "pulse_energy_J": ">= 0", "L0_m": "> 0"},
}
BOUNDED = [(cls, key) for cls, limits in LIMITS.items() for key in limits]


def _rules(cls):
    """The rules a request of ``cls`` meets: sphere-kick's add the L0 rule."""
    return cls.RULES + (scenarios._L0_RULES if cls is SphereKickConfig else ())


def _build(cls, fields):
    """The scalar constructor; a sphere-kick config also through
    displacement_ratio, which judges its L0."""
    config = cls(**fields)
    if cls is SphereKickConfig:
        scenarios.displacement_ratio(config, MomentumTag.MINKOWSKI)


@pytest.mark.parametrize("cls, key", BOUNDED, ids=[f"{c.__name__}.{k}" for c, k in BOUNDED])
def test_nan_breaks_the_bound_of_its_field(cls, key):
    message = f"{key} must be {LIMITS[cls][key]}, got nan"
    with pytest.raises(ValueError) as err:
        _build(cls, {**VALID[cls], key: math.nan})
    assert type(err.value) is ValueError and str(err.value) == message
    # one row of three, every field an (m,) array
    rows = {name: np.full(3, value) for name, value in VALID[cls].items()}
    rows[key][1] = math.nan
    assert check_rules(_rules(cls), unchecked(cls, **rows), 3) == {1: message}


@pytest.mark.parametrize("name, key", [("fiber", "pulse_energy_J"), ("bec", "omega_rad_per_s")])
def test_nan_breaks_the_bound_of_a_record_rule(name, key):
    rows = SimpleNamespace(**{key: np.array([1.0, math.nan, 0.0])})
    limit = {"fiber": ">= 0", "bec": "> 0"}[name]
    want = {1: f"{key} must be {limit}, got nan"}
    if name == "bec":
        want[2] = f"{key} must be {limit}, got 0.0"
    assert check_rules(runner._SCENARIOS[name].rules, rows, 3) == want


def test_an_infinite_omega_and_sigma_break_the_mirror_guard():
    # inf/inf: k/alpha is nan, which the guard once let through
    message = "good-conductor approximation requires k/alpha < 0.2, got k/alpha = nan"
    with pytest.raises(RegimeError, match=f"^{message}$"):
        MirrorConfig(1.33, 1e3, math.inf, math.inf)
    rows = unchecked(MirrorConfig, n=1.33, E0_V_per_m=1e3,
                     omega_rad_per_s=np.array([3e15, math.inf]),
                     sigma_S_per_m=np.array([5e7, math.inf]), guard_k_over_alpha=0.2)
    assert check_rules(MirrorConfig.RULES, rows, 2) == {1: message}


@pytest.mark.parametrize("n", [0.5, 0.0, 1.0 - 2.0**-53, -1.0])
def test_drag_needs_an_index_of_at_least_one(n):
    # the bound of every other index; it was n > 0, so a library caller got a
    # drag field for n = 0.5
    with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
        DragConfig(1e4, 1e-19, 1.6e13, n)
    rows = unchecked(DragConfig, **{**VALID[DragConfig], "n": np.array([1.0, n])})
    assert check_rules(DragConfig.RULES, rows, 2) == {1: f"n must be >= 1, got {n}"}
    DragConfig(1e4, 1e-19, 1.6e13, 1.0)  # vacuum is a valid index
    # the command line rejected it already, at parse time
    with pytest.raises(ConfigError, match=f"^'n' must be >= 1, got {n}$"):
        parse_config("scenario = drag\nintensity_W_per_m2 = 1e4\nsigma_a_m2 = 1e-19\n"
                     f"omega_rad_per_s = 1.6e13\nn = {n!r}\n")


def test_bounds_keeps_the_order_and_words_each_message():
    rules = bounds(a="> 0", b=">= 1")
    assert [message for _, message, _ in rules] == [
        "a must be > 0, got {c.a}", "b must be >= 1, got {c.b}"]
    assert {kind for *_, kind in rules} == {ValueError}
    a = np.array([1.0, 0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan, 1.0])
    b = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, math.nan])
    assert check_rules(rules, SimpleNamespace(a=a, b=b), 8) == {
        1: "a must be > 0, got 0.0", 2: "a must be > 0, got -0.0",
        5: "a must be > 0, got -inf", 6: "a must be > 0, got nan",
        7: "b must be >= 1, got nan"}


@pytest.mark.parametrize("cls", [MirrorConfig, DragConfig, TorqueConfig, SphereKickConfig])
def test_no_config_class_writes_its_own_post_init(cls):
    assert issubclass(cls, Checked) and "__post_init__" not in vars(cls)


# ---------------------------------------------------------------------------
# the parse-time bounds against the check they replaced, verbatim
# ---------------------------------------------------------------------------

_FORMER_BOUNDS = {
    "guard_k_over_alpha": (0.0, False),
    "n": (1.0, True),
    "n0": (1.0, True),
    "n_from": (1.0, True),
    "n_to": (1.0, True),
    "mu_r": (0.0, False),
    "grid_step": (0.0, False),
}


def _former(params, swept):
    for key, (bound, inclusive) in _FORMER_BOUNDS.items():
        value = params.get(key, swept.get(key, math.inf))
        if value < bound or (value == bound and not inclusive):
            return f"'{key}' must be {'>=' if inclusive else '>'} {bound:g}, got {value!r}"
    return None


# a request of each scenario with a parse-time bound, and its bounded keys
_BASE = {
    "mirror": {"n": 1.33, "E0_V_per_m": 1e3, "omega_rad_per_s": 3e15,
               "sigma_S_per_m": 5e7, "guard_k_over_alpha": 0.2},
    "sphere-kick": {**VALID[SphereKickConfig]},
    "interface": {"E_t_V_per_m": 1e3, "n_from": 1.2, "n_to": 1.5},
    "covariant-checks": {"n": 1.5, "mu_r": 1.0, "grid_step": 1e-3},
    "bec": {"n": 1.33, "omega_rad_per_s": 3e15},
}
_KEYS = {"mirror": ("n", "guard_k_over_alpha"), "sphere-kick": ("n", "n0"),
         "interface": ("n_from", "n_to"), "covariant-checks": ("n", "mu_r", "grid_step"),
         "bec": ("n",)}
_NEAR = st.sampled_from([0.0, -0.0, 1.0, 5e-324, -5e-324, 1.0 - 2.0**-53, 1.0 + 2.0**-52,
                         -1.0, 1e308, -1e308, 0.5])
_FINITE = st.one_of(_NEAR, st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(sorted(_KEYS)))
def test_parse_time_texts_are_the_former_checks(data, scenario):
    params = dict(_BASE[scenario])
    for key in _KEYS[scenario]:
        if data.draw(st.booleans()):
            params[key] = data.draw(_FINITE)
    swept, sweep = {}, ""
    if scenario != "covariant-checks" and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(_KEYS[scenario]))
        ends = [params.pop(key), data.draw(_FINITE)]
        if math.isfinite(ends[1] - ends[0]):  # else the span is rejected first
            swept, sweep = {key: min(ends)}, f"sweep = {key}:[{ends[0]!r}, {ends[1]!r}, 3]\n"
        else:
            params[key] = ends[0]
    text = "".join([f"scenario = {scenario}\n"]
                   + [f"{k} = {v!r}\n" for k, v in params.items()]) + sweep
    want = _former(params, swept)
    try:
        parse_config(text)
        got = None
    except ConfigError as exc:
        got = str(exc)
    assert got == want
