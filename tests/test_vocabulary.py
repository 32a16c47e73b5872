"""One vocabulary per scenario: a config's fields are its config-file keys.

The runner holds a request's parameters, keys unrenamed, in its scenario's
config class and judges that object by the class's rules; a rule's message
names the key it judges.  Nothing nests: ``check_rules`` judges the rules it
is given and no config holds a ``Medium``.
"""

import dataclasses
import json
import math
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_rules import BASES

from abmink import Medium, runner
from abmink.core import check_rules, unchecked
from abmink.runner import parse_config, run
from abmink.scenarios import MirrorConfig, SphereKickConfig

CONFIGURED = [name for name, form in runner._SCENARIOS.items()
              if form.config is not SimpleNamespace]
TEXTS = {name: "".join([f"scenario = {name}\n"] + [f"{k} = {v}\n" for k, v in keys.items()])
         for name, keys in BASES.items()}
TEXTS["interface"] = "scenario = interface\nE_t_V_per_m = 1e3\nn_from = 1\nn_to = 1.33\n"


def test_the_four_configured_scenarios():
    assert CONFIGURED == ["mirror", "drag", "wgm", "sphere-kick"]


@pytest.mark.parametrize("name", CONFIGURED)
def test_every_config_field_is_a_key_of_its_record(name):
    form = runner._SCENARIOS[name]
    fields = dataclasses.fields(form.config)
    assert {f.name for f in fields} <= set(form.keys)
    # a field's default is its key's default, unless a request must set the key
    # (sphere-kick's L0_m, which only displacement_ratio reads)
    for f in fields:
        if f.default is not dataclasses.MISSING and form.keys[f.name] is not runner._REQUIRED:
            assert form.keys[f.name] == f.default
    assert sum(f.default is not dataclasses.MISSING for f in fields) == {
        "mirror": 1, "drag": 0, "wgm": 0, "sphere-kick": 3}[name]


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_run_builds_its_config_from_the_request_keys_unrenamed(name, monkeypatch):
    built = []

    def spy(cls, **fields):
        built.append((cls, fields))
        return unchecked(cls, **fields)

    monkeypatch.setattr(runner, "unchecked", spy)
    request = parse_config(TEXTS[name])
    report = run(request)
    assert report.errors == [] and len(report.rows) == 1
    [(cls, fields)] = built
    assert cls is runner._SCENARIOS[name].config
    assert list(fields) == list(request.params)
    assert {key: float(v) for key, v in fields.items()} == request.params


def test_check_rules_judges_only_the_rules_it_is_given():
    # a config held in a field is data: its RULES are not judged
    holder = SimpleNamespace(
        medium=unchecked(Medium, eps_r=0.25, mu_r=1.0, n=0.5),
        mirror=unchecked(MirrorConfig, n=0.5, E0_V_per_m=-1.0, omega_rad_per_s=0.0,
                         sigma_S_per_m=0.0, guard_k_over_alpha=0.0))
    assert check_rules((), holder) == {}
    assert check_rules((), holder, 3) == {}
    broken = ((lambda c: True, "broken", ValueError),)
    assert check_rules(broken, holder, 2) == {0: "broken", 1: "broken"}
    with pytest.raises(ValueError, match="^broken$"):
        check_rules(broken, holder)


# the rules that stand where a held Medium was judged, in order
_NEW_RULES = {"mirror": [("n", 1.0, ">=")],
              "sphere-kick": [("n", 1.0, ">="), ("viscosity_Pa_s", 0.0, ">"),
                              ("n0", 1.0, ">="), ("viscosity0_Pa_s", 0.0, ">")]}
# NaN, -0.0, just below 1, just above 0, and values in range
_EDGE = st.one_of(st.sampled_from([math.nan, -0.0, 0.0, 1.0, 5e-324,
                                   float(np.nextafter(1.0, 0.0))]),
                  st.floats(1.0 - 1e-9, 1.0, exclude_max=True),
                  st.floats(0.0, 1e-300, exclude_min=True),
                  st.floats(1.0, 1.6), st.floats(1e-5, 2e-3))


def _first_broken(row, rules):
    for key, bound, op in rules:
        if not (row[key] >= bound if op == ">=" else row[key] > bound):
            return f"{key} must be {op} {bound:g}, got {row[key]}"
    return None


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(sorted(_NEW_RULES)))
def test_each_new_rule_names_its_key_on_every_path(data, name):
    form, rules = runner._SCENARIOS[name], _NEW_RULES[name]
    m = data.draw(st.integers(1, 6))
    p = {key: np.float64(v) for key, v in parse_config(TEXTS[name]).params.items()}
    p |= {key: np.array([data.draw(_EDGE) for _ in range(m)]) for key, *_ in rules}
    # the row path: the class's rules on one config of m rows
    got = check_rules(form.config.RULES, unchecked(form.config, **p), m)
    with np.errstate(all="ignore"):  # rejected rows evaluate too
        _, _, _, errors = form.evaluate(form, p, None, m)
    for i in range(m):
        row = {key: float(v[i]) if isinstance(v, np.ndarray) else float(v)
               for key, v in p.items()}
        want = _first_broken(row, rules)
        assert got.get(i) == want
        # the runner keeps the message; beyond the rules it rejects only a
        # result that is not finite (a viscosity of 5e-324 overflows L)
        assert errors.get(i) == want or want is None and "is not finite" in errors[i]
        # the raising path: the scalar config built from that row
        try:
            form.config(**row)
            raised = None
        except ValueError as exc:
            raised = str(exc)
        assert raised == want


# The runner builds no Medium for the mirror or sphere-kick, so an index
# whose square overflows (n^2 > 1.8e308) reaches no Medium rule.  A patched
# __new__ stays on its class, so the spy runs in a process of its own; after
# the runs, one Medium.from_index shows that the spy counts.
_SPY = """
import hashlib, json, sys
from abmink import core
from abmink.runner import emit, parse_config, run

built = []

def counted(cls, *args, **kwargs):
    built.append(cls.__name__)
    return object.__new__(cls)

core.Medium.__new__ = counted
digests = {}
for name, text in json.loads(sys.argv[1]).items():
    report = run(parse_config(text))
    digests[name] = [hashlib.sha256(emit(report, fmt)).hexdigest()
                     for fmt in ("table", "csv", "json")]
by_runs = len(built)
core.Medium.from_index(1.5)
print(json.dumps({"by_runs": by_runs, "control": len(built) - by_runs, "digests": digests}))
"""
_SPHERE = ("scenario = sphere-kick\nM_kg = 1e-10\na_m = 25e-6\ndeltaG_kg_m_per_s = 8.1e-12\n"
           "pulse_energy_J = 5.9e-6\nviscosity_Pa_s = 1e-3\nL0_m = 300e-6\n")
OVERFLOWING = {
    "sphere-kick n": _SPHERE + "n = 1e155\n",
    "sphere-kick n0": _SPHERE + "n = 1.33\nn0 = 1e155\n",
    "mirror n": ("scenario = mirror\nn = 1e155\nE0_V_per_m = 1e3\n"
                 "omega_rad_per_s = 1e-300\nsigma_S_per_m = 1e300\n"),
}
# the table, CSV and JSON reports as the runner wrote them when it built a
# Medium of eps_r = n^2 for each index
OVERFLOWING_DIGESTS = {
    "sphere-kick n": [
        "845cbce8395b29de8d3bd27619788dc78a15090ade4cb452343abf80be41422e",
        "8ec74bfab6b6e4060c77ccd4706f1fd6d09885c18820b96741c0e31dc4d3ae4d",
        "2fc7d3ccd3b30aa952745f0cd408cad9e74b1e9fc0a283fd5846f72daf423d81"],
    "sphere-kick n0": [
        "15c876fcea70d32d66878f146e65240696c5af232fbd1b6f1c86ce9c66b08938",
        "c3e67ee34fdf9498e5fd3147089d56ec4b1c726f9c1ca07ac4b63b2bd488af8e",
        "ad339ee89f21fe775040899adbc6b766bbc66c1ca94509fabce88fc4162f42c8"],
    "mirror n": [
        "a5332236ff2d88e2417302840ee1df068dbe622d0679d2ff783a57cdc1d18678",
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
        "795490aeb118c36b423ba88931d72e71be1f333c13d48a4c2bd04163ba652cbe"],
}


def test_an_overflowing_index_builds_no_medium_and_keeps_its_report():
    proc = subprocess.run([sys.executable, "-c", _SPY, json.dumps(OVERFLOWING)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert (out["by_runs"], out["control"]) == (0, 1)
    assert out["digests"] == OVERFLOWING_DIGESTS


def test_the_mirror_and_sphere_kick_configs_hold_numbers():
    # the settable values: 5 for the mirror, 9 for sphere-kick, 3 for Medium
    assert [len(dataclasses.fields(cls)) for cls in (MirrorConfig, SphereKickConfig, Medium)] \
        == [5, 9, 3]
