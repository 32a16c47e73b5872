"""Seeded request pools for the three benchmark workloads.

Every workload is a closed loop with one client: the benchmark sends a
request only after the previous one has completed.  A pool of requests is
generated from the seed before the timed phase and the loop cycles through
it.  Parameter values are drawn from the seed.  The properties that set a
request's cost (sweep size, share of out-of-regime points, scenario, swept
key, tag and format) follow a fixed design, so that every seed gives a pool
with the same work.  When the seed drew them too, the latency quantiles of
``scenario-mix`` moved by a tenth from seed to seed on the same host state.

The program sees only the generated config text.  The ``Request`` records
what the generator knows about each request, which the gate uses as its
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# SI conventions abmink documents: mu0 = 4 pi 1e-7 and eps0 = 1 / (mu0 c^2).
C = 299792458.0
MU0 = 4e-7 * math.pi
EPS0 = 1.0 / (MU0 * C * C)
HBAR = 6.62607015e-34 / (2.0 * math.pi)
E_CHARGE = 1.602176634e-19

GUARD = 0.2  # abmink's default good-conductor bound on k/alpha
MIRROR_SWEEP_COUNT = 100
MIRROR_POOL = 24
MIX_MAX_SWEEP = 1000


@dataclass(frozen=True)
class Request:
    """One request and what the generator knows about its correct output."""

    scenario: str  # "check" for the built-in check suite
    params: dict
    fmt: str
    tag: str = "both"
    sweep: tuple | None = None  # (param, lo, hi, count)
    out_of_regime: tuple = ()  # sweep indices beyond the good-conductor guard

    @property
    def points(self) -> int:
        return self.sweep[3] if self.sweep else 1

    def config_text(self) -> str:
        lines = [f"scenario = {self.scenario}"]
        lines += [f"{k} = {v!r}" for k, v in self.params.items()]
        if self.tag != "both":
            lines.append(f"tag = {self.tag}")
        if self.sweep:
            param, lo, hi, count = self.sweep
            lines.append(f"sweep = {param}:[{lo!r}, {hi!r}, {count}]")
        return "\n".join(lines) + "\n"

    def sweep_values(self) -> np.ndarray:
        param, lo, hi, count = self.sweep
        return np.linspace(lo, hi, count)


def _sigma_at_guard(n: float, omega: float, ratio: float = GUARD) -> float:
    """Conductivity at which k/alpha equals ``ratio``."""
    return 2.0 * n * n * omega / (MU0 * C * C * ratio * ratio)


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


# ---------------------------------------------------------------------------
# mirror-sweep
# ---------------------------------------------------------------------------

def _mirror_sweep_request(rng, param: str, share: float) -> Request:
    """A 100-point mirror sweep whose last ``m`` points cross the guard.

    The guard crossing is placed half a sweep step away from the nearest
    point, so which points are out of regime never depends on rounding.
    """
    count = MIRROR_SWEEP_COUNT
    m = int(round(share * count))
    E0 = _log_uniform(rng, 1e2, 1e4)
    if param == "n":  # k/alpha grows with n: the high end is out of regime
        omega = rng.uniform(2e15, 4e15)
        lo = rng.uniform(1.0, 1.4)
        hi = lo + rng.uniform(0.4, 1.0)
        step = (hi - lo) / (count - 1)
        n_crit = lo + (count - m - 0.5) * step if m else hi * rng.uniform(1.2, 2.0)
        params = {"n": None, "E0_V_per_m": E0, "omega_rad_per_s": omega,
                  "sigma_S_per_m": _sigma_at_guard(n_crit, omega)}
        out = tuple(range(count - m, count))
    elif param == "omega_rad_per_s":  # k/alpha grows with sqrt(omega)
        n = rng.uniform(1.0, 1.8)
        lo = rng.uniform(1e15, 2e15)
        hi = lo * rng.uniform(1.5, 3.0)
        step = (hi - lo) / (count - 1)
        w_crit = lo + (count - m - 0.5) * step if m else hi * rng.uniform(1.2, 2.0)
        params = {"n": n, "E0_V_per_m": E0, "omega_rad_per_s": None,
                  "sigma_S_per_m": _sigma_at_guard(n, w_crit)}
        out = tuple(range(count - m, count))
    else:  # sigma: k/alpha falls with sigma, so the low end is out of regime
        n = rng.uniform(1.0, 1.8)
        omega = rng.uniform(2e15, 4e15)
        s_crit = _sigma_at_guard(n, omega)
        if m:
            ratio = 1.0 + rng.uniform(0.3, 0.9) * min(
                (count - 0.5 - m) / (m - 0.5), 19.0)
            hi = s_crit * ratio
            step = (hi - s_crit) / (count - 0.5 - m)
            lo = s_crit - (m - 0.5) * step
        else:
            lo = s_crit * rng.uniform(1.2, 2.0)
            hi = lo * rng.uniform(2.0, 10.0)
        params = {"n": n, "E0_V_per_m": E0, "omega_rad_per_s": omega,
                  "sigma_S_per_m": None}
        out = tuple(range(m))
    del params[param]
    return Request(scenario="mirror", params=params, fmt="csv",
                   sweep=(param, float(lo), float(hi), count),
                   out_of_regime=out)


def mirror_sweep_pool(rng, size: int = MIRROR_POOL) -> list[Request]:
    """``size`` sweeps with 0 to 48 % of their points out of regime.

    The shares are evenly spaced and the swept key cycles through the three,
    so only the parameter values come from the seed.  The pool is small so
    that every request is sent a dozen times or more in a run.
    """
    keys = ("n", "sigma_S_per_m", "omega_rad_per_s")
    return [_mirror_sweep_request(rng, keys[j % 3], 0.5 * j / size)
            for j in range(size)]


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def check_pool(rng, size: int = 1) -> list[Request]:
    """``abmink check`` takes no input, so the seed changes nothing here."""
    return [Request(scenario="check", params={}, fmt="text")]


# ---------------------------------------------------------------------------
# scenario-mix
# ---------------------------------------------------------------------------

def _mirror_params(rng) -> dict:
    n = rng.uniform(1.0, 1.8)
    omega = rng.uniform(2e15, 4e15)
    return {"n": n, "E0_V_per_m": _log_uniform(rng, 1e2, 1e4),
            "omega_rad_per_s": omega,
            "sigma_S_per_m": _sigma_at_guard(n, omega, rng.uniform(0.01, 0.15))}


# Per scenario: a draw of every parameter, with the keys a sweep may vary.
_DRAWS = {
    "drag": lambda r: {
        "intensity_W_per_m2": _log_uniform(r, 1e3, 1e7),
        "sigma_a_m2": _log_uniform(r, 1e-22, 1e-18),
        "omega_rad_per_s": r.uniform(1e13, 2e14),
        "n": r.uniform(1.5, 4.0)},
    "wgm": lambda r: {
        "a_m": _log_uniform(r, 1e-5, 1e-3), "P0_W": r.uniform(1.0, 200.0),
        "omega0_rad_per_s": _log_uniform(r, 1e2, 1e5),
        "n": r.uniform(1.2, 2.0), "t_s": r.uniform(0.0, 1e-3)},
    "sphere-kick": lambda r: {
        "M_kg": _log_uniform(r, 1e-15, 1e-12), "a_m": _log_uniform(r, 1e-6, 1e-5),
        "deltaG_kg_m_per_s": _log_uniform(r, 1e-20, 1e-17),
        "pulse_energy_J": _log_uniform(r, 1e-9, 1e-6), "n": r.uniform(1.3, 1.6),
        "viscosity_Pa_s": r.uniform(5e-4, 2e-3), "L0_m": _log_uniform(r, 1e-7, 1e-4)},
    "fiber": lambda r: {
        "pulse_energy_J": _log_uniform(r, 1e-9, 1e-3), "n": r.uniform(1.2, 2.0)},
    "bec": lambda r: {
        "n": r.uniform(1.0, 1.5), "omega_rad_per_s": r.uniform(2e15, 4e15)},
    "interface": lambda r: {
        "E_t_V_per_m": _log_uniform(r, 1e2, 1e6), "n_from": r.uniform(1.0, 1.3),
        "n_to": r.uniform(1.35, 1.7)},
    "mirror": _mirror_params,
    "covariant-checks": lambda r: {
        "n": r.uniform(1.0, 2.0), "mu_r": r.uniform(0.5, 2.0),
        "grid_step": r.uniform(5e-4, 2e-3)},
}

SWEEPABLE = ("drag", "wgm", "sphere-kick", "fiber", "bec", "interface")
TAGS = ("both", "abraham", "minkowski")
FORMATS = ("table", "csv", "json")


def _mix_sweep(rng, scenario: str, size: int, j: int, tag: str, fmt: str) -> Request:
    params = _DRAWS[scenario](rng)
    param = list(params)[j % len(params)]
    # both ends drawn from the parameter's own range keep every point valid
    a, b = params.pop(param), _DRAWS[scenario](rng)[param]
    lo, hi = min(a, b), max(a, b)
    return Request(scenario=scenario, params=params, fmt=fmt, tag=tag,
                   sweep=(param, float(lo), float(hi), size))


def _tag_and_format(j: int, shift: int) -> tuple[str, str]:
    """The j-th (tag, format) pair of a fixed design: any nine consecutive
    slots hold every pair once; ``shift`` rotates the design per scenario."""
    return TAGS[(j + shift) % 3], FORMATS[(j // 3 + shift) % 3]


def scenario_mix_pool(rng, per_scenario: int = 12) -> list[Request]:
    """8 x ``per_scenario`` single-point requests and as many sweeps.

    Every sweepable scenario gets the same sizes, spread evenly over
    2..1000.  Sizes, swept keys, tags and formats follow a fixed design, so
    every pool holds the same work whatever the seed; the seed draws the
    parameter values and the order.
    """
    pool = []
    for shift, scenario in enumerate(_DRAWS):
        pool += [Request(scenario=scenario, params=_DRAWS[scenario](rng),
                         fmt=fmt, tag=tag)
                 for tag, fmt in (_tag_and_format(j, shift)
                                  for j in range(per_scenario))]
    sweeps_each = 8 * per_scenario // len(SWEEPABLE)
    # the midpoints of equal strata of 2..1000: a fixed set of sizes
    strata = (np.arange(sweeps_each) + 0.5) / sweeps_each
    sizes = 2 + np.floor(strata * (MIX_MAX_SWEEP - 1)).astype(int)
    for shift, scenario in enumerate(SWEEPABLE):
        pool += [_mix_sweep(rng, scenario, int(size), j, *_tag_and_format(j, shift))
                 for j, size in enumerate(sizes)]
    return [pool[i] for i in rng.permutation(len(pool))]


# name -> (pool maker, how a request reaches the program)
WORKLOADS = {
    "mirror-sweep": (mirror_sweep_pool, "api"),
    "check": (check_pool, "check"),
    "scenario-mix": (scenario_mix_pool, "cli"),
}
