"""Correctness gate: checks every output the benchmark receives.

Each check returns a list of problems; an empty list means the output
passed.  The oracles are independent of abmink: closed-form values are
recomputed here from the parameters the report echoes, the guard crossing
comes from the generator, and JSON is parsed strictly.
"""

from __future__ import annotations

import json
import math
import re

from workloads import C, E_CHARGE, EPS0, HBAR, MU0, Request

CLOSED_FORM_RTOL = 1e-12
MIRROR_SPREAD_MAX = 1e-6
CONSTITUTIVE_MAX = 1e-12
DIVERGENCE_RATIO_MAX = 0.2
TABLE_RTOL = 1e-6  # table cells carry 7 significant digits
CHECK_NAMES = ("three-way-mirror", "divergence-convergence", "momentum-ledger")


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def strict_json(payload: bytes) -> dict:
    """Parse JSON, rejecting NaN and +-Infinity (which json.loads accepts)."""
    return json.loads(payload.decode("utf-8"), parse_constant=_reject_constant)


def _rel(got: float, want: float) -> float:
    if want == 0.0:
        return 0.0 if got == 0.0 else math.inf
    return abs(got - want) / abs(want)


def _closed_form(scenario: str, row: dict) -> list[tuple[str, float]]:
    """(column, expected value) pairs recomputed from one row's echoed values.

    ``row`` maps the report's params and the row's columns to their values.
    """
    if scenario == "fiber":
        return [("impulse_N_s", (row["n"] - 1.0) * row["pulse_energy_J"] / C)]
    if scenario == "bec":
        return [("recoil_kg_m_per_s",
                 HBAR * row["n"] * row["omega_rad_per_s"] / C)]
    if scenario == "interface":
        return [("pressure_Pa", 0.5 * EPS0 * row["E_t_V_per_m"] ** 2
                 * (row["n_from"] ** 2 - row["n_to"] ** 2))]
    if scenario == "drag":
        n = row["n"]
        if "minkowski_to_abraham_ratio" in row:
            return [("minkowski_to_abraham_ratio", n * n)]
        scale = row["intensity_W_per_m2"] * row["sigma_a_m2"] / (C * E_CHARGE)
        if "field_minkowski_V_per_m" in row:
            return [("field_minkowski_V_per_m", scale * n)]
        return [("field_abraham_V_per_m", scale / n)]
    if scenario == "wgm":
        if "amplitude_abraham_N_m" in row:
            return [("amplitude_abraham_N_m",
                     (row["n"] ** 2 - 1.0) / C**2 * 2.0 * math.pi * row["a_m"] ** 2
                     * row["omega0_rad_per_s"] * row["P0_W"])]
        return [("torque_minkowski_N_m", 0.0), ("amplitude_minkowski_N_m", 0.0)]
    if scenario == "sphere-kick":
        H, n = row["pulse_energy_J"], row["n"]
        if "vmax_minkowski_m_per_s" in row:
            return [("vmax_minkowski_m_per_s",
                     (row["deltaG_kg_m_per_s"] + n * H / C) / row["M_kg"])]
        return [("vmax_abraham_m_per_s",
                 (row["deltaG_kg_m_per_s"] + H / (n * C)) / row["M_kg"])]
    if scenario == "mirror":
        n, omega = row["n"], row["omega_rad_per_s"]
        k_over_alpha = n * omega / C / math.sqrt(
            MU0 * row["sigma_S_per_m"] * omega / 2.0)
        flux = n * row["E0_V_per_m"] ** 2 / (2.0 * MU0 * C)
        return [("pressure_flux_Pa", n / C * (2.0 - 2.0 * k_over_alpha) * flux)]
    raise KeyError(scenario)


def _check_covariant(doc: dict, req: Request) -> list[str]:
    problems = []
    values = {check: value for check, value in doc["rows"]}
    res = doc["residuals"]
    if not res["constitutive_max_rel_err"] <= CONSTITUTIVE_MAX:
        problems.append(f"constitutive_max_rel_err {res['constitutive_max_rel_err']}")
    if not res["divergence_ratio_err"] <= DIVERGENCE_RATIO_MAX:
        problems.append(f"divergence_ratio_err {res['divergence_ratio_err']}")
    ratio_err = max(abs(values[k] / 4.0 - 1.0)
                    for k in ("divergence_ratio_coarse", "divergence_ratio_fine"))
    if _rel(res["divergence_ratio_err"], ratio_err) > CLOSED_FORM_RTOL:
        problems.append("divergence_ratio_err does not match the echoed ratios")
    # (G, W) of a plane wave: c|G| = n W (Minkowski) or W / n (Abraham)
    n = doc["params"]["n"]
    want = {"four_momentum_class_vacuum": "null"}
    if n > 1.0 + 1e-6:
        want["four_momentum_class_minkowski"] = "spacelike"
        want["four_momentum_class_abraham"] = "timelike"
    for check, cls in want.items():
        if values.get(check) != cls:
            problems.append(f"{check} is {values.get(check)!r}, expected {cls!r}")
    if len(doc["rows"]) != 6 or doc["errors"]:
        problems.append("covariant-checks must give six rows and no errors")
    return problems


def check_report(doc: dict, req: Request) -> list[str]:
    """Check a report, as parsed from abmink's JSON, against its request."""
    problems = []
    if doc.get("scenario") != req.scenario:
        return [f"scenario {doc.get('scenario')!r} != {req.scenario!r}"]
    if doc["tag"] != req.tag:
        problems.append(f"tag {doc['tag']!r} != {req.tag!r}")
    for key, value in req.params.items():
        if doc["params"].get(key) != value:
            problems.append(f"param {key} echoed as {doc['params'].get(key)!r}, "
                            f"sent {value!r}")
    if req.scenario == "covariant-checks":
        return problems + _check_covariant(doc, req)

    rows, errors, columns = doc["rows"], doc["errors"], doc["columns"]
    if len(rows) + len(errors) != req.points:
        problems.append(f"{len(rows)} rows + {len(errors)} errors != "
                        f"{req.points} points")
    if len(errors) != len(req.out_of_regime):
        problems.append(f"{len(errors)} errors, expected {len(req.out_of_regime)}")
    if req.sweep and req.out_of_regime:
        param = req.sweep[0]
        values = req.sweep_values()
        for i, err in zip(req.out_of_regime, errors):
            head = f"{param}={float(values[i]):g}: "
            if not err.startswith(head) or "k/alpha < 0.2" not in err:
                problems.append(f"error {err!r} does not name the guard at {head}")
    if req.sweep:
        param = req.sweep[0]
        values = req.sweep_values()
        out = set(req.out_of_regime)
        in_regime = [i for i in range(req.points) if i not in out]
        col = columns.index(param) if param in columns else None
        if col is not None and len(rows) == len(in_regime):
            for i, row in zip(in_regime, rows):
                if row[col] != float(values[i]):
                    problems.append(f"row {param}={row[col]!r} is not sweep point {i}")
                    break
    for row in rows:
        named = {**doc["params"], **dict(zip(columns, row))}
        for column, want in _closed_form(req.scenario, named):
            if not _rel(named[column], want) <= CLOSED_FORM_RTOL:
                problems.append(f"{column} = {named[column]!r}, closed form {want!r}")
                break
    if req.scenario == "mirror" and rows:
        spread = doc["residuals"].get("three_way_max_rel_diff")
        worst = max(r[columns.index("max_rel_diff")] for r in rows)
        if spread != worst or not spread <= MIRROR_SPREAD_MAX:
            problems.append(f"three_way_max_rel_diff {spread!r} (worst row {worst!r})")
    return problems


def _split_csv(payload: bytes) -> list[list[str]]:
    text = payload.decode("utf-8")
    if not text.endswith("\n"):
        raise ValueError("CSV does not end with a newline")
    return [line.split(",") for line in text[:-1].split("\n")]


def check_csv(payload: bytes, doc: dict) -> list[str]:
    """Every CSV float must equal the JSON value bit for bit."""
    lines = _split_csv(payload)
    if lines[0] != doc["columns"]:
        return [f"CSV header {lines[0]} != columns {doc['columns']}"]
    if len(lines) - 1 != len(doc["rows"]):
        return [f"CSV has {len(lines) - 1} rows, JSON {len(doc['rows'])}"]
    for i, (cells, row) in enumerate(zip(lines[1:], doc["rows"])):
        if len(cells) != len(row):
            return [f"CSV row {i} has {len(cells)} cells, JSON {len(row)}"]
        for cell, value in zip(cells, row):
            if isinstance(value, float):
                if float(cell).hex() != value.hex():
                    return [f"CSV row {i}: {cell} != JSON {value!r}"]
            elif cell != str(value):
                return [f"CSV row {i}: {cell!r} != JSON {value!r}"]
    return []


_TABLE_HEAD = re.compile(r"^# scenario: (\S+)  \(tag: (\S+)\)$")


def check_table(payload: bytes, doc: dict) -> list[str]:
    """Table cells must round the JSON values to 7 significant digits."""
    lines = payload.decode("utf-8").rstrip("\n").split("\n")
    head = _TABLE_HEAD.match(lines[0])
    if head is None or head.groups() != (doc["scenario"], doc["tag"]):
        return [f"table header {lines[0]!r}"]
    if lines[2].split() != doc["columns"]:
        return [f"table columns {lines[2].split()} != {doc['columns']}"]
    body = lines[3:3 + len(doc["rows"])]
    for i, (line, row) in enumerate(zip(body, doc["rows"])):
        cells = line.split()
        if len(cells) != len(row):
            return [f"table row {i} has {len(cells)} cells, JSON {len(row)}"]
        for cell, value in zip(cells, row):
            if isinstance(value, float):
                if not _rel(float(cell), value) <= TABLE_RTOL:
                    return [f"table row {i}: {cell} vs JSON {value!r}"]
            elif cell != str(value):
                return [f"table row {i}: {cell!r} != JSON {value!r}"]
    trailer = lines[3 + len(doc["rows"]):]
    want = len(doc["residuals"]) + len(doc["errors"])
    if len(body) != len(doc["rows"]) or len(trailer) != want:
        return ["table row or trailer count does not match the JSON"]
    return []


def check_output(req: Request, payload: bytes, reference: bytes) -> list[str]:
    """Gate one request's output in ``req.fmt`` against abmink's JSON of it.

    ``reference`` is abmink's JSON emission of the same report; it is parsed
    strictly and checked against the oracles, and the output must agree with
    it: byte for byte as JSON, bit for bit as CSV, to 7 digits as a table.
    """
    try:
        doc = strict_json(reference)
        problems = check_report(doc, req)
        if req.fmt == "json":
            if payload != reference:
                problems.append("JSON output differs from the reference emission")
        elif req.fmt == "csv":
            problems += check_csv(payload, doc)
        else:
            problems += check_table(payload, doc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"{type(exc).__name__}: {exc}"]
    return problems


_CHECK_LINE = re.compile(
    r"^PASS (\S+): residual (\S+) \(bound (\S+)\)$")


def check_check_output(stdout: str) -> list[str]:
    """``abmink check`` must report every check as PASS within its bound."""
    lines = stdout.rstrip("\n").split("\n")
    names = []
    for line in lines:
        m = _CHECK_LINE.match(line)
        if m is None:
            return [f"check line {line!r}"]
        name, residual, bound = m.group(1), float(m.group(2)), float(m.group(3))
        if not residual <= bound:
            return [f"{name}: residual {residual} above bound {bound}"]
        names.append(name)
    if tuple(names) != CHECK_NAMES:
        return [f"checks {names} != {list(CHECK_NAMES)}"]
    return []
