"""Checks of the program's outputs against the references and against
properties of the method.

An operation is one output value: a CSV row, a closed-form or quadrature
value, or a crossover ratio. Each check returns one Verdict per operation.
"""

import math
from dataclasses import dataclass

import numpy as np

import reference
from workloads import WIDE_ANTENNAS

# Absolute tolerance of deterministic routes (closed forms, quadrature).
CLOSED_TOL = 1e-6
# Monte Carlo rows must sit within MC_SIGMA standard errors of the reference.
MC_SIGMA = 6.0
# Grid values in the CSV must match the requested grid to this many dB.
GRID_TOL_DB = 1e-9

SWEEP_HEADER = "swept_value_db,gamma_b0_db,gamma_e0_db,M,scheme,method,asc,std_error,trials"


@dataclass(frozen=True)
class Verdict:
    label: str
    ok: bool
    known_fault: bool = False  # the B-TAS closed form at M >= 32
    detail: str = ""


# ----------------------------------------------------------------------------
# Sweeps (CSV from the command line)
# ----------------------------------------------------------------------------

def _sweep_points(sweep: dict):
    """(swept value, gamma_b dB, gamma_e dB) per grid point, as the CLI
    documents them: `points` values evenly spaced over [from, to]."""
    for value in np.linspace(sweep["from_db"], sweep["to_db"], sweep["points"]):
        value = float(value)
        fixed = sweep["fixed_db"]
        if sweep["swept"] == "gamma-b":
            yield value, value, fixed
        elif sweep["swept"] == "gamma-e":
            yield value, fixed, value
        else:
            yield value, fixed, fixed + value


def _expected_rows(sweep: dict):
    """Row keys in the documented order (swept value, M, scheme, method)."""
    closed_schemes = {"btas", "etas"}
    for point in _sweep_points(sweep):
        for m in sorted(sweep["antennas"]):
            for scheme in sorted(sweep["schemes"]):
                methods = ["closed"] if scheme in closed_schemes else ["mc"]
                if scheme in closed_schemes and sweep["overlay"]:
                    methods.append("mc")
                for method in methods:
                    yield point, m, scheme, method


def sweep_references(sweep: dict) -> dict:
    """Reference ASC per (swept value, M, scheme), as floats."""
    schemes = set(sweep["schemes"]) | ({"otas"} if sweep["normalize"] else set())
    refs = {}
    for value, gb_db, ge_db in _sweep_points(sweep):
        gb, ge = reference.db_to_linear(gb_db), reference.db_to_linear(ge_db)
        for m in sweep["antennas"]:
            for scheme in schemes:
                refs[(value, m, scheme)] = float(reference.asc(scheme, gb, ge, m))
    return refs


def _parse_row(line: str):
    fields = line.split(",")
    if len(fields) != 9:
        raise ValueError(f"expected 9 fields, got {len(fields)}")
    value, gb_db, ge_db, m, scheme, method, asc, std_error, trials = fields
    return {"value": float(value), "gb_db": float(gb_db), "ge_db": float(ge_db),
            "m": int(m), "scheme": scheme, "method": method, "asc": float(asc),
            "std_error": float(std_error) if std_error else None,
            "trials": int(trials) if trials else None}


def check_sweep(sweep: dict, refs: dict, output: dict) -> list[Verdict]:
    keys = list(_expected_rows(sweep))
    lines = output["csv"].split("\n")
    if output["exit"] != 0 or lines[0] != SWEEP_HEADER or lines[-1] != "":
        detail = f"exit {output['exit']}, header {lines[0]!r}"
        return [Verdict(_label(k), False, detail=detail) for k in keys]
    lines = lines[1:-1]
    verdicts, rows = [], {}
    for i, key in enumerate(keys):
        (value, _, _), m, scheme, method = key
        try:
            row = _parse_row(lines[i])
            problem = _row_shape_problem(row, key, sweep["trials"])
        except (IndexError, ValueError) as exc:
            row, problem = None, f"unparseable row: {exc}"
        if problem is None:
            rows[(value, m, scheme, method)] = row
        verdicts.append(Verdict(_label(key), problem is None, detail=problem or ""))
    if len(lines) != len(keys):
        verdicts.append(Verdict("row-count", False,
                                detail=f"{len(lines)} rows, expected {len(keys)}"))
    check_values = _check_normalized if sweep["normalize"] else _check_absolute
    return [v if not v.ok else check_values(v, key, rows, refs)
            for v, key in zip(verdicts, keys)] + verdicts[len(keys):]


def _label(key) -> str:
    (value, _, _), m, scheme, method = key
    return f"{scheme}/{method} M={m} at {value:.6g} dB"


def _row_shape_problem(row: dict, key, trials: int):
    (value, gb_db, ge_db), m, scheme, method = key
    if (row["m"], row["scheme"], row["method"]) != (m, scheme, method):
        return f"row is {row['scheme']}/{row['method']} M={row['m']}"
    for name, want in (("value", value), ("gb_db", gb_db), ("ge_db", ge_db)):
        if not abs(row[name] - want) <= GRID_TOL_DB:
            return f"{name} = {row[name]!r}, expected {want!r}"
    if not math.isfinite(row["asc"]):
        return f"asc = {row['asc']!r}"
    if method == "mc":
        if row["trials"] != trials:
            return f"trials = {row['trials']!r}, expected {trials}"
        if not (row["std_error"] is not None and row["std_error"] > 0):
            return f"std_error = {row['std_error']!r}"
    elif row["trials"] is not None or row["std_error"] is not None:
        return "closed-form row carries trials or std_error"
    return None


def _within(value: float, ref: float, tol: float) -> tuple[bool, str]:
    ok = abs(value - ref) <= tol
    return ok, "" if ok else f"{value!r} vs reference {ref!r} (tol {tol:.3g})"


def _check_absolute(verdict: Verdict, key, rows: dict, refs: dict) -> Verdict:
    (value, _, _), m, scheme, method = key
    row = rows[(value, m, scheme, method)]
    ref = refs[(value, m, scheme)]
    if method == "closed":
        ok, detail = _within(row["asc"], ref, CLOSED_TOL)
        return Verdict(verdict.label, ok, detail=detail)
    sigma = row["std_error"]
    ok, detail = _within(row["asc"], ref, MC_SIGMA * sigma)
    if ok and scheme == "otas":
        # O-TAS maximizes the secrecy capacity per realization, so its ASC
        # is at least that of either sub-optimal criterion.
        for rival in ("btas", "etas"):
            other = rows.get((value, m, rival, "closed"))
            if other is not None and row["asc"] + MC_SIGMA * sigma < other["asc"]:
                ok, detail = False, f"otas {row['asc']!r} below {rival} {other['asc']!r}"
    return Verdict(verdict.label, ok, detail=detail)


def _check_normalized(verdict: Verdict, key, rows: dict, refs: dict) -> Verdict:
    """Rows divided by the O-TAS estimate O. Its relative standard error q is
    the O-TAS row's std_error; a row's reference is ref_scheme / ref_otas."""
    (value, _, _), m, scheme, method = key
    row = rows[(value, m, scheme, method)]
    otas = rows.get((value, m, "otas", "mc"))
    if otas is None:
        return Verdict(verdict.label, False, detail="no valid O-TAS row to normalize by")
    if scheme == "otas":
        ok = row["asc"] == 1.0
        return Verdict(verdict.label, ok, detail="" if ok else f"asc = {row['asc']!r}")
    q = otas["std_error"]
    ref_otas = refs[(value, m, "otas")]
    expected = refs[(value, m, scheme)] / ref_otas
    if method == "closed":
        tol = MC_SIGMA * abs(row["asc"]) * q + CLOSED_TOL / ref_otas
        ok, detail = _within(row["asc"], expected, tol)
        if ok and row["asc"] > 1.0 + MC_SIGMA * abs(row["asc"]) * q:
            ok, detail = False, f"{scheme} {row['asc']!r} above O-TAS"
        return Verdict(verdict.label, ok, detail=detail)
    sigma = math.hypot(row["std_error"], row["asc"] * q)
    ok, detail = _within(row["asc"], expected, MC_SIGMA * sigma)
    return Verdict(verdict.label, ok, detail=detail)


# ----------------------------------------------------------------------------
# Library calls (closed forms, quadrature, crossover)
# ----------------------------------------------------------------------------

def library_references(ops: list) -> dict:
    refs = {}
    for op in ops:
        if op[0] in ("closed", "quad"):
            _, scheme, gb, ge, m = op
            key = (scheme, gb, ge, m)
            if key not in refs:
                refs[key] = float(reference.asc(scheme, gb, ge, m))
    return refs


def check_library(ops: list, refs: dict, output: list) -> list[Verdict]:
    verdicts = []
    for op, result in zip(ops, output, strict=True):
        if op[0] == "crossover":
            _, gb_db, m = op
            label = f"crossover M={m} at gamma_b {gb_db} dB"
            if isinstance(result, dict):
                verdicts.append(Verdict(label, False, detail=result["error"]))
                continue
            ratio_db, residual = result
            ok = (math.isfinite(ratio_db) and math.isfinite(residual)
                  and reference.crossover_brackets_root(gb_db, ratio_db, m))
            verdicts.append(Verdict(label, ok, detail="" if ok else
                                    f"no reference sign change near {ratio_db!r} dB"))
            continue
        kind, scheme, gb, ge, m = op
        label = f"{kind} {scheme} M={m} at ({gb:.6g}, {ge:.6g})"
        known = kind == "closed" and scheme == "btas" and m in WIDE_ANTENNAS
        if isinstance(result, dict):
            verdicts.append(Verdict(label, False, known, result["error"]))
            continue
        ok, detail = _within(result, refs[(scheme, gb, ge, m)], CLOSED_TOL)
        verdicts.append(Verdict(label, ok, known, detail))
    return verdicts


def references(spec: dict) -> dict:
    if spec["kind"] == "cli":
        return sweep_references(spec["sweep"])
    return library_references(spec["ops"])


def check_output(spec: dict, refs: dict, output) -> list[Verdict]:
    if spec["kind"] == "cli":
        return check_sweep(spec["sweep"], refs, output)
    return check_library(spec["ops"], refs, output)
