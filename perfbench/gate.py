"""Correctness gate: compares run-suite outputs with references recorded
from the commit the benchmark was defined on, classifies failed rows and
scores outputs against the extended-precision oracle.

Pure Python; imports nothing from ``zetaver``.
"""

from __future__ import annotations

import json
import math

# Comparison tolerance for suites judged by a statistic instead of a fixed
# residual tolerance (their ``tolerance`` is null in the report header).
JUDGED_SUITE_TOL = 1e-6
ORACLE_DIGITS_CAP = 12.0

# Row-level parts of the suites' own judges, for suites without a residual
# tolerance.  Group statistics (slopes, medians) have no row-level part.
_ROW_RULES = {
    "rane": lambda r: r["abs_residual"] <= 1e-3,
    "tail_lemma": lambda r: r["num"]["ratio"] <= 1.0,
    "highfreq_tail": lambda r: r["num"]["ratio"] <= 1.0,
    "theorem2": lambda r: math.isfinite(r["num"]["ratio"]) and r["num"]["ratio"] <= 10.0,
    "s1_sum": lambda r: r["flags"].get("within_bound", False),
    "kernel_norms": lambda r: r["rel_residual"] <= 1e-10,
    "power_mean_Jk": lambda r: r["point"].get("k") != 1 or r["rel_residual"] <= 0.15,
    "remark_219": lambda r: r["num"]["scaled_t2"] <= 20.0,
    "i1_asymptotic": lambda r: abs(r["num"]["corrected_diff_t2"]) <= 100.0
    and abs(complex(*r["lhs"]) - complex(*r["rhs"])) <= 0.05,
}


def _flatten(value, prefix: str, num: dict, flags: dict) -> None:
    if isinstance(value, bool):
        flags[prefix] = value
    elif isinstance(value, (int, float)):
        num[prefix] = float(value)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(v, f"{prefix}.{i}", num, flags)
    elif isinstance(value, dict):
        for k, v in value.items():
            _flatten(v, f"{prefix}.{k}" if prefix else k, num, flags)


def compact_report(report: dict) -> dict:
    """The parts of one JSON report the gate compares (drops timings)."""
    rows = []
    for r in report["rows"]:
        params = dict(r["params"])
        point = params.pop("point", {})
        error = params.pop("error", None)
        num: dict = {}
        flags: dict = {}
        _flatten(params, "", num, flags)
        rows.append({
            "id": r["identity_id"],
            "point": point,
            "error": error,
            "lhs": r["lhs"],
            "rhs": r["rhs"],
            "abs_residual": r["abs_residual"],
            "rel_residual": r["rel_residual"],
            "num": num,
            "flags": flags,
        })
    return {"passed": report["passed"], "tol": report["header"]["tolerance"], "rows": rows}


def row_failed(suite: str, tol, row: dict) -> bool:
    """Error-annotated, NaN, or outside the suite's tolerance."""
    if row["error"] is not None:
        return True
    values = [*row["lhs"], *row["rhs"], row["abs_residual"], row["rel_residual"]]
    if any(math.isnan(v) for v in values):
        return True
    if tol is not None and not row["rel_residual"] <= tol:
        return True
    rule = _ROW_RULES.get(suite)
    try:
        return rule is not None and not rule(row)
    except (KeyError, TypeError):
        return True


def _close(x: float, ref: float, tol: float, floor: float) -> bool:
    if math.isnan(ref):
        return True  # nothing to hold the new value to
    return abs(x - ref) <= tol * max(abs(ref), floor)


def compare_call(suite: str, got: dict, ref: dict) -> list[str]:
    """Reasons why one call's output fails the gate against its reference.

    A pass->fail change of a row or of the suite verdict fails; fail->pass
    is allowed.  Numeric fields are compared only on rows that pass in the
    reference, within the suite's tolerance: the parts of lhs and rhs
    relative to the row scale max(|lhs|, |rhs|), every other numeric field
    relative to max(|its reference value|, 1).  A parameter is held to its
    own size, not to the row's: on kernel_norms lhs ~ rhs ~ N, while
    l1_over_logN is about 0.5.
    """
    problems = []
    if ref["exit"] == 0 and got["exit"] != 0:
        problems.append(f"exit {got['exit']} where the reference exited 0")
    if got["exit"] not in (0, 1):
        problems.append(f"exit {got['exit']}")
    if ref["passed"] and not got["passed"]:
        problems.append("suite verdict pass -> FAIL")
    if len(got["rows"]) != len(ref["rows"]):
        return problems + [f"{len(got['rows'])} rows, reference has {len(ref['rows'])}"]
    tol = ref["tol"] if ref["tol"] is not None else JUDGED_SUITE_TOL
    for i, (g, r) in enumerate(zip(got["rows"], ref["rows"])):
        where = f"row {i} {r['point']}"
        if g["id"] != r["id"] or g["point"] != r["point"]:
            problems.append(f"{where}: row identity changed")
            continue
        if row_failed(suite, ref["tol"], r):
            continue  # failing in the reference: may change, may be fixed
        if row_failed(suite, ref["tol"], g):
            problems.append(f"{where}: pass -> fail ({g['error'] or 'residual'})")
            continue
        scale = max(abs(complex(*r["lhs"])), abs(complex(*r["rhs"])), 1e-300)
        fields = [("lhs", g["lhs"][k], r["lhs"][k], scale) for k in (0, 1)]
        fields += [("rhs", g["rhs"][k], r["rhs"][k], scale) for k in (0, 1)]
        fields += [(k, g["num"].get(k, math.nan), v, 1.0) for k, v in r["num"].items()]
        for name, x, ref_x, floor in fields:
            if not _close(x, ref_x, tol, floor):
                problems.append(f"{where}: {name} = {x!r}, reference {ref_x!r}")
        for name, flag in r["flags"].items():
            if g["flags"].get(name) != flag:
                problems.append(f"{where}: {name} changed")
    return problems


def rows_identical(a: dict, b: dict) -> bool:
    """Bit-identical numeric rows (NaN compares equal to NaN)."""
    return json.dumps(a["rows"], sort_keys=True) == json.dumps(b["rows"], sort_keys=True)


def oracle_quantity(row: dict, expr: str) -> complex:
    if expr == "lhs":
        return complex(*row["lhs"])
    if expr == "l1":  # kernel_norms: int_0^1 |B_N|
        return complex(row["num"]["l1_over_logN"] * math.log(row["point"]["N"]))
    raise ValueError(f"unknown oracle expression {expr!r}")


def oracle_digits(calls: list[dict], oracle: list[dict]) -> float:
    """min over oracle-checked outputs of -log10(error), capped.

    The error is relative for values of magnitude at least 1 and absolute
    below, so that a value near a zero of zeta (|zeta(1/2+it)| ~ 1e-7 at
    some seeded heights) does not turn a tiny absolute error into a large
    relative one.
    """
    digits = ORACLE_DIGITS_CAP
    for item in oracle:
        row = calls[item["call"]]["rows"][item["row"]]
        ref = complex(*item["value"])
        err = abs(oracle_quantity(row, item["expr"]) - ref) / max(abs(ref), 1.0)
        if math.isnan(err):
            return 0.0
        if err > 0.0:
            digits = min(digits, max(0.0, -math.log10(err)))
    return digits
