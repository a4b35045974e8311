"""Named verification suites over parameter grids, with machine-readable
CSV/JSON reports.

Each suite binds a verifier to a default grid and a pass rule.  A run
produces one row per grid point; rows carry the full parameter point so
every number in a report can be reproduced.  Grid evaluation order, panel
decompositions and summation orders are deterministic, so identical
configurations give bit-identical rows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import statistics
import time

import numpy as np

from . import afe, fourier, identities, quadrature, special
from .errors import ConfigError, DomainError, ZetaverError

_2PI = 2.0 * math.pi

# Most grid points one run may sweep: desk scale, far above every default
# grid (27 points at most), and small enough that the point list stays cheap.
MAX_GRID_POINTS = 10_000

__all__ = [
    "AxisSpec",
    "GridSpec",
    "SuiteSpec",
    "ReportFile",
    "Suite",
    "SUITES",
    "run_suite",
    "list_suites",
]


@dataclasses.dataclass(frozen=True)
class AxisSpec:
    """One grid axis: an inclusive range with linear or geometric spacing,
    or an explicit value list."""

    minimum: float = 0.0
    maximum: float = 0.0
    count: int = 1
    spacing: str = "linear"
    explicit: tuple = ()

    def __post_init__(self) -> None:
        bounds = self.explicit or (self.minimum, self.maximum)
        if not all(math.isfinite(v) for v in bounds):
            raise ConfigError(f"axis values must be finite, got {list(bounds)}")
        if self.explicit:
            return
        if self.count < 1:
            raise ConfigError("axis count must be >= 1")
        if self.minimum > self.maximum:
            raise ConfigError("axis minimum must be <= maximum")
        if self.spacing not in ("linear", "geometric"):
            raise ConfigError("spacing must be linear or geometric")
        if self.spacing == "geometric" and self.minimum <= 0:
            raise ConfigError("geometric spacing needs positive endpoints")

    def size(self) -> int:
        return len(self.explicit) if self.explicit else self.count

    def values(self) -> list[float]:
        if self.explicit:
            return [float(v) for v in self.explicit]
        if self.count == 1:
            return [float(self.minimum)]
        if self.spacing == "geometric":
            return [float(v) for v in np.geomspace(self.minimum, self.maximum, self.count)]
        return [float(v) for v in np.linspace(self.minimum, self.maximum, self.count)]

    def describe(self):
        if self.explicit:
            return list(self.explicit)
        return {"min": self.minimum, "max": self.maximum, "count": self.count, "spacing": self.spacing}


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Named axes swept as a cartesian product, in insertion order."""

    axes: dict

    def __post_init__(self) -> None:
        if not self.axes:
            raise ConfigError("grid must have at least one axis")
        for name, ax in self.axes.items():
            if not isinstance(ax, AxisSpec):
                raise ConfigError(f"axis {name} is not an AxisSpec")
        if math.prod(ax.size() for ax in self.axes.values()) > MAX_GRID_POINTS:
            raise ConfigError(f"grid has more than {MAX_GRID_POINTS} points")

    def points(self) -> list[dict]:
        names = list(self.axes)
        grids = [self.axes[n].values() for n in names]
        out: list[dict] = [{}]
        for name, vals in zip(names, grids):
            out = [dict(p, **{name: v}) for p in out for v in vals]
        return out

    def describe(self) -> dict:
        return {name: ax.describe() for name, ax in self.axes.items()}


@dataclasses.dataclass
class SuiteSpec:
    suite_id: str
    grid: GridSpec | None = None
    tolerance: float | None = None

    def __post_init__(self) -> None:
        if self.suite_id not in SUITES:
            raise ConfigError(f"unknown suite: {self.suite_id}")
        # a NaN tolerance fails every tolerance-judged row and inf passes
        # every one; neither is valid JSON in the report header
        if self.tolerance is not None and not (math.isfinite(self.tolerance) and self.tolerance >= 0.0):
            raise ConfigError(f"tolerance must be finite and >= 0, got {self.tolerance}")
        # as with a grid axis the runner does not read: a tolerance that no
        # judge reads would only change the header and the config hash
        if self.tolerance is not None and SUITES[self.suite_id].judge is not None:
            raise ConfigError(f"suite {self.suite_id} has its own judge and reads no tolerance")


@dataclasses.dataclass
class ReportFile:
    header: dict
    rows: list[dict]
    passed: bool

    def to_csv(self) -> str:
        cols = ["identity_id", "param_json", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
                "abs_residual", "rel_residual", "evals", "seconds"]
        lines = [",".join(cols)]
        for r in self.rows:
            pj = json.dumps(r["params"], sort_keys=True, default=_jsonable).replace('"', '""')
            vals = [
                r["identity_id"],
                f'"{pj}"',
                _g17(r["lhs"].real),
                _g17(r["lhs"].imag),
                _g17(r["rhs"].real),
                _g17(r["rhs"].imag),
                _g17(r["abs_residual"]),
                _g17(r["rel_residual"]),
                str(r["evals"]),
                _g17(r["seconds"]),
            ]
            lines.append(",".join(vals))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "header": self.header,
            "passed": self.passed,
            "rows": [
                dict(r, lhs=[r["lhs"].real, r["lhs"].imag], rhs=[r["rhs"].real, r["rhs"].imag])
                for r in self.rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True, default=_jsonable)


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _jsonable(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, tuple):
        return list(obj)
    return str(obj)


def _row(rep: identities.IdentityReport, pt: dict, evals: int, seconds: float) -> dict:
    """The one step from record to report row: the record's fields, its
    grid point under params["point"], and the integrand evaluations and
    seconds the point took."""
    return {
        "identity_id": rep.identity_id,
        "params": dict(rep.params, point=pt),
        "lhs": complex(rep.lhs),
        "rhs": complex(rep.rhs),
        "abs_residual": rep.abs_residual,
        "rel_residual": rep.rel_residual,
        "evals": evals,
        "seconds": seconds,
    }


# ---------------------------------------------------------------------------
# Judges: default is "every row within tolerance"; asymptotic suites use
# boundedness of their scaled statistics instead of fixed residuals.  A row
# set with an error-annotated row fails before any judge sees it.
# ---------------------------------------------------------------------------


def _judge_tol(rows: list[dict], tol: float) -> bool:
    return all(r["rel_residual"] <= tol for r in rows)


def _scaled_values(rows: list[dict], key: str = "scaled") -> list[float]:
    return [float(r["params"][key]) for r in rows if key in r["params"]]


def _judge_bounded(rows: list[dict], key: str, spread_max: float = 5.0) -> bool:
    by_sigma: dict = {}
    for r in rows:
        by_sigma.setdefault(r["params"].get("sigma", 0.0), []).append(r)
    for group in by_sigma.values():
        ts = [float(r["params"]["t"]) for r in group]
        vals = _scaled_values(group, key)
        if len(vals) != len(group) or any(math.isnan(v) for v in vals):
            return False
        if len(set(ts)) > 2 and afe.loglog_slope(ts, vals) > 0.1:
            return False
        med = statistics.median(vals)
        if med > 0 and max(vals) > spread_max * med:
            return False
    return True


# ---------------------------------------------------------------------------
# Suite runners.
# ---------------------------------------------------------------------------


def _axis(*vals) -> AxisSpec:
    return AxisSpec(explicit=tuple(vals))


def _integer(value: float) -> int:
    """The value of an integer grid axis as an int, or DomainError where
    int() would truncate it."""
    n = int(value)
    if n != value:
        raise DomainError(f"requires an integer, got {value}")
    return n


def _run_square(pt):
    s = complex(pt["sigma"], pt["t"])
    return [identities.verify_square_identity(s, pt["alpha"])]


def _run_f_routes(pt):
    u = complex(pt["u_re"], pt.get("u_im", 0.0))
    v = complex(pt["v_re"], pt.get("v_im", 0.0))
    alpha = pt["alpha"]
    fs = identities.f_series(u, v, alpha)
    fc = identities.f_contour(u, v, alpha)
    return [identities.IdentityReport.build(
        "f_routes", {"u": u, "v": v, "alpha": alpha}, fs, fc.value)]


def _run_quadratic(pt):
    u = complex(pt["u_re"], pt.get("u_im", 0.0))
    v = complex(pt["v_re"], pt.get("v_im", 0.0))
    return [identities.verify_quadratic_moment((u, v))]


def _run_triple(pt):
    base = pt["re"]
    us = (complex(base, pt.get("im", 0.0)), complex(base + 0.4, -pt.get("im", 0.0)), complex(base + 0.15, 0.0))
    return [identities.verify_triple_moment(us)]


def _run_quadruple(pt):
    base = pt["re"]
    im = pt.get("im", 0.0)
    us = (complex(base, im), complex(base, -im), complex(base + 0.3, 0.0), complex(base + 0.55, 0.0))
    return [identities.verify_quadruple_moment(us)]


def _run_katsurada(pt):
    u = complex(pt["u_re"], pt["u_im"])
    return [identities.verify_katsurada(u, u.conjugate())]


def _run_mellin(pt):
    return [identities.mellin_tail_check(complex(pt["u_re"]), complex(pt["v_re"]))]


def _run_unit_recursion(pt):
    return [identities.unit_interval_recursion(complex(pt["u_re"]), complex(pt["v_re"]))]


def _run_i1(pt):
    return identities.i1_asymptotic_check([pt["t"]])


def _run_remark219(pt):
    t = pt["t"]
    u = complex(pt.get("sigma", 0.5), t)
    v = complex(pt.get("sigma", 0.5), -t)
    return [identities.remark_219_check(u, v)]


def _run_afe_zeta(pt):
    return [afe.afe_zeta_residual(complex(pt["sigma"], pt["t"]))]


def _run_afe_hurwitz(pt):
    return [afe.afe_hurwitz_residual(complex(pt["sigma"], pt["t"]), pt["alpha"])]


def _run_projection(pt):
    n = _integer(pt["N"])
    rng = np.random.default_rng(1234 + n)
    z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-5.0, 5.0))
    return [afe.projection_identity_check(z, n, mirrored=m) for m in (False, True)]


def _run_weak_afe(pt):
    return [afe.weak_afe_residual(complex(pt["sigma"], pt["t"]))]


def _run_lemma3(pt):
    return [afe.lemma3_integral(complex(pt.get("sigma", 0.5), pt["t"]))]


def _run_power_mean_Ik(pt):
    k = _integer(pt["k"])
    value = afe.power_mean_Ik(k, pt["t"])
    return [identities.IdentityReport.record("power_mean_Ik", {"k": k, "t": pt["t"]}, value, value)]


def _run_power_mean_Jk(pt):
    k = _integer(pt["k"])
    value = afe.power_mean_Jk(k, pt["T"])
    env = math.log(pt["T"] / _2PI) + 2.0 * float(np.euler_gamma) - 1.0 if k == 1 else value
    gap = abs(value - env)  # relative to the envelope, not to J_k
    return [identities.IdentityReport(
        identity_id="power_mean_Jk", params={"k": k, "T": pt["T"], "envelope": env},
        lhs=complex(value), rhs=complex(env), abs_residual=gap,
        rel_residual=gap / max(abs(env), 1e-300))]


def _run_s1(pt):
    sigma, t, alpha = pt["sigma"], pt["t"], pt["alpha"]
    val = afe.s1_sum(sigma, t, alpha)
    bound = float(np.sum(np.arange(1, afe._s1_terms(t) + 1, dtype=float) ** (sigma - 1.0)))
    params = {"sigma": sigma, "t": t, "alpha": alpha, "bound": bound, "within_bound": abs(val) <= bound + 1e-12}
    return [identities.IdentityReport.record("s1_sum", params, val, val)]


def _run_theorem1(pt):
    return afe.theorem1_check(_integer(pt["k"]), [pt["t"]])


def _run_rane(pt):
    s = complex(pt["sigma"], pt["t"])
    alpha, M = pt["alpha"], _integer(pt["M"])
    val = fourier.rane_representation(s, alpha, M)
    ref = complex(special.hurwitz_zeta1(s, alpha))
    return [identities.IdentityReport.build(
        "rane", {"s": s, "alpha": alpha, "M": M}, ref, val)]


def _run_tail_lemma(pt):
    s = complex(pt.get("sigma", 0.5), pt["t"])
    alpha = pt["factor"] * (pt["t"] / _2PI)
    return [fourier.tail_lemma_check(s, alpha, pt.get("eta", 1.0))]


def _run_qn_modes(pt):
    n = _integer(pt["n"])
    u = complex(pt["u_re"], pt["u_im"])
    v = u.conjugate()
    qd = fourier.qn_direct(n, u, v)
    qc = fourier.qn_continued(n, u, v)
    return [identities.IdentityReport.build(
        "qn_modes", {"n": n, "u": u, "v": v}, qd.value, qc.value)]


def _run_highfreq(pt):
    u = complex(pt.get("sigma", 0.5), pt["t"])
    return [fourier.highfreq_tail_check(_integer(pt["n"]), u, u.conjugate(), pt.get("eta", 1.0))]


def _run_parseval2(pt):
    return [fourier.parseval_second_moment(complex(pt["sigma"], pt["t"]))]


def _run_parseval4(pt):
    return [fourier.parseval_fourth_moment(complex(pt["sigma"], pt["t"]), pt.get("eta", 1.0))]


def _run_theorem2(pt):
    return fourier.theorem2_check([pt["t"]], pt.get("eta", 1.0))


def _run_kernel_norms(pt):
    n = _integer(pt["N"])
    l1 = afe.kernel_norm_power(n, 1.0)
    l2sq = afe.kernel_norm_power(n, 2.0)
    params = {"N": n, "l1_over_logN": l1 / math.log(n) if n > 1 else l1}
    return [identities.IdentityReport.build("kernel_norms", params, complex(l2sq), complex(n))]


@dataclasses.dataclass(frozen=True)
class Suite:
    suite_id: str
    anchor: str
    description: str
    runner: object
    default_grid: GridSpec
    default_tol: float | None = None
    judge: object = None
    optional_axes: tuple = ()  # read by the runner with a default

    def judge_rows(self, rows: list[dict], tol: float | None) -> bool:
        if any("error" in r["params"] for r in rows):
            return False
        if self.judge is not None:
            return self.judge(rows)
        return _judge_tol(rows, tol if tol is not None else self.default_tol)


def _judge_i1(rows):
    return all(abs(float(r["params"]["corrected_diff_t2"])) <= 100.0 for r in rows) and all(
        abs(complex(r["lhs"]) - complex(r["rhs"])) <= 0.05 for r in rows
    )


def _judge_lemma3(rows):
    scaled = [float(r["params"]["scaled"]) for r in rows]
    strips = [float(r["params"]["strip_over_envelope"]) for r in rows]
    if any(math.isnan(v) for v in scaled + strips):
        return False
    return max(scaled) <= 10.0 * max(scaled[0], 0.05) and max(strips) <= 1.0


def _judge_Ik(rows):
    by_t: dict = {}
    for r in rows:
        by_t.setdefault(float(r["params"]["t"]), {})[int(r["params"]["k"])] = float(r["lhs"].real)
    for vals in by_t.values():
        if 1 in vals and 2 in vals and vals[2] < vals[1] ** 2 - 1e-9:
            return False
    return all(float(r["lhs"].real) >= 0.0 for r in rows)


def _judge_Jk(rows):
    for r in rows:
        if int(r["params"]["k"]) == 1 and r["rel_residual"] > 0.15:
            return False
    return True


def _judge_s1(rows):
    return all(r["params"].get("within_bound", False) for r in rows)


def _judge_theorem1(rows):
    ratios = [float(r["params"]["ratio"]) for r in rows]
    if any(math.isnan(v) for v in ratios):
        return False
    med = statistics.median(ratios)
    return med > 0 and max(ratios) / med <= 5.0


def _judge_rane(rows):
    return all(r["abs_residual"] <= 1e-3 for r in rows)


def _judge_ratio_record(bound: float, key: str = "ratio"):
    def judge(rows):
        return all(float(r["params"][key]) <= bound for r in rows)

    return judge


def _judge_kernel_norms(rows):
    if any(r["rel_residual"] > 1e-10 for r in rows):  # Parseval: L2^2 = N
        return False
    l1 = [float(r["params"]["l1_over_logN"]) for r in rows]
    return all(l1[i + 1] <= 1.6 * l1[i] and l1[i + 1] >= l1[i] / 1.6 for i in range(len(l1) - 1))


SUITES: dict[str, Suite] = {}


def _register(suite: Suite) -> None:
    SUITES[suite.suite_id] = suite


_register(Suite("square_identity", "Eq. 1.5", "contour identity for |zeta1|^2", _run_square,
                GridSpec({"sigma": _axis(1.2, 1.5, 2.0), "t": _axis(1.0, 5.0, 10.0),
                          "alpha": _axis(0.0, 0.5, 1.0)}), 1e-6))
_register(Suite("f_routes", "Eq. th1.5", "series vs contour route for f(u,v,alpha)", _run_f_routes,
                GridSpec({"u_re": _axis(2.0, 3.0), "v_re": _axis(2.0, 3.0),
                          "alpha": _axis(0.0, 0.5, 1.0)}), 1e-8,
                optional_axes=("u_im", "v_im")))
_register(Suite("quadratic_moment", "Eq. 1.11", "quadratic unit moment", _run_quadratic,
                GridSpec({"u_re": _axis(2.0, 3.0, 4.0), "v_re": _axis(2.0, 3.0, 4.0)}), 1e-7,
                optional_axes=("u_im", "v_im")))
_register(Suite("triple_moment", "Eq. 1.12", "triple unit moment", _run_triple,
                GridSpec({"re": _axis(2.0, 2.5), "im": _axis(0.0, 1.0)}), 1e-6))
_register(Suite("quadruple_moment", "Eq. 1.13", "quadruple unit moment (15 RHS terms)", _run_quadruple,
                GridSpec({"re": _axis(2.0, 2.5), "im": _axis(0.0, 1.0)}), 1e-6))
_register(Suite("katsurada", "Eq. I1", "explicit quadratic-moment identity", _run_katsurada,
                GridSpec({"u_re": _axis(1.3, 1.5, 1.7), "u_im": _axis(0.5, 2.0)}), 1e-6))
_register(Suite("mellin_tail", "Eq. 2.12", "weighted full-line tail closed form", _run_mellin,
                GridSpec({"u_re": _axis(2.0, 2.5, 3.0), "v_re": _axis(0.1, 0.3, 0.5)}), 1e-8))
_register(Suite("unit_recursion", "Eq. 2.13", "unit-interval recursion", _run_unit_recursion,
                GridSpec({"u_re": _axis(2.0, 3.0), "v_re": _axis(0.0, 0.5, 1.0, 1.5)}), 1e-7))
_register(Suite("i1_asymptotic", "Eq. 1.5 (sect. 1)", "I_1(t) against log(t/2pi)+gamma", _run_i1,
                GridSpec({"t": AxisSpec(50.0, 800.0, 5, "geometric")}), None, _judge_i1))
_register(Suite("remark_219", "Eq. 2.19", "large-t unit integral against (1/it) sum", _run_remark219,
                GridSpec({"t": _axis(50.0, 100.0)}), None, _judge_ratio_record(20.0, "scaled_t2"),
                optional_axes=("sigma",)))
_register(Suite("afe_zeta", "Eq. fok1", "zeta approximate functional equation", _run_afe_zeta,
                GridSpec({"sigma": _axis(0.3, 0.5, 0.7), "t": AxisSpec(25.0, 1600.0, 7, "geometric")}),
                None, lambda rows: _judge_bounded(rows, "scaled")))
_register(Suite("afe_hurwitz", "Eq. fok2", "shifted-series AFE with twisted sum", _run_afe_hurwitz,
                GridSpec({"sigma": _axis(0.5), "t": _axis(100.0, 500.0),
                          "alpha": _axis(0.1, 0.3, 0.5, 0.7, 0.9)}),
                None, lambda rows: _judge_bounded(rows, "scaled", spread_max=6.0)))
_register(Suite("projection", "Eqs. fok3/fok5", "exact kernel projection identities", _run_projection,
                GridSpec({"N": _axis(7, 25, 50, 100)}), 1e-10))
_register(Suite("weak_afe", "Eq. 1.6", "two-integral kernel functional equation", _run_weak_afe,
                GridSpec({"sigma": _axis(0.3, 0.5, 0.7), "t": AxisSpec(25.0, 400.0, 5, "geometric")}),
                None, lambda rows: _judge_bounded(rows, "scaled")))
_register(Suite("lemma3", "Lemma 3", "explicit kernel-sum integral evaluation", _run_lemma3,
                GridSpec({"t": _axis(50.0, 100.0, 200.0, 400.0)}), None, _judge_lemma3,
                optional_axes=("sigma",)))
_register(Suite("power_mean_Ik", "Eq. 1.8", "2k-th power mean of zeta1 on the critical line",
                _run_power_mean_Ik, GridSpec({"k": _axis(1, 2), "t": _axis(50.0, 100.0)}),
                None, _judge_Ik))
_register(Suite("power_mean_Jk", "Eq. zetameans", "2k-th power mean of zeta", _run_power_mean_Jk,
                GridSpec({"k": _axis(1), "T": _axis(50.0, 100.0)}), None, _judge_Jk))
_register(Suite("s1_sum", "Eq. 1.16", "dominant exponential sum S_1", _run_s1,
                GridSpec({"sigma": _axis(0.5), "t": _axis(66.0, 100.0), "alpha": _axis(0.0, 0.25, 0.5)}),
                None, _judge_s1))
_register(Suite("theorem1", "Thm 1 (Eq. Fok5)", "power-mean bound on |zeta| via I_k", _run_theorem1,
                GridSpec({"k": _axis(1, 2), "t": AxisSpec(50.0, 800.0, 5, "geometric")}),
                None, _judge_theorem1))
_register(Suite("rane", "Eq. Raneeq", "oscillatory-tail representation of zeta1", _run_rane,
                GridSpec({"sigma": _axis(0.5, 1.5), "t": _axis(0.0, 10.0),
                          "alpha": _axis(2.0, 5.0), "M": _axis(200)}), None, _judge_rane))
_register(Suite("tail_lemma", "Lemma intbyparts", "oscillatory tail size of zeta1", _run_tail_lemma,
                GridSpec({"t": _axis(50.0, 100.0), "factor": _axis(2.0, 4.0)}),
                None, _judge_ratio_record(1.0), optional_axes=("sigma", "eta")))
_register(Suite("qn_modes", "Eq. convhalf", "direct vs continued product coefficients", _run_qn_modes,
                GridSpec({"n": _axis(0, 2, 5), "u_re": _axis(2.0), "u_im": _axis(1.0)}), 1e-6))
_register(Suite("highfreq_tail", "Lemma (sect. 5, final)", "high-frequency coefficient bound",
                _run_highfreq, GridSpec({"t": _axis(50.0), "n": _axis(20, 40, 80)}),
                None, _judge_ratio_record(1.0), optional_axes=("sigma", "eta")))
_register(Suite("parseval2", "Parseval (sect. 5)", "second-moment Parseval identity", _run_parseval2,
                GridSpec({"sigma": _axis(0.5), "t": _axis(50.0)}), 1e-11))
_register(Suite("parseval4", "Parseval (sect. 5)", "fourth-moment Parseval identity", _run_parseval4,
                GridSpec({"sigma": _axis(0.5), "t": _axis(50.0)}), 1e-3,
                optional_axes=("eta",)))
_register(Suite("theorem2", "Thm 2", "fourth-power bound through truncated coefficients",
                _run_theorem2, GridSpec({"t": _axis(50.0, 100.0, 200.0, 400.0)}),
                None, _judge_ratio_record(10.0), optional_axes=("eta",)))
_register(Suite("kernel_norms", "Lemma 1", "Dirichlet-kernel norm growth", _run_kernel_norms,
                GridSpec({"N": _axis(10, 100, 1000, 10000)}), None, _judge_kernel_norms))


def config_hash(suite_id: str, grid: GridSpec, tolerance) -> str:
    payload = json.dumps(
        {
            "suite": suite_id,
            "grid": grid.describe(),
            "tolerance": tolerance,
        },
        sort_keys=True,
        default=_jsonable,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _run_point(args):
    """The rows of one grid point, each with the integrand evaluations and
    seconds of the whole point, an error row with those spent before its
    error."""
    suite_id, pt = args
    evals0, t0 = quadrature._evaluations(), time.perf_counter()
    try:
        reps = SUITES[suite_id].runner(pt)
    except ZetaverError as exc:
        # NaN on both sides, so NaN residuals
        reps = [identities.IdentityReport.build(
            suite_id, {"error": f"{type(exc).__name__}: {exc}"}, math.nan, math.nan)]
    dt = time.perf_counter() - t0
    evals = quadrature._evaluations() - evals0
    return [_row(rep, pt, evals, dt) for rep in reps]


def run_suite(spec: SuiteSpec, threads: int = 1) -> ReportFile:
    """Run one suite over its grid; returns the report with rows in grid order.

    threads > 1 runs grid points in a process pool of
    min(threads, grid points, CPUs) workers.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    suite = SUITES[spec.suite_id]
    grid = spec.grid if spec.grid is not None else suite.default_grid
    missing = [name for name in suite.default_grid.axes if name not in grid.axes]
    if missing:
        raise ConfigError(f"grid of suite {spec.suite_id} lacks axis {', '.join(missing)}")
    unread = [name for name in grid.axes
              if name not in suite.default_grid.axes and name not in suite.optional_axes]
    if unread:
        raise ConfigError(f"suite {spec.suite_id} reads no axis {', '.join(unread)}")
    pts = grid.points()
    if not pts:
        raise ConfigError("empty grid")
    tol = spec.tolerance if spec.tolerance is not None else suite.default_tol
    jobs = [(spec.suite_id, pt) for pt in pts]
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            chunks = list(ex.map(_run_point, jobs))
    else:
        chunks = [_run_point(j) for j in jobs]
    rows = [r for chunk in chunks for r in chunk]
    passed = suite.judge_rows(rows, tol)
    header = {
        "suite": spec.suite_id,
        "anchor": suite.anchor,
        "config_hash": config_hash(spec.suite_id, grid, tol),
        "tolerance": tol,
        "version": "0.1.0",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "rows": len(rows),
    }
    return ReportFile(header, rows, passed)


def list_suites() -> list[dict]:
    out = []
    for sid, suite in sorted(SUITES.items()):
        out.append(
            {
                "suite_id": sid,
                "anchor": suite.anchor,
                "description": suite.description,
                "default_tol": suite.default_tol,
                "grid": suite.default_grid.describe(),
            }
        )
    return out
