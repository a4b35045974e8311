"""Every registered suite runs end to end on a reduced grid and passes its
own judge; exercises the full library surface through the batch layer."""

import inspect
import math
import os
import re
import subprocess
import sys

import pytest

import zetaver
from zetaver import special
from zetaver.suites import AxisSpec, GridSpec, SuiteSpec, SUITES, run_suite


def _ax(*vals):
    return AxisSpec(explicit=tuple(vals))


CHEAP_GRIDS = {
    "square_identity": GridSpec({"sigma": _ax(1.5), "t": _ax(5.0), "alpha": _ax(0.5)}),
    "f_routes": GridSpec({"u_re": _ax(2.0), "v_re": _ax(2.0), "alpha": _ax(0.5)}),
    "quadratic_moment": GridSpec({"u_re": _ax(2.0), "v_re": _ax(2.0)}),
    "triple_moment": GridSpec({"re": _ax(2.0), "im": _ax(0.5)}),
    "quadruple_moment": GridSpec({"re": _ax(2.0), "im": _ax(0.5)}),
    "katsurada": GridSpec({"u_re": _ax(1.5), "u_im": _ax(1.0)}),
    "mellin_tail": GridSpec({"u_re": _ax(2.5), "v_re": _ax(0.3)}),
    "unit_recursion": GridSpec({"u_re": _ax(2.0), "v_re": _ax(0.5, 1.0)}),
    "i1_asymptotic": GridSpec({"t": _ax(50.0, 100.0)}),
    "remark_219": GridSpec({"t": _ax(50.0)}),
    "afe_zeta": GridSpec({"sigma": _ax(0.5), "t": _ax(25.0, 50.0, 100.0)}),
    "afe_hurwitz": GridSpec({"sigma": _ax(0.5), "t": _ax(100.0),
                             "alpha": _ax(0.3, 0.5, 0.7)}),
    "projection": GridSpec({"N": _ax(7, 25)}),
    "weak_afe": GridSpec({"sigma": _ax(0.5), "t": _ax(25.0, 50.0, 100.0)}),
    "lemma3": GridSpec({"t": _ax(50.0, 100.0)}),
    "power_mean_Ik": GridSpec({"k": _ax(1, 2), "t": _ax(50.0)}),
    "power_mean_Jk": GridSpec({"k": _ax(1), "T": _ax(50.0)}),
    "s1_sum": GridSpec({"sigma": _ax(0.5), "t": _ax(66.0), "alpha": _ax(0.0, 0.25)}),
    "theorem1": GridSpec({"k": _ax(1), "t": _ax(50.0, 100.0, 200.0)}),
    "rane": GridSpec({"sigma": _ax(1.5), "t": _ax(0.0, 10.0), "alpha": _ax(2.0),
                      "M": _ax(200)}),
    "tail_lemma": GridSpec({"t": _ax(50.0), "factor": _ax(2.0)}),
    "qn_modes": GridSpec({"n": _ax(0, 2), "u_re": _ax(2.0), "u_im": _ax(1.0)}),
    "highfreq_tail": GridSpec({"t": _ax(50.0), "n": _ax(20)}),
    "parseval2": GridSpec({"sigma": _ax(0.5), "t": _ax(50.0)}),
    "parseval4": GridSpec({"sigma": _ax(0.5), "t": _ax(50.0)}),
    "theorem2": GridSpec({"t": _ax(50.0)}),
    "kernel_norms": GridSpec({"N": _ax(10, 100)}),
}


def test_every_suite_has_a_smoke_grid():
    assert set(CHEAP_GRIDS) == set(SUITES)


@pytest.mark.parametrize("suite_id", sorted(SUITES))
def test_suite_smoke(suite_id):
    spec = SuiteSpec(suite_id, grid=CHEAP_GRIDS[suite_id])
    report = run_suite(spec)
    assert report.rows, "suite produced no rows"
    errors = [r["params"].get("error") for r in report.rows if "error" in r["params"]]
    assert not errors, f"rows carried errors: {errors}"
    assert report.passed, f"suite judge failed: {[r['params'] for r in report.rows]}"


def test_unit_recursion_small_shift_row_passes():
    # at u = 3, v = 1.5 the difference (zeta1(u, a) - zeta(u)) / a cancels
    # to nothing as a -> 0 unless it is summed as a series there
    grid = GridSpec({"u_re": _ax(3.0), "v_re": _ax(1.5)})
    report = run_suite(SuiteSpec("unit_recursion", grid=grid))
    assert len(report.rows) == 1 and report.passed
    assert report.rows[0]["rel_residual"] <= 1e-12


def test_error_row_reports_the_evaluations_before_its_error():
    # the subtracted unit power at u = -5.5 stalls after its 20000 bisections
    grid = GridSpec({"u_re": _ax(-5.5), "v_re": _ax(0.5)})
    (row,) = run_suite(SuiteSpec("unit_recursion", grid=grid)).rows
    assert row["params"]["error"].startswith("ConvergenceError")
    assert row["evals"] == 15 * (4 + 2 * 20_000) == 600_060


# Summed row evals of each default grid (a point's count stands on each of
# its rows), and the base-sum terms of all 27 grids.  Both are
# deterministic, so a change of cost shows here before any timing does; the
# five suites that integrate nothing report 0.
_DEFAULT_GRID_EVALS = {
    "afe_hurwitz": 0, "afe_zeta": 0, "f_routes": 3_822, "highfreq_tail": 6_360,
    "i1_asymptotic": 7_860, "katsurada": 1_575, "kernel_norms": 291_645, "lemma3": 11_640,
    "mellin_tail": 2_835, "parseval2": 360, "parseval4": 4_140, "power_mean_Ik": 2_895,
    "power_mean_Jk": 4_500, "projection": 27_360, "qn_modes": 900, "quadratic_moment": 3_375,
    "quadruple_moment": 4_470, "rane": 0, "remark_219": 4_920, "s1_sum": 0,
    "square_identity": 15_762, "tail_lemma": 0, "theorem1": 23_475, "theorem2": 12_930,
    "triple_moment": 2_880, "unit_recursion": 750, "weak_afe": 29_790,
}
_DEFAULT_GRIDS_BASE_TERMS = 3_183_894


def test_default_grid_costs_are_pinned():
    start = special._base_terms()
    evals = {suite_id: sum(r["evals"] for r in run_suite(SuiteSpec(suite_id)).rows)
             for suite_id in SUITES}
    assert special._base_terms() - start == _DEFAULT_GRIDS_BASE_TERMS
    assert evals == _DEFAULT_GRID_EVALS


# One non-integral value on each integer axis, the other axes from CHEAP_GRIDS.
_NON_INTEGRAL = [("projection", "N", 7.5), ("kernel_norms", "N", 10.9),
                 ("power_mean_Ik", "k", 1.5), ("power_mean_Jk", "k", 1.5),
                 ("theorem1", "k", 1.5), ("rane", "M", 200.5), ("qn_modes", "n", 0.5),
                 ("highfreq_tail", "n", 20.5)]


@pytest.mark.parametrize("suite_id, axis, value", _NON_INTEGRAL)
def test_non_integral_value_on_an_integer_axis_is_an_error_row(suite_id, axis, value):
    # int() would truncate it and compute the row at the integer below
    grid = GridSpec(dict(CHEAP_GRIDS[suite_id].axes, **{axis: _ax(value)}))
    report = run_suite(SuiteSpec(suite_id, grid=grid))
    assert not report.passed
    errors = {r["params"]["error"] for r in report.rows}
    assert errors == {f"DomainError: requires an integer, got {value}"}


def test_every_integer_axis_is_checked():
    integer_axes = {(sid, axis) for sid, suite in SUITES.items()
                    for axis in re.findall(r'_integer\(pt\["(\w+)"\]\)',
                                           inspect.getsource(suite.runner))}
    assert integer_axes == {(sid, axis) for sid, axis, _ in _NON_INTEGRAL}
    assert not [sid for sid, suite in SUITES.items()
                if re.search(r'int\(pt\[', inspect.getsource(suite.runner))]


def test_integral_float_on_an_integer_axis_is_that_integer():
    grid = GridSpec({"n": _ax(2.0), "u_re": _ax(2.0), "u_im": _ax(1.0)})
    (row,) = run_suite(SuiteSpec("qn_modes", grid=grid)).rows
    assert row["params"]["n"] == 2 and type(row["params"]["n"]) is int


def test_rows_of_one_point_share_its_evaluations():
    grid = GridSpec({"N": _ax(7, 25)})
    rows = run_suite(SuiteSpec("projection", grid=grid)).rows
    assert [r["evals"] for r in rows] == [540, 540, 1890, 1890]


# Suites judged by one recorded statistic against a fixed bound.
RATIO_BOUNDS = {"remark_219": ("scaled_t2", 20.0), "theorem2": ("ratio", 10.0),
                "tail_lemma": ("ratio", 1.0), "highfreq_tail": ("ratio", 1.0)}


@pytest.mark.parametrize("suite_id", sorted(SUITES))
def test_error_annotated_row_fails_the_judge(suite_id):
    nan = float("nan")
    row = {"identity_id": suite_id, "params": {"point": {}, "error": "ConvergenceError: x"},
           "lhs": complex(nan), "rhs": complex(nan), "abs_residual": nan,
           "rel_residual": nan, "evals": 0, "seconds": 0.0}
    assert not SUITES[suite_id].judge_rows([row], None)
    if suite_id in RATIO_BOUNDS:
        # a statistic at its bound passes; NaN, inf and one over it fail
        key, bound = RATIO_BOUNDS[suite_id]
        for value, passes in ((bound, True), (nan, False), (math.inf, False), (2.0 * bound, False)):
            judged = dict(row, params={"point": {}, key: value}, lhs=0j, rhs=0j,
                          abs_residual=0.0, rel_residual=0.0)
            assert SUITES[suite_id].judge_rows([judged], None) is passes, value


@pytest.mark.parametrize("suite_id", sorted(SUITES))
def test_declared_axes_are_the_axes_the_runner_reads(suite_id):
    # run_suite rejects every other axis, so a read axis left undeclared
    # could never be set, and a declared one never read would be swept
    suite = SUITES[suite_id]
    read = set(re.findall(r'pt(?:\.get\(|\[)"(\w+)"', inspect.getsource(suite.runner)))
    assert read == set(suite.default_grid.axes) | set(suite.optional_axes)


def _stat_rows(suite_id, key, values, **params):
    return [{"identity_id": suite_id, "params": dict(params, t=50.0 * 2 ** i, **{key: v}),
             "lhs": 0j, "rhs": 0j, "abs_residual": 0.0, "rel_residual": 0.0,
             "evals": 0, "seconds": 0.0} for i, v in enumerate(values)]


@pytest.mark.parametrize("suite_id, key, params", [
    ("afe_zeta", "scaled", {"sigma": 0.5}),
    ("afe_hurwitz", "scaled", {"sigma": 0.5, "alpha": 0.5}),
    ("weak_afe", "scaled", {"sigma": 0.5}),
    ("lemma3", "scaled", {"strip_over_envelope": 0.5}),
    ("lemma3", "strip_over_envelope", {"scaled": 0.5}),
    ("theorem1", "ratio", {"k": 1}),
])
def test_nan_statistic_fails_the_judge(suite_id, key, params):
    # a NaN compares False with every bound and max() passes over it unless
    # it comes first, so each judge rejects it explicitly
    judge = SUITES[suite_id].judge_rows
    assert judge(_stat_rows(suite_id, key, [0.5, 0.6, 0.55, 0.5], **params), None)
    for at in range(4):
        values = [0.5, 0.6, 0.55, 0.5]
        values[at] = math.nan
        assert not judge(_stat_rows(suite_id, key, values, **params), None), at


def test_default_grids_leave_numpy_ma_unimported():
    # numpy.ma costs about 1 MB of memory and 13 ms in every fresh process,
    # and np.median and np.union1d import it on first use
    code = ("import sys\n"
            "from zetaver.suites import SUITES, SuiteSpec, run_suite\n"
            "for suite_id in SUITES:\n"
            "    run_suite(SuiteSpec(suite_id))\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(zetaver.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=600, check=True)
    assert out.stdout.split() == ["False"]
