"""Command-line interface: eval, run-suite, list-suites, report formats,
exit codes and reproducibility."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from zetaver.cli import _grid_from_strings, main
from zetaver.errors import ConfigError
from zetaver.suites import MAX_GRID_POINTS, SUITES, AxisSpec, GridSpec, SuiteSpec, run_suite


def test_list_suites_text(capsys):
    assert main(["list-suites"]) == 0
    out = capsys.readouterr().out
    assert "square_identity" in out and "(Eq. 1.5)" in out
    assert "katsurada" in out and "(Eq. I1)" in out
    assert "theorem2" in out and "(Thm 2)" in out


def test_suite_registry_size():
    assert len(SUITES) >= 14


def test_list_suites_machine_format(capsys):
    assert main(["list-suites", "--format", "json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    ids = {e["suite_id"] for e in entries}
    assert {"square_identity", "katsurada", "theorem2"} <= ids


def test_eval_zeta(capsys):
    assert main(["eval", "zeta", "--s", "2"]) == 0
    assert "1.6449340668" in capsys.readouterr().out


def test_eval_zeta1(capsys):
    assert main(["eval", "zeta1", "--s", "2", "--alpha", "1"]) == 0
    assert "0.6449340668" in capsys.readouterr().out


def test_eval_qn_prints_computed_error(capsys):
    assert main(["eval", "q_n", "--n", "1", "--u", "0.6+20j", "--v", "0.6-20j"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("0.351729038") and "err estimate 1e-10" not in out


def test_eval_kernel(capsys):
    assert main(["eval", "B_N", "--N", "5", "--alpha", "0"]) == 0
    assert capsys.readouterr().out.startswith("5")


def test_eval_domain_error_mirrors_library(capsys):
    assert main(["eval", "zeta1", "--s", "2", "--alpha", "-1"]) == 2
    assert "DomainError" in capsys.readouterr().err


def test_run_suite_pass_and_exit_zero(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["run-suite", "quadratic_moment", "--grid", "u_re=2,3",
                 "--grid", "v_re=2,3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("identity_id,param_json,lhs_re,lhs_im,rhs_re,rhs_im,"
                        "abs_residual,rel_residual,evals,seconds")
    assert len(lines) == 5  # header + 4 grid points


def test_run_suite_unknown_exit_two(capsys):
    assert main(["run-suite", "unknown_suite"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_run_suite_breach_exit_one(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main(["run-suite", "quadratic_moment", "--grid", "u_re=2", "--grid", "v_re=2",
                 "--tol", "1e-30", "--out", str(out)])
    assert code == 1


def test_run_suite_invalid_point_annotated_not_aborted(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["run-suite", "tail_lemma", "--grid", "t=50", "--grid", "factor=2",
                 "--grid", "eta=0", "--format", "json", "--out", str(out)])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 1
    assert rows[0]["params"]["error"].startswith("DomainError")


def test_run_suite_json_format(tmp_path):
    out = tmp_path / "r.json"
    code = main(["run-suite", "mellin_tail", "--grid", "u_re=2.5", "--grid", "v_re=0.3",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["header"]["anchor"] == "Eq. 2.12"
    assert len(payload["rows"]) == 1


def test_csv_floats_seventeen_significant_digits(tmp_path):
    out = tmp_path / "r.csv"
    main(["run-suite", "quadratic_moment", "--grid", "u_re=2", "--grid", "v_re=2",
          "--out", str(out)])
    row = out.read_text().splitlines()[1]
    lhs_re = row.split('",')[1].split(",")[0]
    assert lhs_re == format(float(lhs_re), ".17g")
    assert len(lhs_re.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_report_rows_reproducible():
    spec = SuiteSpec("quadratic_moment")
    r1 = run_suite(spec)
    r2 = run_suite(spec)
    assert r1.header["config_hash"] == r2.header["config_hash"]
    for a, b in zip(r1.rows, r2.rows):
        # identical numeric payload; wall-clock seconds are metadata
        assert a["lhs"] == b["lhs"]
        assert a["rhs"] == b["rhs"]
        assert a["abs_residual"] == b["abs_residual"]
        assert a["rel_residual"] == b["rel_residual"]
        assert a["evals"] == b["evals"]


def test_config_file_and_env_overrides(tmp_path, capsys, monkeypatch):
    cfgfile = tmp_path / "suite.ini"
    cfgfile.write_text("[quadratic_moment]\ntol = 1e-5\ngrid.u_re = 2,3\ngrid.v_re = 2\n")
    outdir = tmp_path / "reports"
    monkeypatch.setenv("ZETAVER_OUT_DIR", str(outdir))
    code = main(["run-suite", "quadratic_moment", "--config", str(cfgfile),
                 "--out", "qm.csv"])
    assert code == 0
    assert (outdir / "qm.csv").exists()
    lines = (outdir / "qm.csv").read_text().splitlines()
    assert len(lines) == 3  # header + 2 points


def test_threads_env_accepted(tmp_path, monkeypatch):
    monkeypatch.setenv("ZETAVER_THREADS", "2")
    out = tmp_path / "r.csv"
    code = main(["run-suite", "mellin_tail", "--grid", "u_re=2.5,3.0",
                 "--grid", "v_re=0.3", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_threads_env_rows_match_serial(tmp_path, monkeypatch):
    argv = ["run-suite", "mellin_tail", "--grid", "u_re=2.5,3.0", "--grid", "v_re=0.3",
            "--format", "json", "--out"]
    monkeypatch.delenv("ZETAVER_THREADS", raising=False)
    assert main(argv + [str(tmp_path / "serial.json")]) == 0
    monkeypatch.setenv("ZETAVER_THREADS", "2")
    assert main(argv + [str(tmp_path / "pool.json")]) == 0

    def rows(name):
        out = json.loads((tmp_path / name).read_text())["rows"]
        for row in out:
            del row["seconds"]
        return out

    assert rows("pool.json") == rows("serial.json")


@pytest.mark.parametrize("threads, cpus, workers", [
    (1000, 64, 3),  # capped by the grid
    (1000, 2, 2),  # capped by the CPUs
    (2, 64, 2),
    (1000, 1, None),  # one worker runs serially, without a pool
])
def test_pool_workers_capped(monkeypatch, threads, cpus, workers):
    import concurrent.futures
    import os

    seen = []

    class SerialPool:
        # records max_workers and runs the jobs in this process
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    grid = _grid_from_strings(["u_re=2.5,3.0,3.5", "v_re=0.3"])
    report = run_suite(SuiteSpec("mellin_tail", grid=grid), threads=threads)
    assert len(report.rows) == 3
    assert seen == ([] if workers is None else [workers])


@pytest.mark.parametrize("how", ["flag", "env"])
def test_threads_below_one_is_config_error(capsys, monkeypatch, how):
    argv = ["run-suite", "mellin_tail", "--grid", "u_re=2.5", "--grid", "v_re=0.3"]
    if how == "flag":
        monkeypatch.delenv("ZETAVER_THREADS", raising=False)
        argv += ["--threads", "0"]
    else:
        monkeypatch.setenv("ZETAVER_THREADS", "-1")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "threads" in err


def test_threads_env_not_an_integer_is_config_error(capsys, monkeypatch):
    monkeypatch.setenv("ZETAVER_THREADS", "x")
    assert main(["run-suite", "mellin_tail", "--grid", "u_re=2.5", "--grid", "v_re=0.3"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err


@pytest.mark.parametrize("suite, grids", [
    ("i1_asymptotic", ["t=inf"]),
    ("i1_asymptotic", ["t=1:inf:3"]),
    ("i1_asymptotic", ["t=a:b:3"]),
    ("katsurada", ["u_re=1.5", "u_im=nan"]),
])
def test_non_finite_or_malformed_grid_is_config_error(capsys, suite, grids):
    argv = ["run-suite", suite]
    for g in grids:
        argv += ["--grid", g]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["run-suite", "quadratic_moment", "--tol-abs", "1e-6"],
    ["run-suite", "quadratic_moment", "--tol-rel", "1e-5"],
    ["eval", "zeta", "--s", "2", "--tol-abs", "1e-4"],
])
def test_integration_tolerance_options_do_not_exist(capsys, argv):
    # integration tolerances are fixed per verifier; only the suite's pass
    # tolerance (--tol) is an option
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    # the 1/(u - 1) of the large-alpha zeta1 expansion: a pole, not a crash
    ["eval", "q_n", "--n", "1", "--u", "1", "--v", "0.5"],
    ["eval", "q_n", "--n", "1", "--u", "2", "--v", "1"],
    ["eval", "chi", "--s", "nan"],
    ["eval", "a_n", "--n", "1", "--s", "nan"],
    ["eval", "zeta", "--s", "abc"],
    # the Pochhammer symbols of the Euler-Maclaurin bound overflow
    ["eval", "zeta", "--s", "1e20"],
])
def test_eval_bad_point_exits_two_without_traceback(capsys, argv):
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_config_file_bad_tol_is_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "suite.ini"
    cfgfile.write_text("[quadratic_moment]\ntol = x\n")
    assert main(["run-suite", "quadratic_moment", "--config", str(cfgfile)]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("grids", [["x=1"], ["=1"], ["t=50", " =1"]])
def test_missing_or_empty_grid_axis_is_config_error(capsys, grids):
    argv = ["run-suite", "remark_219"]
    for g in grids:
        argv += ["--grid", g]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err


_GRID_TOKENS = st.sampled_from(["t", "x", "=", ":", ",", " ", "-", ".", "e", "0", "1", "5",
                                "1e400", "inf", "nan", "linear", "geometric"])
_GRID_TEXT = st.lists(_GRID_TOKENS, max_size=10).map("".join) | st.text(max_size=12)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(_GRID_TEXT, min_size=1, max_size=3))
def test_grid_parser_yields_grid_or_config_error(items):
    # parses only: no grid point is evaluated
    try:
        grid = _grid_from_strings(items)
    except ConfigError:
        return
    assert isinstance(grid, GridSpec)


@pytest.mark.parametrize("suite, grids", [
    ("s1_sum", ["sigma=0.5", "t=1e20", "alpha=0.25"]),
    ("kernel_norms", ["N=1e20"]),
    ("afe_zeta", ["sigma=0.5", "t=1e20"]),
])
def test_desk_scale_bound_annotates_row(tmp_path, capsys, suite, grids):
    out = tmp_path / "r.json"
    argv = ["run-suite", suite, "--format", "json", "--out", str(out)]
    for g in grids:
        argv += ["--grid", g]
    assert main(argv) == 1
    assert "Traceback" not in capsys.readouterr().err
    rows = json.loads(out.read_text())["rows"]
    assert rows[0]["params"]["error"].startswith("DomainError")


def test_grid_point_count_is_bounded_before_any_axis_is_built():
    with pytest.raises(ConfigError):
        GridSpec({"t": AxisSpec(50.0, 100.0, 10**19)})
    side = AxisSpec(0.0, 1.0, 101)  # 101 * 101 points: each axis alone is fine
    assert side.size() ** 2 > MAX_GRID_POINTS >= side.size()
    with pytest.raises(ConfigError):
        GridSpec({"a": side, "b": side})
    assert len(GridSpec({"a": side}).points()) == 101


@pytest.mark.parametrize("suite, grids", [
    ("remark_219", ["t=50:100:10000000000000000000"]),
    ("remark_219", ["t=50:100:100", "sigma=0:1:101"]),
    ("power_mean_Jk", ["k=1", "T=50", "TT=1,2"]),
    ("remark_219", ["t=50", "sigmaa=0.6"]),
    ("parseval4", ["sigma=0.5", "t=50", "sigma_=1"]),
])
def test_oversized_grid_or_unread_axis_is_config_error(capsys, suite, grids):
    argv = ["run-suite", suite]
    for g in grids:
        argv += ["--grid", g]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err


def test_optional_axes_are_read(tmp_path):
    out = tmp_path / "r.json"
    code = main(["run-suite", "quadratic_moment", "--grid", "u_re=2", "--grid", "v_re=3",
                 "--grid", "u_im=0.5", "--grid", "v_im=-0.5", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["params"]["u"] == [2.0, 0.5] and row["params"]["v"] == [3.0, -0.5]


# Whole run-suite argument lists: each default axis is usually kept, an
# optional, unknown or repeated axis is sometimes added, and an axis spec is
# one of the axis's bounded values (every row stays cheap) or malformed,
# non-finite, out of domain or of a huge count.
_S1_AFE_VALUES = ("0.5", "0.25,0.75", "66", "66,100", "25:100:3", "25:1600:3:geometric")
_FUZZ_AXES = {
    "s1_sum": {"sigma": _S1_AFE_VALUES, "t": _S1_AFE_VALUES, "alpha": _S1_AFE_VALUES},
    "afe_zeta": {"sigma": _S1_AFE_VALUES, "t": _S1_AFE_VALUES},
    "kernel_norms": {"N": ("1", "10", "10,100", "2:300:3:geometric", "1000")},
    "projection": {"N": ("1", "7", "7,25", "2:100:3:geometric")},
    # t = 1e6 asks for more initial panels than one panelling may have
    "lemma3": {"t": ("20", "50", "20:400:3:geometric", "1e6"), "sigma": ("0.5", "0.25,0.75")},
    "power_mean_Ik": {"k": ("1", "2", "3", "1,2"), "t": ("7", "20,50", "10:100:3")},
    "power_mean_Jk": {"k": ("1", "2", "1,2"), "T": ("1", "10,50", "20:100:3")},
    # unit powers near their edge Re p = -1 (v_re near 1 or 2), zeta1 at
    # Re u < 0, the polynomial u = -1 (u + 1 = 0 in the recursion) and the
    # pole u = 1
    "mellin_tail": {"u_re": ("2", "1.05,4", "1.5:3:3", "1"),
                    "v_re": ("0.1", "0.99", "0.95,0.999", "-0.5:0.5:3")},
    "unit_recursion": {"u_re": ("2", "-0.5", "-2.5,0.5", "1", "-1"),
                       "v_re": ("0", "0.99,1", "1.01:1.99:3", "-3")},
    "katsurada": {"u_re": ("1.3", "1.05,1.95", "1", "1.2:1.8:3"), "u_im": ("0.5", "0", "2,3")},
    # the [1, inf) tails and the q_n modes: power expansions of zeta1 in
    # alpha near u = 1, at its pole and at Re u < 1
    "quadratic_moment": {"u_re": ("2", "1.05,4", "1"), "v_re": ("2", "1.05,4", "1"),
                         "u_im": ("0,30",)},
    "f_routes": {"u_re": ("1.05,3", "1"), "v_re": ("1.05,3", "1"), "alpha": ("0,100",)},
    "triple_moment": {"re": ("1.05,2",), "im": ("0,5",)},
    "qn_modes": {"n": ("0,2",), "u_re": ("2,1,0.5",), "u_im": ("1,20",)},
    # the Fourier suites: one table-backed head per row, and the fourth
    # moment's q_n sum at a small t
    "theorem2": {"t": ("13,50",)},
    "highfreq_tail": {"t": ("20,50",), "n": ("5,20",)},
    "parseval4": {"sigma": ("0.75,1.5",), "t": ("5",)},
}
# suites whose default grids take a second or more: every axis is given
_FUZZ_ALL_AXES = {"theorem2", "highfreq_tail", "parseval4"}
_FUZZ_EXTRA = st.sampled_from(["eta", "u_im", "TT", "sigmaa", "sigma", "t", "k", ""])
_FUZZ_BAD = (
    "0", "-1", "1e20", "1e400", "inf", "-inf,0.5", "nan", "50:100:10000000000000000000",
    "1:2:0", "2:1:2", "0:1:2:geometric", "1:2:3:cubic", "x", "", "1,,2", "1:2",
)


@st.composite
def _run_suite_argv(draw):
    suite = draw(st.sampled_from(sorted(_FUZZ_AXES)))
    axes = _FUZZ_AXES[suite]
    names = [n for n in axes if suite in _FUZZ_ALL_AXES or draw(st.integers(0, 5))]
    names += draw(st.lists(_FUZZ_EXTRA, max_size=1))
    argv = ["run-suite", suite]
    for name in names:
        valid = axes.get(name, ("0.5",))
        spec = draw(st.sampled_from(valid if draw(st.integers(0, 2)) else _FUZZ_BAD))
        argv += ["--grid", f"{name}={spec}"]
    argv += draw(st.sampled_from([[], ["--format", "json"], ["--tol", "1e-30"],
                                  ["--tol", "x"], ["--format", "xml"]]))
    return argv


@settings(derandomize=True, deadline=None, max_examples=450)
@given(_run_suite_argv())
def test_run_suite_argv_fuzz_exits_0_1_2_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the option itself
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
