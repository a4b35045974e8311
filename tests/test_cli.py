"""Command-line interface: eval, run-suite, list-suites, report formats,
exit codes and reproducibility."""

import contextlib
import io
import json
import math
import time
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from zetaver import cli
from zetaver.cli import _grid_from_strings, main
from zetaver.errors import ConfigError
from zetaver.suites import (MAX_GRID_POINTS, SUITES, AxisSpec, GridSpec, SuiteSpec, config_hash,
                            run_suite)


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


def _printed(out: str):
    """(value, err estimate) of one eval line, and the rounding of the
    value's 12 significant digits."""
    head, err = out.split("(err estimate ")
    value = complex(head.replace(" ", "").replace("i", "j"))
    return value, float(err.rstrip(")\n")), 5e-12 * (abs(value.real) + abs(value.imag))


@pytest.mark.parametrize("s, fn", [("-10.5", "zeta"), ("-3.5+2i", "zeta"), ("-10.5", "zeta1"),
                                   ("-0.5+1000i", "zeta"), ("-2.5+500i", "zeta")],
                         ids=["-10.5", "-3.5+2i", "zeta1--10.5-alpha0", "-0.5+1000i", "-2.5+500i"])
def test_eval_zeta_left_half_plane_within_its_error(capsys, s, fn):
    # Re s < 0 prints chi(s) zeta(1 - s), as riemann_zeta takes it, also
    # for zeta1 at alpha = 0; the direct sum was off by 6.5e-4 relative at
    # -10.5.  The printed value is within the printed error of 120-bit
    # mpmath, up to its own rounding
    import mpmath as mp

    from zetaver import special

    point = complex(s.replace("i", "j"))
    assert main(["eval", fn, f"--s={s}"] + (["--alpha=0"] if fn == "zeta1" else [])) == 0
    value, err, rounding = _printed(capsys.readouterr().out)
    with mp.workprec(120):
        ref = complex(mp.zeta(mp.mpc(point.real, point.imag)))
    assert abs(value - ref) <= err + rounding
    assert abs(special.riemann_zeta(point) - ref) <= err


@pytest.mark.parametrize("fn, s", [("chi", "0.5+400i"), ("chi", "9.5+400i"), ("chi", "0.5+3000i"),
                                   ("gamma", "0.5+400i"), ("gamma", "9.5+400i"),
                                   ("gamma", "14+400i")])
def test_eval_chi_and_gamma_within_their_error_at_large_t(capsys, fn, s):
    # both are exp of a log-space sum, whose rounding grows with |s|:
    # Gamma(14 + 400i) is off by 5.9e-13 relative.  Gamma underflows past
    # t = 400
    from zetaver import oracle, special

    point = complex(s.replace("i", "j"))
    assert main(["eval", fn, f"--s={s}"]) == 0
    _value, err, _rounding = _printed(capsys.readouterr().out)
    assert abs(complex(getattr(special, fn)(point)) - getattr(oracle, fn)(point)) <= err


def test_eval_real_axis_prints_no_imaginary_part(capsys):
    for fn in ("chi", "zeta"):
        assert main(["eval", fn, "--s", "-10.5"]) == 0
        assert "i" not in capsys.readouterr().out.split("(")[0]


def test_eval_zeta1(capsys):
    assert main(["eval", "zeta1", "--s", "2", "--alpha", "1"]) == 0
    assert "0.6449340668" in capsys.readouterr().out


def test_eval_qn_prints_computed_error(capsys):
    assert main(["eval", "q_n", "--n", "1", "--u", "0.6+20j", "--v", "0.6-20j"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("0.351729038") and "err estimate 1e-10" not in out


def test_eval_an_at_large_height_matches_mpmath(capsys):
    import mpmath as mp

    assert main(["eval", "a_n", "--n", "-84", "--s", "0.5+400i"]) == 0
    value = complex(capsys.readouterr().out.split("(")[0].replace(" ", "").replace("i", "j"))
    with mp.workdps(40):
        s, w = mp.mpc(0.5, 400), 2j * mp.pi * -84
        ref = complex(mp.gammainc(1 - s, w) * w ** (s - 1))
    assert abs(value - ref) <= 1e-10 * abs(ref)


def test_eval_kernel(capsys):
    assert main(["eval", "B_N", "--N", "5", "--alpha", "0"]) == 0
    assert capsys.readouterr().out.startswith("5")


@pytest.mark.parametrize("N, alpha", [(10**6, "0.3"), (10**7, "0.1"), (10**5, "1e-7"),
                                      (10**4, "12.123456789"), (10**6, "-0.45"), (10**7, "0.5")])
def test_eval_kernel_error_covers_mpmath(capsys, N, alpha):
    # the printed error was 1e-13 max(|B_N|, 1), which B_N at N = 10^6,
    # alpha = 0.3 missed by a factor 430
    import mpmath as mp

    from zetaver import special

    assert main(["eval", "B_N", "--N", str(N), f"--alpha={alpha}"]) == 0
    _value, err, _rounding = _printed(capsys.readouterr().out)
    with mp.workprec(120):
        d = mp.mpf(float(alpha)) - round(float(alpha))
        ref = complex(mp.expjpi((N + 1) * d) * mp.sinpi(N * d) / mp.sinpi(d))
    assert abs(special.dirichlet_kernel(N, float(alpha)) - ref) <= err


@pytest.mark.parametrize("sigma, t, alpha", [(0.9, 1e4, 0.25), (0.1, 1e4, 0.3), (0.5, 3000.0, 2.5),
                                             (0.9, 1000.0, -1.3), (0.5, 1000.0, 0.0)])
def test_eval_s1_error_covers_mpmath(capsys, sigma, t, alpha):
    # the printed error was 1e-13 max(|S1|, 1): 8.0e-13 at sigma = 0.9,
    # t = 10^4, alpha = 0.25, where the value is off by 1.7e-10
    import mpmath as mp

    from zetaver import afe

    assert main(["eval", "S1", f"--sigma={sigma}", f"--t={t}", f"--alpha={alpha}"]) == 0
    _value, err, _rounding = _printed(capsys.readouterr().out)
    with mp.workprec(120):
        s, a = mp.mpc(sigma, t), mp.mpf(alpha)
        ref = complex(mp.fsum(mp.power(n, s - 1) * mp.expjpi(-2 * n * a)
                              for n in range(1, afe._s1_terms(t) + 1)))
    assert abs(afe.s1_sum(sigma, t, alpha) - ref) <= err


def test_eval_domain_error_mirrors_library(capsys):
    assert main(["eval", "zeta1", "--s", "2", "--alpha", "-1"]) == 2
    assert "DomainError" in capsys.readouterr().err


@pytest.mark.parametrize("s", ["200", "200+1i"])
def test_eval_value_that_is_not_finite_is_domain_error(capsys, s):
    # Gamma(200) overflows: exit 2 with the error, not inf with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval", "gamma", "--s", s]) == 2
    captured = capsys.readouterr()
    assert "DomainError: gamma is not finite" in captured.err and not captured.out
    assert "Warning" not in captured.err


def test_eval_largest_finite_gamma_is_printed(capsys):
    assert main(["eval", "gamma", "--s", "171"]) == 0
    value = float(capsys.readouterr().out.split()[0])
    assert math.isclose(value, math.gamma(171.0), rel_tol=1e-10)


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


def test_threads_env_projection_rows_match_serial(tmp_path, monkeypatch):
    # each pool worker reads its own evaluation meter, so evals match too
    argv = ["run-suite", "projection", "--grid", "N=7,25", "--format", "json", "--out"]
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
    assert [r["evals"] for r in rows("pool.json")] == [540, 540, 1890, 1890]


def test_run_suite_unwritable_out_is_config_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    for out in (tmp_path, tmp_path / "file" / "r.csv"):
        argv = ["run-suite", "mellin_tail", "--grid", "u_re=2.5", "--grid", "v_re=0.3",
                "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error: cannot write report" in err and "Traceback" not in err


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
    # a missing integer or real argument
    ["eval", "a_n", "--s", "2"],
    ["eval", "B_N", "--alpha", "0.3"],
    ["eval", "q_n", "--u", "2", "--v", "2"],
    ["eval", "S1", "--alpha", "0.2"],
    ["eval", "I_k"],
    ["eval", "J_k"],
])
def test_eval_bad_point_exits_two_without_traceback(capsys, argv):
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_eval_overflowing_height_is_convergence_error(capsys):
    # 2 |Im s| / pi overflows to inf: the base-term count is not finite
    assert main(["eval", "zeta", "--s=1e308+1e308i"]) == 2
    err = capsys.readouterr().err
    assert "ConvergenceError" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["eval", "zeta1", "--s", "2"],
    ["eval", "B_N", "--N", "5"],
    ["eval", "S1", "--t", "70"],
])
def test_eval_complex_alpha_is_config_error(capsys, argv):
    assert main(argv + ["--alpha", "1+1i"]) == 2
    assert "configuration error: --alpha must be real" in capsys.readouterr().err
    # a zero imaginary part is a real alpha
    assert main(argv + ["--alpha", "0.5+0i"]) == 0


def test_config_file_bad_tol_is_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "suite.ini"
    cfgfile.write_text("[quadratic_moment]\ntol = x\n")
    assert main(["run-suite", "quadratic_moment", "--config", str(cfgfile)]) == 2
    assert "configuration error" in capsys.readouterr().err


# an INI file configparser or UTF-8 cannot read printed a traceback and
# exited 1, the code of a tolerance breach
@pytest.mark.parametrize("content", [
    b"tol = 1e-6\n",
    b"[quadratic_moment]\ntol = 1e-6\n[quadratic_moment]\ntol = 1e-7\n",
    b"[quadratic_moment]\ntol\n",
    b"[quadratic_moment]\ntol = %(x)s\n",
    b"[quadratic_moment]\ntol = 1e-6\n# \xff\xfe\n",
], ids=["no-section-header", "duplicate-section", "key-without-value", "interpolation",
        "not-utf-8"])
def test_malformed_config_file_is_config_error(tmp_path, capsys, content):
    cfgfile = tmp_path / "suite.ini"
    cfgfile.write_bytes(content)
    out = tmp_path / "r.json"
    assert main(["run-suite", "quadratic_moment", "--config", str(cfgfile), "--grid", "u_re=2",
                 "--grid", "v_re=3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot read config file") and err.count("\n") == 1
    assert not out.exists()


# a NaN tolerance breached every row of a tolerance-judged suite (exit 1)
# and passed a bounded-judged one (exit 0); inf passed every row
@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "-1e-300"])
@pytest.mark.parametrize("suite_argv", [
    ["run-suite", "quadratic_moment", "--grid", "u_re=2", "--grid", "v_re=3"],
    ["run-suite", "lemma3"],
])
def test_non_finite_or_negative_tol_is_config_error(capsys, suite_argv, tol):
    # the = form: argparse takes "-inf" and "-1e-300" after a space for options
    assert main(suite_argv + [f"--tol={tol}"]) == 2
    assert "tolerance must be finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_config_file_non_finite_or_negative_tol_is_config_error(tmp_path, capsys, tol):
    cfgfile = tmp_path / "suite.ini"
    cfgfile.write_text(f"[quadratic_moment]\ntol = {tol}\ngrid.u_re = 2\ngrid.v_re = 3\n")
    assert main(["run-suite", "quadratic_moment", "--config", str(cfgfile)]) == 2
    assert "tolerance must be finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_suite_spec_rejects_non_finite_or_negative_tol(tol):
    with pytest.raises(ConfigError):
        SuiteSpec("quadratic_moment", tolerance=tol)


@pytest.mark.parametrize("suite_id", sorted(SUITES))
def test_suite_spec_takes_a_tolerance_only_where_no_judge_reads_its_own(suite_id):
    if SUITES[suite_id].judge is None:
        assert SuiteSpec(suite_id, tolerance=1e-6).tolerance == 1e-6
    else:
        with pytest.raises(ConfigError, match="reads no tolerance"):
            SuiteSpec(suite_id, tolerance=1e-6)


def test_judged_suite_tol_is_config_error(tmp_path, capsys):
    # s1_sum is judged by its bound alone: a tolerance would only change
    # the header and the config hash
    out = tmp_path / "r.json"
    assert main(["run-suite", "s1_sum", "--tol", "1e-30", "--out", str(out)]) == 2
    assert "configuration error: suite s1_sum has its own judge" in capsys.readouterr().err
    assert not out.exists()
    cfgfile = tmp_path / "suite.ini"
    cfgfile.write_text("[lemma3]\ntol = 1e-6\n")
    assert main(["run-suite", "lemma3", "--config", str(cfgfile)]) == 2
    assert "lemma3 has its own judge and reads no tolerance" in capsys.readouterr().err


def test_zero_tol_is_accepted(tmp_path):
    out = tmp_path / "r.json"
    code = main(["run-suite", "quadratic_moment", "--grid", "u_re=2", "--grid", "v_re=3",
                 "--tol", "0", "--format", "json", "--out", str(out)])
    assert code in (0, 1)
    assert json.loads(out.read_text())["header"]["tolerance"] == 0.0


def test_cached_parser_keeps_no_state_between_calls(tmp_path):
    # the parser is built once per process; a second call without --grid
    # and --tol gets the defaults, not the first call's values
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["run-suite", "quadratic_moment", "--grid", "u_re=2", "--grid", "v_re=2",
                 "--tol", "1e-30", "--format", "json", "--out", str(first)]) == 1
    assert main(["run-suite", "quadratic_moment", "--format", "json", "--out", str(second)]) == 0
    one, two = json.loads(first.read_text()), json.loads(second.read_text())
    assert one["header"]["tolerance"] == 1e-30 and len(one["rows"]) == 1
    suite = SUITES["quadratic_moment"]
    assert two["header"]["tolerance"] == suite.default_tol
    assert two["header"]["config_hash"] == config_hash("quadratic_moment", suite.default_grid,
                                                       suite.default_tol)
    assert len(two["rows"]) == 9
    parser = cli._build_parser()
    assert parser is cli._build_parser()
    args = parser.parse_args(["run-suite", "quadratic_moment"])
    assert args.grid == [] and args.tol is None


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


def test_rane_desk_scale_M_annotates_row_at_once(tmp_path, capsys):
    # the Python sum over 0 < |m| < M would run for hours at M = 1e20
    out = tmp_path / "r.json"
    start = time.perf_counter()
    code = main(["run-suite", "rane", "--grid", "sigma=0.5", "--grid", "t=10", "--grid", "alpha=2",
                 "--grid", "M=1e20", "--format", "json", "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    rows = json.loads(out.read_text())["rows"]
    assert rows[0]["params"]["error"].startswith("DomainError")


def test_non_integral_integer_axis_exits_one_with_an_error_row(tmp_path, capsys):
    # int() would truncate n = 0.5 and compute a second row at n = 0
    out = tmp_path / "r.json"
    code = main(["run-suite", "qn_modes", "--grid", "n=0,0.5", "--grid", "u_re=2",
                 "--grid", "u_im=1", "--format", "json", "--out", str(out)])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    rows = json.loads(out.read_text())["rows"]
    assert "error" not in rows[0]["params"]
    assert rows[1]["params"]["error"] == "DomainError: requires an integer, got 0.5"


def test_continued_q0_at_u_plus_v_two(tmp_path, capsys):
    # the pole of a_0(u + v - 1) at u + v = 2 cancels in the continued lead
    assert main(["eval", "q_n", "--n", "0", "--u", "1+20i", "--v", "1-20i"]) == 0
    assert capsys.readouterr().out.startswith("0.96460193741")
    out = tmp_path / "r.json"
    assert main(["run-suite", "parseval4", "--grid", "sigma=1", "--grid", "t=20",
                 "--format", "json", "--out", str(out)]) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert "error" not in row["params"] and row["rel_residual"] <= 1e-3


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
    # the contour, moment, asymptotic and AFE suites: each value keeps a
    # call under 0.1 s (i1_asymptotic and theorem1 stop below t = 800), and
    # sigma = 1, Re u = 1, alpha at the interval ends, k = 3 or t below the
    # stated ranges are out of domain
    "square_identity": {"sigma": ("1.5", "1.2,2", "0.5", "1"), "t": ("1", "0,10", "1:10:3", "30"),
                        "alpha": ("0.5", "0,1", "0:1:3")},
    "quadruple_moment": {"re": ("2", "2.5", "1.05,2", "1"), "im": ("0", "1", "0,5")},
    "i1_asymptotic": {"t": ("50", "50,200", "20:200:3:geometric", "5")},
    "remark_219": {"t": ("50", "50,100", "10", "1"), "sigma": ("0.5", "0.25,0.75", "1.5")},
    "afe_hurwitz": {"sigma": ("0.5", "0.3,0.7", "1.5"), "t": ("100", "50,500", "1600"),
                    "alpha": ("0.5", "0.1,0.9", "0", "1")},
    "weak_afe": {"sigma": ("0.5", "0.3,0.7", "1.5"), "t": ("25", "25,100", "400", "5")},
    "theorem1": {"k": ("1", "2", "1,2", "3"), "t": ("50", "50,100", "200", "10")},
    # M = 1e6 is above the desk-scale cap of the Python sum over m
    "rane": {"sigma": ("0.5", "1.5", "0.5,1.5"), "t": ("0", "10", "0,10"),
             "alpha": ("2", "5", "0.5,2"), "M": ("200", "2,50", "1e6")},
    "tail_lemma": {"t": ("50", "50,100", "1"), "factor": ("2", "2,4", "0.5"),
                   "sigma": ("0.5", "0.25,0.75"), "eta": ("1", "0.5,2")},
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
