"""Quick checks of the benchmark itself: the gate, the seeded inputs and
the tracer (rows bit-identical with tracing on, counts that repeat).

    python3 -m pytest perfbench/tests -q
"""

import array
import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import gate
import speed
import workloads
from tracer import Tracer

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

# Small calls touching every layer: special, zeta1_cache (theorem2),
# quadrature, all three verifier modules, suites and cli, and one
# failing suite (mellin_tail at Re(u+v) = 2).
SMALL = [
    ("theorem2", ["t=50.0"]),
    ("kernel_norms", ["N=10,100"]),
    ("quadratic_moment", ["u_re=2.0,3.0", "v_re=2.0"]),
    ("afe_zeta", ["sigma=0.5", "t=30.0"]),
    ("mellin_tail", ["u_re=2.0", "v_re=0.0,0.5"]),
]


def _run_small(tmp_path, tracer=None):
    from zetaver import cli

    if tracer is not None:
        tracer.install()
    try:
        out = []
        for i, (suite, axes) in enumerate(SMALL):
            path = str(tmp_path / f"{i}.json")
            code = cli.main(workloads.cli_argv(suite, axes, path))
            with open(path) as fh:
                out.append({"suite": suite, "exit": code, **gate.compact_report(json.load(fh))})
        return out
    finally:
        if tracer is not None:
            tracer.uninstall()


def test_traced_rows_bit_identical_and_counts_repeat(tmp_path):
    plain = _run_small(tmp_path)
    first, second = Tracer("a"), Tracer("b")
    traced = _run_small(tmp_path, first)
    _run_small(tmp_path, second)
    for a, b in zip(plain, traced):
        assert a["exit"] == b["exit"]
        assert gate.rows_identical(a, b), a["suite"]
    counts = first.deterministic_counts()
    assert counts == second.deterministic_counts()
    for key in ("quadrature.evals", "zeta1_cache.lookup_nodes", "special.nodes", "suites.evals"):
        assert counts[key] > 0, key
    assert counts["cli.nonzero_exits"] == 1  # mellin_tail fails at Re(u+v) = 2
    metrics = first.metrics()
    for layer in ("special", "zeta1_cache", "quadrature", "verifiers", "suites", "cli"):
        assert metrics[f"{layer}.self_s"] > 0.0, layer


def test_uninstall_restores_every_binding():
    import zetaver.cli
    from zetaver import afe, fourier, special, suites, zeta1_cache

    before = (afe.hurwitz_zeta1, fourier.integrate_finite, special.lgamma,
              suites.SUITES["theorem2"].runner, zeta1_cache.Zeta1AlphaTable.__call__,
              zetaver.cli.main)
    tracer = Tracer("x")
    tracer.install()
    assert afe.hurwitz_zeta1 is not before[0]
    assert afe.hurwitz_zeta1 is fourier.hurwitz_zeta1 is special.hurwitz_zeta1
    tracer.uninstall()
    after = (afe.hurwitz_zeta1, fourier.integrate_finite, special.lgamma,
             suites.SUITES["theorem2"].runner, zeta1_cache.Zeta1AlphaTable.__call__,
             zetaver.cli.main)
    assert all(a is b for a, b in zip(before, after))


def test_per_layer_names_match_tracer():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    produced = set(Tracer("x").metrics()) | {"trace.overhead_s"}
    produced |= {f"suite_s.{sid}" for sid in workloads._DEFAULT_GRIDS}
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_seed_zero_is_the_shipped_grids():
    from zetaver import cli, suites

    for suite, axes in workloads.grid_strings("identity_sweep", 0):
        grid = cli._grid_from_strings(axes)
        assert grid.points() == suites.SUITES[suite].default_grid.points(), suite


def test_seeded_variants_move_only_heights_and_shifts():
    assert workloads.grid_strings("fourier_moments", 3) == workloads.grid_strings("fourier_moments", 3)
    base = dict(workloads.grid_strings("identity_sweep", 0))
    for suite, axes in workloads.grid_strings("identity_sweep", 5):
        for new, old in zip(axes, base[suite]):
            name = new.split("=")[0]
            if name not in workloads.PERTURBED_AXES:
                assert new == old
            else:
                new_vals = workloads._axis_values(new.split("=")[1])
                old_vals = workloads._axis_values(old.split("=")[1])
                assert all(abs(n - o) <= 0.1 * abs(o) * (1 + 1e-9) for n, o in zip(new_vals, old_vals))
    assert workloads.variant_of("quadrature_kernel", 7) == workloads.variant_of("fourier_moments", 7) == 0
    assert workloads.variant_of("identity_sweep", 21) == 5


def test_references_cover_every_variant():
    for workload, count in workloads.VARIANTS.items():
        with open(os.path.join(BENCH, "refs", f"{workload}.json")) as fh:
            variants = json.load(fh)["variants"]
        assert sorted(variants, key=int) == [str(v) for v in range(count)], workload
        for v, ref in variants.items():
            grids = workloads.grid_strings(workload, int(v))
            assert [c["axes"] for c in ref["calls"]] == [axes for _, axes in grids]


def _call(rows, passed=True, tol=1e-6, exit_code=0):
    return {"suite": "quadratic_moment", "exit": exit_code, "passed": passed, "tol": tol,
            "rows": rows}


def _row(lhs, rel=1e-12, error=None):
    return {"id": "q", "point": {"u_re": 2.0}, "error": error, "lhs": [lhs, 0.0],
            "rhs": [lhs, 0.0], "abs_residual": rel * lhs, "rel_residual": rel,
            "num": {"u.0": 2.0}, "flags": {}}


def test_gate_allows_fail_to_pass_and_rejects_pass_to_fail():
    ref = _call([_row(1.0), _row(2.0, rel=1e-3)], passed=False, exit_code=1)
    same = copy.deepcopy(ref)
    assert gate.compare_call("quadratic_moment", same, ref) == []
    fixed = _call([_row(1.0), _row(2.0)], passed=True, exit_code=0)
    assert gate.compare_call("quadratic_moment", fixed, ref) == []
    broken = _call([_row(1.0, rel=1e-3), _row(2.0, rel=1e-3)], passed=False, exit_code=1)
    assert any("pass -> fail" in p for p in gate.compare_call("quadratic_moment", broken, ref))
    errored = _call([_row(float("nan"), error="DomainError: x"), _row(2.0, rel=1e-3)],
                    passed=False, exit_code=1)
    assert gate.compare_call("quadratic_moment", errored, ref)


def test_gate_compares_values_within_the_suite_tolerance():
    ref = _call([_row(1.0)])
    assert gate.compare_call("quadratic_moment", _call([_row(1.0 + 5e-7)]), ref) == []
    assert gate.compare_call("quadratic_moment", _call([_row(1.0 + 5e-6)]), ref)
    verdict = _call([_row(1.0)], passed=False, exit_code=1)
    assert gate.compare_call("quadratic_moment", verdict, ref)


def test_gate_holds_each_parameter_to_its_own_size():
    # kernel_norms: lhs ~ rhs ~ N, l1_over_logN ~ 0.5; judged suite, tol 1e-6
    def kernel_row(l1_over_logN):
        return {"id": "k", "point": {"N": 10000}, "error": None, "lhs": [10000.0, 0.0],
                "rhs": [10000.0, 0.0], "abs_residual": 0.0, "rel_residual": 0.0,
                "num": {"N": 10000.0, "l1_over_logN": l1_over_logN}, "flags": {}}

    ref = {"suite": "kernel_norms", "exit": 0, "passed": True, "tol": None,
           "rows": [kernel_row(0.5)]}
    same = dict(ref, rows=[kernel_row(0.5 + 1e-8)])
    assert gate.compare_call("kernel_norms", same, ref) == []
    moved = dict(ref, rows=[kernel_row(0.5 + 1e-4)])
    assert any("l1_over_logN" in p for p in gate.compare_call("kernel_norms", moved, ref))


def test_oracle_digits_is_capped_and_takes_the_minimum():
    calls = [_call([_row(1.0), _row(2.0)])]
    items = [{"call": 0, "row": 0, "expr": "lhs", "value": [1.0, 0.0]},
             {"call": 0, "row": 1, "expr": "lhs", "value": [2.0 * (1 + 1e-7), 0.0]}]
    assert gate.oracle_digits(calls, items[:1]) == gate.ORACLE_DIGITS_CAP
    assert gate.oracle_digits(calls, items) == pytest.approx(7.0, abs=1e-6)


def _speed_log(tmp_path, rows):
    path = tmp_path / "speed.bin"
    with open(path, "wb") as fh:
        array.array("d", [v for row in rows for v in row]).tofile(fh)
    return speed.SpeedLog(str(path))


def test_speed_log_rate_over_a_call_window(tmp_path):
    # The calibration does 10 kernels per 1 ms of its CPU until wall 5.0,
    # then half as many: the machine slowed down.
    rows = [(0.1 * i, 0.001 * i, 10.0 * i) for i in range(51)]
    rows += [(5.0 + 0.1 * i, 0.05 + 0.001 * i, 500.0 + 5.0 * i) for i in range(1, 51)]
    log = _speed_log(tmp_path, rows)
    assert log.rate(1.0, 2.0) == pytest.approx(10000.0)
    assert log.rate(6.0, 7.0) == pytest.approx(5000.0)
    assert log.factor(6.0, 7.0) == pytest.approx(5000.0 / speed.REF_RATE)
    # A window shorter than MIN_CAL_CPU_S of calibration is widened.
    assert log.rate(2.01, 2.02) == pytest.approx(10000.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "identity_sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
