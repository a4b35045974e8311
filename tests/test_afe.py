"""Approximate functional equations, kernel projections, explicit kernel
integrals, power means, the dominant sum, and the power-mean bound chain."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from zetaver import afe, quadrature, special
from zetaver.errors import DomainError
from zetaver.suites import SUITES, SuiteSpec, run_suite

_2PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# classic AFE
# ---------------------------------------------------------------------------


def _calibration_max(sigma: float, ts) -> float:
    return max(afe.afe_zeta_residual(complex(sigma, t)).params["scaled"] for t in ts)


def test_afe_zeta_scaled_bounded_by_calibration():
    cal = _calibration_max(0.5, [10.0, 25.0, 50.0, 75.0, 100.0])
    r = afe.afe_zeta_residual(complex(0.5, 1000.0))
    assert r.params["scaled"] <= 1.05 * cal


def test_afe_zeta_residual_decays():
    r500 = afe.afe_zeta_residual(complex(0.7, 500.0))
    r50 = afe.afe_zeta_residual(complex(0.7, 50.0))
    assert r500.abs_residual <= r50.abs_residual


def test_afe_zeta_boundary_continuity():
    # t crossing 2 pi k^2 changes N by one; the residual stays on scale
    t_edge = _2PI * 9.0
    below = afe.afe_zeta_residual(complex(0.5, t_edge - 1e-6)).params["scaled"]
    above = afe.afe_zeta_residual(complex(0.5, t_edge + 1e-6)).params["scaled"]
    cal = _calibration_max(0.5, [25.0, 50.0, 100.0])
    assert abs(above - below) <= 2.0 * cal


def test_afe_zeta_domain():
    with pytest.raises(DomainError):
        afe.afe_zeta_residual(complex(1.5, 50.0))


# ---------------------------------------------------------------------------
# shifted-series AFE
# ---------------------------------------------------------------------------


def test_afe_hurwitz_scaled_bounded():
    cal = max(afe.afe_hurwitz_residual(complex(0.5, t), 0.5).params["scaled"] for t in [25.0, 50.0, 100.0])
    r = afe.afe_hurwitz_residual(complex(0.5, 500.0), 0.5)
    assert r.params["scaled"] <= 2.0 * cal


def test_afe_hurwitz_reduces_to_zeta_as_alpha_vanishes():
    s = complex(0.5, 200.0)
    rz = afe.afe_zeta_residual(s)
    rh = afe.afe_hurwitz_residual(s, 1e-7)
    assert abs(rh.abs_residual - rz.abs_residual) <= 1e-3


def test_afe_hurwitz_uniform_in_alpha():
    s = complex(0.5, 300.0)
    mid = afe.afe_hurwitz_residual(s, 0.5).params["scaled"]
    worst = max(afe.afe_hurwitz_residual(s, a).params["scaled"] for a in np.linspace(0.05, 0.95, 10))
    assert worst <= 3.0 * max(mid, 0.3)


# ---------------------------------------------------------------------------
# projection identities (exact)
# ---------------------------------------------------------------------------


def test_projection_orthogonality_simple():
    rep = afe.projection_identity_check(0.0, 7)
    assert abs(rep.lhs - 7.0) < 1e-12
    assert abs(rep.rhs - 7.0) < 1e-10


def test_projection_complex_exponent():
    rep = afe.projection_identity_check(-0.5 + 3j, 50)
    assert abs(rep.lhs - rep.rhs) <= 1e-10 * max(abs(rep.lhs), 1.0)


def test_projection_mirrored_matches():
    z = 0.3 - 2j
    p1 = afe.projection_identity_check(z, 40)
    p2 = afe.projection_identity_check(z, 40, mirrored=True)
    assert abs(p1.lhs - p2.lhs) == 0.0
    assert abs(p1.rhs - p2.rhs) <= 1e-10 * max(abs(p1.rhs), 1.0)


@pytest.mark.parametrize("n", [400, 1000])
def test_projection_by_horner_at_large_n(n):
    # the twisted sum by Horner's rule in w keeps the exact identity, in
    # both orientations, at the suite runner's z and at z = 0.5 + 20i
    rows = SUITES["projection"].runner({"N": n})
    rows += [afe.projection_identity_check(0.5 + 20j, n, m) for m in (False, True)]
    assert len(rows) == 4
    assert max(r.rel_residual for r in rows) <= 1e-12


def test_projection_memory_holds_no_nodes_by_n_matrix():
    # a nodes x N complex matrix at N = 1000 alone would take 7.7 MB at
    # 480 nodes, and 15 MB at the 945 nodes of the largest batch
    tracemalloc.start()
    try:
        afe.projection_identity_check(0.5 + 20j, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_kernel_reconstruction_orthogonality():
    # int_0^1 B_N(a) e^{-2 pi i m a} da = 1 for 1 <= m <= N else 0
    from zetaver.quadrature import integrate_finite
    from zetaver.special import dirichlet_kernel

    n = 12
    for m in (1, 7, 12, 13, 20, 0, -3):
        def f(a, m=m):
            return dirichlet_kernel(n, a) * np.exp(-2j * math.pi * m * a)

        val = integrate_finite(f, 0.0, 1.0, initial_points=list(np.linspace(0, 1, 4 * n + 9))).value
        want = 1.0 if 1 <= m <= n else 0.0
        assert abs(val - want) < 1e-11


# ---------------------------------------------------------------------------
# weak integral form of the functional equation
# ---------------------------------------------------------------------------


def test_weak_afe_scaled_bounded_by_calibration():
    cal = max(afe.weak_afe_residual(complex(0.5, t)).params["scaled"] for t in [20.0, 50.0, 100.0])
    r = afe.weak_afe_residual(complex(0.5, 200.0))
    assert r.params["scaled"] <= 1.2 * cal


def test_weak_afe_slope_not_exploding():
    ts = [50.0, 100.0, 200.0, 400.0]
    vals = [afe.weak_afe_residual(complex(0.6, t)).params["scaled"] for t in ts]
    assert afe.loglog_slope(ts, vals) <= 0.1


def test_weak_afe_row_counts_both_integrals(monkeypatch, spent):
    costs = []

    def metered(*args, **kwargs):
        res, evals = spent(quadrature.integrate_finite, *args, **kwargs)
        costs.append(evals)
        return res

    monkeypatch.setattr(afe, "integrate_finite", metered)
    assert spent(afe.weak_afe_residual, complex(0.5, 50.0))[1] == sum(costs) > 0
    assert len(costs) == 2


def test_weak_afe_four_form_vs_two_form():
    # the two-integral form zeta - I1 - chi I2 and the four-integral form,
    # which adds back the kernel-projected partial sums Q1 + chi Q2
    s = complex(0.5, 100.0)
    sigma, t = s.real, s.imag
    i1, i2 = afe._weak_afe_integrals(s)
    N = special.kernel_index(t)
    n = np.arange(1, N + 1, dtype=float)
    zeta1_cycles = special._zeta1_cycles(t)

    def projected_sum(sign, power):
        def f(a):
            partial = np.power(a[:, None] + n, power).sum(axis=1)
            return special.dirichlet_kernel(N, sign * a) * partial

        return quadrature.integrate_finite(f, 0.0, 1.0, cycles=lambda a: N + zeta1_cycles(a),
                                           abs_tol=1e-11, rel_tol=1e-9).value

    chi = special.chi(s)
    q1, chi_q2 = projected_sum(1, -s), chi * projected_sum(-1, s - 1.0)
    two_form = special.riemann_zeta(s) - i1.value - chi * i2.value
    four_form = two_form + q1 + chi_q2
    # the two forms differ by exactly the explicit correction terms
    assert abs(abs(two_form) - abs(four_form)) <= abs(q1) + abs(chi_q2) + 1e-12
    # and those corrections sit inside their envelope
    assert (abs(q1) + abs(chi_q2)) / (t ** (-sigma / 2.0) * math.log(t)) <= 2.0


# ---------------------------------------------------------------------------
# explicit kernel-sum integral
# ---------------------------------------------------------------------------


def test_lemma3_scaled_residual_bounded():
    base = afe.lemma3_integral(complex(0.5, 50.0))
    for t in (100.0, 200.0):
        d = afe.lemma3_integral(complex(0.5, t))
        assert d.params["scaled"] <= 10.0 * max(base.params["scaled"], 0.05)


def test_lemma3_leading_sums_and_strip_envelopes():
    for t in (50.0, 100.0, 200.0):
        d = afe.lemma3_integral(complex(0.5, t))
        assert d.params["sums_over_envelope"] <= 3.0
        assert d.params["strip_over_envelope"] <= 1.0


def test_lemma3_and_projection_evaluation_counts_pinned(spent):
    # deterministic cost guard at the default-grid rows: lemma3 integrates
    # [1, N] in one call on panels marched for N + t/(2 pi a) cycles,
    # projection on ceil(2.5 N) uniform panels per check
    evals = [spent(afe.lemma3_integral, complex(0.5, t))[1] for t in (50.0, 100.0, 200.0, 400.0)]
    assert all(e <= cap for e, cap in zip(evals, (510, 1200, 3105, 6825)))
    for n, cap in ((7, 270), (25, 945), (50, 1875), (100, 3750)):
        for r in SUITES["projection"].runner({"N": n}):
            _, evals = spent(afe.projection_identity_check, r.params["z"], n, r.params["mirrored"])
            assert evals <= cap


# ---------------------------------------------------------------------------
# power means
# ---------------------------------------------------------------------------


def test_I1_matches_asymptotic_loosely():
    val = afe.power_mean_Ik(1, 100.0)
    assert abs(val - (math.log(100.0 / _2PI) + float(np.euler_gamma))) < 0.05


def test_I1_parseval_route():
    from zetaver.fourier import parseval_second_moment

    rep = parseval_second_moment(complex(0.5, 50.0))
    assert rep.rel_residual <= 1e-5


def test_Ik_power_mean_inequality():
    for t in (50.0, 100.0):
        i1 = afe.power_mean_Ik(1, t)
        i2 = afe.power_mean_Ik(2, t)
        assert i2 >= i1**2 - 1e-9


def test_Ik_real_nonnegative_conjugation_symmetric():
    from zetaver.special import hurwitz_zeta1

    assert afe.power_mean_Ik(1, 50.0) >= 0.0
    # the integrand is conjugation-symmetric in t, so I_k(-t) = I_k(t)
    for a in (0.2, 0.5, 0.9):
        up = abs(complex(hurwitz_zeta1(complex(0.5, 50.0), a)))
        dn = abs(complex(hurwitz_zeta1(complex(0.5, -50.0), a)))
        assert up == pytest.approx(dn, rel=1e-13)


def test_Jk_against_classical_envelope():
    j1 = afe.power_mean_Jk(1, 100.0)
    envelope = math.log(100.0 / _2PI) + 2.0 * float(np.euler_gamma) - 1.0
    assert abs(j1 - envelope) <= 0.15 * math.log(100.0)


def test_Jk_inequality_and_growth():
    j1_100 = afe.power_mean_Jk(1, 100.0)
    j2_100 = afe.power_mean_Jk(2, 100.0)
    assert j2_100 >= j1_100**2 - 1e-9
    j1_200 = afe.power_mean_Jk(1, 200.0)
    assert j1_200 - j1_100 <= 1.0  # sublinear growth in T


# ---------------------------------------------------------------------------
# dominant exponential sum
# ---------------------------------------------------------------------------


def test_s1_definition_alpha_zero():
    t = _2PI * 10.5
    val = afe.s1_sum(0.5, t, 0.0)
    n = np.arange(1, 11, dtype=float)
    ref = complex(np.sum(np.power(n, complex(0.5, t) - 1.0)))
    assert abs(val - ref) < 1e-12


def test_s1_conjugation_term_structure():
    sigma, t, alpha = 0.5, 70.0, 0.3
    val = afe.s1_sum(sigma, t, -alpha)
    n = np.arange(1, int(t / _2PI) + 1, dtype=float)
    ref = np.conj(np.sum(np.exp(-2j * math.pi * n * alpha) * np.power(n, complex(sigma, -t) - 1.0)))
    assert abs(val - ref) < 1e-12


def test_s1_triangle_bound():
    sigma, t = 0.3, 100.0
    val = afe.s1_sum(sigma, t, 0.37)
    n = np.arange(1, int(t / _2PI) + 1, dtype=float)
    assert abs(val) <= np.sum(n ** (sigma - 1.0)) + 1e-12


def test_s1_domain():
    with pytest.raises(DomainError):
        afe.s1_sum(0.5, 5.0, 0.1)


# |zeta1|^{2k} at k times the cycles of zeta1, against 4x those cycles.
# err_estimate alone is no yardstick: the two runs batch their nodes
# differently, and the Euler-Maclaurin truncation (~1e-12) moves with the
# batch.  t = 1600 is one point: each node there sums ~1000 Euler-Maclaurin
# base terms.
_PANELLING_POINTS = [(t, sigma, k) for t in (50.0, 400.0) for sigma in (0.5, 0.75, 1.5)
                     for k in (1, 2, 3)] + [(1600.0, 0.5, 1)]


@pytest.mark.parametrize("t, sigma, k", _PANELLING_POINTS)
def test_power_mean_panelling_matches_four_times_the_cycles(t, sigma, k):
    s = complex(sigma, t)
    z = special._zeta1_cycles(t)
    res = afe._power_mean(s, k, abs_tol=1e-13, rel_tol=1e-12)
    ref = quadrature.integrate_finite(
        lambda a: np.abs(special.hurwitz_zeta1(s, a)) ** (2 * k) + 0j, 0.0, 1.0,
        cycles=lambda a: 4 * k * z(a), abs_tol=1e-13, rel_tol=1e-12)
    assert abs(res.value - ref.value) <= max(1e-13, 1e-12 * abs(res.value))


@pytest.mark.parametrize("suite, base_terms", [("weak_afe", 883_527), ("theorem1", 765_326)])
def test_unit_interval_default_grids_kernel_terms_pinned(suite, base_terms):
    # deterministic cost guard on the kernel meter: every batch of a march
    # has at least _CHUNK panels, so none leaves the shift route for the
    # direct sum (a short last batch cost 1,514,511 and 1,022,590 terms)
    start = special._base_terms()
    run_suite(SuiteSpec(suite))
    assert special._base_terms() - start == base_terms


@pytest.mark.parametrize("suite, pinned", [
    ("power_mean_Ik", [360, 615, 705, 1215]),
    ("i1_asymptotic", [360, 615, 1095, 2010, 3780]),
    ("theorem1", [360, 615, 1095, 2010, 3780, 705, 1215, 2160, 3990, 7545]),
])
def test_power_mean_row_evaluations_pinned(suite, pinned, spent):
    # deterministic cost guard: each default point makes the evaluations of
    # its one power-mean integral, all on the initial panels of the march at
    # k times the cycles of zeta1 (no bisection)
    pts = SUITES[suite].default_grid.points()
    assert len(pts) == len(pinned)
    for pt, want in zip(pts, pinned):
        (_rep,), evals = spent(SUITES[suite].runner, pt)
        z = special._zeta1_cycles(pt["t"])
        edges = quadrature._march_panels(0.0, 1.0, lambda a: pt.get("k", 1) * z(a))
        assert evals == want == 15 * (len(edges) - 1)


@pytest.mark.parametrize("suite, pinned", [
    ("kernel_norms", [270, 2625, 26250, 262500]),
    ("power_mean_Jk", [1500, 3000]),
])
def test_kernel_norms_and_Jk_row_evaluations_pinned(suite, pinned, spent):
    # deterministic cost guard: a kernel_norms point makes both of its
    # integrals (p = 1 on its kink panels alone, p = 2 at N cycles), a
    # power_mean_Jk point its one integral
    pts = SUITES[suite].default_grid.points()
    assert [spent(SUITES[suite].runner, pt)[1] for pt in pts] == pinned


# ---------------------------------------------------------------------------
# power-mean bound chain
# ---------------------------------------------------------------------------


def test_theorem1_ratios_bounded():
    recs = afe.theorem1_check(1, [50.0, 100.0, 200.0, 400.0])
    ratios = [r.params["ratio"] for r in recs]
    assert max(ratios) < 2.0  # comfortably bounded at desk scale
    r2 = afe.theorem1_check(2, [100.0])[0]
    assert r2.params["ratio"] <= 2.0 * max(ratios)


def test_theorem1_ratio_stable_under_precision(monkeypatch):
    # a base-term floor of 128 is above the 2t/pi ~ 63.7 that sets the
    # default Euler-Maclaurin truncation at t = 100, so the ratio moves
    t = 100.0
    a = afe.theorem1_check(1, [t])[0].params["ratio"]
    monkeypatch.setattr(special, "_EM_FLOOR", 128)
    b = afe.theorem1_check(1, [t])[0].params["ratio"]
    assert b != a
    assert abs(a - b) <= 1e-6 * abs(a)


def test_kernel_norm_parseval():
    for n in (10, 100, 1000):
        assert abs(afe.kernel_norm_power(n, 2.0) - n) <= 1e-12 * n


def test_kernel_norm_l1_slowly_varying():
    vals = [afe.kernel_norm_power(n, 1.0) / math.log(n) for n in (10, 100, 1000, 10000)]
    for a, b in zip(vals, vals[1:]):
        assert b <= 1.6 * a and b >= a / 1.6


def test_kernel_norm_hoelder_chain():
    # ||B_N||_q^q = O(N^{q-1}) for q = 2k/(2k-1), constants bounded in N
    for k in (1, 2):
        q = 2.0 * k / (2.0 * k - 1.0)
        consts = [afe.kernel_norm_power(n, q) / n ** (q - 1.0) for n in (10, 100, 1000, 10000)]
        assert max(consts) <= 4.0 * min(consts)
        assert max(consts) < 10.0


def test_kernel_norm_l1_oracle():
    # int_0^1 |B_1000| from the 120-bit oracle tier; the kinks of |B_N| at
    # k/N are panel breakpoints, so the quadrature reaches it closely
    assert abs(afe.kernel_norm_power(1000, 1.0) / 3.789039050535354 - 1.0) <= 1e-10


@pytest.mark.parametrize("N", [11, 101, 1001, 10001])
def test_kernel_norm_l1_matches_fejer_closed_form(N):
    # Fejer: for N = 2n + 1, int_0^1 |B_N| is the Lebesgue constant
    # 1/N + (2/pi) sum_{k<=n} tan(pi k/N)/k, summed here in 120 bits
    with mp.workprec(120):
        exact = float(mp.mpf(1) / N + 2 / mp.pi * mp.fsum(
            mp.tan(mp.pi * k / N) / k for k in range(1, (N - 1) // 2 + 1)))
    assert abs(afe.kernel_norm_power(N, 1.0) / exact - 1.0) <= 3e-14


def test_kernel_norm_parseval_at_ten_thousand():
    assert abs(afe.kernel_norm_power(10_000, 2.0) - 10_000) <= 1e-14 * 10_000


@pytest.mark.parametrize("N", [10, 100, 1000])
def test_kernel_norm_fourth_power_closed_form(N):
    # int_0^1 |B_N|^4 counts the solutions of n1 + n2 = n3 + n4 in [1, N]
    exact = (2 * N ** 3 + N) / 3
    assert abs(afe.kernel_norm_power(N, 4.0) / exact - 1.0) <= 1e-13
