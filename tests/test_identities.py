"""Contour identity and product-moment identities: both sides by
independent routes, plus the brute-force double-sum oracle for f."""

import math

import mpmath as mp
import numpy as np
import pytest

from zetaver import identities as idn
from zetaver import oracle, quadrature
from zetaver.errors import ConvergenceError, DivergenceError, DomainError
from zetaver.special import hurwitz_zeta1, lgamma, riemann_zeta
from zetaver.suites import SuiteSpec, run_suite

mp.mp.dps = 25


def f_brute_force(u: complex, v: complex, alpha: float, m: int = 10_000) -> complex:
    """Plain double partial sum with two-term integral tails on both indices."""
    inner_m = np.arange(1, m + 1, dtype=float)
    total_r = []
    total_i = []
    for n in range(1, m + 1):
        x = n + alpha
        inner = np.power(x + inner_m, -u)
        y = x + m + 1
        inner_tail = y ** (1 - u) / (u - 1) + 0.5 * y**-u
        val = x**-v * (inner.sum() + inner_tail)
        total_r.append(val.real)
        total_i.append(val.imag)
    head = complex(math.fsum(total_r), math.fsum(total_i))
    # outer tail: zeta1(u, n+alpha) ~ (n+alpha)^{1-u}/(u-1): two-term comparison
    xo = m + 1 + alpha
    t1 = xo ** (2 - u - v) / ((u - 1) * (u + v - 2)) + 0.5 * xo ** (1 - u - v) / (u - 1)
    return head + t1


def test_f_series_vs_brute_force():
    fs = idn.f_series(3.0, 3.0, 0.0)
    ref = f_brute_force(3.0, 3.0, 0.0)
    assert abs(fs - ref) / abs(ref) < 1e-8


def test_f_decomposition_identity():
    # zeta1(u,alpha)^2 = zeta1(2u,alpha) + 2 f(u,u,alpha)
    for u, alpha in ((2.0, 1.0), (2.0, 0.0), (1.7 + 3j, 0.5)):
        u = complex(u)
        fs = idn.f_series(u, u, alpha)
        ref = (complex(hurwitz_zeta1(u, alpha)) ** 2 - complex(hurwitz_zeta1(2.0 * u, alpha))) / 2.0
        assert abs(fs - ref) / abs(ref) < 1e-13
    # f(2,2,0) = (zeta(2)^2 - zeta(4))/2 = pi^4/120
    assert abs(idn.f_series(2.0, 2.0, 0.0) - math.pi**4 / 120.0) < 1e-13 * math.pi**4 / 120.0


def test_f_decomposition_pointwise_grid():
    rng = np.random.default_rng(3)
    for _ in range(8):
        u = complex(rng.uniform(1.3, 3.0), rng.uniform(-2, 2))
        v = complex(rng.uniform(1.3, 3.0), rng.uniform(-2, 2))
        a = rng.uniform(0.0, 2.0)
        lhs = complex(hurwitz_zeta1(u, a)) * complex(hurwitz_zeta1(v, a))
        rhs = complex(hurwitz_zeta1(u + v, a)) + idn.f_series(u, v, a) + idn.f_series(v, u, a)
        assert abs(lhs - rhs) / abs(lhs) < 1e-9


def test_f_routes_default_rows_agree_to_1e13():
    # the series route's outer tail is a certified Hurwitz-value sum, so the
    # two routes meet to the contour quadrature's accuracy
    report = run_suite(SuiteSpec("f_routes"))
    assert report.rows and all(r["rel_residual"] <= 1e-13 for r in report.rows)


@pytest.mark.parametrize("u,v,alpha,c", [
    (2.0, 2.0, 1.0, -1.5),
    (3.0, 3.0, 0.0, None),
    (4.0, 2.0, 0.5, None),
])
def test_f_contour_matches_series(u, v, alpha, c):
    fs = idn.f_series(u, v, alpha)
    fc = idn.f_contour(u, v, alpha, c).value
    assert abs(fc - fs) / abs(fs) < 1e-8


def test_f_contour_abscissa_independence():
    f1 = idn.f_contour(2.0, 2.0, 1.0, -1.5).value
    f2 = idn.f_contour(2.0, 2.0, 1.0, -1.2).value
    assert abs(f1 - f2) / abs(f1) < 1e-8


def test_f_contour_rejects_inadmissible():
    with pytest.raises(DomainError):
        idn.f_contour(2.0, 2.0, 1.0, -0.7)


def test_vertical_line_outside_strip_crosses_residue():
    # at c = -0.7 the line has crossed the zeta pole at z = -1; the value
    # differs from f(u,v,alpha) by exactly zeta1(u+v-1, alpha)/(u-1)
    u = v = 2.0
    alpha = 1.0
    lg_u = complex(lgamma(u))

    def g(z):
        z = np.asarray(z, dtype=complex)
        return (np.exp(lgamma(u + z) + lgamma(-z) - lg_u)
                * riemann_zeta(-z) * hurwitz_zeta1(u + v + z, alpha))

    res = idn._line_integral(g, -0.7, [0.0, -1.0], u + 1.7, 1e-12, 1e-10)
    residue_term = complex(hurwitz_zeta1(u + v - 1.0, alpha)) / (u - 1.0)
    fs = idn.f_series(u, v, alpha)
    assert abs((res.value + residue_term) - fs) / abs(fs) < 1e-8


# ---------------------------------------------------------------------------
# square identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sigma,t,alpha,tol", [
    (1.2, 5.0, 1.0, 1e-7),
    (2.0, 1.0, 0.0, 1e-8),
    (1.5, 0.0, 0.5, 1e-7),
])
def test_square_identity_points(sigma, t, alpha, tol):
    rep = idn.verify_square_identity(complex(sigma, t), alpha)
    assert rep.rel_residual <= tol


def test_square_identity_degenerate_real_case():
    rep = idn.verify_square_identity(complex(1.5, 0.0), 0.5)
    assert abs(rep.lhs.imag) < 1e-14
    assert abs(rep.lhs.real - complex(hurwitz_zeta1(1.5, 0.5)).real ** 2) < 1e-12


# ---------------------------------------------------------------------------
# quadratic moment
# ---------------------------------------------------------------------------


def test_quadratic_moment_basic():
    rep = idn.verify_quadratic_moment((2.0, 2.0))
    assert rep.rel_residual <= 1e-8
    # independent high-precision LHS
    ref = oracle.unit_interval_quad(lambda a: mp.zeta(2, 1 + a) ** 2)
    assert abs(rep.lhs - ref) / abs(ref) < 1e-9


def test_quadratic_moment_complex():
    rep = idn.verify_quadratic_moment((2.3 + 1.1j, 1.7 - 0.4j))
    assert rep.rel_residual <= 1e-7


def test_quadratic_moment_large_exponent():
    rep = idn.verify_quadratic_moment((8.0, 8.0))
    assert rep.rel_residual <= 1e-9
    assert abs(rep.lhs - 1.0 / 15.0) < 0.01


def test_quadratic_moment_symmetry():
    r1 = idn.verify_quadratic_moment((2.5 + 1j, 3.5 - 0.5j))
    r2 = idn.verify_quadratic_moment((3.5 - 0.5j, 2.5 + 1j))
    assert abs(r1.lhs - r2.lhs) <= 1e-12 * abs(r1.lhs)
    assert abs(r1.rhs - r2.rhs) <= 1e-12 * abs(r1.rhs)


def test_quadratic_moment_evaluation_counts_pinned():
    # deterministic cost guard on the default grid: the left side is marched
    # for the summed cycles of its zeta1 factors
    caps = {(2, 2): 1497, (2, 3): 1149, (2, 4): 975, (3, 2): 1149, (3, 3): 1005,
            (3, 4): 849, (4, 2): 975, (4, 3): 849, (4, 4): 801}
    for (u, v), cap in caps.items():
        assert idn.verify_quadratic_moment((float(u), float(v))).evaluations <= cap


def test_quadratic_moment_requires_direct_mode():
    with pytest.raises(DomainError):
        idn.verify_quadratic_moment((0.9, 2.0))


# ---------------------------------------------------------------------------
# triple and quadruple moments
# ---------------------------------------------------------------------------


def test_triple_moment_points():
    assert idn.verify_triple_moment((2.0, 2.0, 2.0)).rel_residual <= 1e-7
    assert idn.verify_triple_moment((2.0 + 1j, 2.0 - 1j, 3.0)).rel_residual <= 1e-7


def test_triple_moment_permutation_symmetry():
    r1 = idn.verify_triple_moment((2.0, 3.0, 4.0))
    r2 = idn.verify_triple_moment((4.0, 2.0, 3.0))
    assert abs(r1.lhs - r2.lhs) <= 1e-10 * abs(r1.lhs)
    assert abs(r1.rhs - r2.rhs) <= 1e-10 * abs(r1.rhs)


def test_quadruple_moment_point_and_structure():
    rep = idn.verify_quadruple_moment((2.0, 2.0, 2.0, 2.0))
    assert rep.rel_residual <= 1e-6
    assert rep.params["rhs_terms"] == 15
    terms = idn.moment_rhs_terms((2.0, 2.5, 3.0, 2.2))
    assert len(terms) == 15
    kinds = [name.split("_")[0] for name, _, _ in terms]
    assert kinds.count("rational") == 1
    assert kinds.count("single") == 4
    assert kinds.count("pair") == 6
    assert kinds.count("triple") == 4


@pytest.mark.parametrize("verify, us", [
    (idn.verify_quadratic_moment, (2.0, 3.0)),
    (idn.verify_triple_moment, (2.0, 2.5, 3.0)),
    (idn.verify_quadruple_moment, (2.0, 2.5, 3.0, 2.2)),
])
def test_moment_evaluations_count_both_sides(verify, us):
    rep = verify(us)
    lhs = idn._unit_moment_lhs(tuple(complex(u) for u in us))
    terms = idn.moment_rhs_terms(us)
    assert len(terms) == 2 ** len(us) - 1
    assert rep.evaluations == lhs.evaluations + sum(n for _, _, n in terms)


def test_moment_rhs_terms_rejects_bad_arity():
    for us in [(2.0,), (2.0,) * 5]:
        with pytest.raises(DomainError):
            idn.moment_rhs_terms(us)
    with pytest.raises(DomainError):
        idn.verify_triple_moment((2.0, 2.0))


def test_quadruple_moment_permutation_symmetry():
    r1 = idn.verify_quadruple_moment((2.0, 2.0, 3.0, 3.0))
    r2 = idn.verify_quadruple_moment((3.0, 2.0, 3.0, 2.0))
    assert abs(r1.lhs - r2.lhs) <= 1e-10 * abs(r1.lhs)
    assert abs(r1.rhs - r2.rhs) <= 1e-10 * abs(r1.rhs)


# ---------------------------------------------------------------------------
# Mellin closed form, recursion, explicit identity
# ---------------------------------------------------------------------------


def test_mellin_closed_form_values():
    # (pi/2) zeta(3/2) with an independent series value of zeta(3/2)
    n = np.arange(1, 2_000_001, dtype=float)
    z32 = math.fsum(n ** -1.5) + 2.0 / math.sqrt(2_000_001.5) + 0.5 * 2_000_001.5 ** -1.5
    ref = math.pi / 2.0 * z32
    assert abs(idn.mellin_tail_closed_form(2.0, 0.5) - ref) < 2e-7 * ref
    assert abs(idn.mellin_tail_closed_form(3.0, 0.0) - math.pi**2 / 12.0) < 1e-12


def test_mellin_tail_check():
    rep = idn.mellin_tail_check(2.5, 0.3)
    assert rep.rel_residual <= 1e-8
    with pytest.raises(DomainError):
        idn.mellin_tail_closed_form(2.0, 1.5)


def test_mellin_tail_slow_decay_row():
    # Re(u+v) = 2.3: alpha^{-v} zeta1(u, alpha) decays only like alpha^{-1.3}
    rep = idn.mellin_tail_check(2.0, 0.3)
    assert rep.rel_residual <= 1e-8


def test_mellin_tail_boundary_is_domain_error():
    # Re(u+v) = 2 is the edge of Eq. 2.12's domain, where both sides diverge
    with pytest.raises(DomainError):
        idn.mellin_tail_check(2.0, 0.0)


def test_mellin_tail_evaluation_counts_pinned():
    # the unit part's head on [1/4, 1] and the tail's head on [1, 6], per
    # default row: u, then v = 0.1, 0.3, 0.5
    evals = {2.0: [315, 315, 315], 2.5: [315, 315, 315], 3.0: [315, 315, 315]}
    for u, row in evals.items():
        assert [idn.mellin_tail_check(u, v).evaluations for v in (0.1, 0.3, 0.5)] == row


@pytest.mark.parametrize("suite_id,evals", [
    # the moment's left side and the heads on [1/4, 1] of both recursions
    ("katsurada", [240, 285, 240, 285, 240, 285]),
    # the heads on [1/4, 1] of both sides
    ("unit_recursion", [105, 90, 90, 90, 105, 90, 90, 90]),
    # the head on [1/|u + 1|, 1] of _unit_power(u + 1, 1 - v), t = 50 and 100
    ("remark_219", [1545, 3375]),
])
def test_unit_power_default_rows_evaluation_counts_pinned(suite_id, evals):
    assert [row["evals"] for row in run_suite(SuiteSpec(suite_id)).rows] == evals


def test_katsurada_slow_oscillating_weight_is_cheap():
    # alpha^{-0.95 + 3i} near alpha = 0 is summed in closed form, not sampled
    assert idn.verify_katsurada(1.95 + 3j, 1.95 - 3j).evaluations <= 1_000


def _gk15_calls(monkeypatch):
    """The integrand of every _gk15_many call; one integral passes the same
    wrapped integrand to each of its calls, and the list keeps it alive."""
    calls = []
    gk15 = quadrature._gk15_many

    def gk15_many(f, los, his):
        calls.append(f)
        return gk15(f, los, his)

    monkeypatch.setattr(quadrature, "_gk15_many", gk15_many)
    return calls


@pytest.mark.parametrize("suite_id", ["quadratic_moment", "triple_moment",
                                      "quadruple_moment", "mellin_tail",
                                      "katsurada", "unit_recursion"])
def test_default_rows_make_no_bisection(suite_id, monkeypatch):
    # integrate_finite calls _gk15_many again only when it bisects
    calls = _gk15_calls(monkeypatch)
    report = run_suite(SuiteSpec(suite_id))
    assert report.rows and calls
    assert len({id(f) for f in calls}) == len(calls)


@pytest.mark.parametrize("suite_id,refinements,evals", [
    ("square_identity", 79, [1455, 1275, 1275, 1500, 1500, 1500, 1605, 1620, 1590,
                             1005, 960, 960, 1275, 1275, 1275, 1305, 1395, 1245,
                             735, 735, 765, 765, 765, 795, 1035, 1290, 1140]),
    ("f_routes", 9, [645, 645, 645, 645, 645, 645, 630, 660, 690, 630, 630, 660]),
])
def test_bisection_generations_are_batched(suite_id, refinements, evals, monkeypatch):
    # each generation bisects all its worst panels in one _gk15_many call
    calls = _gk15_calls(monkeypatch)
    report = run_suite(SuiteSpec(suite_id))
    assert len(calls) - len({id(f) for f in calls}) == refinements
    assert [row["evals"] for row in report.rows] == evals


# ---------------------------------------------------------------------------
# weighted tails int_1^inf alpha^{-w} prod zeta1(u_j, alpha)
# ---------------------------------------------------------------------------


def test_weighted_tail_powers():
    res = idn._weighted_tail(2.0, ())
    assert abs(res.value - 1.0) < 1e-10
    res = idn._weighted_tail(1.5, ())
    assert abs(res.value - 2.0) < 1e-9


def test_weighted_tail_zeta1_vs_partial_fraction_oracle():
    # int_1^inf a^-2 zeta1(2, a) da = sum_n (1/n^2)(1 + 1/(n+1) - (2/n) log(n+1))
    m = 200_000
    n = np.arange(1, m + 1, dtype=float)
    terms = (1.0 + 1.0 / (n + 1.0) - (2.0 / n) * np.log(n + 1.0)) / n**2
    x = m + 1.0
    # tails of the three pieces: sum 1/n^2, sum 1/(n^2 (n+1)), sum 2 log(n+1)/n^3
    s2 = 1.0 / x + 1.0 / (2.0 * x * x) + 1.0 / (6.0 * x**3)
    s21 = 1.0 / (2.0 * x * x)
    s3 = math.log(x) / x**2 + 1.0 / (2.0 * x * x) + 2.0 / (3.0 * x**3)
    oracle_value = math.fsum(terms) + s2 + s21 - s3
    res = idn._weighted_tail(2.0, (2.0,))
    assert abs(res.value - oracle_value) / abs(oracle_value) < 1e-9


def test_weighted_tail_divergence_guard():
    # decay alpha^-1: the closed tail meets a non-integrable power
    with pytest.raises(DivergenceError):
        idn._weighted_tail(1.0, ())
    with pytest.raises(DivergenceError):
        idn._weighted_tail(0.0, (2.0,))


# 120-bit zeta1 for the tail oracle: direct terms up to 1 + a + n >= 25, then
# 16 Euler-Maclaurin pairs (error below 1e-30 there).  mp.zeta itself is
# too slow, and at complex s and large a it grows without bound in memory.
_MP_PAIRS = 16


def _mp_zeta1(u, a, coefs):
    n = int(mp.ceil(24 - a)) if a < 24 else 0
    x = 1 + a + n
    acc = mp.fsum((1 + a + k) ** -u for k in range(n))
    acc += x ** (1 - u) / (u - 1) + x**-u / 2
    poch, xp = u, x ** (1 - u)
    for j, c in enumerate(coefs, 1):
        xp /= x * x
        acc += c * poch * xp
        poch *= (u + 2 * j - 1) * (u + 2 * j)
    return acc


def _mp_weighted_tail(w, us, a0):
    """int_{a0}^inf a^-w prod zeta1(u_j, a) da by 120-bit tanh-sinh in t,
    a = a0 t^-k: k = 1/(decay - 1) makes the integrand bounded at t = 0."""
    k = 1.0 / (w.real + sum(u.real - 1.0 for u in us) - 1.0)
    with mp.workprec(120):
        coefs = [mp.bernoulli(2 * j) / mp.factorial(2 * j) for j in range(1, _MP_PAIRS + 1)]
        for u in (mp.mpc(1.3, 2.0), mp.mpc(2.4, -1.0)):
            for a in (mp.mpf(0.5), mp.mpf(30)):
                assert abs(_mp_zeta1(u, a, coefs) - mp.zeta(u, 1 + a)) < mp.mpf(10) ** -30
        mw, mus, ma0 = mp.mpc(w), [mp.mpc(u) for u in us], mp.mpf(a0)

        def f(t):
            a = ma0 * t**-k
            acc = a**-mw * k * a / t
            for u in mus:
                acc *= _mp_zeta1(u, a, coefs)
            return acc

        value, err = mp.quad(f, [0, 1], error=True)
        assert err < mp.mpf(10) ** -25
        return complex(value)


# a0 is the oracle's lower limit; _weighted_tail always starts at 1
@pytest.mark.parametrize("w, us, a0", [
    (2.3, (1.3 + 2j,), 1.0),                        # complex exponent
    (0.1, (2.0,), 1.0),                             # mellin_tail, decay alpha^-1.1
    (2.15, (2.0 + 1j, 2.4 - 1j), 1.0),              # a pair of the triple_moment im = 1 row
    (2.0 + 1j, (2.0 + 1j, 2.4 - 1j, 2.15), 1.0),    # its three factors, complex weight
])
def test_weighted_tail_error_estimate_covers_oracle(w, us, a0):
    res = idn._weighted_tail(w, us)
    assert abs(res.value - _mp_weighted_tail(complex(w), us, a0)) <= res.err_estimate


def _mp_unit_power(p, w, quotient=False, log_weight=False):
    """int_0^1 a^p (log a)^m f(a) da at 120 bits, m = 1 with log_weight,
    f = zeta1(w, a) or, with quotient, (zeta1(w, a) - zeta(w)) / a.  On
    [0, 1/10], f is its Taylor series sum_k binom(-w, k) zeta(w + k) a^k
    (one index lower for the quotient) to k = 43, whose omitted terms are
    below 1e-38 there, integrated term by term; on [1/10, 1], Gauss-Legendre."""
    with mp.workprec(120):
        mp_p, mw, d = mp.mpc(p), mp.mpc(w), mp.mpf(1) / 10
        coefs = [mp.bernoulli(2 * j) / mp.factorial(2 * j) for j in range(1, _MP_PAIRS + 1)]
        taylor = [mp.binomial(-mw, k) * mp.zeta(mw + k) for k in range(44)]
        head = 0
        for k, c in enumerate(taylor[1:] if quotient else taylor):
            e = mp_p + k + 1
            head += c * d**e / e * ((mp.log(d) - 1 / e) if log_weight else 1)
        z0 = _mp_zeta1(mw, mp.mpf(0), coefs)

        def f(a):
            z = _mp_zeta1(mw, a, coefs)
            return a**mp_p * (mp.log(a) if log_weight else 1) * ((z - z0) / a if quotient else z)

        value, err = mp.quad(f, [d, 1], error=True, method="gauss-legendre")
        assert err < mp.mpf(10) ** -25
        return complex(head + value)


@pytest.mark.parametrize("p, w", [
    (-0.95, 2.5 + 1j),     # near the edge Re p = -1
    (-0.5 + 2j, 2.7 + 2j),  # a katsurada recursion: oscillation toward a = 0
    (0.0, -0.5 + 1j),      # Re w < 1: the bound recurses to w + 2
    (0.5, 3.0),
    (1.5, 2.0 + 1j),
])
def test_unit_power_error_estimate_covers_oracle(p, w):
    res = idn._unit_power(w, p)
    assert abs(res.value - _mp_unit_power(p, w)) <= res.err_estimate


def test_unit_power_recursion_integrands_cover_oracle():
    # the subtracted mode at v = 1.9 + 0.5i and the log-weighted limit mode,
    # with the arguments unit_interval_recursion passes
    u, v = 2.0 + 0j, 1.9 + 0.5j
    res = idn._unit_power(u, 1.0 - v, quotient=True, abs_tol=1e-12, rel_tol=1e-10)
    assert abs(res.value - _mp_unit_power(1.0 - v, u, quotient=True)) <= res.err_estimate
    res = idn._unit_power(u + 1.0, 0.0, log_weight=True, abs_tol=1e-12, rel_tol=1e-10)
    assert abs(res.value - _mp_unit_power(0.0, u + 1.0, log_weight=True)) <= res.err_estimate


def test_unit_recursion_telescoping_point():
    rep = idn.unit_interval_recursion(2.0, 0.0)
    assert abs(rep.lhs - 1.0) < 1e-11  # telescoping closed form
    assert rep.rel_residual <= 1e-9


def test_unit_recursion_fractional_weight():
    assert idn.unit_interval_recursion(3.0, 0.5).rel_residual <= 1e-8


def test_unit_recursion_limit_mode():
    assert idn.unit_interval_recursion(2.0, 1.0).rel_residual <= 1e-7


def test_unit_recursion_continued_band():
    assert idn.unit_interval_recursion(2.0, 1.5).rel_residual <= 1e-7


def test_unit_recursion_huge_exponent_is_domain_error():
    # the binomials of the Taylor head overflow: a DomainError naming u,
    # not an infinite remainder
    with pytest.raises(DomainError, match="u = "):
        idn.unit_interval_recursion(1e9, 0.5)


@pytest.mark.parametrize("u", [3.0, 0.5 + 3j, 2.0 + 100j, -1.0])
def test_zeta1_difference_quotient_vs_oracle(u):
    # the Taylor coefficients past c_0 summed as the difference quotient,
    # up to the split b, down to shifts where the plain difference keeps
    # no digit; at u = -1 the series is a polynomial, exact on all of [0, 1]
    coeffs, b, rem = idn._zeta1_taylor(u)
    a = np.array([1e-20, 1e-12, 1e-3, 0.2, 0.3, 1.0])
    a = a if rem == 0.0 else np.append(a[a < b], b)
    got = np.polyval(coeffs[:0:-1], a)
    mp.mp.dps = 60
    try:
        ref = [complex((mp.zeta(u, 1 + mp.mpf(x)) - mp.zeta(u)) / mp.mpf(x)) for x in a]
    finally:
        mp.mp.dps = 25
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


def test_zeta1_difference_quotient_gives_up_loudly(monkeypatch):
    # 8 terms leave a remainder far above the tolerance
    monkeypatch.setattr(idn, "_TAYLOR_TERMS", 8)
    with pytest.raises(ConvergenceError):
        idn._unit_power(3.0, 0.0, quotient=True)


def test_katsurada_points():
    assert idn.verify_katsurada(1.5 + 2j, 1.5 - 2j).rel_residual <= 1e-7
    assert idn.verify_katsurada(1.5, 1.5).rel_residual <= 1e-7


def test_katsurada_swap_invariance():
    r1 = idn.verify_katsurada(1.4 + 0.6j, 1.7 - 0.3j)
    r2 = idn.verify_katsurada(1.7 - 0.3j, 1.4 + 0.6j)
    assert abs(r1.abs_residual - r2.abs_residual) <= 1e-12 + 1e-8 * r1.abs_residual


def test_katsurada_split_consistency():
    rep = idn.katsurada_split_check(1.4 + 0.3j, 1.6 - 0.5j)
    assert rep.rel_residual <= 1e-9


# ---------------------------------------------------------------------------
# second-moment asymptotic and the large-t unit integral
# ---------------------------------------------------------------------------


def test_i1_rhs_value_at_100():
    rep = idn.i1_asymptotic_check([100.0])[0]
    assert abs(rep.rhs - 3.3445089) < 1e-6


def test_i1_loose_bracket_at_50():
    rep = idn.i1_asymptotic_check([50.0])[0]
    assert abs(rep.lhs - rep.rhs) <= 0.05


def test_i1_corrected_residual_is_quadratically_small():
    reps = idn.i1_asymptotic_check([50.0, 100.0, 200.0])
    for rep in reps:
        assert abs(rep.params["corrected_diff_t2"]) <= 60.0


def test_remark_219_scaled_bounded():
    r50 = idn.remark_219_check(complex(0.5, 50.0), complex(0.5, -50.0))
    r100 = idn.remark_219_check(complex(0.5, 100.0), complex(0.5, -100.0))
    assert r100.params["scaled_t2"] <= 10.0 * max(r50.params["scaled_t2"], 0.5)
    # |LHS| shrinks like 1/t
    assert r100.params["lhs_abs"] <= 0.7 * r50.params["lhs_abs"]


def test_recip_sum_certified():
    # sum_m 1/(m (m+1)^u) = sum_j zeta1(u + j, 1), against 129 terms at 120 bits
    for t in (30.0, 85.268, 100.0):
        u = complex(0.5, t)
        val = idn.sum_recip_m_mp1u(u)
        with mp.workprec(120):
            um = mp.mpc(u)
            ref = complex(mp.fsum(mp.zeta(um + j, 2) for j in range(1, 130)))
        assert abs(val - ref) <= 1e-12
    with pytest.raises(DomainError):
        idn.sum_recip_m_mp1u(complex(0.0, 30.0))
