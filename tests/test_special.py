"""Base special functions against closed forms and independent oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from zetaver.errors import DomainError, PoleError
from zetaver import special as sp


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def lgamma_stirling(z: complex, terms: int = 20) -> complex:
    """Stirling series with Bernoulli corrections; needs moderately large |z|."""
    z = complex(z)
    acc = (z - 0.5) * np.log(z) - z + 0.5 * math.log(2.0 * math.pi)
    bern = sp.bernoulli_numbers(2 * terms)
    for j in range(1, terms + 1):
        acc += bern[2 * j] / (2 * j * (2 * j - 1) * z ** (2 * j - 1))
    return complex(acc)


def zeta_eta_oracle(s: complex, n: int = 160) -> complex:
    """Borwein's alternating-series algorithm, valid for Re s > 0."""
    s = complex(s)
    acc = 0
    d = []
    for i in range(n + 1):
        acc += math.factorial(n + i - 1) * 4**i // (math.factorial(n - i) * math.factorial(2 * i))
        d.append(n * acc)
    total = 0j
    for k in range(n):
        ratio = float((d[k] - d[n]) / d[n])  # in (-1, 0]
        total += (-1) ** k * ratio * np.exp(-s * math.log(k + 1))
    return complex(-total / (1.0 - 2.0 ** (1.0 - s)))


def hurwitz_brute(s: complex, alpha: float, m: int = 1_000_000) -> complex:
    """Partial sum plus integral tail and half-term correction."""
    s = complex(s)
    n = np.arange(1, m + 1, dtype=float)
    head = complex(math.fsum((np.power(n + alpha, -s)).real),
                   math.fsum((np.power(n + alpha, -s)).imag))
    x = m + 1 + alpha
    return head + x ** (1 - s) / (s - 1) + 0.5 * x**-s


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------


def test_gamma_at_one():
    assert abs(sp.gamma(1.0) - 1.0) < 1e-14


def test_gamma_at_half():
    assert abs(sp.gamma(0.5) - math.sqrt(math.pi)) < 1e-12


def test_gamma_complex_vs_stirling_oracle():
    z = 0.5 + 30j
    ours = complex(sp.gamma(z))
    ref = complex(np.exp(lgamma_stirling(z)))
    assert abs(ours - ref) / abs(ref) < 1e-10


@pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
def test_gamma_pole(z):
    with pytest.raises(PoleError):
        sp.gamma(z)


def test_lgamma_wide_range():
    # relative accuracy of the log over the advertised box
    for z in [1000.0, 900.0 + 1000.0j, -55.3 + 220.0j, 3.0 - 700.0j, 0.1 + 1j]:
        ours = complex(sp.lgamma(z))
        ref = lgamma_stirling(z + 40.0) - complex(
            np.sum(np.log(np.array([z + k for k in range(40)], dtype=complex)))
        )
        assert abs(ours - ref) <= 1e-10 * max(abs(ref), 1.0)


# ---------------------------------------------------------------------------
# Riemann zeta
# ---------------------------------------------------------------------------


def test_zeta_basel():
    assert abs(sp.riemann_zeta(2.0) - math.pi**2 / 6) < 1e-12


def test_zeta_at_zero():
    assert abs(sp.riemann_zeta(0.0) - (-0.5)) < 1e-12


def test_zeta_near_first_zero():
    s = 0.5 + 14.134725j
    assert abs(sp.riemann_zeta(s)) <= 1e-5
    # independent alternating-series oracle agrees
    assert abs(sp.riemann_zeta(s) - zeta_eta_oracle(s)) < 1e-11


def test_zeta_pole():
    with pytest.raises(PoleError):
        sp.riemann_zeta(1.0)


def test_zeta_left_half_plane_meets_oracle():
    # Re s < 0 by zeta(s) = chi(s) zeta(1 - s), elementwise, with exact
    # trivial zeros; the direct sum was off by up to 6.5e-4 here
    from zetaver import oracle

    s = np.array([-10.5 + k for k in range(11)] + [-3.0 + 7j])
    values = sp.riemann_zeta(s)
    for si, vi in zip(s, values):
        ref = oracle.riemann_zeta(si, prec_bits=120)
        assert abs(vi - ref) <= 1e-14 * abs(ref)
    assert sp.riemann_zeta(-2.0) == 0.0 and sp.riemann_zeta(-4.0) == 0.0
    mixed = sp.riemann_zeta(np.array([[-2.0, 2.0], [0.5 + 14j, -1.0]]))
    assert mixed.shape == (2, 2) and mixed[0, 0] == 0.0
    # the elements with Re s >= 0 keep their one batched call
    assert np.array_equal(mixed[[0, 1], [1, 0]], sp.riemann_zeta(np.array([2.0, 0.5 + 14j])))
    assert abs(mixed[1, 1] + 1.0 / 12.0) <= 1e-15


@pytest.mark.parametrize("s", [0.3 + 7j, 2.0 - 3.5j, 0.9 + 60j])
def test_zeta_vs_eta_oracle(s):
    ours = sp.riemann_zeta(s)
    ref = zeta_eta_oracle(s)
    assert abs(ours - ref) / abs(ref) < 1e-10


# ---------------------------------------------------------------------------
# modified Hurwitz zeta
# ---------------------------------------------------------------------------


def test_zeta1_alpha_zero_reduces_to_zeta():
    for s in [2.0, 1.5 + 2j, 0.3 + 12j]:
        assert abs(sp.hurwitz_zeta1(s, 0.0) - sp.riemann_zeta(s)) < 1e-12 * abs(sp.riemann_zeta(s))


def test_zeta1_reindexed():
    assert abs(sp.hurwitz_zeta1(2.0, 1.0) - (math.pi**2 / 6 - 1.0)) < 1e-12


def test_zeta1_trigamma_closed_form():
    assert abs(sp.hurwitz_zeta1(2.0, 0.5) - (math.pi**2 / 2 - 4.0)) < 1e-11


def test_zeta1_brute_force_oracle():
    s = 1.5 + 2j
    val = sp.hurwitz_zeta1(s, 0.3)
    ref = hurwitz_brute(s, 0.3)
    assert abs(val - ref) / abs(ref) < 1e-9


def test_zeta1_negative_alpha():
    with pytest.raises(DomainError):
        sp.hurwitz_zeta1(2.0, -0.5)


def test_hurwitz_full_variant():
    assert abs(sp.hurwitz_zeta(2.0, 1.0) - sp.riemann_zeta(2.0)) < 1e-13
    assert abs(sp.hurwitz_zeta(3.0, 2.0) - (sp.riemann_zeta(3.0) - 1.0)) < 1e-13
    s = 1.5 + 2j
    ref = 0.3 ** -s + hurwitz_brute(s, 0.3)
    assert abs(sp.hurwitz_zeta(s, 0.3) - ref) / abs(ref) < 1e-9


def test_reindexing_invariant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = complex(rng.uniform(0.1, 3.0), rng.uniform(-50.0, 50.0))
        a = rng.uniform(0.0, 4.0)
        lhs = sp.hurwitz_zeta1(s, a + 1.0)
        rhs = sp.hurwitz_zeta1(s, a) - (1.0 + a) ** -s
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-3)


def test_conjugation_symmetry():
    for s in [1.3 + 9j, 0.4 + 33j, 2.5 + 0.7j]:
        assert sp.riemann_zeta(np.conj(s)) == pytest.approx(np.conj(sp.riemann_zeta(s)), rel=1e-13)
        assert sp.hurwitz_zeta1(np.conj(s), 0.7) == pytest.approx(
            np.conj(sp.hurwitz_zeta1(s, 0.7)), rel=1e-13)
        assert complex(sp.gamma(np.conj(s))) == pytest.approx(np.conj(complex(sp.gamma(s))), rel=1e-12)
        assert sp.chi(np.conj(s)) == pytest.approx(np.conj(sp.chi(s)), rel=1e-11)


def test_em_truncation_consistency(monkeypatch):
    # a base-term floor of 64 moves the value by less than the bound; at
    # every point it is above the default truncation (2|t|/pi <= 25.5), so
    # the value does move
    points = [(0.5 + 40j, 0.3), (-0.5 + 15j, 1.7), (2.0, 0.01)]
    default = [sp._em_hurwitz(s, 1.0 + a) for s, a in points]
    monkeypatch.setattr(sp, "_EM_FLOOR", 64)
    for (s, a), (v1, e1) in zip(points, default):
        v2, _ = sp._em_hurwitz(s, 1.0 + a)
        assert v2 != v1
        assert abs(v1 - v2) <= e1 + 1e-13 * abs(v1)


# ---------------------------------------------------------------------------
# chi factor
# ---------------------------------------------------------------------------


def test_chi_at_minus_one():
    assert abs(sp.chi(-1.0) - (-1.0 / (2 * math.pi**2))) < 1e-11


def test_chi_critical_line_modulus():
    assert abs(abs(sp.chi(0.5 + 50j)) - 1.0) < 1e-10


def test_chi_reflection_product():
    s = 0.3 + 10j
    assert abs(sp.chi(s) * sp.chi(1.0 - s) - 1.0) < 1e-10


def test_chi_reflection_grid():
    rng = np.random.default_rng(11)
    for _ in range(25):
        s = complex(rng.uniform(0.1, 0.9), rng.uniform(1.0, 100.0))
        lhs = sp.riemann_zeta(s)
        rhs = sp.chi(s) * sp.riemann_zeta(1.0 - s)
        assert abs(lhs - rhs) / abs(lhs) < 1e-9


def test_chi_even_integer_cancellation():
    # sin zero cancels the Gamma pole; functional equation still holds nearby
    val = sp.chi(2.0)
    ref = sp.riemann_zeta(2.0) / sp.riemann_zeta(-1.0)
    assert abs(val - ref) / abs(ref) < 1e-11
    assert abs(sp.chi(4.0) - sp.riemann_zeta(4.0) / sp.riemann_zeta(-3.0)) < 1e-10 * abs(sp.chi(4.0))


def test_chi_pole_and_zero():
    with pytest.raises(PoleError):
        sp.chi(3.0)
    assert sp.chi(-2.0) == 0.0


@pytest.mark.parametrize("s", [-10.5, -3.5, -1.0, 0.3, 2.5])
def test_chi_and_zeta_real_on_the_real_axis(s):
    # chi is built in log space, which left an imaginary part of up to
    # 1.9e-14 at real s; it is dropped, and the real parts keep their bits
    logged = complex(np.exp(sp.log_chi(s)))
    assert sp.chi(s).imag == 0.0 and sp.chi(s).real == logged.real
    zeta = sp.riemann_zeta(s)
    assert zeta.imag == 0.0
    if s < 0.0:
        assert zeta.real == (logged * sp.riemann_zeta(1.0 - s)).real


# ---------------------------------------------------------------------------
# Dirichlet-type kernel
# ---------------------------------------------------------------------------


def test_kernel_integer_alpha():
    assert sp.dirichlet_kernel(5, 0.0) == 5.0


def test_kernel_quarter():
    assert abs(sp.dirichlet_kernel(2, 0.25) - (1j - 1.0)) < 1e-13


def test_kernel_half():
    assert abs(sp.dirichlet_kernel(3, 0.5) - (-1.0)) < 1e-13


def dirichlet_kernel_direct(n: int, alpha: float) -> complex:
    """B_N by compensated summation of its N phases."""
    return sp._csum(np.exp(2j * math.pi * np.arange(1, n + 1, dtype=float) * float(alpha)))


@pytest.mark.parametrize("num,den", [(1237, 4096), (2731, 8192), (399, 1024)])
def test_kernel_closed_vs_direct_large(num, den):
    # dyadic alpha: every phase product is exactly representable, so the
    # advertised 1e-12 agreement is a genuine statement about the formulas
    n = 10_000
    alpha = num / den
    closed = sp.dirichlet_kernel(n, alpha)
    phases = (np.arange(1, n + 1, dtype=np.int64) * num) % den
    direct = complex(
        math.fsum(np.cos(2.0 * math.pi * phases / den)),
        math.fsum(np.sin(2.0 * math.pi * phases / den)),
    )
    assert abs(closed - direct) <= 1e-12


def test_kernel_closed_vs_direct_generic_alpha():
    # generic float alpha: limited by argument rounding at N alpha ~ 1e4
    for alpha in (0.2345, 0.618, 0.9321):
        closed = sp.dirichlet_kernel(10_000, alpha)
        direct = dirichlet_kernel_direct(10_000, alpha)
        assert abs(closed - direct) <= 2e-10


_NEAR_INTEGER = st.builds(lambda m, sign, e: m + sign * 10.0**e, st.integers(-3, 3),
                          st.sampled_from([-1.0, 1.0]), st.floats(-12.0, -3.0))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(1, 2000), st.floats(-3.0, 3.0) | _NEAR_INTEGER)
def test_kernel_closed_vs_direct_property(n, alpha):
    # the direct sum rounds n alpha, so ~1e-14 N^2 is its own accuracy
    closed = sp.dirichlet_kernel(n, alpha)
    assert abs(closed - dirichlet_kernel_direct(n, alpha)) <= 1e-14 * n * n


def test_kernel_index():
    assert sp.kernel_index(100.0) == 3
    for t in (1.0, 1e20, math.nan):
        with pytest.raises(DomainError):
            sp.kernel_index(t)


# ---------------------------------------------------------------------------
# Bernoulli numbers and the Beta-type integral
# ---------------------------------------------------------------------------


def test_bernoulli_small():
    assert sp.bernoulli_numbers(2) == [1.0, -0.5, pytest.approx(1.0 / 6.0)]
    assert sp.bernoulli_numbers(4)[4] == pytest.approx(-1.0 / 30.0)
    assert sp.bernoulli_numbers(12)[12] == pytest.approx(-691.0 / 2730.0, rel=1e-14)


def test_beta_integral_closed_forms():
    assert abs(sp.beta_integral(1.0, 0.5) - math.pi) < 1e-11
    assert abs(sp.beta_integral(2.0, 0.0) - 1.0) < 1e-12


def test_beta_integral_vs_quadrature_oracle():
    import mpmath as mp

    mp.mp.dps = 25
    u, v = 1.7, 0.4
    ref = complex(mp.quad(lambda b: b ** (-mp.mpf(v)) * (1 + b) ** (-mp.mpf(u)), [0, 1, 10, 1000, mp.inf]))
    ours = sp.beta_integral(u, v)
    assert abs(ours - ref) / abs(ref) < 1e-9


def test_beta_integral_domain():
    with pytest.raises(DomainError):
        sp.beta_integral(0.4, 0.4)  # Re(u+v) < 1


# ---------------------------------------------------------------------------
# Fourier coefficients a_n(s)
# ---------------------------------------------------------------------------


def test_a0_closed_form():
    assert abs(sp.fourier_coeff_a(0, 3.0) - 0.5) < 1e-14
    with pytest.raises(PoleError):
        sp.fourier_coeff_a(0, 1.0)


def test_a1_at_zero():
    assert abs(sp.fourier_coeff_a(1, 0.0) - 1.0 / (2j * math.pi)) < 1e-13


def test_an_vs_oscillatory_quadrature_oracle():
    import mpmath as mp

    mp.mp.dps = 25
    ours = sp.fourier_coeff_a(2, 1.5)
    ref = complex(mp.quadosc(lambda x: x ** mp.mpf(-1.5) * mp.e ** (-4j * mp.pi * x),
                             [1, mp.inf], period=mp.mpf(1) / 2))
    assert abs(ours - ref) <= 1e-9


@pytest.mark.parametrize("n,s", [(3, 0.5 + 5j), (-4, 0.2 - 2j), (7, 2.5 + 0.5j), (1, 0.5 + 50j)])
def test_an_vs_mpmath(n, s):
    import mpmath as mp

    mp.mp.dps = 30
    ref = complex(mp.gammainc(1 - mp.mpc(s), 2j * mp.pi * n) * (2j * mp.pi * n) ** (mp.mpc(s) - 1))
    assert abs(sp.fourier_coeff_a(n, s) - ref) <= 1e-12 * max(abs(ref), 1e-6)


def _an_oracle(n, s):
    import mpmath as mp

    with mp.workdps(40):
        S = mp.mpc(s)
        return complex(mp.gammainc(1 - S, 2j * mp.pi * n) * (2j * mp.pi * n) ** (S - 1))


@pytest.mark.parametrize("s,ns", [
    (0.5 + 400j, [sign * m for m in range(60, 96) for sign in (1, -1)]),
    (1.5 + 3000j, [500, -500, 573, -573, 621, -621]),
])
def test_an_incomplete_gamma_route_boundary(s, ns):
    # 2 pi |n| between |1 - s| + 6 and 1.3 times that: the power series
    # cancels there at large |Im s|, the continued fraction does not
    for n in ns:
        ref = _an_oracle(n, s)
        assert abs(sp.fourier_coeff_a(n, s) - ref) <= 1e-10 * abs(ref), n


@pytest.mark.parametrize("n, s", [
    (4, 20 + 3j), (-4, 20 + 3j), (2, 12 + 3j), (-2, 12 + 3j), (-2, 8 + 3j), (-5, 20 + 20j),
    (5, 30 + 0.5j), (-5, 30 + 0.5j),
])
def test_an_large_sigma_takes_the_continued_fraction(n, s):
    # 2 pi |n| between |Im s| + 6 and |1 - s| + 6 with Re(1 - s) < 0.5: the
    # shifted power series and its downward recurrence lost every digit
    # there (82 relative at a_4(20 + 3i)), the continued fraction does not
    ref = _an_oracle(n, s)
    assert abs(sp.fourier_coeff_a(n, s) - ref) <= 1e-14 * abs(ref)


def test_an_domain():
    with pytest.raises(DomainError):
        sp.fourier_coeff_a(3, -1.5)


def _check_blocked_base_sum(monkeypatch, em):
    """em(sl) evaluates _em_hurwitz on the slice sl of a 5000-element
    argument with max |Im s| = 800 (n0 = 510 base terms)."""
    tracemalloc.start()
    try:
        blocked, err = em(slice(None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # the unblocked n0 x 5000 matrix alone is ~41 MB
    scalar = em(17)
    monkeypatch.setattr(sp, "_EM_BLOCK_TERMS", 1 << 40)  # one block: the whole matrix
    whole, err_whole = em(slice(None))
    assert np.array_equal(blocked, whole) and np.array_equal(err, err_whole)
    assert scalar == em(17)
    sizes = (1, 2, 3, 4, 7, 10)
    unblocked = [em(slice(m))[0] for m in sizes]
    # three columns per block: a one-column remainder block would sum
    # pairwise, not row by row as in the whole matrix; none is formed
    monkeypatch.setattr(sp, "_EM_BLOCK_TERMS", 3 * 600)
    for m, ref in zip(sizes, unblocked):
        assert np.array_equal(em(slice(m))[0], ref)


def test_em_blocked_base_sum_bit_identical_and_bounded(monkeypatch):
    # the whole argument takes the shift route with m > 0, whose head is the same
    # blocked loop with m in place of n0; the short slices sum directly
    a = 1.0 + np.linspace(0.0, 1.0, 5000)
    _check_blocked_base_sum(monkeypatch, lambda sl: sp._em_hurwitz(0.5 + 800j, a[sl]))


def test_em_blocked_base_sum_over_s(monkeypatch):
    s = 0.5 + 1j * np.linspace(800.0, 700.0, 5000)
    _check_blocked_base_sum(monkeypatch, lambda sl: sp._em_hurwitz(s[sl], 1.0))


# ---------------------------------------------------------------------------
# properties of the Euler-Maclaurin kernel
# ---------------------------------------------------------------------------

_PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)
_sigma = st.floats(0.1, 3.0)
_t = st.floats(-300.0, 300.0)
_alpha = st.floats(0.0, 5.0)


def _off_pole(sigma, t):
    return complex(sigma + 0.2, t) if abs(complex(sigma - 1.0, t)) < 0.1 else complex(sigma, t)


@_PROPERTY
@given(_sigma, _t, _alpha)
def test_shift_recurrence(sigma, t, alpha):
    s = _off_pole(sigma, t)
    v0, e0 = sp._em_hurwitz(s, 1.0 + alpha)
    v1, e1 = sp._em_hurwitz(s, 2.0 + alpha)
    term = (1.0 + alpha) ** -s
    assert abs(v0 - v1 - term) <= e0 + e1 + 1e-13 * max(abs(v0), abs(v1), abs(term), 1.0)


# An array call takes its number of base terms from its largest |Im s| and
# smallest shift, so an element and its scalar call may truncate apart:
# they agree to 1e-13 relative beyond the array call's largest bound and
# the scalar call's bound, and the bound stays small for every element.
# An element's own bound covers its truncation but not the rounding of
# the sum, which may differ between the two calls by more than 1e-13.


@_PROPERTY
@given(st.lists(st.tuples(_sigma, _t), min_size=1, max_size=12), _alpha)
def test_array_s_matches_scalar_calls(points, alpha):
    s = np.array([_off_pole(sigma, t) for sigma, t in points])
    values, err = sp._em_hurwitz(s, 1.0 + alpha)
    assert values.shape == err.shape == s.shape
    assert err.max() <= 1e-10 * max(np.abs(values).max(), 1.0)
    for si, vi in zip(s, values):
        ref, err_ref = sp._em_hurwitz(si, 1.0 + alpha)
        assert abs(vi - ref) <= err.max() + err_ref + 1e-13 * max(abs(ref), 1.0)


@_PROPERTY
@given(_sigma, _t, st.lists(_alpha, min_size=1, max_size=12))
def test_array_alpha_matches_scalar_calls(sigma, t, alphas):
    s = _off_pole(sigma, t)
    values, err = sp._em_hurwitz(s, 1.0 + np.array(alphas))
    assert err.max() <= 1e-10 * max(np.abs(values).max(), 1.0)
    for ai, vi in zip(alphas, values):
        ref, err_ref = sp._em_hurwitz(s, 1.0 + ai)
        assert abs(vi - ref) <= err.max() + err_ref + 1e-13 * max(abs(ref), 1.0)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 500.0)), min_size=1, max_size=4),
       _alpha)
# Re s < 0 at shift 1 beside large heights: the kernel reflects those
# elements; the direct sum was off by 2.0e-12 at -0.875 against 1.4e-12
@example([(-0.875, 0.0), (1.0, 233.0)], 0.0)
@example([(-10.5, 0.0), (-3.0, 7.0), (2.0, 400.0), (-0.25, 40.0)], 0.0)
def test_array_s_bound_covers_oracle_error(points, alpha):
    from zetaver import oracle

    s = np.array([_off_pole(sigma, t) for sigma, t in points])
    values, err = sp._em_hurwitz(s, 1.0 + alpha)
    for si, vi, ei in zip(s, values, err):
        ref = oracle.hurwitz_zeta1(si, alpha, prec_bits=120)
        # the element's bound covers truncation; the rounding of the base
        # sum is left to a 1e-12 relative slack as in the oracle tier of
        # criterion 11, which holds while the base terms do not grow (Re s >= 0)
        assert abs(vi - ref) <= ei + 1e-12 * abs(ref)


@pytest.mark.parametrize("u", [-5.5, -10.5, -3.5 + 2j, -0.5 + 1j])
def test_shift_series_columns_at_unit_centre_meet_oracle(u):
    # the columns zeta(u + j), j <= 40, of the unit head's Taylor series:
    # those with Re < 0 take the functional equation in the kernel; the
    # direct sum was off by 4.0e-11 at zeta(-5.5), against a bound of 1.9e-17
    from zetaver import oracle

    z, z_err = sp._shift_series(complex(u), [1.0], 40)
    for j in range(41):
        ref = oracle.riemann_zeta(u + j, prec_bits=120)
        assert abs(z[j, 0] - ref) <= z_err[j, 0] + 1e-14 * abs(ref), j


# The shift route at m = 0: one s with Re s >= 0 at many shifts takes its
# values from a few columns (s + j, c) per block of shifts.  A call takes
# it when blocks x (J + 1) columns are at most 1/16 of its shifts, so the
# calls below hand over hundreds of shifts; the kernel meter tells the
# route apart, since the direct sum adds n0 terms for every shift.


def _terms_of(s, a):
    """(value, bound, base terms summed) of one _em_hurwitz call."""
    start = sp._base_terms()
    value, err = sp._em_hurwitz(s, a)
    return value, err, sp._base_terms() - start


def _direct_terms(s, a):
    return sp._em_terms(abs(complex(s).imag), float(np.min(a))) * np.size(a)


@pytest.mark.parametrize("sigma", [0.5, 2.0])
@pytest.mark.parametrize("t", [50.0, 200.0, 800.0])
def test_shift_taylor_bound_covers_oracle(t, sigma):
    # the folded head's shifts: [K + 1, K + 2] with K = floor(t / 2 pi);
    # 64 of the 1024 values, spread over the unit, against 120 bits
    from zetaver import oracle

    s = complex(sigma, t)
    K = math.floor(t / (2.0 * math.pi))
    a = np.linspace(K + 1.0, K + 2.0, 1024)
    values, err, terms = _terms_of(s, a)
    assert terms <= _direct_terms(s, a) / 16
    for ai, vi, ei in zip(a[::16], values[::16], err[::16]):
        ref = oracle.hurwitz_zeta1(s, ai - 1.0, prec_bits=120)
        assert abs(vi - ref) <= ei + 1e-12 * abs(ref)


def test_shift_taylor_real_s_meets_oracle():
    from zetaver import oracle

    a = np.linspace(1.0, 2.0, 2048)
    values, err, terms = _terms_of(4.0, a)
    assert terms <= _direct_terms(4.0, a) / 16
    assert err.max() <= 1e-12
    for ai, vi, ei in zip(a[::32], values[::32], err[::32]):
        ref = oracle.hurwitz_zeta1(4.0, ai - 1.0, prec_bits=120)
        assert abs(vi - ref) <= ei + 1e-12 * abs(ref)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(st.floats(0.0, 3.0), st.floats(20.0, 800.0), st.floats(0.0, 1.0), st.floats(0.05, 1.0),
       st.integers(0, 2**32 - 1))
def test_shift_taylor_matches_scalar_calls(sigma, t, lift, width, seed):
    # 1024 unsorted shifts of a (32, 32) array, each within both bounds
    # and 1e-13 relative of its own scalar (direct) call
    s = _off_pole(sigma, t)
    rng = np.random.default_rng(seed)
    a = t / (2.0 * math.pi) + lift + width * rng.random((32, 32))
    values, err, terms = _terms_of(s, a)
    assert values.shape == err.shape == a.shape
    assert terms <= _direct_terms(s, a) / 16
    for ai, vi in zip(a.ravel(), values.ravel()):
        ref, err_ref = sp._em_hurwitz(s, ai)
        assert abs(vi - ref) <= err.max() + err_ref + 1e-13 * max(abs(ref), 1.0)


def _direct_sum(monkeypatch, s, a):
    """_em_hurwitz(s, a) with _shift_route refusing: the direct sum."""
    with monkeypatch.context() as patch:
        patch.setattr(sp, "_shift_route", lambda s, a: None)
        return sp._em_hurwitz(s, a)


def test_shift_taylor_leaves_negative_re_s_to_the_direct_sum(monkeypatch):
    # Re s < 0 has growing base terms; it keeps the direct sum, value for
    # value, while Re s > 0 at the same shifts takes the shift route
    a = np.linspace(33.0, 34.0, 2048)
    for s in (-0.25 + 200j, -5.5 + 0j):
        values, err, terms = _terms_of(s, a)
        direct, direct_err = _direct_sum(monkeypatch, s, a)
        assert terms == _direct_terms(s, a)
        assert np.array_equal(values, direct) and np.array_equal(err, direct_err)
    assert _terms_of(0.25 + 200j, a)[2] <= _direct_terms(200j, a) / 16


# The shift route at m > 0: one s at shifts the Taylor blocks cannot
# reach at m = 0, such as zeta1(s, alpha) for alpha in [0, 1], sums
# (a + k)^-s for k < m directly and takes zeta_H(s, a + m) from the
# Taylor blocks, so the meter reads m terms per shift plus the Taylor
# columns in place of n0.


@pytest.mark.parametrize("sigma", [0.5, 2.0])
@pytest.mark.parametrize("t", [50.0, 400.0, 1600.0])
def test_split_sum_bound_covers_oracle(t, sigma):
    # 1024 sorted shifts on [1, 2]: every value within the bound of its
    # own scalar (direct) call, and 17 of them, spread over the unit,
    # against 120 bits
    from zetaver import oracle

    s = complex(sigma, t)
    a = np.sort(1.0 + np.random.default_rng(int(t)).random(1024))
    a[[0, -1]] = 1.0, 2.0
    values, err = sp._em_hurwitz(s, a)
    for ai, vi in zip(a, values):
        ref, err_ref = sp._em_hurwitz(s, ai)
        assert abs(vi - ref) <= err.max() + err_ref + 1e-12 * abs(ref)
    for i in list(range(0, a.size, 64)) + [a.size - 1]:
        ref = oracle.hurwitz_zeta1(s, a[i] - 1.0, prec_bits=120)
        assert abs(values[i] - ref) <= err[i] + 1e-12 * abs(ref)


def test_split_sum_counts_its_head(monkeypatch):
    # t = 400: the direct sum takes n0 = 255 terms per shift, the split at
    # most a third of that; Re s < 0 and a small-t call of the moment
    # suites (n0 = 9) keep the direct sum, value for value
    a = np.sort(1.0 + np.random.default_rng(3).random(4000))
    assert sp._em_terms(400.0, a.min()) == 255
    assert _terms_of(0.5 + 400j, a)[2] <= _direct_terms(400j, a) / 3
    for s, a in ((-0.25 + 400j, a), (2.0 - 1j, np.linspace(2.0, 5.0, 480))):
        values, err, terms = _terms_of(s, a)
        direct, direct_err = _direct_sum(monkeypatch, s, a)
        assert terms == _direct_terms(s, a)
        assert np.array_equal(values, direct) and np.array_equal(err, direct_err)


@pytest.mark.parametrize("s", [0.5 + 50j, 2.0 + 800j, 4.0, 0.5 + 3000j])
def test_taylor_order_is_the_least_order_meeting_its_target(s):
    # the order search, one array over every order, against its definition
    # by a scalar loop: the least J <= cap whose remainder over the block
    # about top is within one unit roundoff of (top (1 + k))^-sigma
    s = complex(s)
    k = min(sp._TAYLOR_REACH / abs(s), sp._TAYLOR_RATIO)
    found = set()
    for top in (1.0, 30.0, 1000.0, 1e5):
        target = 2.0**-53 * (top * (1.0 + k)) ** -s.real
        for cap in (0, 23, 24, 44, sp._TAYLOR_MAX_ORDER):
            weights = sp._shift_weights(s, cap)
            met = [J for J in range(1, cap + 1)
                   if sp._shift_remainder(s, weights, J, k * top, top * (1.0 - k)) <= target]
            expected = met[0] if met else None
            assert sp._taylor_order(s, k, top, weights) == expected
            found.add(expected)
    assert None in found and len(found) > 2


def test_shift_route_refuses_where_its_block_ratio_rounds_to_one(monkeypatch):
    # at |s| above about 1e16 the blocks' ratio (1 + widen)^blocks rounds
    # to 1 and no split point m exists: the call keeps the direct sum,
    # value for value, or its DomainError where that bound overflows
    a = np.linspace(1.0, 2.0, 1024)
    assert sp._shift_route(1e17 + 0j, a) is None
    values, err = sp._em_hurwitz(1e17, a)
    direct, direct_err = _direct_sum(monkeypatch, 1e17, a)
    assert np.array_equal(values, direct) and np.array_equal(err, direct_err)
    with pytest.raises(DomainError):
        sp._em_hurwitz(1e20 + 5j, a)


# The route's admission: the order search is capped by the rule's own
# limits, so a call the rule refuses builds nothing when the cap is below
# 1, and an admitted call builds its weights once.  The capped search must
# take the decision, the order J and the split m of the uncapped one,
# written out here as it was before the cap.


def _uncapped_admission(s, a):
    """(J, m) of the route's rule with the order searched up to
    _TAYLOR_MAX_ORDER, or None where the rule refuses the call: J the
    order the tail takes, m the split."""
    lo, hi = float(a.min()), float(a.max())
    n0 = sp._em_terms(abs(s.imag), lo)
    k = min(sp._TAYLOR_REACH / abs(s), sp._TAYLOR_RATIO)
    widen = 2.0 * k / (1.0 - k)
    weights = sp._shift_weights(s, sp._TAYLOR_MAX_ORDER)
    J = sp._taylor_order(s, k, (hi + n0) / (1.0 - k), weights)
    if J is None:
        return None
    with np.errstate(over="ignore"):
        grow = np.float64(1.0 + widen) ** (a.size // (sp._TAYLOR_SHARE * (J + 1)))
    if grow == 1.0:
        return None
    m = 0 if hi <= grow * lo else math.ceil((hi - grow * lo) / (grow - 1.0))
    if 2 * m > n0 or J + 1 > sp._TAYLOR_STEPS * n0 or (m > 0 and n0 < 4 * sp._EM_FLOOR):
        return None
    low = lo + m
    count = max(1, math.ceil(math.log((hi + m) / low) / math.log1p(widen)))
    J = sp._taylor_order(s, k, low * (1.0 + widen) ** (count - 1) / (1.0 - k), weights[:J + 2]) or J
    return J, m


def _count_calls(monkeypatch, *names):
    """Wrap the special functions named; returns {name: [args of each call]}."""
    calls = {name: [] for name in names}
    for name in names:
        fn = getattr(sp, name)
        monkeypatch.setattr(sp, name, lambda *args, fn=fn, name=name: calls[name].append(args) or fn(*args))
    return calls


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.floats(0.0, 3.0), st.one_of(st.floats(-3000.0, 3000.0), st.floats(1e15, 1e17)),
       st.integers(2, 1200), st.floats(1.0, 60.0), st.floats(0.0, 4.0))
@example(0.5, 200.0, 1024, 33.0, 1.0)  # m = 0
@example(0.5, 400.0, 1024, 1.0, 1.0)  # m > 0
@example(2.0, 1.0, 180, 1.0, 1.0)  # refused: no order within the cap
@example(0.5, 200.0, 400, 33.0, 1.0)  # J at the cap shifts // 16 - 1 = 24
@example(0.1, 1.0, 1200, 7.0, 0.1)  # J at the cap 8 n0 - 1 = 31
def test_capped_admission_takes_the_uncapped_decision(sigma, t, shifts, lo, width):
    s = complex(sigma, t)
    assume(s != 0.0)  # the kernel offers the route one s != 0 with Re s >= 0
    a = lo + width * np.linspace(0.0, 1.0, shifts) ** 2
    expected = _uncapped_admission(s, a)
    with pytest.MonkeyPatch.context() as patch:
        calls = _count_calls(patch, "_shift_series", "_base_sum")
        with np.errstate(over="ignore", invalid="ignore"):
            found = sp._shift_route(s, a)
    assert (found is None) == (expected is None)
    if expected is not None:
        # the same order and split give the same values and bounds
        J, m = expected
        assert [args[2] for args in calls["_shift_series"]] == [J]
        assert [args[2] for args in calls["_base_sum"] if args[1] is a] == ([m] if m else [])


def test_route_with_too_few_shifts_builds_nothing(monkeypatch):
    # fewer than 2 _TAYLOR_SHARE shifts leave no order below the cap
    calls = _count_calls(monkeypatch, "_taylor_order", "_shift_weights")
    for size in (2, sp._TAYLOR_SHARE, 2 * sp._TAYLOR_SHARE - 1):
        assert sp._shift_route(0.5 + 100j, np.linspace(1.0, 2.0, size)) is None
    assert calls == {"_taylor_order": [], "_shift_weights": []}


def test_admitted_route_builds_its_weights_once(monkeypatch):
    # one array at the cap serves both order searches and the Horner sums
    calls = _count_calls(monkeypatch, "_taylor_order", "_shift_weights")
    for s, a in ((0.5 + 200j, np.linspace(33.0, 34.0, 1024)), (0.5 + 400j, np.linspace(1.0, 2.0, 1024))):
        for name in calls:
            calls[name].clear()
        assert sp._em_hurwitz(s, a)[0].shape == a.shape
        assert len(calls["_shift_weights"]) == 1
        assert len(calls["_taylor_order"]) == 2


# _em_coeffs takes a scalar s in Python complex arithmetic and an array in
# column blocks; both must be the one (2J + 1, w) cumulative product.

_poch_s = st.complex_numbers(max_magnitude=1e17, allow_nan=False, allow_infinity=False).filter(
    lambda s: s.real > 1.0 - 2 * sp._EM_PAIRS - 1)


def _whole_product_coeffs(s):
    """coeffs of _em_coeffs from one cumulative product over every column."""
    with np.errstate(over="ignore", invalid="ignore"):
        poch = np.cumprod(np.arange(2.0 * sp._EM_PAIRS + 1)[:, None] + np.reshape(s, (1, -1)), axis=0)
        return sp._bernoulli_tail_weights(sp._EM_PAIRS)[:, None] * poch[::2]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_poch_s, st.lists(_poch_s, max_size=5))
@example(-15.999 + 0j, [])  # Re s at the DomainError limit
@example(-15.5 + 3000j, [0.5 + 1e16j])
@example(complex(0.5, -0.0), [complex(-0.0, 0.0)])  # signed zeros
@example(complex(-0.0, -0.0), [])
def test_scalar_pochhammer_is_the_array_column(s, others):
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs, _ = sp._em_coeffs(np.complex128(s))
        column = sp._em_coeffs(np.array([s] + others))[0][:, :1]
    assert coeffs.shape == column.shape == (sp._EM_PAIRS + 1, 1)
    assert _bits(coeffs) == _bits(column) == _bits(_whole_product_coeffs(s))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.lists(_poch_s, min_size=1, max_size=40), st.integers(1, 7))
@example([0.5 + 1e3j] * 9, 2)  # a one-column last block
def test_blocked_em_coeffs_is_one_block(points, columns):
    s = np.array(points)
    with np.errstate(over="ignore", invalid="ignore"), pytest.MonkeyPatch.context() as patch:
        patch.setattr(sp, "_EM_COEFF_COLUMNS", columns)
        blocked, ratio = sp._em_coeffs(s)
        patch.setattr(sp, "_EM_COEFF_COLUMNS", s.size)
        whole, whole_ratio = sp._em_coeffs(s)
        assert _bits(blocked) == _bits(whole) == _bits(_whole_product_coeffs(s))
    assert np.array_equal(ratio, whole_ratio)


def test_em_coeffs_keeps_its_domain_error():
    with pytest.raises(DomainError):
        sp._em_coeffs(np.complex128(-16.0 + 5j))
    with pytest.raises(DomainError):
        sp._em_coeffs(np.array([2.0, -16.0 + 5j]))


# One bound per element on each of the kernel's paths: the largest of a
# call's bounds is the single bound the call gave before (pinned), and
# where a call mixes heights the low element keeps its own, smaller bound.


@pytest.mark.parametrize("s, a, largest", [
    ([0.5 + 10j, 0.5 + 400j], 1.0, 2.5347333815388723e-11),  # direct sum
    (0.5 + 200j, np.linspace(33.0, 34.0, 1024), 2.9712916753943485e-11),  # shift route, m = 0
    (0.5 + 400j, np.linspace(1.0, 2.0, 1024), 3.9745431297503486e-11),  # split, m > 0
    ([-2.5 + 10j, -0.5 + 3000j], 1.0, 1.2816826764396407e-08),  # reflection
], ids=["direct", "shift-route", "split", "reflection"])
def test_per_element_bound_keeps_the_call_maximum(s, a, largest):
    values, err = sp._em_hurwitz(np.asarray(s), a)
    assert err.shape == values.shape
    assert err.max() == largest
    if np.ndim(s):
        assert err[0] < err[1]


@pytest.mark.parametrize("u, a", [
    (2.0, 6.0), (1.3 + 2j, 6.0), (3.0 + 5j, 6.0), (2.0 + 20j, 16.0), (0.5 + 50j, 40.0),
])
def test_zeta1_powers_bound_covers_oracle(u, a):
    # the large-a series of zeta1 (DLMF 25.11.43) at a = A, where the
    # bound is largest; it is above 1e-14 at each point, so it dominates
    # the rounding of the sum
    from zetaver import oracle

    powers, (bound, _) = sp._zeta1_powers(complex(u), a)
    value = sum(c * a**q for q, c in powers.items())
    ref = oracle.hurwitz_zeta1(complex(u), a, prec_bits=120)
    assert bound >= 1e-14
    assert abs(value - ref) <= bound + 8 * 2.0**-53 * abs(ref)


@pytest.mark.parametrize("name", ["hurwitz_zeta1", "hurwitz_zeta"])
def test_oracle_rejects_a_large_shift_before_mpmath(name, monkeypatch):
    # mp.zeta(s, a) grows to gigabytes at a = 1e8; the oracle stops at 1e4
    from zetaver import oracle

    calls = []
    monkeypatch.setattr(oracle.mp, "zeta", lambda *args: calls.append(args) or 0)
    fn = getattr(oracle, name)
    for alpha in (1e4 + 1.0, 1e8, math.inf, math.nan):
        with pytest.raises(DomainError):
            fn(1.3 + 2j, alpha)
    assert not calls
    assert fn(1.3 + 2j, 1e4) == 0 and len(calls) == 1


@_PROPERTY
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.floats(-500.0, 500.0))
def test_chi_reflection_product_property(sigma, t):
    w = 1.0 - complex(sigma, t)
    s = 1.0 - w  # exact: s + w = 1 in floating point
    # log_chi raises PoleError within 1e-12 of the poles at s = 0 and w = 0
    assume(min(abs(s), abs(w)) > 1e-12)
    assert abs(sp.chi(s) * sp.chi(w) - 1.0) <= 1e-14 + 2e-15 * abs(t)


# ---------------------------------------------------------------------------
# bit identity of the shared and one-reduction kernel forms
# ---------------------------------------------------------------------------


def _lgamma_term_loop(z):
    """lgamma as it summed the Lanczos series before the one-reduction
    form: one term at a time in k, each branch masked out of the whole."""

    def core(z):
        x = z - 1.0
        acc = np.full_like(x, sp._LANCZOS_C[0])
        for k in range(1, len(sp._LANCZOS_C)):
            acc = acc + sp._LANCZOS_C[k] / (x + k)
        tt = x + sp._LANCZOS_G + 0.5
        return (x + 0.5) * np.log(tt) - tt + 0.5 * sp._LOG_2PI + np.log(acc)

    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty_like(arr)
    main = np.real(arr) >= 0.5
    if np.any(main):
        out[main] = core(arr[main])
    if np.any(~main):
        zr = arr[~main]
        out[~main] = math.log(math.pi) - sp._log_sin_pi(zr) - core(1.0 - zr)
    return out


def _lgamma_points(size, re_lo, re_hi, seed):
    rng = np.random.default_rng(seed)
    im = rng.uniform(-3000.0, 3000.0, size) * rng.choice([1.0, 1e-3, 0.0], size)
    return rng.uniform(re_lo, re_hi, size) + 1j * im


@pytest.mark.parametrize("size", [1, 2, 3, 8, 17, 1000])
@pytest.mark.parametrize("re_lo, re_hi", [(0.5, 40.0), (-40.0, 0.49), (-40.0, 40.0)],
                         ids=["main", "reflected", "mixed"])
def test_lgamma_one_reduction_is_bit_identical_to_the_term_loop(size, re_lo, re_hi):
    for seed in range(3):
        z = _lgamma_points(size, re_lo, re_hi, seed)
        assert np.array_equal(sp.lgamma(z), _lgamma_term_loop(z))
        assert sp.lgamma(z[0]) == _lgamma_term_loop(z[0])[0]
    edges = np.array([0.5, 0.5 + 3000j, 0.5 - 3000j, 0.49999999999999994 + 1j, 1.0, 2.0, 1e-300])
    assert np.array_equal(sp.lgamma(edges), _lgamma_term_loop(edges))


def test_lgamma_of_a_concatenation_is_the_separate_calls():
    # the line integrands pass (-z, s + z, conj(s) + z) in one call
    pieces = [_lgamma_points(n, lo, hi, seed) for seed, (n, lo, hi) in enumerate(
        [(1, -5.0, 5.0), (2, 0.5, 9.0), (945, -12.0, 0.4), (300, -3.0, 30.0), (1, 1.0, 2.0)])]
    whole = sp.lgamma(np.concatenate(pieces))
    assert np.array_equal(whole, np.concatenate([sp.lgamma(p) for p in pieces]))
    two_rows = np.stack([pieces[2][:300], pieces[3]])
    assert np.array_equal(sp.lgamma(two_rows), np.stack([sp.lgamma(r) for r in two_rows]))


def _neg_power_cases():
    rng = np.random.default_rng(7)
    for n0, w, a in [(13, 2, 1.0), (40, 57, 1.37), (510, 3, 0.25), (2, 945, 7.5)]:
        x = (np.arange(n0, dtype=float) + a)[:, None]
        sig, t = rng.uniform(-2.0, 4.0, w)[None, :], rng.uniform(-3000.0, 3000.0, w)[None, :]
        yield x, np.full_like(sig, sig[0, 0]), t  # a vertical line: one sigma
        yield x, sig, np.full_like(t, t[0, 0])  # the columns s + j at one centre
        yield x, np.full_like(sig, 1.5), np.full_like(t, 20.0)  # both shared
        yield x, np.full_like(sig, 0.5), np.zeros_like(t)  # real s
        yield x, sig, t  # nothing shared


@pytest.mark.parametrize("x, sigma, t", list(_neg_power_cases()))
def test_neg_power_shared_forms_are_bit_identical_to_the_full_broadcast(x, sigma, t):
    full_x = np.broadcast_to(x, (x.shape[0], sigma.shape[1])).copy()
    c, d = sp._neg_power(x, np.log(x), sigma, t)
    c_ref, d_ref = sp._neg_power(full_x, np.log(full_x), sigma, t)
    assert c.shape == c_ref.shape == full_x.shape  # an (n0, 1) result would sum pairwise
    assert np.array_equal(c, c_ref)
    assert (d is None) == (d_ref is None) and (d is None or np.array_equal(d, d_ref))
    # and the full broadcast is the element-wise formula
    ref = full_x ** -sigma
    assert np.array_equal(c_ref, ref if d_ref is None else ref * np.cos(t * np.log(full_x)))


def test_neg_power_shares_the_power_or_the_phase(monkeypatch):
    # x^-sigma on n0 elements for one sigma; cos and sin on n0 for one t
    sizes = []
    for name in ("power", "cos", "sin"):
        fn = getattr(np, name)
        monkeypatch.setattr(sp.np, name, lambda *a, fn=fn, name=name: sizes.append(
            (name, np.broadcast(*a).size)) or fn(*a))
    x = (np.arange(30.0) + 1.0)[:, None]
    sp._neg_power(x, np.log(x), np.full((1, 8), 0.5), np.linspace(1.0, 9.0, 8)[None, :])
    assert sizes == [("power", 30), ("cos", 240), ("sin", 240)]
    sizes.clear()
    sp._neg_power(x, np.log(x), np.linspace(0.5, 7.5, 8)[None, :], np.full((1, 8), 20.0))
    assert sizes == [("power", 240), ("cos", 30), ("sin", 30)]


# ---------------------------------------------------------------------------
# array forms of the incomplete Gamma function, each element its own
# one-element call, and of chi, bit for bit the scalar form it replaced (the
# Python-complex scalar forms are kept here as references)
# ---------------------------------------------------------------------------


def _bits(values) -> bytes:
    """The bits of complex values, signed zeros included."""
    return np.asarray(values, dtype=complex).tobytes()


def _cf_scalar(a, x, exp_neg_x):
    """The scalar continued fraction in Python complex arithmetic."""
    tiny = 1e-290
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / (b if b != 0 else tiny)
    h = d
    for i in range(1, 4000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if d == 0:
            d = tiny
        c = b + an / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return exp_neg_x * h
    raise AssertionError("stalled")


def _norm_upper_gamma_scalar(a, x, exp_neg_x=None):
    """The scalar _norm_upper_gamma, branch by branch, on _cf_scalar."""
    a, x = complex(a), complex(x)
    enx = complex(np.exp(-x)) if exp_neg_x is None else complex(exp_neg_x)
    if abs(x) >= abs(a) + 6.0 or (a.real < 0.5 and abs(x) >= abs(a.imag) + 6.0):
        return _cf_scalar(a, x, enx)
    logx = complex(np.log(x))
    if a.real >= 0.5:
        return complex(np.exp(sp.lgamma(a) - a * logx)) - enx * sp._lower_series_sum(a, x)
    m = int(math.ceil(0.5 - a.real)) + 1
    top = a + m
    h = (complex(np.exp(sp.lgamma(top) - a * logx))
         - enx * complex(np.exp(m * logx)) * sp._lower_series_sum(top, x))
    for j in range(m - 1, -1, -1):
        aj = a + j
        if aj == 0:
            h = complex(np.exp(j * logx)) * _cf_scalar(0.0, x, enx)
            continue
        h = (h - complex(np.exp(j * logx)) * enx) / aj
    return h


# powers 1 - s of the Fourier tails (complex, real, large |Im|, Re < 0.5)
# against x = 2 pi i n A, whose elements stop after 3 to 24 steps
_CF_POWERS = [1.0 - s for s in (0.5 + 10j, 0.5 - 400j, 1.5 + 3000j, 2.0, -0.5 + 3j, 0.25, 4.0 + 1j)]
_CF_XS = [complex(0.0, -2.0 * math.pi * n * A) for n in (-50, -3, 1, 2, 7, 120) for A in (1.0, 24.0)]


def _cf_case(enx_of):
    a, x = (np.array(v).ravel() for v in np.meshgrid(_CF_POWERS, _CF_XS))
    keep = np.abs(x) >= np.abs(a) + 6.0
    a, x = a[keep], x[keep]
    enx = enx_of(x)
    return (sp._norm_upper_gamma_cf(a, x, enx),
            [sp._norm_upper_gamma_cf(p, q, e)[0] for p, q, e in zip(a, x, enx)],
            [_cf_scalar(complex(p), complex(q), complex(e)) for p, q, e in zip(a, x, enx)])


def _incomplete_gamma_case():
    # continued-fraction, series (Re a >= 0.5) and shifted-series elements
    # (Re a < 0.5, one through a + j = 0) in one call
    a = np.array([-0.5 - 10j, 3.5 + 2j, 3.5 + 2j, -2.0, -1.5 + 0.5j, 0.25 - 40j, 10.0])
    x = np.array([-40j, 2j, 30j, 3j, -4j, 100j, 1.0 + 3j])
    return (sp._norm_upper_gamma(a, x), [sp._norm_upper_gamma(p, q) for p, q in zip(a, x)],
            [_norm_upper_gamma_scalar(p, q) for p, q in zip(a, x)])


def _fourier_coeff_case(s):
    ns = np.array([-83, -7, -2, -1, 0, 1, 2, 5, 64])
    return (sp.fourier_coeff_a(ns, s), [sp.fourier_coeff_a(n, s) for n in ns.tolist()],
            [1.0 / (s - 1.0) if n == 0 else
             _norm_upper_gamma_scalar(1.0 - s, 2j * math.pi * n, exp_neg_x=1.0) for n in ns.tolist()])


def _osc_tail_case(s, a0):
    ms = np.array([-199, -3, -1, 1, 2, 40])
    return (sp.osc_power_tail(s, ms, a0), [sp.osc_power_tail(s, m, a0) for m in ms.tolist()],
            [complex(np.exp((1.0 - s) * math.log(a0)) * _norm_upper_gamma_scalar(1.0 - s, -2j * math.pi * m * a0))
             for m in ms.tolist()])


def _closed_tail_per_n(powers, n, A):
    """The per-n sum of closed power tails, one Python-complex tail per power."""
    total, size = 0j, 0.0
    for q, c in powers.items():
        term = (-c * A ** (q + 1.0) / (q + 1.0) if n == 0 else
                c * complex(np.exp((1.0 + q) * math.log(A)) * _norm_upper_gamma_scalar(1.0 + q, 2j * math.pi * n * A)))
        total += term
        size += abs(term)
    return complex(total), (len(powers) + 4) * 2.0**-53 * size


def _closed_tail_case(ns):
    # values and rounding bounds side by side; a one-n call sums a (powers, 1)
    # array of terms, which numpy's axis-0 sum would add pairwise
    powers = {-1.5 + 3j: 0.7 - 0.2j, -2.5 - 1j: 1.1 + 0.4j, -3.5 + 0j: -0.3 + 0j, -4.5 + 3j: 2e-3j}
    ns = np.array(ns)
    return (np.concatenate(sp._closed_power_tail(powers, ns, 24.0)),
            np.array([sp._closed_power_tail(powers, n, 24.0) for n in ns.tolist()]).T.ravel(),
            np.array([_closed_tail_per_n(powers, n, 24.0) for n in ns.tolist()]).T.ravel())


_ELEMENT_CASES = {
    "fraction": lambda: _cf_case(np.exp),
    "fraction_exact_exp": lambda: _cf_case(np.ones_like),
    "incomplete_gamma": _incomplete_gamma_case,
    **{f"a_n({s})": lambda s=s: _fourier_coeff_case(s) for s in (0.5 + 50j, 1.5 - 3j, 3.0, 0.5 + 400j)},
    **{f"osc_tail({s},{a0})": lambda s=s, a0=a0: _osc_tail_case(s, a0)
       for s, a0 in ((0.5 + 10j, 2.0), (1.5 + 0j, 5.0), (2.25 - 30j, 24.0))},
    "closed_tail": lambda: _closed_tail_case([-7, -1, 0, 2, 5, 31]),
}


# The a + j = 0 element of the mixed case, a = -2 at x = 3i, reaches the
# fraction through a downward recurrence that cancels: the two forms differ
# there by 2.3e-14 relative, and both are within 1.4e-14 of the 120-bit value.
_REF_RTOL = {"incomplete_gamma": 3e-14}


@pytest.mark.parametrize("case", list(_ELEMENT_CASES))
def test_array_call_is_its_one_element_calls_bit_for_bit(case):
    # each element of an array call equals its own one-element call bit for
    # bit; the Python-complex forms above stay as accuracy references
    values, singles, refs = _ELEMENT_CASES[case]()
    assert _bits(values) == _bits(singles)
    refs = np.asarray(refs, dtype=complex)
    assert np.all(np.abs(values - refs) <= _REF_RTOL.get(case, 4e-15) * np.abs(refs))


def test_array_forms_keep_scalar_results_and_errors():
    assert type(sp.osc_power_tail(0.5 + 1j, 3, 2.0)) is complex
    assert type(sp.fourier_coeff_a(3, 0.5 + 2j)) is complex
    assert type(sp.fourier_coeff_a(0, 0.5 + 2j)) is complex
    assert type(sp.chi(0.5 + 3j)) is complex and type(sp.log_chi(0.5 + 3j)) is complex
    assert sp.osc_power_tail(0.5 + 1j, np.array([[3, -3]]), 2.0).shape == (1, 2)
    assert sp.fourier_coeff_a(np.arange(4), 0.5 + 2j).shape == (4,)
    assert sp.chi(np.full((2, 3), 0.5 + 3j)).shape == (2, 3)
    for m in (0, [2, 0]):
        with pytest.raises(DomainError):
            sp.osc_power_tail(0.5 + 1j, m, 2.0)
    for n in (0, [0, 2]):
        with pytest.raises(PoleError):
            sp.fourier_coeff_a(n, 1.0)
    with pytest.raises(DomainError):
        sp.fourier_coeff_a([1, 2], -1.5)


def _log_chi_scalar(s):
    s = complex(s)
    near = round(s.real)
    dist = abs(s - near)
    if dist < 1e-12 and near >= 1 and near % 2 == 1:
        raise PoleError(f"chi has a pole at s = {near}")
    if dist < 0.25 and near >= 2 and near % 2 == 0:
        return ((s - 1.0) * math.log(2.0) + s * math.log(math.pi)
                - complex(sp._log_sin_pi((1.0 - s) / 2.0)) - complex(sp.lgamma(s)))
    return (s * math.log(2.0) + (s - 1.0) * math.log(math.pi)
            + complex(sp._log_sin_pi(s / 2.0)) + complex(sp.lgamma(1.0 - s)))


def _chi_scalar(s):
    s = complex(s)
    if s.imag == 0.0 and s.real == math.floor(s.real):
        n = int(s.real)
        if n <= 0 and n % 2 == 0:
            return 0j
    value = complex(np.exp(_log_chi_scalar(s)))
    return complex(value.real) if s.imag == 0.0 else value


def test_chi_array_is_the_scalar_chi_bit_for_bit():
    # real parts across the trivial zeros, the odd poles and the
    # near-even-integer form; heights up to 3000 and the real axis
    re = np.concatenate((np.linspace(-12.3, 12.7, 41),
                         [-6.0, -4.0, -2.0, 0.0, -1.0, -5.0, 0.5, 2.0, 4.0, 2.1, 3.9, 6.2, 2.0 - 1e-9]))
    im = np.array([0.0, 1e-13, 0.1, -0.2, 14.1, -50.0, 300.0, -1000.0, 2999.0, 3000.0])
    s = (re[:, None] + 1j * im[None, :]).ravel()
    near = np.round(s.real)
    s = s[~((np.abs(s - near) < 1e-12) & (near >= 1) & (near % 2 == 1))]
    ref = [_chi_scalar(z) for z in s]
    assert _bits(sp.chi(s)) == _bits(ref)
    assert _bits([sp.chi(z) for z in s[::7]]) == _bits(ref[::7])
    assert _bits(sp.log_chi(s[s != 0])) == _bits([_log_chi_scalar(z) for z in s[s != 0]])
    with pytest.raises(PoleError, match="s = 3"):
        sp.chi(np.array([0.5 + 1j, 3.0]))
