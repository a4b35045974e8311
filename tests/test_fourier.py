"""Fourier layer: oscillatory-tail representation, tail lemmas, product
coefficients in both modes, high-frequency bounds, Parseval checks and the
fourth-power harness."""

import math
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from zetaver import afe
from zetaver import fourier as fr
from zetaver import special
from zetaver.errors import ConvergenceError, DivergenceError, DomainError
from zetaver.quadrature import integrate_finite
from zetaver.special import fourier_coeff_a, hurwitz_zeta1
from zetaver.suites import SUITES

_2PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# oscillatory-tail representation
# ---------------------------------------------------------------------------


def test_rane_real_point_converges():
    ref = complex(hurwitz_zeta1(1.5, 2.0))
    errs = [abs(fr.rane_representation(1.5, 2.0, m) - ref) for m in (50, 100, 200)]
    assert errs[-1] <= 1e-4
    assert errs[0] > errs[1] > errs[2]


def test_rane_complex_point_converges():
    s = 0.5 + 10j
    ref = complex(hurwitz_zeta1(s, 5.0))
    e100 = abs(fr.rane_representation(s, 5.0, 100) - ref)
    e200 = abs(fr.rane_representation(s, 5.0, 200) - ref)
    e400 = abs(fr.rane_representation(s, 5.0, 400) - ref)
    assert e200 < e100 and e400 < e200
    assert e400 <= 1.2e-4
    # Richardson check across M: the 1/M error term cancels
    v200 = fr.rane_representation(s, 5.0, 200)
    v400 = fr.rane_representation(s, 5.0, 400)
    assert abs(2.0 * v400 - v200 - ref) <= 1e-4


def test_rane_real_s_imaginary_drift():
    val = fr.rane_representation(1.5, 2.0, 200)
    assert abs(val.imag) <= 1e-10


def _rane_per_m(s, alpha, M):
    """The representation with two scalar tails per m, summed in m."""
    s = complex(s)
    val = alpha ** (1.0 - s) / (s - 1.0) - alpha**-s / 2.0
    acc = 0j
    for m in range(1, M):
        phase = np.exp(-2j * math.pi * m * alpha)
        acc += special.osc_power_tail(s, m, alpha) * phase + special.osc_power_tail(s, -m, alpha) / phase
    return complex(val + acc)


@pytest.mark.parametrize("s, alpha", [(0.5 + 10j, 2.0), (1.5, 5.0), (1.5 + 10j, 0.3)])
def test_rane_array_tails_are_the_per_m_sum_bit_for_bit(s, alpha):
    assert fr.rane_representation(s, alpha, 40) == _rane_per_m(s, alpha, 40)


@pytest.mark.parametrize("M, block", [(9000, None), (60, 7), (60, 58)])
def test_rane_blocks_are_the_one_block_sum_bit_for_bit(monkeypatch, M, block):
    if block is not None:
        monkeypatch.setattr(fr, "_RANE_BLOCK", block)
    blocked = fr.rane_representation(0.5 + 10j, 2.0, M)
    monkeypatch.setattr(fr, "_RANE_BLOCK", M - 1)
    assert blocked == fr.rane_representation(0.5 + 10j, 2.0, M)


def test_rane_peak_memory_is_bounded_by_its_blocks():
    # one block of 10^5 m peaked at 70 MiB
    tracemalloc.start()
    try:
        fr.rane_representation(0.5 + 10j, 2.0, fr._RANE_MAX_M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# tail lemmas
# ---------------------------------------------------------------------------


def test_tail_lemma_ratio_bounded():
    t = 50.0
    d = fr.tail_lemma_check(complex(0.5, t), 2.0 * t / _2PI, 1.0)
    assert d.params["ratio"] <= 1.0
    assert d.params["deriv_ratio"] <= 1.0


def test_tail_lemma_alpha_doubling_shrink():
    t = 50.0
    a = 2.0 * t / _2PI
    d1 = fr.tail_lemma_check(complex(0.5, t), a, 1.0)
    d2 = fr.tail_lemma_check(complex(0.5, t), 2.0 * a, 1.0)
    assert d1.abs_residual / d2.abs_residual >= 2.0**1.5 / 1.5


def test_tail_lemma_domain():
    with pytest.raises(DomainError):
        fr.tail_lemma_check(complex(0.5, 50.0), 1.0, 1.0)  # alpha below threshold
    with pytest.raises(DomainError):
        fr.tail_lemma_check(complex(0.5, 50.0), 20.0, 0.0)  # eta must be positive


# ---------------------------------------------------------------------------
# product coefficients
# ---------------------------------------------------------------------------


def _direct_fourier_q(n, u, v, pts_count=80):
    def f(a):
        return hurwitz_zeta1(u, a) * hurwitz_zeta1(v, a) * np.exp(-2j * math.pi * n * a)

    pts = list(np.linspace(0.0, 1.0, pts_count))
    return integrate_finite(f, 0.0, 1.0, initial_points=pts, abs_tol=1e-13, rel_tol=1e-11).value


def test_qn_zero_is_quadratic_mean():
    from zetaver.identities import verify_quadratic_moment

    q0 = fr.qn_direct(0, 2.0, 2.0).value
    rep = verify_quadratic_moment((2.0, 2.0))
    assert abs(q0 - rep.lhs) <= 1e-9


def test_qn_direct_vs_product_fourier_oracle():
    q = fr.qn_direct(3, 2.5, 2.0).value
    ref = _direct_fourier_q(3, 2.5, 2.0)
    assert abs(q - ref) / abs(ref) <= 1e-7


def test_qn_direct_vs_convolution_oracle():
    n, u, v = 3, 2.5, 2.0
    q = fr.qn_direct(n, u, v).value
    m_max = 3000
    # a_m(u) and a_{n-m}(v) for every m, each from one array call
    m_all = np.arange(-m_max, m_max + 1)
    pieces = [a * b for a, b in zip(fourier_coeff_a(m_all, u).tolist(),
                                    fourier_coeff_a(n - m_all, v).tolist())]
    conv = complex(math.fsum(p.real for p in pieces), math.fsum(p.imag for p in pieces))
    # certified tail: fit r_m = a_m(u) a_{n-m}(v) + a_{-m}(u) a_{n+m}(v) ~ C/m^2 + D/m^3
    ms = np.arange(m_max - 400, m_max + 1, dtype=float)
    mi = ms.astype(int)
    rs = np.array([
        a * b + c * d for a, b, c, d in zip(
            fourier_coeff_a(mi, u).tolist(), fourier_coeff_a(n - mi, v).tolist(),
            fourier_coeff_a(-mi, u).tolist(), fourier_coeff_a(n + mi, v).tolist())
    ])
    basis = np.vstack([ms**-2.0, ms**-3.0]).T
    cr, *_ = np.linalg.lstsq(basis, rs.real, rcond=None)
    ci, *_ = np.linalg.lstsq(basis, rs.imag, rcond=None)
    tail = 0j
    for k, (cre, cim) in enumerate(zip(cr, ci)):
        zsum = complex(hurwitz_zeta1(k + 2.0, float(m_max)))
        tail += complex(cre, cim) * zsum
    conv += tail
    assert abs(q - conv) / abs(q) <= 1e-6


def test_qn_modes_agree_in_overlap(spent):
    for n in (0, 2, 5):
        qd, qd_evals = spent(fr.qn_direct, n, 2.0 + 1j, 2.0 - 1j)
        qc, qc_evals = spent(fr.qn_continued, n, 2.0 + 1j, 2.0 - 1j)
        assert abs(qd.value - qc.value) / abs(qd.value) <= 1e-6
        # each mode costs evaluations on the meter and reports an error that
        # covers the other route
        assert abs(qd.value - qc.value) <= qd.err_estimate + qc.err_estimate
        assert qd_evals > 0 and qc_evals > 0


def test_qn_continued_below_line_vs_oracle():
    u, v = 0.6 + 20j, 0.6 - 20j
    q1 = fr.qn_continued(1, u, v).value
    def f(a):
        return hurwitz_zeta1(u, a) * hurwitz_zeta1(v, a) * np.exp(-2j * math.pi * a)
    pts = list(np.linspace(0.0, 1.0, 180))
    ref = integrate_finite(f, 0.0, 1.0, initial_points=pts, abs_tol=1e-12, rel_tol=1e-10).value
    assert abs(q1 - ref) / abs(ref) <= 1e-5


def test_an_of_2sigma_minus_1_is_order_one_over_n():
    sigma = 0.5
    vals = [abs(fourier_coeff_a(n, 2.0 * sigma - 1.0)) * n for n in (1, 10, 100, 1000)]
    assert max(vals) <= 1.0  # a_n(0) = 1/(2 pi i n) exactly
    sigma = 0.3
    vals = [abs(fourier_coeff_a(n, 2.0 * sigma - 1.0)) * n for n in (1, 10, 100, 1000)]
    assert max(vals) <= 2.0


def test_closed_power_tail_divergent_at_n0():
    # a^{-1/2} is not integrable at n = 0
    with pytest.raises(DivergenceError):
        special._closed_power_tail({-0.5 + 0j: 1.0 + 0j}, 0, 24.0)


def test_q_set_hermitian_exact_and_consistent():
    u = 0.7 + 12j
    qs = {n: q.value for n, q in fr._q_coeffs(u, u.conjugate(), range(-4, 5), 1e-10,
                                             direct=False).items()}
    for n in (1, 2, 3, 4):
        assert qs[-n] == qs[n].conjugate()  # exact by construction
    # the product integral on [0, 1] is an independent route to a negative index
    direct = _direct_fourier_q(-2, u, u.conjugate())
    assert abs(direct - qs[-2]) <= 1e-9 * max(abs(direct), 1e-6)


def test_theorem2_evaluates_once_for_all_n(spent):
    assert spent(fr.theorem2_check, [50.0])[1] <= 20000


def test_engine_evaluation_counts_pinned(spent):
    # deterministic cost guard: the panel sets of the engine callers
    evals = [spent(fr.theorem2_check, [t])[1] for t in (50.0, 100.0, 200.0)]
    assert all(e <= cap for e, cap in zip(evals, (6765, 24480, 90690)))
    assert spent(fr.parseval_fourth_moment, complex(0.5, 50.0))[1] == 4140


# ---------------------------------------------------------------------------
# the folded zeta1 head
# ---------------------------------------------------------------------------


def _unfolded_head(u, v, ns, b, continued):
    # table-free reference: zeta1 evaluated directly on [1, b], at four
    # times the panels of the folded head
    def values(x):
        f = hurwitz_zeta1(u, x) * np.power(x, -v)
        if continued:
            f = f - np.power(x, 1.0 - u - v) / (u - 1.0) + 0.5 * np.power(x, -u - v)
        return f

    # the summed band of both log-phases, at least the head's for every sign
    t = max(abs(u.imag), abs(v.imag))
    z = special._zeta1_cycles(t)
    n_big = max(abs(n) for n in ns)
    coeffs, _errs = fr._fourier_coeffs(
        values, lambda x: 3.0 * n_big + 4.0 * (t / (_2PI * x) + z(x)), ns, 1.0, b, 1e-9)
    return coeffs


# a fractional and an integer b above 2, b = 2 (one part, one term) and
# b < 2 (one part), in both modes; a general pair and two conjugate pairs,
# whose band and power the head shares between u and v
@pytest.mark.parametrize("continued", [False, True])
@pytest.mark.parametrize("b", [50.0 / _2PI + 1.0, 6.0, 2.0, 1.6])
def test_folded_head_matches_unfolded_route(b, continued, spent):
    ns = range(-12, 13)
    for u, v in ((0.6 + 30j, 0.7 - 25j), (0.5 + 50j, 0.5 - 50j), (1.01 + 20j, 1.01 - 20j)):
        (coeffs, errs), evals = spent(fr._zeta1_head, u, v, ns, b, 1e-9, continued=continued)
        ref = _unfolded_head(u, v, ns, b, continued)
        assert np.max(np.abs(coeffs - ref)) <= 1e-11 * np.max(np.abs(ref))
        assert errs.max() <= 1e-9 and evals > 0


def _gauss_unit(panels, order):
    # Gauss-Legendre nodes and weights on [0, 1], in equal panels
    x, w = np.polynomial.legendre.leggauss(order)
    lo = np.arange(panels)[:, None] / panels
    return (lo + (x + 1.0) / (2 * panels)).ravel(), np.tile(w / (2 * panels), panels)


def _oracle_folded_head(u, v, ns, terms):
    # int_1^{1+terms} a^{-v} zeta1(u, a) e^{-2 pi i n a} da, folded onto
    # [0, 1) with 120-bit zeta1 values; only the last sum runs in double
    ys, ws = _gauss_unit(8, 24)
    g = np.empty(ys.size, dtype=complex)
    with mp.workprec(120):
        mu, mv = mp.mpc(u), mp.mpc(v)
        for i, y in enumerate(ys):
            total, z = 0, mp.zeta(mu, mp.mpf(y) + terms + 1)
            for k in range(terms, 0, -1):
                a = mp.mpf(y) + k
                total += z * a ** -mv
                z += a ** -mu
            g[i] = complex(total)
    return [complex(np.sum(ws * g * np.exp(-_2PI * 1j * n * ys))) for n in ns]


def test_folded_head_error_covers_oracle():
    # every shifted value carries the Euler-Maclaurin error of its node,
    # and the head's errs count it
    u, v, ns = 0.6 + 30j, 0.7 - 25j, [0, 3]
    coeffs, errs = fr._zeta1_head(u, v, ns, 6.0, 1e-9)
    assert np.all(np.abs(coeffs - _oracle_folded_head(u, v, ns, 5)) <= errs)


def test_qn_continued_error_covers_oracle():
    # q_1 = int_0^1 |zeta1(u, alpha)|^2 e^{-2 pi i alpha} d(alpha), 120-bit zeta1
    u = 1.01 + 20j
    q = fr.qn_continued(1, u, u.conjugate())
    ys, ws = _gauss_unit(8, 24)
    with mp.workprec(120):
        z1 = np.array([complex(mp.zeta(mp.mpc(u), 1 + mp.mpf(y))) for y in ys])
    ref = complex(np.sum(ws * np.abs(z1) ** 2 * np.exp(-_2PI * 1j * ys)))
    assert abs(q.value - ref) <= q.err_estimate


def test_fourier_rows_need_no_alpha_table(monkeypatch, spent):
    from zetaver import zeta1_cache

    def refuse(*args, **kwargs):
        raise AssertionError("Zeta1AlphaTable built")

    monkeypatch.setattr(zeta1_cache.Zeta1AlphaTable, "__init__", refuse)
    u = complex(0.5, 50.0)
    assert fr.theorem2_check([50.0])[0].params["coeff_sum"] > 0.0
    assert fr.highfreq_tail_check(20, u, u.conjugate()).params["ratio"] <= 1.0
    for qn in (fr.qn_direct, fr.qn_continued):
        q, evals = spent(qn, 2, 2.0 + 1j, 2.0 - 1j)
        assert evals > 0 and math.isfinite(abs(q.value))


@pytest.mark.parametrize("call", [
    lambda: fr.theorem2_check([1e20]),
    lambda: fr.highfreq_tail_check(20, complex(0.5, 50.0), complex(0.5, -50.0), eta=1e20),
    lambda: fr.highfreq_tail_check(10**20, complex(0.5, 50.0), complex(0.5, -50.0)),
])
def test_folded_head_refuses_huge_panelling_at_once(call):
    start = time.perf_counter()
    with pytest.raises(ConvergenceError):
        call()
    assert time.perf_counter() - start < 1.0


def test_folded_evaluation_counts_pinned(spent):
    # deterministic cost guard: folded nodes, one zeta1 value each
    assert [spent(fr.theorem2_check, [t])[1] for t in (50.0, 100.0, 200.0)] == [930, 1785, 3450]
    u = complex(0.5, 50.0)
    assert [spent(fr.highfreq_tail_check, n, u, u.conjugate())[1]
            for n in (20, 40, 80)] == [1110, 1875, 3375]
    qn_modes = SUITES["qn_modes"].runner
    assert [spent(qn_modes, {"n": n, "u_re": 2.0, "u_im": 1.0})[1]
            for n in (0, 2, 5)] == [120, 270, 510]


def _theorem2_terms(t: float) -> int:
    start = special._base_terms()
    fr.theorem2_check([t])
    return special._base_terms() - start


def test_theorem2_kernel_terms_pinned(monkeypatch):
    # deterministic cost guard on the kernel meter (base-sum terms x
    # columns) over the same folded nodes [930, 1785, 3450]: the
    # shift-Taylor anchors against the direct sum at every node
    assert [_theorem2_terms(t) for t in (50.0, 100.0, 200.0)] == [2312, 9568, 6992]
    monkeypatch.setattr(special, "_TAYLOR_MAX_ORDER", 0)  # the direct sum only
    assert [_theorem2_terms(t) for t in (50.0, 100.0, 200.0)] == [22352, 85744, 331328]


def _power_mean_terms(k: int, t: float) -> int:
    start = special._base_terms()
    afe.power_mean_Ik(k, t)
    return special._base_terms() - start


def test_power_mean_Ik_kernel_terms_pinned(monkeypatch):
    # deterministic cost guard on the kernel meter for the split route:
    # zeta1(s, alpha) over alpha in [0, 1] at one s per quadrature batch,
    # for (k, t) in {1, 2} x {50, 100, 400}; t = 50 never splits
    grid = [(k, t) for k in (1, 2) for t in (50.0, 100.0, 400.0)]
    assert [_power_mean_terms(k, t) for k, t in grid] == [
        11520, 15760, 70656, 22560, 17361, 94020]
    monkeypatch.setattr(special, "_TAYLOR_MAX_ORDER", 0)  # the direct sum only
    assert [_power_mean_terms(k, t) for k, t in grid] == [
        11520, 39360, 511980, 22560, 77760, 1016340]


def test_continued_q0_is_finite_at_u_plus_v_two():
    u, v = 1.0 + 20j, 1.0 - 20j
    q = fr.qn_continued(0, u, v)
    ref = _direct_fourier_q(0, u, v)
    assert abs(q.value - ref) <= 1e-11 * abs(ref)


def test_highfreq_tail_needs_positive_t_and_b_above_one():
    # the envelope t^{1/2} / |n - t/2pi| is 0 at t = 0
    with pytest.raises(DomainError):
        fr.highfreq_tail_check(5, 0.5 + 0j, 0.5 + 0j)
    # t/2pi + eta below 1 leaves no interval [1, b] to integrate
    with pytest.raises(DomainError):
        fr.highfreq_tail_check(5, 0.5 + 5j, 0.5 - 5j, eta=-1.0)


# ---------------------------------------------------------------------------
# high-frequency bounds
# ---------------------------------------------------------------------------


def test_highfreq_ratio_bounded_and_scaling():
    u = complex(0.5, 50.0)
    d20 = fr.highfreq_tail_check(20, u, u.conjugate())
    d40 = fr.highfreq_tail_check(40, u, u.conjugate())
    assert d20.params["ratio"] <= 1.0
    assert d40.params["ratio"] <= 1.0
    # doubling n scales the integral by about the envelope ratio
    gap_ratio = (20 - 50.0 / _2PI) / (40 - 50.0 / _2PI)
    measured = d40.abs_residual / d20.abs_residual
    assert measured <= 4.0 * gap_ratio


def highfreq_pair_integral(y, s1, s2, t, n, conjugated=False):
    """int_1^{t/2pi+1} a^{-s1 +/- it} (a+y)^{-s2 -/+ it} e^{-2 pi i n a} da.

    The two factors are a conjugate pair in their phases: e^{+/- it log(a/(a+y))}
    has the one band t y/(2 pi a (a + y)), not the sum of both log-phases.
    """
    sign = -1.0 if conjugated else 1.0

    def f(a):
        phase = np.exp(sign * 1j * t * np.log(a / (a + y)))
        return np.power(a, -s1) * np.power(a + y, -s2) * phase

    def cycles(a):
        return t * y / (_2PI * a * (a + y)) + 1.0

    (val,), _errs = fr._fourier_coeffs(f, cycles, [n], 1.0, t / _2PI + 1.0, 1e-12)
    return complex(val)


def test_highfreq_pair_integral_envelope():
    y, t, n = 2.0, 50.0, 20
    val = highfreq_pair_integral(y, 0.5, 0.5, t, n)
    env = y**-0.5 / abs(n - t / _2PI)
    assert abs(val) <= env
    val_c = highfreq_pair_integral(y, 0.5, 0.5, t, n, conjugated=True)
    env_c = y**-0.5 / abs(n + t / _2PI)
    assert abs(val_c) <= env_c


def test_highfreq_pair_integral_matches_four_times_the_summed_band():
    # the conjugate phases share one band; the reference panels at four
    # times the sum of both log-phases
    y, t = 2.0, 50.0
    for n, conjugated in ((20, False), (20, True), (3, False), (-7, True)):
        sign = -1.0 if conjugated else 1.0

        def f(a, sign=sign):
            return np.power(a * (a + y), -0.5) * np.exp(sign * 1j * t * np.log(a / (a + y)))

        (ref,), _errs = fr._fourier_coeffs(
            f, lambda a: 4.0 * (t / (_2PI * a) + t / (_2PI * (a + y)) + 1.0), [n],
            1.0, t / _2PI + 1.0, 1e-12)
        val = highfreq_pair_integral(y, 0.5, 0.5, t, n, conjugated=conjugated)
        assert abs(val - ref) <= 2e-12


def test_highfreq_qn_square_tail_bounded_in_t():
    # sum over |n| > t/pi of |q_n|^2 at sigma = 1/2, via the measured envelope
    sums = []
    for t in (30.0, 50.0):
        u = complex(0.5, t)
        n0 = int(t / math.pi) + 1
        total = 0.0
        for n in range(n0, n0 + 12):
            d = fr.highfreq_tail_check(n, u, u.conjugate())
            total += 2.0 * d.abs_residual ** 2
        c = max(fr.highfreq_tail_check(n, u, u.conjugate()).params["ratio"] for n in (n0, n0 + 6))
        total += 2.0 * (c**2) * t / (n0 + 11 - t / _2PI)
        sums.append(total)
    assert max(sums) <= 4.0 * max(min(sums), 0.05)


# ---------------------------------------------------------------------------
# Parseval checks
# ---------------------------------------------------------------------------


def test_parseval_second_moment_above_half():
    rep = fr.parseval_second_moment(complex(0.75, 30.0))
    assert rep.rel_residual <= 1e-4


def test_parseval_fourth_moment_real_case():
    rep = fr.parseval_fourth_moment(complex(2.0, 0.0))
    assert rep.rel_residual <= 1e-6


def test_parseval_fourth_moment_critical_line():
    rep = fr.parseval_fourth_moment(complex(0.5, 50.0))
    assert rep.rel_residual <= 1e-3


def test_parseval_fourth_moment_by_parts_tail():
    rep = fr.parseval_fourth_moment(complex(0.5, 50.0))
    assert rep.params["n_max"] == 82
    assert rep.rel_residual <= 1e-11 and rep.params["tail_err"] <= 1e-12
    assert fr.parseval_fourth_moment(complex(2.0, 0.0)).rel_residual <= 1e-13


@pytest.mark.parametrize("t", [100.0, 400.0])
def test_parseval_second_moment_by_parts_tail(t):
    assert fr.parseval_second_moment(complex(0.5, t)).rel_residual <= 1e-11


def test_parseval_rows_count_their_whole_cost(spent):
    # the power mean plus, for parseval4, the q_n head's folded nodes
    u = complex(0.5, 50.0)
    mean, mean_evals = spent(afe._power_mean, u, 2, abs_tol=1e-10, rel_tol=1e-8)
    _, coeffs_evals = spent(fr._q_coeffs, u, u.conjugate(), range(-82, 83),
                            max(1e-10, 2e-5 * mean.value.real / 82), direct=False)
    assert (mean_evals, coeffs_evals) == (705, 3435)
    assert spent(fr.parseval_fourth_moment, u)[1] == 705 + 3435
    assert spent(fr.parseval_second_moment, u)[1] == 360


def test_by_parts_expansion_meets_computed_qn():
    u = complex(0.5, 50.0)
    coeffs = fr._q_coeffs(u, u.conjugate(), range(-82, 83), 1e-10, direct=False)
    jumps, errs = fr._parts_jumps([u, u.conjugate()], 2.0)
    orders = np.arange(1, jumps.size + 1)
    for n in (40, 60, 82):
        w = 2j * math.pi * n
        expansion = np.sum(jumps / w**orders)
        miss = abs(expansion - coeffs[n].value)
        assert miss <= 1e-13
        assert miss <= np.sum(errs / abs(w) ** orders) + coeffs[n].err_estimate


@pytest.mark.parametrize("s", [complex(0.5, 50.0), complex(0.75, 30.0), complex(0.5, 400.0)])
def test_parts_tail_telescopes_over_computed_coefficients(s):
    # tail(N) = sum_{N < |n| <= 4N} |a_n|^2 + tail(4N), within tail(N)'s bound
    n_max = fr.parseval_second_moment(s).params["n_max"]
    tail, tail_err = fr._parts_tail([s], n_max, 2.0)
    far, _far_err = fr._parts_tail([s], 4 * n_max, 2.0)
    between = sum(abs(fourier_coeff_a(sign * n, s)) ** 2
                  for n in range(n_max + 1, 4 * n_max + 1) for sign in (1, -1))
    assert abs(tail - between - far) <= tail_err + 1e-14 * tail


def test_parseval_partial_sums_monotone():
    u = complex(0.5, 30.0)
    coeffs = {n: q.value for n, q in fr._q_coeffs(u, u.conjugate(), range(-30, 31), 1e-8,
                                                 direct=False).items()}
    partial = []
    acc = abs(coeffs[0]) ** 2
    for n in range(1, 31):
        acc += abs(coeffs[n]) ** 2 + abs(coeffs[-n]) ** 2
        partial.append(acc)
    assert all(b >= a for a, b in zip(partial, partial[1:]))


# ---------------------------------------------------------------------------
# fourth-power harness
# ---------------------------------------------------------------------------


def test_theorem2_single_point():
    rec = fr.theorem2_check([50.0])[0]
    assert math.isfinite(rec.params["ratio"])
    assert rec.params["ratio"] <= 10.0
    assert rec.params["coeff_sum"] > 0.0


def test_theorem2_eta_robustness():
    r1 = fr.theorem2_check([50.0], eta=1.0)[0]
    r2 = fr.theorem2_check([50.0], eta=2.0)[0]
    assert r1.params["coeff_sum"] / r2.params["coeff_sum"] <= 2.0
    assert r2.params["coeff_sum"] / r1.params["coeff_sum"] <= 2.0


def test_regularized_integrand_absolutely_integrable():
    # the regularised bracket is absolutely integrable: its absolute integral
    # stabilises under domain doubling
    u, v = 0.6 + 10j, 0.6 - 10j

    def absf(a):
        f = (hurwitz_zeta1(u, a) * np.power(a, -v) - np.power(a, 1.0 - u - v) / (u - 1.0)
             + 0.5 * np.power(a, -u - v))
        return np.abs(f) + 0j

    vals = []
    hi = 40.0
    for _ in range(3):
        pts = list(np.geomspace(1.0, hi, 60))
        vals.append(integrate_finite(absf, 1.0, hi, initial_points=pts,
                                     abs_tol=1e-8, rel_tol=1e-6).value.real)
        hi *= 2.0
    assert abs(vals[-1] - vals[-2]) <= 0.05 * abs(vals[-1]) + 1e-6
