"""Fourier layer: oscillatory-tail representation, tail lemmas, product
coefficients in both modes, high-frequency bounds, Parseval checks and the
fourth-power harness."""

import math

import numpy as np
import pytest

from zetaver import fourier as fr
from zetaver import special
from zetaver.errors import ConvergenceError, DivergenceError, DomainError
from zetaver.quadrature import (
    _NODES,
    _WGK_FULL,
    _march_panels,
    integrate_finite,
)
from zetaver.special import fourier_coeff_a, hurwitz_zeta1
from zetaver.zeta1_cache import Zeta1AlphaTable

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
    pieces = [fourier_coeff_a(m, u) * fourier_coeff_a(n - m, v) for m in range(-m_max, m_max + 1)]
    conv = complex(math.fsum(p.real for p in pieces), math.fsum(p.imag for p in pieces))
    # certified tail: fit r_m = a_m(u) a_{n-m}(v) + a_{-m}(u) a_{n+m}(v) ~ C/m^2 + D/m^3
    ms = np.arange(m_max - 400, m_max + 1, dtype=float)
    rs = np.array([
        fourier_coeff_a(int(m), u) * fourier_coeff_a(n - int(m), v)
        + fourier_coeff_a(-int(m), u) * fourier_coeff_a(n + int(m), v)
        for m in ms
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


def test_qn_modes_agree_in_overlap():
    for n in (0, 2, 5):
        qd = fr.qn_direct(n, 2.0 + 1j, 2.0 - 1j)
        qc = fr.qn_continued(n, 2.0 + 1j, 2.0 - 1j)
        assert abs(qd.value - qc.value) / abs(qd.value) <= 1e-6
        # each mode reports its cost and an error that covers the other route
        assert abs(qd.value - qc.value) <= qd.err_estimate + qc.err_estimate
        assert qd.evaluations > 0 and qc.evaluations > 0


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


# ---------------------------------------------------------------------------
# Fourier-coefficient engine
# ---------------------------------------------------------------------------


def _theorem2_integrand(t):
    s = complex(0.5, t)
    b = t / _2PI + 1.0
    table = Zeta1AlphaTable(s, 1.0, b + 1e-9)

    def smooth(x):
        return table(x) * np.power(x, -0.5)

    return smooth, b


def test_fourier_engine_matches_per_n_quadrature():
    t = 50.0
    smooth, b = _theorem2_integrand(t)
    cycles = fr._zeta1_pair_cycles(t)
    ns = [-15, 0, 7, 15]
    coeffs, errs, evals = fr._fourier_coeffs(
        lambda x: smooth(x) * np.exp(1j * t * np.log(x)), cycles, ns, 1.0, b, 5e-7)
    assert evals > 0
    for n, c, e in zip(ns, coeffs, errs):
        def f(x, n=n):
            return smooth(x) * np.exp(1j * (t * np.log(x) - _2PI * n * x))

        # panels of at most half a local period of the phase and of smooth
        pts = _march_panels(1.0, b, lambda x, n=n: abs(t / (_2PI * x) - n) + cycles(x))
        ref = integrate_finite(f, 1.0, b, initial_points=pts, abs_tol=1e-13, rel_tol=1e-11)
        assert abs(c - ref.value) <= 1e-11
        assert abs(c - ref.value) <= e + ref.err_estimate


def test_fourier_engine_recurrence_matches_direct_phase_sum():
    # contiguous n = -127..127 runs through the phase recurrence between
    # anchors; the direct sum takes one exponential per n on the same nodes
    t = 200.0
    smooth, b = _theorem2_integrand(t)
    cycles = fr._zeta1_pair_cycles(t)
    seen = []

    def values(x):
        fx = smooth(x) * np.exp(1j * t * np.log(x))
        seen.append((x, fx))
        return fx

    ns = np.arange(-127, 128)
    coeffs, errs, _ = fr._fourier_coeffs(values, cycles, ns, 1.0, b, 5e-7)
    per_cycle = 2.5 * 1.7 ** (len(seen) - 1)
    pts = np.array(_march_panels(1.0, b, lambda x: 127.0 + cycles(x), per_cycle=per_cycle))
    halves = 0.5 * (pts[1:] - pts[:-1])
    nodes = 0.5 * (pts[1:] + pts[:-1])[:, None] + halves[:, None] * _NODES[None, :]
    x, fx = seen[-1]
    assert np.array_equal(nodes.ravel(), x)
    wf = fx.reshape(nodes.shape) * _WGK_FULL * halves[:, None]
    size = float(np.abs(wf).sum())
    frac = nodes - np.floor(nodes)
    for n, c, e in zip(ns, coeffs, errs):
        direct = complex(np.sum(wf * np.exp(-_2PI * 1j * n * frac)))
        assert abs(c - direct) <= 1e-13 * size
        assert abs(c - direct) <= e


def test_fourier_engine_unreachable_tolerance_raises():
    smooth, b = _theorem2_integrand(50.0)
    with pytest.raises(ConvergenceError):
        fr._fourier_coeffs(smooth, fr._zeta1_pair_cycles(50.0), [0, 3], 1.0, b, 0.0)


@pytest.mark.parametrize("tol", [5e-7, 0.0])
def test_fourier_engine_calls_values_once(tol):
    # one march of max |n| plus cycles and one values call on its nodes,
    # whether tol is met or missed (then ConvergenceError, no second march)
    smooth, b = _theorem2_integrand(50.0)
    cycles = fr._zeta1_pair_cycles(50.0)
    pts = np.array(_march_panels(1.0, b, lambda x: 3.0 + cycles(x)))
    halves = 0.5 * (pts[1:] - pts[:-1])
    nodes = 0.5 * (pts[1:] + pts[:-1])[:, None] + halves[:, None] * _NODES[None, :]
    seen = []

    def values(x):
        seen.append(x)
        return smooth(x)

    if tol:
        _coeffs, errs, evals = fr._fourier_coeffs(values, cycles, [0, 3], 1.0, b, tol)
        assert errs.max() <= tol and evals == nodes.size
    else:
        with pytest.raises(ConvergenceError):
            fr._fourier_coeffs(values, cycles, [0, 3], 1.0, b, tol)
    assert len(seen) == 1
    assert np.array_equal(seen[0], nodes.ravel())


def test_theorem2_evaluates_once_for_all_n():
    assert fr.theorem2_check([50.0])[0].evaluations <= 20000


def test_engine_evaluation_counts_pinned():
    # deterministic cost guard: the panel sets of the engine callers
    evals = [r.evaluations for r in fr.theorem2_check([50.0, 100.0, 200.0])]
    assert all(e <= cap for e, cap in zip(evals, (6765, 24480, 90690)))
    assert fr.parseval_fourth_moment(complex(0.5, 50.0)).evaluations <= 1410


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


def test_highfreq_pair_integral_envelope():
    y, t, n = 2.0, 50.0, 20
    val = fr.highfreq_pair_integral(y, 0.5, 0.5, t, n)
    env = y**-0.5 / abs(n - t / _2PI)
    assert abs(val) <= env
    val_c = fr.highfreq_pair_integral(y, 0.5, 0.5, t, n, conjugated=True)
    env_c = y**-0.5 / abs(n + t / _2PI)
    assert abs(val_c) <= env_c


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
    rep = fr.parseval_fourth_moment(complex(2.0, 0.0), n_max=60)
    assert rep.rel_residual <= 1e-6


def test_parseval_fourth_moment_critical_line():
    rep = fr.parseval_fourth_moment(complex(0.5, 50.0))
    assert rep.rel_residual <= 1e-3


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
# fourth-power harness and reconstruction
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


def test_reconstruction_accelerated():
    for sigma in (0.3, 0.5, 0.7):
        s = complex(sigma, 1.0)
        for alpha in (0.25, 0.5, 0.75):
            val = fr.reconstruct_zeta1(s, alpha, 500)
            ref = complex(hurwitz_zeta1(s, alpha))
            assert abs(val - ref) <= 1e-4


def test_reconstruction_plain_partial_sum_converges_slowly():
    s = complex(0.5, 1.0)
    ref = complex(hurwitz_zeta1(s, 0.25))
    e_plain = abs(fr.reconstruct_zeta1(s, 0.25, 400, accelerated=False) - ref)
    e_acc = abs(fr.reconstruct_zeta1(s, 0.25, 400) - ref)
    assert e_acc < e_plain


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
