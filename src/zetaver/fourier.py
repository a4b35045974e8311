"""Fourier analysis of zeta1 and of its quadratic products on the unit
interval: the oscillatory-tail representation of zeta1, the tail lemmas
controlling it, the product coefficients q_n in the direct and the
analytically continued form, the high-frequency coefficient bounds, the
Parseval checks for the second and fourth moments, and the fourth-power
bound harness driven by the truncated coefficient integrals.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError
from .identities import IdentityReport
from .quadrature import QuadResult, _check_panel_cap, _fourier_coeffs
# unused here, but the benchmark's tracer test reads fourier.integrate_finite
from .quadrature import integrate_finite  # noqa: F401
from .special import (
    _certified_powers,
    _closed_power_tail,
    _em_hurwitz,
    _product_powers,
    _shift_weights,
    _tail_abscissa,
    _zeta1_powers,
    fourier_coeff_a,
    hurwitz_zeta1,
    osc_power_tail,
    riemann_zeta,
)
from . import afe

_2PI = 2.0 * math.pi

__all__ = [
    "rane_representation",
    "tail_lemma_check",
    "qn_direct",
    "qn_continued",
    "highfreq_tail_check",
    "parseval_second_moment",
    "parseval_fourth_moment",
    "theorem2_check",
]


# ---------------------------------------------------------------------------
# Oscillatory-tail representation of zeta1 and the lemmas that control it.
# ---------------------------------------------------------------------------


# The 2(M - 1) tails come from one array call per block of at most
# _RANE_BLOCK m, which bounds the live arrays of the continued fraction, and
# the sum over m runs in Python: 10^5 terms take about 0.1 s of CPU and
# 2.8 MiB at peak (on a 2-CPU x86_64 machine), and a larger M is refused
# rather than left to run.
_RANE_MAX_M = 10**5
_RANE_BLOCK = 4096


def rane_representation(s: complex, alpha: float, M: int) -> complex:
    """Partial (symmetric, 0 < |m| < M) oscillatory-tail representation:

        alpha^{1-s}/(s-1) - alpha^{-s}/2
            + sum_m (int_alpha^inf x^{-s} e^{2 pi i m x} dx) e^{-2 pi i m alpha},

    for 2 <= M <= _RANE_MAX_M.
    """
    s = complex(s)
    if s.real <= 0.0:
        raise DomainError("requires Re s > 0")
    if alpha <= 0.0:
        raise DomainError("requires alpha > 0")
    if not 2 <= M <= _RANE_MAX_M:
        raise DomainError(f"M must be in [2, {_RANE_MAX_M}]")
    val = alpha ** (1.0 - s) / (s - 1.0) - alpha**-s / 2.0
    acc = 0j
    for start in range(1, M, _RANE_BLOCK):
        ms = np.arange(start, min(start + _RANE_BLOCK, M))
        tails = osc_power_tail(s, np.concatenate((ms, -ms)), alpha).tolist()
        # summed in m as Python complex tails against numpy phases, one m at a time
        for up, down, phase in zip(tails[:ms.size], tails[ms.size:], np.exp(-2j * math.pi * ms * alpha)):
            acc += up * phase + down / phase
    return complex(val + acc)


def tail_lemma_check(s: complex, alpha: float, eta: float) -> IdentityReport:
    """Size of the oscillatory tail of zeta1 against the t alpha^{-sigma-1}
    envelope (and its alpha-derivative against t^2 alpha^{-sigma-2}),
    valid for alpha >= t/2pi + eta."""
    s = complex(s)
    sigma, t = s.real, s.imag
    if sigma <= 0.0 or t <= 0.0:
        raise DomainError("requires sigma > 0 and t > 0")
    if eta <= 0.0:
        raise DomainError("requires eta > 0")
    if alpha < t / _2PI + eta:
        raise DomainError("requires alpha >= t/2pi + eta")
    z1 = complex(hurwitz_zeta1(s, alpha))
    bracket = z1 - alpha ** (1.0 - s) / (s - 1.0) + alpha**-s / 2.0
    ratio = abs(bracket) / (t * alpha ** (-sigma - 1.0))
    z2 = complex(hurwitz_zeta1(s + 1.0, alpha))
    dbracket = -s * z2 + alpha**-s - (s / 2.0) * alpha ** (-s - 1.0)
    dratio = abs(dbracket) / (t * t * alpha ** (-sigma - 2.0))
    params = {"sigma": sigma, "t": t, "alpha": alpha, "ratio": ratio, "deriv_ratio": dratio}
    return IdentityReport.bound("tail_lemma", params, abs(bracket), ratio)


# ---------------------------------------------------------------------------
# Product coefficients q_n(u, v).
# ---------------------------------------------------------------------------


def _side_integrals(u: complex, v: complex, ns, abs_tol: float, direct: bool) -> dict:
    """int_1^inf F(a) e^{-2 pi i n a} da for every n in ns as {n: QuadResult},
    F being zeta1(u, a) a^{-v} (direct) or that minus its two leading powers
    a^{1-u-v}/(u-1) - a^{-u-v}/2 (continued): the _zeta1_head on [1, A]
    plus the closed power tail from A.  err_estimate is the head's error
    plus the certified bound on the tail's omitted part and the rounding of
    its closed sum.  The head's nodes count once on the evaluation meter for
    all of ns."""
    big = max(abs(u), abs(v)) if direct else max(abs(u), abs(v), abs(1.0 - u - v), abs(u + v))
    # 24 and the last clause keep 2 pi |n| A, the argument of the incomplete
    # Gamma in osc_power_tail, large against the powers at every n != 0
    A = max(24.0, _tail_abscissa(abs(u), big), 1.3 * (big + 90.0) / _2PI)
    # the subtracted powers are literally the expansion's first two entries,
    # a^{-v} times a^{1-u}/(u-1) and -a^{-u}/2; the cut drops just those
    cut = -(u + v).real - 0.5

    def expand(A: float):
        powers, rem = _product_powers(v, [_zeta1_powers(u, A)], A)
        if not direct:
            powers = {q: c for q, c in powers.items() if q.real < cut}
        return [(powers, rem)]

    [(powers, rem)], A = _certified_powers(expand, A, abs_tol)
    heads, errs = _zeta1_head(u, v, ns, A, abs_tol / 2.0, continued=not direct)
    tails, roundings = _closed_power_tail(powers, np.asarray(ns), A)
    return {n: QuadResult(head + tail, float(err) + rem + rounding)
            for n, head, err, tail, rounding in zip(ns, heads, errs, tails.tolist(), roundings.tolist())}


def _q_coeffs(u: complex, v: complex, ns, abs_tol: float, direct: bool) -> dict:
    """q_n(u, v) = lead_n + I_u(n) + I_v(n) for every n in ns as
    {n: QuadResult}.

    lead_n is a_n(u+v) (direct) or [1/(u-1) + 1/(v-1)] a_n(u+v-1)
    (continued), which at n = 0 is 1/((u-1)(v-1)) identically, since
    a_0(s) = 1/(s-1): its pole at u + v = 2 cancels.  I_u and I_v are the
    side integrals of u and of v, whose errors add.  For v = conj u,
    I_v(n) = conj I_u(-n), so only the u side is integrated, at the cost of
    one side call on the evaluation meter, and q_{-n} = conj q_n holds
    exactly; the dict then holds -n for every n.
    """
    ns = list(ns)

    def leads(ms: list) -> dict:
        """{n: lead_n} for every n in ms, a_n from one fourier_coeff_a call."""
        if direct:
            return dict(zip(ms, fourier_coeff_a(np.asarray(ms), u + v).tolist()))
        # a_0(u + v - 1) has a pole at u + v = 2 that lead_0 cancels
        on = [n for n in ms if n]
        factor = 1.0 / (u - 1.0) + 1.0 / (v - 1.0)
        out = {n: factor * a for n, a in zip(on, fourier_coeff_a(np.asarray(on), u + v - 1.0).tolist())}
        if len(on) < len(ms):
            out[0] = 1.0 / ((u - 1.0) * (v - 1.0))
        return out

    if v == u.conjugate():
        side = _side_integrals(u, v, sorted({m for n in ns for m in (n, -n)}), abs_tol, direct)
        out = {}
        ms = sorted({abs(n) for n in ns})
        lead = leads(ms)
        for m in ms:
            value = complex(lead[m] + side[m].value + side[-m].value.conjugate())
            err = side[m].err_estimate + side[-m].err_estimate
            out[m] = QuadResult(value, err)
            if m:
                out[-m] = QuadResult(value.conjugate(), err)
        return out
    side_u = _side_integrals(u, v, ns, abs_tol, direct)
    side_v = _side_integrals(v, u, ns, abs_tol, direct)
    lead = leads(ns)
    return {n: QuadResult(complex(lead[n] + side_u[n].value + side_v[n].value),
                          side_u[n].err_estimate + side_v[n].err_estimate)
            for n in ns}


def qn_direct(n: int, u: complex, v: complex) -> QuadResult:
    """q_n(u,v) = a_n(u+v) + int_1^inf zeta1(u,a) a^{-v} e^{-2 pi i n a} da
    + (u <-> v), for Re u > 1 and Re v > 1."""
    u = complex(u)
    v = complex(v)
    if not (u.real > 1.0 and v.real > 1.0):
        raise DomainError("direct mode needs Re u > 1, Re v > 1")
    return _q_coeffs(u, v, [n], 1e-10, direct=True)[n]


def qn_continued(n: int, u: complex, v: complex) -> QuadResult:
    """Analytically continued q_n(u,v), valid for Re u, Re v > 0:

        [1/(u-1) + 1/(v-1)] a_n(u+v-1) + two regularized tail integrals.

    The regularized integrals are evaluated with certified power tails:
    err_estimate is the quadrature's estimate plus the tails' bounds.
    """
    u = complex(u)
    v = complex(v)
    if not (u.real > 0.0 and v.real > 0.0):
        raise DomainError("continued mode needs Re u, Re v > 0")
    return _q_coeffs(u, v, [n], 1e-10, direct=False)[n]


def _zeta1_pair_cycles(t_u: float, t_v: float):
    """Local cycles per unit of a^{-v} zeta1(u, a) for a >= 1, t_u = Im u and
    t_v = Im v: its largest |frequency|, plus the content sqrt(|t_u|/2pi)
    of zeta1's Dirichlet kernel and one, as in _zeta1_cycles.

    a^{-v} has the frequency -t_v/(2 pi a) and the term (m + a)^{-u} of
    zeta1, m >= 1, has -t_u/(2 pi (m + a)).  Their sums run from the m = 1
    end to the m -> infinity end, so the largest |frequency| is
    max(|t_v/a|, |t_v/a + t_u/(1 + a)|)/2pi.  With equal signs that is the
    sum of both log-phases.  A factor and its conjugate (t_v = -t_u, every
    suite caller) share one band, and only the t/(2 pi a) of a^{-v} is
    left.  The largest is decreasing for a >= 1, so its value at the
    smallest a covers every larger one.
    """
    kernel = math.sqrt(max(abs(t_u), 1.0) / _2PI) + 1.0
    return lambda a: max(abs(t_v / a), abs(t_v / a + t_u / (1.0 + a))) / _2PI + kernel


def _zeta1_head(u: complex, v: complex, ns, b: float, tol: float, continued: bool = False):
    """int_1^b a^{-v} zeta1(u, a) e^{-2 pi i n a} da for every n in the
    ascending integers ns, folded onto [0, 1).

    With a = y + k and integer n the phase is e^{-2 pi i n y}, so the
    integral is int_0^1 e^{-2 pi i n y} sum_k g(y + k) dy over k >= 1 with
    y + k <= b, g being a^{-v} zeta1(u, a) (continued subtracts the two
    leading powers a^{1-u-v}/(u-1) - a^{-u-v}/2).  That is two
    _fourier_coeffs calls, [0, frac b] with K = floor(b) terms and
    [frac b, 1] with K = floor(b) - 1 (an empty part is skipped), each at
    tol/2 and panelled at the _zeta1_pair_cycles of (Im u, Im v) at 1 + y,
    the densest of the folded terms.  Each node y takes one Euler-Maclaurin
    value at the top of the fold, zeta1(u, y + K), and steps down by the
    exact recurrence zeta1(u, a - 1) = zeta1(u, a) + a^{-u} (DLMF 25.11.3);
    at the top shift the kernel needs K fewer base terms than at 1 + y, and
    with all nodes of a part in one call its shift route serves them
    from a few columns per block of shifts.
    For v = conj u every step takes a^{-v} = conj a^{-u}, one complex power.

    Every shifted value carries its node's Euler-Maclaurin error, at most
    eps, the largest of the kernel's bounds over the nodes of the two
    calls, so every err adds eps int_1^b a^{-Re v} da; the subtracted
    powers of continued are exact and add nothing.  Before any evaluation,
    _check_panel_cap refuses an unfolded [1, b] over the cap, max |n| read
    from the ends of ns.
    Returns (coeffs, errs): the two parts' coefficients and errors added.
    """
    if not b >= 1.0:
        raise DomainError("requires b >= 1")
    cycles = _zeta1_pair_cycles(u.imag, v.imag)
    n_big = max(abs(ns[0]), abs(ns[-1]))
    _check_panel_cap(1.0, b, n_big + cycles(1.0), n_big + cycles(b))
    conjugate_pair = v == u.conjugate()
    kernel_err = 0.0

    def folded(terms: int):
        def values(y: np.ndarray) -> np.ndarray:
            nonlocal kernel_err
            z, err = _em_hurwitz(u, y + float(terms + 1))
            kernel_err = max(kernel_err, float(err.max()))
            total = np.zeros_like(z)
            for k in range(terms, 0, -1):
                a = y + k
                log_a = np.log(a)
                pu = np.exp(-u * log_a)
                pv = pu.conjugate() if conjugate_pair else np.exp(-v * log_a)
                total += z * pv
                if continued:
                    total -= pu * pv * (a / (u - 1.0) - 0.5)
                z += pu
            return total

        return values

    whole = math.floor(b)
    coeffs, errs = np.zeros(len(ns), dtype=complex), np.zeros(len(ns))
    for lo, hi, terms in ((0.0, b - whole, whole), (b - whole, 1.0, whole - 1)):
        if hi > lo and terms > 0:
            c, e = _fourier_coeffs(folded(terms), lambda y: cycles(1.0 + y), ns, lo, hi,
                                   tol / 2.0)
            coeffs, errs = coeffs + c, errs + e
    # int_1^b a^{-r} da = L expm1(w)/w with L = log b and w = (1 - r) L
    log_b = math.log(b)
    w = (1.0 - v.real) * log_b
    weight = log_b if w == 0.0 else log_b * math.expm1(w) / w
    return coeffs, errs + kernel_err * weight


# ---------------------------------------------------------------------------
# High-frequency coefficient bounds.
# ---------------------------------------------------------------------------


def highfreq_tail_check(n: int, u: complex, v: complex, eta: float = 1.0) -> IdentityReport:
    """|int_1^{t/2pi+eta} a^{-v} zeta1(u,a) e^{-2 pi i n a} da| against the
    t^{1/2} / |n - t/2pi| envelope, for t > 0 (at t = 0 the envelope is 0)
    and |n| > t/2pi."""
    u = complex(u)
    v = complex(v)
    t = abs(u.imag)
    if t == 0.0:
        raise DomainError("requires t > 0")
    if abs(n) <= t / _2PI:
        raise DomainError("requires |n| > t/2pi")
    B = t / _2PI + eta
    env = math.sqrt(t) / abs(abs(n) - t / _2PI)
    (val,), _errs = _zeta1_head(u, v, [n], B, 1e-8 * env)
    params = {"t": t, "n": n, "ratio": abs(val) / env, "envelope": env}
    return IdentityReport.bound("highfreq_tail", params, abs(val), abs(val) / env)


# ---------------------------------------------------------------------------
# Parseval checks and the fourth-power bound harness.
# ---------------------------------------------------------------------------


# Integrations by parts in the Parseval tails.  Past n_max each
# order gains a factor of about |w| / (2 pi n) <= 1/4.
_PARTS_ORDERS = 16


def _parseval_n_max(t: float) -> int:
    """Last index of a Parseval sum: ceil(2|t|/pi) + 50."""
    return int(math.ceil(2.0 * abs(t) / math.pi)) + 50


def _parts_jumps(factors, l1: float) -> tuple[np.ndarray, np.ndarray]:
    """(J, e): the by-parts expansion of the Fourier coefficients c_n of
    f = prod_w zeta1(w, .) on [0, 1], for one or two factors with
    Re w >= 1/2, l1 bounding ||zeta1(w, .)||_1.

    K = _PARTS_ORDERS integrations by parts give c_n = S_n + R(n) with
    S_n = sum_{k<K} J_k / (2 pi i n)^{k+1}, the endpoint jumps
    J_k = f^(k)(0) - f^(k)(1), and |R(n)| <= ||f^(K)||_1 / (2 pi |n|)^K.
    As zeta1(x, 0) = zeta(x) and zeta1(x, 1) = zeta(x) - 1, one factor
    jumps by (-1)^k (w)_k and a product g h by the Leibniz sum of
    C(k, j) g^(j) h^(k-j) jumps, each (-1)^k (u)_j (v)_{k-j} times
    zeta(u + j) + zeta(v + k - j) - 1.  ||f^(K)||_1 is bounded term by
    term, by zeta(Re w + j) for a factor zeta1(w + j, .) with j >= 1 and
    by l1 for the one underived factor.  The computed S_n is within
    sum_k e_k / (2 pi |n|)^{k+1} of c_n: e holds the largest of the
    kernel's bounds on the zeta values in each J_k, and e_{K-1} adds
    ||f^(K)||_1.
    """
    K = _PARTS_ORDERS
    j = np.arange(K + 1.0)
    fact = np.cumprod(np.maximum(j, 1.0))
    # (-1)^j (w)_j / j!: a convolution of these is the Leibniz sum
    d = [_shift_weights(w, K - 1) for w in factors]
    # per factor: zeta(w + j), j < K, for the jumps; zeta(Re w + j), 1 <= j <= K, for the norm
    z, z_err = _em_hurwitz(np.array([(w + j[:K], w.real + j[1:]) for w in factors]), 1.0)
    z_err = float(z_err.max())
    sizes = [np.abs(dw) * np.concatenate(([l1], zw[1].real)) for dw, zw in zip(d, z)]
    if len(factors) == 1:
        jumps, errs = d[0][:K], np.zeros(K)
    else:
        (du, dv), (zu, zv) = (dw[:K] for dw in d), z[:, 0]
        jumps = (np.convolve(du * zu, dv) + np.convolve(du, dv * zv) - np.convolve(du, dv))[:K]
        errs = 2.0 * z_err * np.convolve(np.abs(du), np.abs(dv))[:K]
    jumps, errs = jumps * fact[:K], errs * fact[:K]
    errs[K - 1] += fact[K] * functools.reduce(np.convolve, sizes)[K]
    return jumps, errs


def _parts_tail(factors, n_max: int, l1: float) -> tuple[float, float]:
    """(tail, tail_err): sum_{|n| > n_max} |S_n|^2 for the by-parts
    expansion (J, e) of _parts_jumps, and a bound on its distance from
    sum_{|n| > n_max} |c_n|^2.

    Over +-n only k + l even survives in |S_n|^2, so the tail is a finite
    sum of J_k conj(J_l) times 2 (2 pi)^-(k+l+2) zeta_H(k + l + 2,
    n_max + 1).  With |c_n - S_n| <= E(n) = sum_k e_k / (2 pi |n|)^{k+1},
    tail_err sums 2 |S_n| E(n) + E(n)^2 the same way, plus the rounding of
    the tail's sum.
    """
    K = _PARTS_ORDERS
    jumps, errs = _parts_jumps(factors, l1)
    k, l = np.indices((K, K))
    m = np.arange(2.0, 2 * K + 1)
    # weights[k, l] = sum over |n| > n_max of (2 pi |n|)^-(k+l+2)
    weights = (2.0 * _em_hurwitz(m, n_max + 1.0)[0].real / _2PI**m)[k + l]
    # (i n)^-(k+1) conj((i n)^-(l+1)) = (-1)^{l+(k+l)/2} n^-(k+l+2) for k + l even
    sign = np.where((k + l) % 2, 0.0, np.where((l + (k + l) // 2) % 2, -1.0, 1.0))
    terms = sign * np.outer(jumps, jumps.conjugate()) * weights
    a = np.abs(jumps)
    err = (np.sum((2.0 * np.outer(a, errs) + np.outer(errs, errs)) * weights)
           + (K * K + 4) * 2.0**-53 * np.sum(np.abs(terms)))
    return float(terms.sum().real), float(err)


def parseval_second_moment(s: complex) -> IdentityReport:
    """sum_n |a_n(s)|^2 against int_0^1 |zeta1(s,alpha)|^2 d(alpha), for
    sigma >= 1/2.

    The sum runs over |n| <= n_max = _parseval_n_max(t) and adds the
    by-parts tail of _parts_tail past it; params carry the tail and its
    error bound tail_err.
    """
    s = complex(s)
    if s.real < 0.5:
        raise DomainError("requires sigma >= 1/2")
    n_max = _parseval_n_max(s.imag)
    lhs_res = afe._power_mean(s, 1, abs_tol=1e-11, rel_tol=1e-9)
    lhs = float(lhs_res.value.real)
    coeffs = fourier_coeff_a(np.arange(-n_max, n_max + 1), s).tolist()
    total = abs(coeffs[n_max]) ** 2
    for n in range(1, n_max + 1):
        total += abs(coeffs[n_max + n]) ** 2 + abs(coeffs[n_max - n]) ** 2
    # Hoelder: ||zeta1||_1 <= ||zeta1||_2
    tail, tail_err = _parts_tail([s], n_max, math.sqrt(lhs + lhs_res.err_estimate))
    return IdentityReport.build("parseval_second_moment",
                                {"s": s, "n_max": n_max, "tail": tail, "tail_err": tail_err},
                                lhs, total + tail)


def parseval_fourth_moment(u: complex, eta: float = 1.0) -> IdentityReport:
    """int_0^1 |zeta1(u,alpha)|^4 d(alpha) against sum_n |q_n(u, conj u)|^2,
    for sigma >= 1/2 and t >= 0.

    The sum runs over |n| <= n_max = _parseval_n_max(t) and adds the
    by-parts tail of _parts_tail for f = zeta1(u, .) zeta1(conj u, .) past
    it; params carry it as tail_bound and its error bound as tail_err.
    """
    u = complex(u)
    sigma, t = u.real, u.imag
    if sigma < 0.5:
        raise DomainError("requires sigma >= 1/2")
    if t < 0.0:
        raise DomainError("requires t >= 0")
    n_max = _parseval_n_max(t)
    lhs_res = afe._power_mean(u, 2, abs_tol=1e-10, rel_tol=1e-8)
    lhs = float(lhs_res.value.real)
    coeffs = _q_coeffs(u, u.conjugate(), range(-n_max, n_max + 1),
                       abs_tol=max(1e-10, 2e-5 * lhs / max(n_max, 1)), direct=sigma > 1.0)
    rhs = sum(abs(qv.value) ** 2 for qv in coeffs.values())
    # Hoelder: ||zeta1||_1 <= ||zeta1||_4
    tail, tail_err = _parts_tail([u, u.conjugate()], n_max,
                                 (lhs + lhs_res.err_estimate) ** 0.25)
    return IdentityReport.build(
        "parseval_fourth_moment",
        {"u": u, "eta": eta, "n_max": n_max, "tail_bound": tail,
         "mode": "direct" if sigma > 1.0 else "continued", "tail_err": tail_err},
        lhs,
        rhs + tail,
    )


def theorem2_check(t_grid, eta: float = 1.0) -> list[IdentityReport]:
    """Fourth-power bound harness: per t, the ratio of |zeta(1/2+it)|^4 to
    t^{1/2} sum_{|n| <= t/pi} |int_1^{t/2pi+eta} a^{-1/2+it} zeta1(1/2+it, a)
    e^{-2 pi i n a} da|^2, recorded as lhs = |zeta|^4, rhs = ratio, plus
    the sum itself (whose growth is recorded, not asserted).  Every
    coefficient of one t comes from one folded _zeta1_head call."""
    records = []
    for t in t_grid:
        t = float(t)
        if t < 4.0 * math.pi:
            raise DomainError("needs t/2pi + eta comfortably above 1")
        s = complex(0.5, t)
        b = t / _2PI + eta
        n_lim = int(math.floor(t / math.pi))
        coeffs, _errs = _zeta1_head(s, s.conjugate(), range(-n_lim, n_lim + 1), b, 5e-7)
        total = float(np.sum(np.abs(coeffs) ** 2))
        z4 = abs(complex(riemann_zeta(s))) ** 4
        denom = math.sqrt(t) * total
        ratio = z4 / denom if denom > 0 else math.inf
        records.append(IdentityReport.record(
            "theorem2", {"t": t, "eta": eta, "ratio": ratio, "coeff_sum": total}, z4, ratio))
    return records
