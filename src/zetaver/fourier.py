"""Fourier analysis of zeta1 and of its quadratic products on the unit
interval: the oscillatory-tail representation of zeta1, the tail lemmas
controlling it, the product coefficients q_n in the direct and the
analytically continued form, the high-frequency coefficient bounds, the
Parseval checks for the second and fourth moments, and the fourth-power
bound harness driven by the truncated coefficient integrals.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError
from .identities import IdentityReport
from .quadrature import _NODES, _WG_FULL, _WGK_FULL, QuadResult, _march_panels
# unused here, but the benchmark's tracer test reads fourier.integrate_finite
from .quadrature import integrate_finite  # noqa: F401
from .special import (
    _certified_powers,
    _closed_power_tail,
    _product_powers,
    _tail_abscissa,
    _zeta1_cycles,
    fourier_coeff_a,
    hurwitz_zeta1,
    osc_power_tail,
    riemann_zeta,
)
from .zeta1_cache import Zeta1AlphaTable
from . import afe

_2PI = 2.0 * math.pi
_UNIT_ROUNDOFF = 2.0**-53

__all__ = [
    "rane_representation",
    "tail_lemma_check",
    "qn_direct",
    "qn_continued",
    "highfreq_pair_integral",
    "highfreq_tail_check",
    "parseval_second_moment",
    "parseval_fourth_moment",
    "theorem2_check",
    "reconstruct_zeta1",
]


# ---------------------------------------------------------------------------
# Oscillatory-tail representation of zeta1 and the lemmas that control it.
# ---------------------------------------------------------------------------


def rane_representation(s: complex, alpha: float, M: int) -> complex:
    """Partial (symmetric, 0 < |m| < M) oscillatory-tail representation:

        alpha^{1-s}/(s-1) - alpha^{-s}/2
            + sum_m (int_alpha^inf x^{-s} e^{2 pi i m x} dx) e^{-2 pi i m alpha}.
    """
    s = complex(s)
    if s.real <= 0.0:
        raise DomainError("requires Re s > 0")
    if alpha <= 0.0:
        raise DomainError("requires alpha > 0")
    if M < 2:
        raise DomainError("M must be >= 2")
    val = alpha ** (1.0 - s) / (s - 1.0) - alpha**-s / 2.0
    acc = 0j
    for m in range(1, M):
        phase = np.exp(-2j * math.pi * m * alpha)
        acc += osc_power_tail(s, m, alpha) * phase + osc_power_tail(s, -m, alpha) / phase
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
    its closed sum; evaluations, the table's and the head's, are the cost
    of the whole call and the same for every n."""
    big = max(abs(u), abs(v)) if direct else max(abs(u), abs(v), abs(1.0 - u - v), abs(u + v))
    # 24 and the last clause keep 2 pi |n| A, the argument of the incomplete
    # Gamma in osc_power_tail, large against the powers at every n != 0
    A = max(24.0, _tail_abscissa(abs(u), big), 1.3 * (big + 90.0) / _2PI)
    # the subtracted powers are literally the expansion's first two entries,
    # a^{-v} times a^{1-u}/(u-1) and -a^{-u}/2; the cut drops just those
    cut = -(u + v).real - 0.5

    def expand(A: float):
        powers, rem = _product_powers(v, (u,), A)
        if not direct:
            powers = {q: c for q, c in powers.items() if q.real < cut}
        return powers, rem

    powers, A, rem = _certified_powers(expand, A, abs_tol)
    table = Zeta1AlphaTable(u, 1.0, A + 1e-9)
    heads, errs, evals = _zeta1_head(table, v, ns, A, abs_tol / 2.0, continued=not direct)
    evals += table.evaluations
    tails = [_closed_power_tail(powers, n, A) for n in ns]
    return {n: QuadResult(head + tail, float(err) + rem + rounding, evals)
            for n, head, err, (tail, rounding) in zip(ns, heads, errs, tails)}


def _q_coeffs(u: complex, v: complex, ns, abs_tol: float, direct: bool) -> dict:
    """q_n(u, v) = lead_n + I_u(n) + I_v(n) for every n in ns as
    {n: QuadResult}.

    lead_n is a_n(u+v) (direct) or [1/(u-1) + 1/(v-1)] a_n(u+v-1)
    (continued); I_u and I_v are the side integrals of u and of v, whose
    errors add, and evaluations count both sides' whole calls.  For
    v = conj u, I_v(n) = conj I_u(-n), so only the u side is integrated and
    q_{-n} = conj q_n holds exactly; the dict then holds -n for every n.
    """
    ns = list(ns)

    def lead(n: int) -> complex:
        if direct:
            return fourier_coeff_a(n, u + v)
        return (1.0 / (u - 1.0) + 1.0 / (v - 1.0)) * fourier_coeff_a(n, u + v - 1.0)

    if v == u.conjugate():
        side = _side_integrals(u, v, sorted({m for n in ns for m in (n, -n)}), abs_tol, direct)
        out = {}
        for m in sorted({abs(n) for n in ns}):
            value = complex(lead(m) + side[m].value + side[-m].value.conjugate())
            err = side[m].err_estimate + side[-m].err_estimate
            out[m] = QuadResult(value, err, side[m].evaluations)
            if m:
                out[-m] = QuadResult(value.conjugate(), err, side[m].evaluations)
        return out
    side_u = _side_integrals(u, v, ns, abs_tol, direct)
    side_v = _side_integrals(v, u, ns, abs_tol, direct)
    return {n: QuadResult(complex(lead(n) + side_u[n].value + side_v[n].value),
                          side_u[n].err_estimate + side_v[n].err_estimate,
                          side_u[n].evaluations + side_v[n].evaluations)
            for n in ns}


def qn_direct(n: int, u: complex, v: complex, abs_tol: float = 1e-10) -> QuadResult:
    """q_n(u,v) = a_n(u+v) + int_1^inf zeta1(u,a) a^{-v} e^{-2 pi i n a} da
    + (u <-> v), for Re u > 1 and Re v > 1."""
    u = complex(u)
    v = complex(v)
    if not (u.real > 1.0 and v.real > 1.0):
        raise DomainError("direct mode needs Re u > 1, Re v > 1")
    return _q_coeffs(u, v, [n], abs_tol, direct=True)[n]


def qn_continued(n: int, u: complex, v: complex, abs_tol: float = 1e-10) -> QuadResult:
    """Analytically continued q_n(u,v), valid for Re u, Re v > 0:

        [1/(u-1) + 1/(v-1)] a_n(u+v-1) + two regularized tail integrals.

    The regularized integrals are evaluated with certified power tails:
    err_estimate is the quadrature's estimate plus the tails' bounds.
    """
    u = complex(u)
    v = complex(v)
    if not (u.real > 0.0 and v.real > 0.0):
        raise DomainError("continued mode needs Re u, Re v > 0")
    return _q_coeffs(u, v, [n], abs_tol, direct=False)[n]


# ---------------------------------------------------------------------------
# All Fourier coefficients of one function on one panel set.
# ---------------------------------------------------------------------------

# Indices reached from one anchor by the phase recurrence: an exact
# exponential starts each run, and every later index in it costs one complex
# multiply whose rounding adds to the phase error.
_PHASE_RUN = 32

# K15 weights and the K15 - G7 difference weights on the 15 Kronrod nodes:
# one (panels, 15) @ (15, 2) product gives every panel's value and error.
_G7_ON_K15 = np.zeros_like(_WGK_FULL)
_G7_ON_K15[1::2] = _WG_FULL
_KD_WEIGHTS = np.column_stack((_WGK_FULL, _WGK_FULL - _G7_ON_K15))


def _zeta1_pair_cycles(t: float):
    """Local cycles per unit of a^{-v} zeta1(u, a) with |Im u| = |Im v| = t:
    the log-phase of a^{-v} plus the cycles of zeta1."""
    z = _zeta1_cycles(t)
    return lambda x: t / (_2PI * x) + z(x)


def _fourier_coeffs(values, cycles, ns, a: float, b: float, tol: float):
    """int_a^b values(x) e^{-2 pi i n x} dx for every n in ns.

    One panel set is marched by _march_panels (quadrature._PER_CYCLE = 2.5
    points per cycle) for max |n| plus cycles(x), the frequency content of
    values, and values is evaluated once on it; every n is then a phase
    sum over the same nodes, with the embedded G7/K15 difference as its
    error.  A largest error above tol raises ConvergenceError, so the
    caller's cycles must make the panels fine enough.

    The n are integers, so the phase needs only the fractional part of each
    node (exact in floating point).  An anchor index gets its phase
    e^{-2 pi i n frac} from one exponential; each following index, while
    ns rises by 1 and for at most _PHASE_RUN indices per anchor, gets it by
    one multiplication with e^{-2 pi i frac}.  Each err adds to the G7/K15
    difference a bound on the phase rounding, (19 |n| + 36 m + 6) unit
    roundoffs times sum |w f| over the nodes, m < _PHASE_RUN being the
    steps from the anchor n0 (|n0| <= |n| + m): three roundings in each
    exponential's argument, at most 2 pi |n0| at the anchor and 2 pi per
    step, plus the exponentials and the complex multiplies.  Returns
    (coeffs, errs, evaluations) with coeffs and errs aligned to ns.
    """
    ns = np.asarray(ns, dtype=float)
    n_big = float(np.max(np.abs(ns)))
    pts = np.array(_march_panels(a, b, lambda x: n_big + cycles(x)))
    halves = 0.5 * (pts[1:] - pts[:-1])
    nodes = 0.5 * (pts[1:] + pts[:-1])[:, None] + halves[:, None] * _NODES[None, :]
    fv = values(nodes.ravel()).reshape(nodes.shape) * halves[:, None]
    frac = nodes - np.floor(nodes)
    step = np.exp(-_2PI * 1j * frac)
    size = float(np.sum(np.abs(fv) @ _WGK_FULL))
    coeffs = np.empty(ns.size, dtype=complex)
    errs = np.empty(ns.size)
    m = 0
    for i, n in enumerate(ns):
        if i == 0 or m == _PHASE_RUN - 1 or n - ns[i - 1] != 1.0:
            cur = fv * np.exp(-_2PI * 1j * n * frac)
            m = 0
        else:
            cur *= step
            m += 1
        kd = cur @ _KD_WEIGHTS
        coeffs[i] = kd[:, 0].sum()
        rounding = (19.0 * abs(n) + 36.0 * m + 6.0) * _UNIT_ROUNDOFF * size
        errs[i] = np.abs(kd[:, 1]).sum() + rounding
    if not errs.max() <= tol:
        raise ConvergenceError(f"Fourier coefficients stalled: err={errs.max():.3e} > "
                               f"tol={tol:.3e} on {halves.size} panels")
    return coeffs, errs, nodes.size


def _zeta1_head(table: Zeta1AlphaTable, v: complex, ns, b: float, tol: float,
                continued: bool = False):
    """int_1^b a^{-v} zeta1(u, a) e^{-2 pi i n a} da for every n in ns, u
    being table.s and zeta1(u, a) read from table (built on [1, b] or
    wider): one _fourier_coeffs call at the _zeta1_pair_cycles of
    max(|Im u|, |Im v|).  continued subtracts the two leading powers
    a^{1-u-v}/(u-1) - a^{-u-v}/2 from the integrand.

    Returns (coeffs, errs, evaluations) as _fourier_coeffs does; the
    evaluations are the engine's values only.  theorem2 and highfreq_tail
    rows report just these, and q_n rows (_side_integrals) add the table's
    own table.evaluations.
    """
    u = table.s

    def values(x: np.ndarray) -> np.ndarray:
        f = table(x) * np.power(x, -v)
        if continued:
            f = f - np.power(x, 1.0 - u - v) / (u - 1.0) + 0.5 * np.power(x, -u - v)
        return f

    cycles = _zeta1_pair_cycles(max(abs(u.imag), abs(v.imag)))
    return _fourier_coeffs(values, cycles, ns, 1.0, b, tol)


# ---------------------------------------------------------------------------
# High-frequency coefficient bounds.
# ---------------------------------------------------------------------------


def highfreq_pair_integral(y: float, s1: float, s2: float, t: float, n: int,
                           eta: float = 1.0, conjugated: bool = False) -> complex:
    """int_1^{t/2pi+eta} a^{-s1 +/- it} (a+y)^{-s2 -/+ it} e^{-2 pi i n a} da."""
    if y <= 0.0:
        raise DomainError("y must be > 0")
    sign = -1.0 if conjugated else 1.0
    B = t / _2PI + eta

    def f(a: np.ndarray) -> np.ndarray:
        phase = np.exp(sign * 1j * t * np.log(a / (a + y)))
        return np.power(a, -s1) * np.power(a + y, -s2) * phase

    def cycles(a: float) -> float:
        return t / (_2PI * a) + t / (_2PI * (a + y)) + 1.0

    (val,), _errs, _evals = _fourier_coeffs(f, cycles, [n], 1.0, B, 1e-12)
    return complex(val)


def highfreq_tail_check(n: int, u: complex, v: complex, eta: float = 1.0) -> IdentityReport:
    """|int_1^{t/2pi+eta} a^{-v} zeta1(u,a) e^{-2 pi i n a} da| against the
    t^{1/2} / |n - t/2pi| envelope, for |n| > t/2pi."""
    u = complex(u)
    v = complex(v)
    t = abs(u.imag)
    if abs(n) <= t / _2PI:
        raise DomainError("requires |n| > t/2pi")
    B = t / _2PI + eta
    table = Zeta1AlphaTable(u, 1.0, B + 1e-9)
    env = math.sqrt(t) / abs(abs(n) - t / _2PI)
    (val,), _errs, evals = _zeta1_head(table, v, [n], B, 1e-8 * env)
    params = {"t": t, "n": n, "ratio": abs(val) / env, "envelope": env}
    return IdentityReport.bound("highfreq_tail", params, abs(val), abs(val) / env, evals)


# ---------------------------------------------------------------------------
# Parseval checks and the fourth-power bound harness.
# ---------------------------------------------------------------------------


def parseval_second_moment(s: complex, n_max: int | None = None) -> IdentityReport:
    """sum_n |a_n(s)|^2 against int_0^1 |zeta1(s,alpha)|^2 d(alpha), with the
    measured C/n^2 coefficient tail extrapolated past n_max."""
    s = complex(s)
    if s.real < 0.5:
        raise DomainError("requires sigma >= 1/2")
    t = abs(s.imag)
    if n_max is None:
        n_max = int(max(2000, 40 * t))
    # |a_n|^2 for every index the sum and the tail probe read
    reach = max(n_max, 200 - n_max)
    sq = {n: abs(fourier_coeff_a(n, s)) ** 2 for n in range(-reach, reach + 1)}
    total = sq[0]
    for n in range(1, n_max + 1):
        total += sq[n] + sq[-n]
    # measured |a_n|^2 ~ c/n^2 tail
    probe = range(n_max - 200, n_max + 1)
    c_meas = max(max(sq[n] * n * n for n in probe), max(sq[-n] * n * n for n in probe))
    tail = 2.0 * c_meas / n_max
    total += tail
    lhs = float(afe._power_mean(s, 1, abs_tol=1e-11, rel_tol=1e-9).value.real)
    return IdentityReport.build(
        "parseval_second_moment",
        {"s": s, "n_max": n_max, "tail": tail},
        lhs,
        total,
    )


def parseval_fourth_moment(u: complex, eta: float = 1.0,
                           n_max: int | None = None) -> IdentityReport:
    """int_0^1 |zeta1(u,alpha)|^4 d(alpha) against sum_n |q_n(u, conj u)|^2,
    with the coefficient tail bounded by the measured t^{1/2}/|n - t/2pi|
    envelope."""
    u = complex(u)
    sigma, t = u.real, u.imag
    if sigma < 0.5:
        raise DomainError("requires sigma >= 1/2")
    if t < 0.0:
        raise DomainError("requires t >= 0")
    if n_max is None:
        n_max = int(math.ceil(2.0 * t / math.pi)) + 50
    lhs_res = afe._power_mean(u, 2, abs_tol=1e-10, rel_tol=1e-8)
    lhs = float(lhs_res.value.real)
    coeffs = _q_coeffs(u, u.conjugate(), range(-n_max, n_max + 1),
                       abs_tol=max(1e-10, 2e-5 * lhs / max(n_max, 1)), direct=sigma > 1.0)
    rhs = sum(abs(qv.value) ** 2 for qv in coeffs.values())
    if t == 0.0:
        # |q_n|^2 ~ c2/n^2 + c3/n^3 + c4/n^4 fitted on the last computed block,
        # resummed exactly with shifted-zeta tails
        ns = np.arange(max(n_max - 40, 4), n_max + 1, dtype=float)
        ys = np.array([abs(coeffs[int(n)].value) ** 2 for n in ns])
        basis = np.vstack([ns**-2, ns**-3, ns**-4]).T
        fit, *_ = np.linalg.lstsq(basis, ys, rcond=None)
        tail = 2.0 * sum(
            float(fit[k]) * float(np.real(hurwitz_zeta1(k + 2.0, float(n_max))))
            for k in range(3)
        )
    else:
        # measured t^{1/2}/|n - t/2pi| envelope beyond n_max
        c_meas = 0.0
        for n in range(max(n_max - 20, 1), n_max + 1):
            gap = abs(n - t / _2PI)
            if gap > 1.0:
                c_meas = max(c_meas, abs(coeffs[n].value) * gap / math.sqrt(max(t, 1.0)),
                             abs(coeffs[-n].value) * gap / math.sqrt(max(t, 1.0)))
        tail = 2.0 * c_meas**2 * max(t, 1.0) / max(n_max - t / _2PI, 1.0)
    rhs += tail
    return IdentityReport.build(
        "parseval_fourth_moment",
        {"u": u, "eta": eta, "n_max": n_max, "tail_bound": tail,
         "mode": "direct" if sigma > 1.0 else "continued"},
        lhs,
        rhs,
        lhs_res.evaluations,
    )


def theorem2_check(t_grid, eta: float = 1.0) -> list[IdentityReport]:
    """Fourth-power bound harness: per t, the ratio of |zeta(1/2+it)|^4 to
    t^{1/2} sum_{|n| <= t/pi} |int_1^{t/2pi+eta} a^{-1/2+it} zeta1(1/2+it, a)
    e^{-2 pi i n a} da|^2, recorded as lhs = |zeta|^4, rhs = ratio, plus
    the sum itself (whose growth is recorded, not asserted)."""
    records = []
    for t in t_grid:
        t = float(t)
        if t < 4.0 * math.pi:
            raise DomainError("needs t/2pi + eta comfortably above 1")
        s = complex(0.5, t)
        b = t / _2PI + eta
        table = Zeta1AlphaTable(s, 1.0, b + 1e-9)
        n_lim = int(math.floor(t / math.pi))
        coeffs, _errs, evals = _zeta1_head(table, s.conjugate(), range(-n_lim, n_lim + 1), b, 5e-7)
        total = float(np.sum(np.abs(coeffs) ** 2))
        z4 = abs(complex(riemann_zeta(s))) ** 4
        denom = math.sqrt(t) * total
        ratio = z4 / denom if denom > 0 else math.inf
        records.append(IdentityReport.record(
            "theorem2", {"t": t, "eta": eta, "ratio": ratio, "coeff_sum": total}, z4, ratio, evals))
    return records


# ---------------------------------------------------------------------------
# Pointwise Fourier reconstruction of zeta1.
# ---------------------------------------------------------------------------


def reconstruct_zeta1(s: complex, alpha: float, M: int, accelerated: bool = True) -> complex:
    """Partial Fourier sum sum_{|n| <= M} a_n(s) e^{2 pi i n alpha}.

    With accelerated=True the first three integration-by-parts orders of
    a_n are subtracted and resummed in closed form through the periodic
    Bernoulli polynomials, leaving O(|s|^3/n^4) coefficients; the plain
    partial sum converges only at the 1/M rate set by the unit jump of
    zeta1 at the interval ends.
    """
    s = complex(s)
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must be inside (0, 1)")
    a0 = fourier_coeff_a(0, s)
    if not accelerated:
        acc = a0
        for n in range(1, M + 1):
            e = np.exp(2j * math.pi * n * alpha)
            acc += fourier_coeff_a(n, s) * e + fourier_coeff_a(-n, s) / e
        return complex(acc)
    # by-parts orders: a_n ~ sum_k (-1)^{k-1} (s)_{k-1} / (2 pi i n)^k
    # and sum_{n != 0} e^{2 pi i n a} / (2 pi i n)^k = -B_k(a)/k!
    bern_polys = [
        alpha - 0.5,
        alpha * alpha - alpha + 1.0 / 6.0,
        alpha**3 - 1.5 * alpha * alpha + 0.5 * alpha,
    ]
    coefs = [1.0 + 0j, -s, s * (s + 1.0)]  # (-1)^{k-1} (s)_{k-1}
    closed = a0
    for k in (1, 2, 3):
        closed += coefs[k - 1] * (-bern_polys[k - 1] / math.factorial(k))
    acc = closed
    for n in range(1, M + 1):
        e = complex(np.exp(2j * math.pi * n * alpha))
        for sign, ph in ((1, e), (-1, 1.0 / e)):
            w = 2j * math.pi * sign * n
            asym = coefs[0] / w + coefs[1] / w**2 + coefs[2] / w**3
            acc += (fourier_coeff_a(sign * n, s) - asym) * ph
    return complex(acc)
