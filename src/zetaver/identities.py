"""Verifiers for the contour identity of the squared modified Hurwitz zeta
and the product-moment identities: quadratic, triple and quadruple unit
moments, the Mellin closed form of the weighted tail integral, the
unit-interval recursion, the explicit quadratic-moment (Katsurada-type)
identity, the second-moment asymptotic harness, and the large-t behaviour
of the weighted unit integrals.

Every verifier computes the two sides by independent routes and reports the
residuals in an IdentityReport.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from . import afe
from .errors import ConvergenceError, DivergenceError, DomainError, PoleError, PoleTooCloseError
from .quadrature import QuadResult, integrate_finite
from .special import (
    _certified_powers,
    _closed_power_tail,
    _em_hurwitz,
    _product_powers,
    _tail_abscissa,
    _zeta1_cycles,
    hurwitz_zeta1,
    lgamma,
    riemann_zeta,
)

_2PI = 2.0 * math.pi
_TINY = 1e-300

__all__ = [
    "IdentityReport",
    "f_series",
    "f_contour",
    "contour_interval",
    "default_abscissa",
    "verify_square_identity",
    "verify_quadratic_moment",
    "verify_triple_moment",
    "verify_quadruple_moment",
    "moment_rhs_terms",
    "mellin_tail_closed_form",
    "mellin_tail_check",
    "unit_interval_recursion",
    "verify_katsurada",
    "katsurada_split_check",
    "i1_asymptotic_check",
    "remark_219_check",
    "sum_recip_m_mp1u",
]


@dataclasses.dataclass(frozen=True)
class IdentityReport:
    """One verification record, the shape of every report row: both sides
    of an identity (or a statistic and its bound) plus residuals.

    Three layouts: `build` compares two routes, `bound` states a statistic
    against its envelope, `record` reports two values without a residual.
    """

    identity_id: str
    params: dict
    lhs: complex
    rhs: complex
    abs_residual: float
    rel_residual: float
    evaluations: int = 0

    @classmethod
    def build(cls, identity_id: str, params: dict, lhs: complex, rhs: complex, evaluations: int = 0):
        """Two routes to one value: residuals |lhs - rhs| and that over |lhs|."""
        lhs = complex(lhs)
        rhs = complex(rhs)
        absres = abs(lhs - rhs)
        return cls(identity_id, params, lhs, rhs, absres,
                   absres / max(abs(lhs), _TINY), evaluations)

    @classmethod
    def bound(cls, identity_id: str, params: dict, value: float, rel: float, evaluations: int = 0):
        """A nonnegative statistic: lhs = abs_residual = value, rhs = 0, and
        rel_residual = rel (the statistic over its envelope, or the
        statistic itself where it has none)."""
        return cls(identity_id, params, complex(value), 0j, value, rel, evaluations)

    @classmethod
    def record(cls, identity_id: str, params: dict, lhs: complex, rhs: complex, evaluations: int = 0):
        """Two reported values that are not meant to agree: residuals 0."""
        return cls(identity_id, params, complex(lhs), complex(rhs), 0.0, 0.0, evaluations)


# ---------------------------------------------------------------------------
# f(u, v, alpha): the off-diagonal double sum and its contour route.
# ---------------------------------------------------------------------------


def f_series(u: complex, v: complex, alpha: float) -> complex:
    """f(u,v,alpha) = sum_{n,m >= 1} (n+alpha)^{-v} (n+m+alpha)^{-u}.

    The inner sum is zeta1(u, n+alpha) exactly.  The outer sum runs
    directly to M; past it, h(a) = a^{-v} zeta1(u, a) is the power
    expansion sum_q c_q a^q of special._product_powers, a^{-v} times the
    large-a series of zeta1 (DLMF 25.11.43), on a >= a0 - 1,
    a0 = M + 1 + alpha, so sum_{n>M} h(n+alpha) = sum_q c_q zeta_H(-q, a0).
    The omitted part decreases in a, so its sum from a0 is at most its
    integral from a0 - 1, the expansion's remainder bound; ConvergenceError
    if that exceeds 1e-13.
    """
    u = complex(u)
    v = complex(v)
    if not (u.real > 1.0 and v.real > 1.0):
        raise DivergenceError("f(u,v,alpha) requires Re u > 1 and Re v > 1")
    if alpha < 0.0:
        raise DomainError("alpha must be >= 0")
    M = max(48, int(math.ceil(2.0 * (abs(u) + abs(v)))))
    n = np.arange(1, M + 1, dtype=float)
    x = n + alpha
    head = complex(np.sum(np.power(x, -v) * hurwitz_zeta1(u, x)))

    a0 = M + 1 + alpha
    powers, rem = _product_powers(v, (u,), a0 - 1.0)
    if rem > 1e-13:
        raise ConvergenceError(f"f_series outer tail bound {rem:.3e} exceeds 1e-13")
    q = np.array(list(powers))
    c = np.array(list(powers.values()))
    return head + complex(np.sum(c * _em_hurwitz(-q, a0)[0]))


def contour_interval(u: complex, v: complex) -> tuple[float, float]:
    """Admissible abscissas for the contour route: both zeta factors must
    stay in their series half-planes, giving max(-Re u, 1-Re(u+v)) < c < -1."""
    lo = max(-u.real, 1.0 - (u + v).real)
    return lo, -1.0


def default_abscissa(u: complex, v: complex) -> float:
    """Midpoint of the admissible interval, nudged off integers."""
    lo, hi = contour_interval(u, v)
    if not lo < hi:
        raise DomainError("empty admissible abscissa interval")
    c = 0.5 * (lo + hi)
    if abs(c - round(c)) < 1e-3:
        shift = 0.05 if c + 0.05 < hi else -0.05
        c += shift
    return c


def _stirling_height(abs_tol: float, poly_degree: float) -> float:
    """Height Y at which y^poly_degree e^{-pi y}, the Stirling decay of a
    two-Gamma integrand on a vertical line, falls below abs_tol."""
    p = max(poly_degree, 0.0)
    y = 10.0
    for _ in range(60):
        y_new = (p * math.log(max(y, 2.0)) - math.log(min(abs_tol, 0.1))) / math.pi
        if abs(y_new - y) < 0.5:
            break
        y = y_new
    return max(12.0, 1.15 * y)


# Cycles per unit height of a two-Gamma line integrand: its Stirling decay
# e^{-pi |y|} as a frequency, pi / 2 pi.
_LINE_CYCLES = 0.5


def _line_integral(g, c: float, poles: list[float], poly_degree: float,
                   abs_tol: float, rel_tol: float) -> QuadResult:
    """(1/(2 pi i)) int over the line Re z = c of g(z) dz.

    PoleTooCloseError if c lies within 1e-3 of a pole of the integrand's
    factors.  The line is cut at the Stirling height, raised 1.5x (up to
    three times) until |g| at both ends is below abs_tol / 10, and
    integrated in y on [-Y, Y] at _LINE_CYCLES cycles per unit.
    """
    clearance = min(abs(c - p) for p in poles)
    if clearance < 1e-3:
        raise PoleTooCloseError(f"abscissa c={c} within {clearance} of a pole")
    Y = _stirling_height(abs_tol / 10.0, poly_degree)
    for _ in range(3):
        ends = np.abs(g(c + 1j * np.array([Y, -Y])))
        if ends.max() < abs_tol / 10.0:
            break
        Y *= 1.5
    res = integrate_finite(lambda y: g(c + 1j * y), -Y, Y, cycles=_LINE_CYCLES,
                           abs_tol=abs_tol, rel_tol=rel_tol)
    return QuadResult(res.value / _2PI, res.err_estimate / _2PI, res.evaluations)


def f_contour(
    u: complex,
    v: complex,
    alpha: float,
    c: float | None = None,
) -> QuadResult:
    """Contour route for f(u,v,alpha): a vertical-line integral of
    Gamma(u+z)Gamma(-z)/Gamma(u) zeta(-z) zeta1(u+v+z, alpha)."""
    u = complex(u)
    v = complex(v)
    if not (u.real > 1.0 and v.real > 1.0):
        raise DomainError("contour route verified for Re u > 1, Re v > 1")
    if c is None:
        c = default_abscissa(u, v)
    lo, hi = contour_interval(u, v)
    if not lo < c < hi:
        raise DomainError(f"abscissa {c} outside admissible interval ({lo}, {hi})")
    lg_u = complex(lgamma(u))

    def g(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        br = np.exp(lgamma(u + z) + lgamma(-z) - lg_u)
        return br * riemann_zeta(-z) * hurwitz_zeta1(u + v + z, alpha)

    poles = [0.0, -1.0, 1.0 - (u + v).real, -u.real]
    return _line_integral(g, c, poles, poly_degree=u.real + abs(c) + 1.0,
                          abs_tol=1e-12, rel_tol=1e-10)


def verify_square_identity(
    s: complex,
    alpha: float,
    c: float | None = None,
) -> IdentityReport:
    """|zeta1(s,alpha)|^2 against zeta1(2 sigma, alpha) plus the two-Gamma
    contour integral, for sigma > 1 and t >= 0."""
    s = complex(s)
    sigma, t = s.real, s.imag
    if sigma <= 1.0:
        raise DomainError("requires sigma > 1")
    if t < 0.0:
        raise DomainError("requires t >= 0 (conjugation covers t < 0)")
    if alpha < 0.0:
        raise DomainError("alpha must be >= 0")
    sb = s.conjugate()
    if c is None:
        c = default_abscissa(s, sb)
    lo, hi = contour_interval(s, sb)
    if not lo < c < hi:
        raise DomainError(f"abscissa {c} outside admissible interval ({lo}, {hi})")
    z1 = complex(hurwitz_zeta1(s, alpha))
    lhs = abs(z1) ** 2
    lg_s = complex(lgamma(s))
    lg_sb = complex(lgamma(sb))

    def g(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        lgz = lgamma(-z)
        br = np.exp(lgamma(s + z) - lg_s + lgz) + np.exp(lgamma(sb + z) - lg_sb + lgz)
        return br * riemann_zeta(-z) * hurwitz_zeta1(2.0 * sigma + z, alpha)

    poles = [0.0, -1.0, 1.0 - 2.0 * sigma, -sigma]
    res = _line_integral(g, c, poles, poly_degree=sigma + abs(c) + 1.0,
                         abs_tol=1e-12 * max(lhs, 1.0), rel_tol=1e-10)
    rhs = complex(hurwitz_zeta1(2.0 * sigma, alpha)) + res.value
    return IdentityReport.build(
        "square_identity",
        {"sigma": sigma, "t": t, "alpha": alpha, "c": c},
        lhs,
        rhs,
        res.evaluations,
    )


# ---------------------------------------------------------------------------
# Product-moment identities on the unit interval.
# ---------------------------------------------------------------------------


def _weighted_product(weight: complex, us):
    """alpha -> alpha^{-weight} prod zeta1(u_i, alpha), and its cycles per
    unit of alpha: the factors' cycles plus |Im weight| / 2 pi."""
    zs = [_zeta1_cycles(u.imag) for u in us]

    def f(a: np.ndarray) -> np.ndarray:
        acc = np.power(a, -weight)
        for u in us:
            acc = acc * hurwitz_zeta1(u, a)
        return acc

    return f, lambda a: sum(z(a) for z in zs) + abs(weight.imag) / _2PI


def _unit_moment_lhs(us):
    f, cycles = _weighted_product(0j, us)
    return integrate_finite(f, 0.0, 1.0, cycles=cycles, abs_tol=1e-13, rel_tol=2e-11)


def _weighted_tail(weight: complex, us) -> QuadResult:
    """int_1^inf alpha^{-weight} prod zeta1(u_i, alpha) d(alpha), 0 to 3
    factors: an integrate_finite head on [1, A] plus the closed power tail
    from A, whose certified remainder (at most 1e-13) and the rounding of
    its closed sum are added to err_estimate.  DivergenceError
    for decay alpha^-1 or slower."""
    weight = complex(weight)
    us = tuple(complex(u) for u in us)
    big_u = max((abs(u) for u in us), default=0.0)
    powers, A, rem = _certified_powers(lambda A: _product_powers(weight, us, A),
                                       _tail_abscissa(big_u, max(big_u, abs(weight))), 1e-13)
    tail, rounding = _closed_power_tail(powers, 0, A)
    f, cycles = _weighted_product(weight, us)
    head = integrate_finite(f, 1.0, A, cycles=cycles, abs_tol=1e-13, rel_tol=2e-11)
    return QuadResult(head.value + tail, head.err_estimate + rem + rounding, head.evaluations)


# Name of a tail term by the number of zeta1 factors it keeps.
_KEPT = {1: "single", 2: "pair", 3: "triple"}


def moment_rhs_terms(us) -> list[tuple[str, complex, int]]:
    """The 2^k - 1 right-side summands of the k-fold unit moment
    int_0^1 prod zeta1(u_i, alpha) d(alpha), k = 2, 3 or 4, as
    (name, value, evaluations): the rational term 1/(sum u - 1), then for
    each nonempty proper subset S of the exponents the tail
    int_1^inf alpha^{-sum_S u} prod_{j not in S} zeta1(u_j, alpha),
    largest S first.  A tail is named single/pair/triple by the number of
    zeta1 factors it keeps, followed by their indices."""
    us = tuple(complex(u) for u in us)
    if not 2 <= len(us) <= 4:
        raise DomainError("need 2 to 4 exponents")
    if any(u.real <= 1.0 for u in us):
        raise DomainError("direct verification needs Re u > 1 for every exponent")
    terms = [("rational", 1.0 / (sum(us) - 1.0), 0)]
    for size in range(len(us) - 1, 0, -1):
        for subset in itertools.combinations(range(len(us)), size):
            kept = [j for j in range(len(us)) if j not in subset]
            r = _weighted_tail(sum(us[j] for j in subset), tuple(us[j] for j in kept))
            terms.append((f"{_KEPT[len(kept)]}_{''.join(map(str, kept))}", r.value, r.evaluations))
    return terms


def _verify_moment(identity_id: str, us, arity: int, layout) -> IdentityReport:
    """Unit moment of arity exponents against its subset expansion; the
    evaluations count the left side and every tail integral."""
    us = tuple(complex(u) for u in us)
    if len(us) != arity:
        raise DomainError(f"{identity_id} needs exactly {arity} exponents")
    terms = moment_rhs_terms(us)
    lhs = _unit_moment_lhs(us)
    values = [val for _, val, _ in terms]
    return IdentityReport.build(identity_id, layout(us, terms), lhs.value,
                                sum(values[1:], values[0]),
                                lhs.evaluations + sum(n for _, _, n in terms))


def verify_quadratic_moment(us) -> IdentityReport:
    """Quadratic unit moment (Eq. 1.11): rational term plus two tails."""
    return _verify_moment("quadratic_moment", us, 2, lambda us, terms: {"u": us[0], "v": us[1]})


def verify_triple_moment(us) -> IdentityReport:
    """Triple unit moment (Eq. 1.12): rational term plus six tails."""
    return _verify_moment("triple_moment", us, 3, lambda us, terms: {"us": us})


def verify_quadruple_moment(us) -> IdentityReport:
    """Quadruple unit moment (Eq. 1.13): rational term plus fourteen tails."""
    return _verify_moment("quadruple_moment", us, 4,
                          lambda us, terms: {"us": us, "rhs_terms": len(terms)})


# ---------------------------------------------------------------------------
# Closed form of the full-line weighted tail and the unit-interval recursion.
# ---------------------------------------------------------------------------


def _mellin_closed(u: complex, v: complex) -> complex:
    """Gamma(1-v) Gamma(u+v-1) zeta(u+v-1) / Gamma(u), unchecked."""
    return complex(
        np.exp(lgamma(1.0 - v) + lgamma(u + v - 1.0) - lgamma(u))
        * riemann_zeta(u + v - 1.0)
    )


def mellin_tail_closed_form(u: complex, v: complex) -> complex:
    """int_0^inf alpha^{-v} zeta1(u,alpha) d(alpha)
    = Gamma(1-v) Gamma(u+v-1) zeta(u+v-1) / Gamma(u)."""
    u = complex(u)
    v = complex(v)
    if not (u.real > 1.0 and v.real < 1.0 and (u + v).real > 2.0):
        raise DomainError("requires Re u > 1, Re v < 1, Re(u+v) > 2")
    return _mellin_closed(u, v)


# Terms of the Taylor series of zeta1(u, a) at a = 0.
_TAYLOR_TERMS = 40


def _zeta1_taylor(u: complex):
    """(c, b, R): zeta1(u, a) = sum_k c_k a^k with c_k = binom(-u, k) zeta(u+k)
    (DLMF 25.11.10), k = 0..K, and |zeta1(u, a) - sum_k c_k a^k| <= R a^(K+1)
    for 0 <= a <= b = 1 / max(4, |u|).

    With r = max(1, (|u|+K+1)/(K+2)) >= |binom(-u, k+1) / binom(-u, k)| for
    k > K (r b < 1) and zeta(Re u + k) falling in k, the remainder is at
    most |binom(-u, K+1)| zeta(Re u + K + 1) a^(K+1) / (1 - r b); R is inf
    where Re u + K + 1 <= 1.  At u = -m the series is a polynomial: its
    k = m+1 term meets the pole of zeta and tends to -1/(m+1), every later
    term vanishes, and R = 0.  Binomials that overflow (|u| above about
    5e8) raise DomainError.
    """
    u = complex(u)
    K = _TAYLOR_TERMS
    split = 1.0 / max(4.0, abs(u))
    k = np.arange(K + 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        binom = np.cumprod(np.append(1.0, -(u + k[1:] - 1.0) / k[1:]))  # binom(-u, k), k = 0..K+1
    if not np.isfinite(binom).all():
        raise DomainError(f"zeta1 Taylor coefficients overflow at u = {u}")
    if u.imag == 0.0 and u.real == math.floor(u.real) <= 0.0:
        m = int(-u.real)
        return np.append(binom[:m + 1] * riemann_zeta(u + k[:m + 1]), -1.0 / (m + 1)), split, 0.0
    coeffs = binom[:-1] * riemann_zeta(u + k[:-1])
    x = u.real + K + 1.0
    if not x > 1.0:
        return coeffs, split, math.inf
    zeta_x = 1.0 + 2.0**-x + 2.0 ** (1.0 - x) / (x - 1.0)  # >= zeta(x)
    ratio = split * max(1.0, (abs(u) + K + 1.0) / (K + 2.0))
    return coeffs, split, abs(binom[-1]) * zeta_x / (1.0 - ratio)


def _unit_power(u: complex, power: complex, *, quotient: bool = False, log_weight: bool = False,
                abs_tol: float = 1e-13, rel_tol: float = 2e-11) -> QuadResult:
    """int_0^1 a^power (log a)^m f(a) da for Re power > -1, m = 1 if
    log_weight else 0, f = zeta1(u, a) or, with quotient,
    (zeta1(u, a) - zeta(u)) / a.

    On [0, b] f is the Taylor series of _zeta1_taylor (one index lower for
    the quotient), integrated term by term in closed form,
    int_0^b a^(e-1) (log a)^m da = b^e / e (log b - 1/e)^m.  The series'
    remainder integrates to at most R |that form| at the first omitted
    exponent, with Re power in place of power; that bound is added to
    err_estimate, and above abs_tol it raises ConvergenceError.  [b, 1] is
    one integrate_finite call at zeta1's cycles plus |power| / (2 pi a).
    """
    u = complex(u)
    power = complex(power)
    if not power.real > -1.0:
        raise DomainError("requires Re power > -1")
    coeffs, b, rem = _zeta1_taylor(u)
    zu, coeffs = (coeffs[0], coeffs[1:]) if quotient else (0.0, coeffs)

    def closed(e):
        return b**e / e * ((math.log(b) - 1.0 / e) if log_weight else 1.0)

    head = complex(np.sum(coeffs * closed(power + np.arange(1.0, coeffs.size + 1.0))))
    cut = rem * abs(closed(power.real + coeffs.size + 1.0))
    if not cut <= abs_tol:
        raise ConvergenceError(f"zeta1 Taylor head at u = {u}: remainder {cut:.3e} "
                               f"exceeds {abs_tol:.1e}")

    def f(a: np.ndarray) -> np.ndarray:
        z = hurwitz_zeta1(u, a)
        w = np.power(a, power) * ((z - zu) / a if quotient else z)
        return w * np.log(a) if log_weight else w

    zeta1_cycles = _zeta1_cycles(u.imag)
    res = integrate_finite(f, b, 1.0, cycles=lambda a: zeta1_cycles(a) + abs(power) / (_2PI * a),
                           abs_tol=abs_tol, rel_tol=rel_tol)
    return QuadResult(head + res.value, res.err_estimate + cut, res.evaluations)


def mellin_tail_check(u: complex, v: complex) -> IdentityReport:
    """Closed form against direct quadrature, split at alpha = 1:
    _unit_power on (0, 1), a closed Taylor head plus one integrate_finite
    call, and the weighted tail on [1, inf), whose closed power tail
    carries the slow alpha^{1-u-v} decay.
    """
    u = complex(u)
    v = complex(v)
    closed = mellin_tail_closed_form(u, v)
    unit = _unit_power(u, -v)
    tail = _weighted_tail(v, (u,))
    return IdentityReport.build(
        "mellin_tail",
        {"u": u, "v": v},
        closed,
        unit.value + tail.value,
        unit.evaluations + tail.evaluations,
    )


def _recursion_rhs(u: complex, v: complex) -> tuple[complex, int]:
    """(zeta(u)-1)/(1-v) + u/(1-v) int_0^1 alpha^{1-v} zeta1(u+1,alpha), the
    right side of the unit-interval recursion, and its evaluations."""
    zu = complex(riemann_zeta(u))
    w = _unit_power(u + 1.0, 1.0 - v)
    return (zu - 1.0) / (1.0 - v) + u / (1.0 - v) * w.value, w.evaluations


def unit_interval_recursion(u: complex, v: complex) -> IdentityReport:
    """Integration-by-parts recursion for int_0^1 alpha^{-v} zeta1(u,alpha):
    equals (zeta(u)-1)/(1-v) + u/(1-v) int_0^1 alpha^{1-v} zeta1(u+1,alpha).

    Verified directly for Re v < 1; at v = 1 both sides are replaced by
    their finite limits; for 1 < Re v < 2 the left side is computed through
    the subtracted representation (zeta1 - zeta)."""
    u = complex(u)
    v = complex(v)
    if v.real >= 2.0:
        raise DomainError("requires Re v < 2")
    if u == 1.0 or u == 0.0:
        raise PoleError("u and u+1 must avoid the zeta pole")
    if v == 1.0:
        # limit mode: both sides finite
        lhs_res = _unit_power(u, 0.0, quotient=True, abs_tol=1e-12, rel_tol=1e-10)
        rhs_res = _unit_power(u + 1.0, 0.0, log_weight=True, abs_tol=1e-12, rel_tol=1e-10)
        return IdentityReport.build(
            "unit_recursion",
            {"u": u, "v": v, "mode": "limit"},
            lhs_res.value,
            u * rhs_res.value,
            lhs_res.evaluations + rhs_res.evaluations,
        )
    if v.real < 1.0:
        lhs_res = _unit_power(u, -v)
        lhs = lhs_res.value
        mode = "direct"
    else:
        lhs_res = _unit_power(u, 1.0 - v, quotient=True, abs_tol=1e-12, rel_tol=1e-10)
        lhs = lhs_res.value + complex(riemann_zeta(u)) / (1.0 - v)
        mode = "subtracted"
    rhs, rhs_evals = _recursion_rhs(u, v)
    return IdentityReport.build(
        "unit_recursion",
        {"u": u, "v": v, "mode": mode},
        lhs,
        rhs,
        lhs_res.evaluations + rhs_evals,
    )


# ---------------------------------------------------------------------------
# The explicit quadratic-moment identity and its asymptotic consequences.
# ---------------------------------------------------------------------------


def verify_katsurada(u: complex, v: complex) -> IdentityReport:
    """Explicit closed evaluation of the quadratic unit moment: the rational
    term plus, for each of the two tails, the Mellin closed form M minus
    the unit-interval recursion R,
    1/(u+v-1) + [M(u,v) - R(u,v)] + [M(v,u) - R(v,u)].

    M carries the cross arguments Gamma(1-v)/Gamma(u) and Gamma(1-u)/Gamma(v);
    with same-argument quotients the identity fails for complex conjugate
    pairs (checked against high-precision quadrature).
    """
    u = complex(u)
    v = complex(v)
    if not (1.0 < u.real < 2.0 and 1.0 < v.real < 2.0):
        raise DomainError("direct mode needs Re u, Re v in (1, 2)")
    if abs(u + v - 2.0) < 1e-12:
        raise PoleError("u + v = 2 pinches the rational and Gamma terms")
    lhs_res = _unit_moment_lhs((u, v))
    ru, ru_evals = _recursion_rhs(u, v)
    rv, rv_evals = _recursion_rhs(v, u)
    rhs = (1.0 / (u + v - 1.0) + (_mellin_closed(u, v) - ru)
           + (_mellin_closed(v, u) - rv))
    return IdentityReport.build(
        "katsurada",
        {"u": u, "v": v},
        lhs_res.value,
        rhs,
        lhs_res.evaluations + ru_evals + rv_evals,
    )


def katsurada_split_check(u: complex, v: complex) -> IdentityReport:
    """Term-level consistency: the weighted tail integral over [1, inf)
    equals the Mellin closed form minus the unit-interval recursion terms."""
    u = complex(u)
    v = complex(v)
    if not (1.0 < u.real < 2.0 and 1.0 < v.real < 2.0):
        raise DomainError("split check needs Re u, Re v in (1, 2)")
    direct = _weighted_tail(v, (u,))
    unit_part, unit_evals = _recursion_rhs(u, v)
    return IdentityReport.build(
        "katsurada_split",
        {"u": u, "v": v},
        direct.value,
        _mellin_closed(u, v) - unit_part,
        direct.evaluations + unit_evals,
    )


def sum_recip_m_mp1u(u: complex) -> complex:
    """sum_{m>=1} 1 / (m (m+1)^u) = sum_{j>=1} zeta1(u + j, 1) for Re u > 0,
    from 1/m = sum_{j>=1} (m+1)^{-j}, summed to j = 64 in one array call;
    the omitted terms sum to at most 2^(2 - Re u - 64)."""
    u = complex(u)
    if u.real <= 0.0:
        raise DomainError("sum_recip_m_mp1u requires Re u > 0")
    return complex(np.sum(hurwitz_zeta1(u + np.arange(1.0, 65.0), 1.0)))


def i1_asymptotic_check(t_grid) -> list[IdentityReport]:
    """Second-moment asymptotic: I_1(t) versus log(t/2pi) + gamma.

    The report parameters also carry the two explicit oscillating 1/t-scale
    corrections (the zeta-pair term and the unit-integral pair term) and
    the residual after removing them, whose t^2-scaled size is what really
    stays bounded.
    """
    out = []
    for t in t_grid:
        t = float(t)
        if t < 20.0:
            raise DomainError("asymptotic check needs t >= 20")
        i1 = afe.power_mean_Ik(1, t)
        rhs = math.log(t / _2PI) + float(np.euler_gamma)
        u = complex(0.5, t)
        zu = complex(riemann_zeta(u))
        c_term = -2.0 * ((zu - 1.0) * u.conjugate()).real / abs(u) ** 2
        d_term = -2.0 * sum_recip_m_mp1u(u).imag / t
        diff = i1 - rhs
        corrected = diff - c_term - d_term
        out.append(
            IdentityReport.build(
                "i1_asymptotic",
                {
                    "t": t,
                    "diff": diff,
                    "diff_t2": diff * t * t,
                    "zeta_pair_term": c_term,
                    "unit_integral_pair_term": d_term,
                    "corrected_diff_t2": corrected * t * t,
                },
                i1,
                rhs,
            )
        )
    return out


def remark_219_check(u: complex, v: complex) -> IdentityReport:
    """Large-t behaviour of int_0^1 alpha^{1-v} zeta1(u+1, alpha) d(alpha)
    against (1/(it)) sum_m 1/(m (m+1)^u), for v = s1 - it, u = s2 + it.

    The integral is _unit_power(u + 1, 1 - v), from alpha = 0, so the
    reported endpoint_cut is 0."""
    u = complex(u)
    v = complex(v)
    t = u.imag
    s1 = v.real
    if not (0.0 < s1 < 2.0):
        raise DomainError("requires 0 < Re v < 2")
    if t <= 0.0 or abs(v.imag + t) > 1e-9:
        raise DomainError("requires u = s2 + it, v = s1 - it with the same t > 0")
    head = _unit_power(u + 1.0, 1.0 - v, abs_tol=1e-12, rel_tol=1e-9)
    lhs = head.value
    S = sum_recip_m_mp1u(u)
    rhs = S / (1j * t)
    resid = abs(lhs - rhs)
    return IdentityReport.build(
        "remark_219",
        {"u": u, "v": v, "t": t, "scaled_t2": resid * t * t,
         "endpoint_cut": 0.0, "lhs_abs": abs(lhs)},
        lhs,
        rhs,
        head.evaluations,
    )
