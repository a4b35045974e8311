"""Base special functions: Gamma, Riemann/Hurwitz zeta, the chi factor,
the Dirichlet-type kernel B_N, Bernoulli numbers, the Beta-type integral
and the Fourier coefficients a_n of the shifted zeta on the unit interval.

Everything is evaluated in double precision with an Euler-Maclaurin
continuation for the zeta-type series.  Functions accept numpy arrays for
the argument over which the surrounding quadrature code vectorises.

Every zeta and zeta1 value comes from one kernel entry, _em_hurwitz(s, a),
which returns the values and a bound for each element.  It chooses among
the shift route, the reflection and the direct sum; no other module calls
their parts.

The incomplete-Gamma path (_norm_upper_gamma_cf, osc_power_tail,
fourier_coeff_a, _closed_power_tail) keeps each element's value independent
of the call it comes in: its arithmetic is numpy's complex ufuncs on arrays,
whose elements round alike at any length, stride or mask, and a scalar call
runs on 1-element arrays, because numpy's scalar complex product rounds as
Python's does and not as its array loop.  Sums over powers run row by row,
never as an axis reduction, which numpy does pairwise.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DivergenceError, DomainError, PoleError

__all__ = [
    "gamma",
    "lgamma",
    "riemann_zeta",
    "hurwitz_zeta1",
    "hurwitz_zeta",
    "chi",
    "dirichlet_kernel",
    "bernoulli_numbers",
    "beta_integral",
    "fourier_coeff_a",
    "osc_power_tail",
    "kernel_index",
]

_LOG_2PI = math.log(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi

# ---------------------------------------------------------------------------
# log-Gamma via the Lanczos approximation (g = 607/128, 15 coefficients),
# reflected across Re z = 1/2.  Good to ~1e-13 relative over the tested range.
# ---------------------------------------------------------------------------

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array(
    [
        0.99999999999999709182,
        57.156235665862923517,
        -59.597960355475491248,
        14.136097974741747174,
        -0.49191381609762019978,
        0.33994649984811888699e-4,
        0.46523628927048575665e-4,
        -0.98374475304879564677e-4,
        0.15808870322491248884e-3,
        -0.21026444172410488319e-3,
        0.21743961811521264320e-3,
        -0.16431810653676389022e-3,
        0.84418223983852743293e-4,
        -0.26190838401581408670e-4,
        0.36899182659531622704e-5,
    ]
)


def _is_nonpositive_integer(z: np.ndarray) -> np.ndarray:
    re = np.real(z)
    im = np.imag(z)
    return (im == 0.0) & (re <= 0.0) & (re == np.floor(re))


def _log_sin_pi(z: np.ndarray) -> np.ndarray:
    """log(sin(pi z)), stable for large |Im z| (branch only matters mod 2*pi*i)."""
    z = np.asarray(z, dtype=complex)
    upper = np.imag(z) >= 0.0
    zu = np.where(upper, z, np.conj(z))
    # sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z}) for Im z >= 0; expm1
    # keeps the real part of 1 - e^{2 i pi z} near the integers, whose loss
    # would put an error of pi |z - n| into the phase
    val = (
        complex(0.0, 0.5 * math.pi)
        - math.log(2.0)
        - 1j * math.pi * zu
        + np.log(-np.expm1(2j * math.pi * zu))
    )
    return np.where(upper, val, np.conj(val))


# the k of the partial fractions C_k / (x + k), k >= 1, as one column
_LANCZOS_STEPS = np.arange(1.0, _LANCZOS_C.size)[:, None]


def _lanczos_core(z: np.ndarray) -> np.ndarray:
    """log Gamma(z) by the Lanczos series at 1-d z with Re z >= 0.5.

    The series C_0 + sum_k C_k / (x + k), x = z - 1, is one (15, n) array,
    row 0 C_0 and rows 1-14 from one np.divide, summed over axis 0.  For
    n >= 2 numpy sums that axis row by row, so the bits are those of adding
    the terms one at a time in k; a (15, 1) array would sum pairwise (see
    _base_sum), so one element is padded to two columns.
    """
    x = z - 1.0
    cols = x if x.size != 1 else np.concatenate((x, x))
    terms = np.empty((_LANCZOS_C.size, cols.size), dtype=complex)
    terms[0] = _LANCZOS_C[0]
    np.divide(_LANCZOS_C[1:, None], cols + _LANCZOS_STEPS, out=terms[1:])
    acc = terms.sum(axis=0)[:x.size]
    tt = x + _LANCZOS_G + 0.5
    return (x + 0.5) * np.log(tt) - tt + 0.5 * _LOG_2PI + np.log(acc)


def _lanczos_reflected(z: np.ndarray) -> np.ndarray:
    """log Gamma(z) at 1-d z with Re z < 0.5, by reflection to 1 - z."""
    return math.log(math.pi) - _log_sin_pi(z) - _lanczos_core(1.0 - z)


def lgamma(z):
    """log Gamma(z) for complex z (principal value up to multiples of 2*pi*i).

    Raises PoleError at non-positive integers.  Element by element: the
    value at a point does not depend on the other points of the call.
    """
    arr = np.asarray(z, dtype=complex)
    flat = arr.ravel()
    if np.any(_is_nonpositive_integer(flat)):
        raise PoleError("lgamma pole at non-positive integer")
    main = np.real(flat) >= 0.5
    if main.all():
        out = _lanczos_core(flat)
    elif not main.any():
        out = _lanczos_reflected(flat)
    else:
        out = np.empty_like(flat)
        out[main] = _lanczos_core(flat[main])
        out[~main] = _lanczos_reflected(flat[~main])
    return out[0] if arr.ndim == 0 else out.reshape(arr.shape)


def gamma(z):
    """Gamma(z).  Overflows to inf for Re z beyond ~171; use lgamma there."""
    return np.exp(lgamma(z))


# ---------------------------------------------------------------------------
# Bernoulli numbers (B_1 = -1/2 convention), exact rational recurrence.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _bernoulli_fraction(m: int) -> Fraction:
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(-1, 2)
    if m % 2:
        return Fraction(0)
    acc = Fraction(0)
    for k in range(m):
        acc += Fraction(math.comb(m + 1, k)) * _bernoulli_fraction(k)
    return -acc / (m + 1)


def bernoulli_numbers(m: int) -> list[float]:
    """First m+1 Bernoulli numbers [B_0, ..., B_m] as floats."""
    if m < 0:
        raise DomainError("m must be >= 0")
    return [float(_bernoulli_fraction(k)) for k in range(m + 1)]


@lru_cache(maxsize=None)
def _bernoulli_tail_weights(j_max: int) -> np.ndarray:
    # B_2j / (2j)! for j = 1..j_max+1, each computed exactly, then rounded once
    return np.array([float(_bernoulli_fraction(2 * j) / math.factorial(2 * j))
                     for j in range(1, j_max + 2)])


# ---------------------------------------------------------------------------
# Euler-Maclaurin evaluation of zeta_H(s, a) = sum_{k>=0} (k+a)^{-s}.
# ---------------------------------------------------------------------------


def _csum(values: np.ndarray) -> complex:
    """Exactly rounded complex sum (compensated via math.fsum)."""
    return complex(math.fsum(values.real), math.fsum(values.imag))


# Terms per column block of the Euler-Maclaurin base sum: each real
# n0 x w matrix of a block takes 64 KiB, under the default malloc mmap
# threshold of 128 KiB.
_EM_BLOCK_TERMS = 1 << 13

# Euler-Maclaurin truncation: at least _EM_FLOOR direct terms (more as
# |Im s| grows), _EM_PAIRS Bernoulli correction pairs, and a budget of
# _EM_MAX_TERMS direct terms for one evaluation.
_EM_FLOOR = 10
_EM_PAIRS = 8
_EM_MAX_TERMS = 2_000_000

# Shift route of _em_hurwitz (one s, many shifts): Taylor blocks of radius
# d <= c min(_TAYLOR_REACH / |s|, _TAYLOR_RATIO) about centres c.  The
# series' terms go like (|s| d / c)^j / j! while j is below |s|, and shrink
# by d / c beyond it, so both limits are needed.  The order is at most
# _TAYLOR_MAX_ORDER, and the route is taken only when its columns,
# blocks x (order + 1), are at most 1/_TAYLOR_SHARE of the shifts, and its
# Horner steps per shift, order + 1, at most _TAYLOR_STEPS times the
# direct sum's base terms per shift (a step costs about a twentieth of a
# term).
_TAYLOR_REACH = 2.0
_TAYLOR_RATIO = 0.25
_TAYLOR_MAX_ORDER = 60
_TAYLOR_SHARE = 16
_TAYLOR_STEPS = 8


def _neg_power(x, log_x, sigma, t):
    """x^-(sigma + i t) for x > 0 as (c, d) with x^-s = c - i d, i.e.
    x^-sigma times (cos, sin)(t log x); d is None when t is all zero.

    The real power is exact for integer x and sigma, where exp(-s log x)
    is not, and two real trigonometric ufuncs are faster than one complex
    exp.

    Where x is one column (n0, 1) against a row of many s, work is shared
    across the columns: if every column has the same sigma, x^-sigma is
    taken once per row; otherwise, if every column has the same t, the
    cosine and sine of t log x are.  Each ufunc gives a value by its
    element alone, so the shared factor is the value the full broadcast
    takes in every column, and the products are bit-identical.  Never both
    at once: the result must stay (n0, w), since an (n0, 1) column would
    sum pairwise in _base_sum.
    """
    shared = np.ndim(x) == 2 and x.shape[1] == 1 and np.size(sigma) > 1
    oscillating = np.count_nonzero(t)
    if shared and oscillating and not np.count_nonzero(sigma != sigma.flat[0]):
        power = np.power(x, -sigma.flat[0])
    else:
        power = np.power(x, -sigma)
        if not oscillating:
            return power, None
        if shared and not np.count_nonzero(t != t.flat[0]):
            t = t.flat[0]
    phase = t * log_x
    return power * np.cos(phase), power * np.sin(phase)


# Base-sum terms summed in this process: each column of a _base_sum call
# adds its n0 terms.  A reader takes the difference of _base_terms()
# around the work it measures, as with quadrature._evaluations().
_terms_summed = 0


def _base_terms() -> int:
    return _terms_summed


def _shift_weights(s: complex, order: int) -> np.ndarray:
    """The weights w_j = (-1)^j (s)_j / j!, j <= order + 1, of _shift_series (inf on overflow)."""
    js = np.arange(order + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumprod(np.concatenate(([1.0 + 0j], -(s + js) / (js + 1.0))))


def _shift_series(s: complex, centres, order: int):
    """The columns of the Taylor series of zeta_H(s, .) in the shift about
    the centres c, zeta_H(s, c + delta) = sum_j w_j delta^j zeta_H(s + j, c)
    with the _shift_weights(s, order) w_j = (-1)^j (s)_j / j!, since
    d^j/da^j zeta_H(s, a) = (-1)^j (s)_j zeta_H(s + j, a) (DLMF 25.11.17).
    Returns (z, z_err): z[j, b] = zeta_H(s + j, c_b), j <= order, with their
    kernel bounds, from one _em_hurwitz call, whose PoleError stops a column
    at s + j = 1.  The caller builds the weights once for every order it
    tries: the weights of a lower order are a prefix of them, bit for bit.
    """
    js = np.arange(order + 1.0)
    return _em_hurwitz(s + js[:, None], np.asarray(centres, dtype=float)[None, :])


def _shift_remainder(s: complex, weights: np.ndarray, J, radius, low):
    """A bound on the remainder of _shift_series after order J (an int or an
    array of orders, each below weights.size - 1) at |delta| <= radius, every
    shift between c and c + delta >= low: the integral form |w_{J+1}|
    radius^{J+1} max |zeta_H(s + J + 1, .)|, the max <= zeta_H(x, low) <=
    low^-x (1 + low / (x - 1)) for x = sigma + J + 1 > 1, and inf for x <= 1."""
    x = s.real + np.asarray(J) + 1.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bound = np.abs(weights[J + 1]) * (radius / low) ** (J + 1) * low**-s.real * (1.0 + low / (x - 1.0))
    return np.where(x > 1.0, bound, math.inf)[()]


def _taylor_order(s: complex, k: float, top: float, weights: np.ndarray):
    """The least order J <= cap = weights.size - 2 whose _shift_remainder
    over the block about top, |delta| <= k top, is at or below one unit
    roundoff of (top (1 + k))^-sigma, the block's largest base term; None
    if there is none.  weights are the _shift_weights(s, cap).  The ratio
    of the remainder to that target grows with top."""
    orders = np.arange(1, weights.size - 1)
    remainders = _shift_remainder(s, weights, orders, k * top, top * (1.0 - k))
    met = orders[remainders <= 2.0**-53 * (top * (1.0 + k)) ** -s.real]
    return int(met[0]) if met.size else None


def _shift_route(s: complex, a: np.ndarray):
    """zeta_H(s, a) at the 1-d shifts a for one s != 0 with Re s >= 0, as
    (value, error_bound) with one bound per shift, or None where the
    route's rule leaves the call to the direct sum.

    The call is split at m >= 0, zeta_H(s, a) = sum_{k<m} (a + k)^-s +
    zeta_H(s, a + m): the head is _base_sum with n0 = m, and the tail takes
    the _shift_series by Horner's rule in blocks of shifts [c - d, c + d],
    d = k c with k = min(_TAYLOR_REACH / |s|, _TAYLOR_RATIO), that tile [lo +
    m, hi + m] from the smallest up, each spanning a ratio 1 + widen.

    The rule: J is the order _taylor_order gives at the highest block a
    split can reach, about hi + n0 with n0 the direct sum's base terms (the
    order grows with the centre).  The blocks may number shifts //
    (_TAYLOR_SHARE (J + 1)); they cover [lo + m, hi + m] once (hi + m) / (lo
    + m) <= (1 + widen)^blocks, and m is the least such integer.  The route
    is taken where there is at least one block, 2 m <= n0 and J + 1 <=
    _TAYLOR_STEPS n0, and for m > 0 also n0 >= 4 _EM_FLOOR: below that the
    fixed cost of the Taylor columns outweighs the terms saved.  The first
    two limits cap the order search, J <= min(_TAYLOR_MAX_ORDER, shifts //
    _TAYLOR_SHARE - 1, _TAYLOR_STEPS n0 - 1), since an order above the cap
    could only be refused; a cap below 1 refuses before anything is built.
    The tail takes the order again at its own top block, which is no
    higher.  One _shift_weights array at the cap serves every order.

    A shift's bound is that of its block: the _shift_remainder at the
    block's largest |delta| = D plus sum_j |w_j| D^j (e_j + (8 J + 8) u
    |zeta_H(s + j, c)|): the columns' kernel bounds e_j, and the rounding
    of the coefficients and of Horner's rule, u the unit roundoff.  A split
    adds to every shift the head's rounding: u times the summed term sizes
    x^-sigma, x = lo + k, each times its error in units of u, m + 3 + |s|
    (1 + 2 log(hi + k)) (the summation, the rounding of x and the phase
    t log x).
    """
    lo, hi = float(np.minimum.reduce(a)), float(np.maximum.reduce(a))
    n0 = _em_terms(abs(s.imag), lo)
    cap = min(_TAYLOR_MAX_ORDER, a.size // _TAYLOR_SHARE - 1, _TAYLOR_STEPS * n0 - 1)
    if cap < 1:
        return None
    k = min(_TAYLOR_REACH / abs(s), _TAYLOR_RATIO)
    widen = 2.0 * k / (1.0 - k)
    weights = _shift_weights(s, cap)
    J = _taylor_order(s, k, (hi + n0) / (1.0 - k), weights)
    if J is None:
        return None
    # an overflow to inf leaves m = 0
    grow = np.float64(1.0 + widen) ** (a.size // (_TAYLOR_SHARE * (J + 1)))
    if grow == 1.0:  # |s| above about 1e16: no m
        return None
    m = 0 if hi <= grow * lo else math.ceil((hi - grow * lo) / (grow - 1.0))
    if 2 * m > n0 or (m > 0 and n0 < 4 * _EM_FLOOR):
        return None

    shifted = a + m
    low = lo + m
    count = max(1, math.ceil(math.log((hi + m) / low) / math.log1p(widen)))
    # the tail's top block is no higher, so an order <= J meets its target
    # (J itself, should rounding say otherwise)
    J = _taylor_order(s, k, low * (1.0 + widen) ** (count - 1) / (1.0 - k), weights[:J + 2]) or J
    weights = weights[:J + 2]
    order = np.argsort(shifted, kind="stable")
    ordered = shifted[order]
    lows = low * (1.0 + widen) ** np.arange(count)
    edges = np.concatenate(([0], np.searchsorted(ordered, lows[1:]), [a.size]))
    sizes = edges[1:] - edges[:-1]
    full = sizes > 0
    starts, sizes, centres = edges[:-1][full], sizes[full], lows[full] / (1.0 - k)
    # a - c is exact: every shift lies within a factor 2 of its centre
    steps = ordered - np.repeat(centres, sizes)
    radii = np.maximum.reduceat(np.abs(steps), starts)

    z, z_err = _shift_series(s, centres, J)
    coeffs = weights[:-1, None] * z
    values = np.empty(a.size, dtype=complex)
    # Horner's steps multiply by delta + 0j, the complex operand numpy
    # would cast each real delta to at every step
    steps_c = steps.astype(complex)
    for b, (start, size) in enumerate(zip(starts, sizes)):
        step = steps_c[start:start + size]
        acc = coeffs[J, b] * step
        acc += coeffs[J - 1, b]
        for j in range(J - 2, -1, -1):
            acc *= step
            acc += coeffs[j, b]
        values[order[start:start + size]] = acc
    spans = np.abs(weights[:-1, None]) * radii ** np.arange(J + 1.0)[:, None]
    err = _shift_remainder(s, weights, J, radii, centres - radii)
    err = err + np.add.reduce(spans * (z_err + (8 * J + 8) * 2.0**-53 * np.abs(z)), axis=0)
    if m:
        values += _base_sum(np.complex128(s), a, m)
        ks = np.arange(m, dtype=float)
        terms = (lo + ks) ** -s.real * (m + 3.0 + abs(s) * (1.0 + 2.0 * np.log(hi + ks)))
        err += 2.0**-53 * float(np.add.reduce(terms))
    bounds = np.empty(a.size)
    bounds[order] = np.repeat(err, sizes)
    return values, bounds


def _em_terms(t_max: float, a_min: float) -> int:
    """Base terms of the direct sum: enough to reach max(_EM_FLOOR,
    2 t_max / pi) from the smallest shift, and at least one.
    ConvergenceError where that count is not finite (t_max near 1e308)."""
    target = max(float(_EM_FLOOR), 2.0 * t_max / math.pi) - a_min
    if not math.isfinite(target):
        raise ConvergenceError(f"Euler-Maclaurin base sum at |Im s| = {t_max:.3g} is not finite")
    return max(int(math.ceil(target)) + 1, 1)


def _base_sum(s, a, n0: int) -> np.ndarray:
    """The base sum sum_{k<n0} (a + k)^-s of the direct sum, one column per
    element: s (a numpy scalar or 1-d array) and a (a scalar or 1-d array)
    are of one size where both are arrays.  Adds n0 terms per column to
    the meter."""
    global _terms_summed
    many_s, many_a = np.ndim(s) > 0, np.ndim(a) > 0
    size = max(np.size(s), np.size(a))
    _terms_summed += n0 * size
    ks = np.arange(n0, dtype=float)
    if not many_a:  # x and log x are shared by every column
        x = (ks + a)[:, None]
        log_x = np.log(x)
    # Column blocks bound the memory.  A column sum of an n0 x w block runs
    # row by row for w >= 2 but pairwise for w = 1, so no block is one
    # column wide unless the output is: every column sums as in one matrix.
    cols = max(2, _EM_BLOCK_TERMS // n0)
    base = np.empty(size, dtype=complex)
    hi = 0
    while hi < size:
        lo, hi = hi, (size if size - hi <= cols + 1 else hi + cols)
        if many_a:
            x = ks[:, None] + a[None, lo:hi]
            log_x = np.log(x)
        s_cols = s[None, lo:hi] if many_s else s
        c, d = _neg_power(x, log_x, s_cols.real, s_cols.imag)
        base.real[lo:hi] = np.add.reduce(c, axis=0)
        base.imag[lo:hi] = 0.0 if d is None else -np.add.reduce(d, axis=0)
    return base


# Columns per block of the Pochhammer products of _em_coeffs: a wider
# (17, w) product ran at up to three times the cost per column.
_EM_COEFF_COLUMNS = 256
# The factors k + 0j of the Pochhammer products and the Bernoulli weights
# B_2j/(2j)!, as the complex columns numpy would cast them to.
_POCH_STEPS = np.arange(2.0 * _EM_PAIRS + 1)[:, None] + 0j
_EM_TAIL_WEIGHTS = _bernoulli_tail_weights(_EM_PAIRS)[:, None] + 0j
# The tail's powers x^(-2j), j < _EM_PAIRS, as one column of exponents.
_EM_TAIL_POWERS = np.arange(_EM_PAIRS)[:, None]


def _em_coeffs(s):
    """The Euler-Maclaurin tail at s (a scalar or 1-d array) as (coeffs,
    ratio): coeffs[j-1] = B_2j/(2j)! (s)_{2j-1}, j = 1..J+1 for J =
    _EM_PAIRS, one column per element, row J that of the first omitted
    term, whose ratio (|s| + 2J + 1) / (Re s + 2J + 1) multiple bounds all
    that is omitted.  DomainError where Re s + 2J + 1 <= 1.  The Pochhammer
    symbols overflow for |s| above about 1e18: callers ignore numpy's
    overflow and invalid warnings around the call.

    Each column's product (s)(s + 1)...(s + k) is numpy's cumulative
    product down the column, which over three or more rows rounds every
    step as Python's complex product does, unlike numpy's fused array
    product; a scalar s takes it in Python complex arithmetic, and an
    array in blocks of _EM_COEFF_COLUMNS columns, both bit for bit the one
    (2J + 1, w) product."""
    scalar = np.ndim(s) == 0
    sig_min = float(s.real if scalar else np.minimum.reduce(s.real))
    if sig_min + 2 * _EM_PAIRS + 1 <= 1.0:
        raise DomainError(f"Re s = {sig_min} too small for {_EM_PAIRS} Bernoulli pairs")
    if scalar:
        # (k + 0j) + s as numpy adds it: k + Re s, 0 + Im s
        re, im = float(s.real), 0.0 + float(s.imag)
        step = complex(0.0 + re, im)
        rows = [step]
        for k in range(1, 2 * _EM_PAIRS + 1):
            step *= complex(k + re, im)
            rows.append(step)
        poch = np.array(rows[::2])[:, None]
    else:
        blocks = [np.multiply.accumulate(_POCH_STEPS + s[None, lo:lo + _EM_COEFF_COLUMNS], axis=0)[::2]
                  for lo in range(0, s.size, _EM_COEFF_COLUMNS)]
        poch = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
    coeffs = _EM_TAIL_WEIGHTS * poch
    ratio = (abs(s) + 2 * _EM_PAIRS + 1) / (s.real + 2 * _EM_PAIRS + 1)
    return coeffs, ratio


def _em_hurwitz(s, a):
    """zeta_H(s, a) for complex s != 1 and real a > 0, broadcast against
    each other (scalars or arrays).

    Returns (value, error_bound), both in the broadcast shape (a complex
    and a float when both are scalars), each element with its own bound.
    One s with Re s >= 0 at many shifts goes through _shift_route where its
    rule allows.  Otherwise an element with Re s < 0 at shift exactly 1,
    whose base terms would grow and cancel, takes zeta(s) = chi(s) zeta(1 -
    s) (DLMF 25.4.1), bounded by |chi(s)| times the bound of zeta(1 - s)
    plus chi's _log_space_rounding; it is exactly 0 at s = -2n, as chi is.
    Every other element takes the direct sum, whose number of base terms
    grows like 2 max|Im s|/pi from the smallest shift, so the Bernoulli tail
    converges geometrically with ratio about 1/16 per correction pair.  A
    bound that is not finite (|s| above about 1e18) raises DomainError.

    The shift route and the direct sum run inside one np.errstate that
    ignores overflow and invalid operations, which show as infinite or NaN
    values and bounds; the helpers they call open no context of their own,
    except the shift series' _shift_weights and _shift_remainder, which
    other modules call too.
    """
    s_arr = np.asarray(s, dtype=complex)
    a_arr = np.asarray(a, dtype=float)
    if np.count_nonzero(s_arr == 1.0):
        raise PoleError("zeta pole at s = 1")
    if np.count_nonzero(a_arr <= 0.0):
        raise DomainError("shift must be positive")
    shape = np.broadcast(s_arr, a_arr).shape
    if np.minimum.reduce(s_arr.real, axis=None) < 0.0:
        left = np.broadcast_to((s_arr.real < 0.0) & (a_arr == 1.0), shape)
        if left.any():
            s_all = np.broadcast_to(s_arr, shape)
            value, err = np.empty(shape, dtype=complex), np.empty(shape)
            if not left.all():
                a_rest = np.broadcast_to(a_arr, shape)[~left] if a_arr.size > 1 else a_arr.reshape(())
                value[~left], err[~left] = _em_hurwitz(s_all[~left], a_rest)
            factor = chi(s_all[left])
            reflected, reflected_err = _em_hurwitz(1.0 - s_all[left], 1.0)
            value[left] = factor * reflected
            err[left] = (np.abs(factor) * reflected_err
                         + _log_space_rounding(s_all[left]) * np.abs(value[left]))
            return (complex(value), float(err)) if not shape else (value, err)
    with np.errstate(over="ignore", invalid="ignore"):
        if s_arr.size == 1 and a_arr.size > 1:
            s_one = complex(s_arr.flat[0])
            if s_one.real >= 0.0 and s_one != 0.0:
                found = _shift_route(s_one, a_arr.ravel())
                if found is not None:
                    return found[0].reshape(shape), found[1].reshape(shape)
        # The direct sum.  An argument with one value stays a scalar; arrays
        # are flattened against each other.
        many_s, many_a = s_arr.size > 1, a_arr.size > 1
        if many_s and many_a:
            s_arr, a_arr = np.broadcast_arrays(s_arr, a_arr)
        s = s_arr.ravel() if many_s else s_arr.flat[0]
        a = a_arr.ravel() if many_a else a_arr.flat[0]
        coeffs, ratio = _em_coeffs(s)
        n0 = _em_terms(float(np.maximum.reduce(np.abs(s.imag)) if many_s else abs(s.imag)),
                       float(np.minimum.reduce(a) if many_a else a))
        if n0 > _EM_MAX_TERMS:
            raise ConvergenceError(f"Euler-Maclaurin base sum exceeds {_EM_MAX_TERMS} terms")
        base = _base_sum(s, a, n0)
        # Tail x^-s [x/(s-1) + 1/2 + sum_j B_2j/(2j)! (s)_{2j-1} x^(1-2j)] at
        # x = n0 + a, j = 1..J
        x = n0 + a
        inv = 1.0 / x
        inv2 = inv * inv
        poly = np.add.reduce(coeffs[:_EM_PAIRS] * inv2 ** _EM_TAIL_POWERS, axis=0)
        c, d = _neg_power(x, np.log(x), s.real, s.imag)
        xs = c if d is None else c - 1j * d
        value = base + xs * (x / (s - 1.0) + 0.5 + inv * poly)
        # the first omitted term, times the ratio that bounds the rest
        err = abs(coeffs[_EM_PAIRS]) * abs(xs) * inv * inv2**_EM_PAIRS * ratio
    if not np.logical_and.reduce(np.isfinite(err), axis=None):
        raise DomainError(f"|s| = {float(np.abs(s).max()):.3g} too large for the "
                          f"Euler-Maclaurin bound")
    value, err = value.reshape(shape), err.reshape(shape)
    return (complex(value), float(err)) if not shape else (value, err)


def riemann_zeta(s):
    """Riemann zeta(s), continued by Euler-Maclaurin, by the functional
    equation where Re s < 0 (see _em_hurwitz).  PoleError at s = 1.  s may
    be a numpy array; the result then has the same shape.
    """
    return _em_hurwitz(s, 1.0)[0]


def hurwitz_zeta1(s, alpha):
    """Modified Hurwitz zeta: sum_{n>=1} (n+alpha)^{-s}, alpha >= 0, s != 1.

    s and alpha may be numpy arrays; the result has their broadcast shape.
    """
    return _em_hurwitz(s, _zeta1_shift(alpha))[0]


def _zeta1_shift(alpha):
    """The Hurwitz shift 1 + alpha of zeta1(s, alpha); DomainError for alpha < 0."""
    alpha_arr = np.asarray(alpha, dtype=float)
    if np.count_nonzero(alpha_arr < 0.0):
        raise DomainError("alpha must be >= 0")
    return alpha_arr + 1.0


def hurwitz_zeta(s, alpha):
    """Classical Hurwitz zeta(s, alpha) = alpha^{-s} + zeta1(s, alpha), alpha > 0."""
    alpha_arr = np.asarray(alpha, dtype=float)
    if np.any(alpha_arr <= 0.0):
        raise DomainError("alpha must be > 0")
    s = complex(s)
    return np.power(alpha_arr, -s) + hurwitz_zeta1(s, alpha_arr)


# ---------------------------------------------------------------------------
# chi(s): the functional-equation factor zeta(s) = chi(s) zeta(1-s).
# ---------------------------------------------------------------------------


def _log_space_rounding(s):
    """Relative error bound of chi or gamma at s, each exp of a log-space sum
    whose rounding grows like |s| log |s|: 8 u (|s| + 1) log(|s| + 3), u = 2^-53."""
    return 8.0 * 2.0**-53 * (np.abs(s) + 1.0) * np.log(np.abs(s) + 3.0)


def _log_chi_sin(z: np.ndarray) -> np.ndarray:
    """log chi at 1-d z from 2^s pi^{s-1} sin(pi s/2) Gamma(1-s)."""
    return (z * math.log(2.0) + (z - 1.0) * math.log(math.pi)
            + _log_sin_pi(z / 2.0) + lgamma(1.0 - z))


def _log_chi_cos(z: np.ndarray) -> np.ndarray:
    """log chi at 1-d z from 2^{s-1} pi^s / (cos(pi s/2) Gamma(s)), with
    cos(pi s/2) = sin(pi (1-s)/2)."""
    return ((z - 1.0) * math.log(2.0) + z * math.log(math.pi)
            - _log_sin_pi((1.0 - z) / 2.0) - lgamma(z))


def log_chi(s):
    """log chi(s) with chi(s) = 2^s pi^{s-1} sin(pi s/2) Gamma(1-s), for a
    complex s or an array of them (then an array of the same shape).

    Assembled in log space so |Im s| up to several thousand cannot overflow.
    Near even integers >= 2 the sin zero cancels the Gamma pole; there the
    equivalent form chi(s) = 2^{s-1} pi^s / (cos(pi s/2) Gamma(s)) is used.
    Each element takes its own form; PoleError if any element is within
    1e-12 of a pole at an odd integer >= 1.
    """
    arr = np.asarray(s, dtype=complex)
    flat = arr.ravel()
    near = np.round(flat.real)
    dist = np.hypot(flat.real - near, flat.imag)
    even = dist < 0.25
    if even.any():
        poles = (dist < 1e-12) & (near >= 1) & (near % 2 == 1)
        if poles.any():
            raise PoleError(f"chi has a pole at s = {int(near[poles][0])}")
        even &= (near >= 2) & (near % 2 == 0)
    if not even.any():
        out = _log_chi_sin(flat)
    else:
        out = np.empty_like(flat)
        out[even] = _log_chi_cos(flat[even])
        out[~even] = _log_chi_sin(flat[~even])
    return complex(out[0]) if not arr.shape else out.reshape(arr.shape)


def chi(s):
    """chi(s) = 2^s pi^{s-1} sin(pi s/2) Gamma(1-s); satisfies chi(s)chi(1-s) = 1.

    s is a complex or an array of them (then an array of the same shape).
    Real at real s: the imaginary part that log space leaves there is
    dropped; exactly 0 at the trivial zeros s = 0, -2, -4, ...
    """
    arr = np.asarray(s, dtype=complex)
    flat = arr.ravel()
    real = flat.imag == 0.0
    zeros = real & (flat.real <= 0.0) & (flat.real % 2 == 0) if real.any() else real
    if zeros.any():
        out = np.zeros_like(flat)
        out[~zeros] = np.exp(log_chi(flat[~zeros]))
    else:
        out = np.exp(log_chi(flat))
    out.imag[real] = 0.0
    return complex(out[0]) if not arr.shape else out.reshape(arr.shape)


# ---------------------------------------------------------------------------
# Dirichlet-type kernel B_N(alpha) = sum_{1<=n<=N} e^{2 pi i n alpha}.
# ---------------------------------------------------------------------------


def kernel_index(t: float) -> int:
    """N = floor(sqrt(t / 2 pi)); requires t >= 2 pi so that N >= 1, and
    t <= 1e6 (desk scale) so that the sums over n <= N stay small."""
    if t < _TWO_PI:
        raise DomainError("t too small: kernel order would be zero")
    if not t <= 1e6:
        raise DomainError("t above 1e6 (desk scale): kernel order too large")
    return int(math.floor(math.sqrt(t / _TWO_PI)))


def _zeta1_cycles(t: float):
    """Local cycles per unit alpha of zeta1(sigma + it, alpha), as a function
    of alpha: the log-phase t / (2 pi (1 + alpha)) of its first term, the
    content sqrt(t / 2 pi) of its Dirichlet kernel, plus one."""
    t = abs(t)
    n_kernel = math.sqrt(max(t, 1.0) / _TWO_PI)
    return lambda a: t / (_TWO_PI * (1.0 + a)) + n_kernel + 1.0


def _half_turns(x: np.ndarray) -> np.ndarray:
    """x reduced by a multiple of 2 into [-1, 1]; exact, and unlike np.mod
    it keeps a tiny negative x as it is."""
    return x - 2.0 * np.round(x / 2.0)


def dirichlet_kernel(N: int, alpha):
    """Closed form of B_N; the limit N only where sin(pi alpha) is exactly 0.

    B_N has period 1, so alpha is first reduced to d = alpha - round(alpha),
    exactly; the sine and phase arguments N d and (N+1) d are then reduced
    by whole periods before multiplication by pi.  The absolute error stays
    near machine precision times N, also within 1e-12 of an integer.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    a = np.asarray(alpha, dtype=float)
    scalar = a.ndim == 0
    a = np.atleast_1d(a)
    d = a - np.round(a)
    sd = np.sin(math.pi * d)
    zero = sd == 0.0
    safe = np.where(zero, 1.0, sd)
    val = (
        np.exp(1j * math.pi * _half_turns((N + 1) * d))
        * np.sin(math.pi * _half_turns(N * d))
        / safe
    )
    val = np.where(zero, complex(N), val)
    return complex(val[0]) if scalar else val


# ---------------------------------------------------------------------------
# Beta-type integral and the Fourier coefficients a_n(s).
# ---------------------------------------------------------------------------


def beta_integral(u, v) -> complex:
    """int_0^inf beta^{-v} (1+beta)^{-u} d(beta) = Gamma(1-v)Gamma(u+v-1)/Gamma(u)."""
    u = complex(u)
    v = complex(v)
    if not (v.real < 1.0 and (u + v).real > 1.0):
        raise DomainError("requires Re v < 1 and Re(u+v) > 1")
    return complex(np.exp(lgamma(1.0 - v) + lgamma(u + v - 1.0) - lgamma(u)))


def _norm_upper_gamma_cf(a, x, exp_neg_x) -> np.ndarray:
    """x^{-a} Gamma(a, x) by the continued fraction of DLMF 8.9.2, reliable
    for |x| >~ |a|, at a, x and exp_neg_x broadcast and flattened to 1-d.

    A masked modified-Lentz iteration: each element runs until its own step
    delta is within 1e-16 of 1, keeps the value of that step and leaves the
    live set.  Its arithmetic is numpy's complex ufuncs on 1-d arrays, so an
    element's value does not depend on the others (see the module docstring)."""
    a, x, enx = (np.ravel(v) for v in np.broadcast_arrays(
        *(np.asarray(v, dtype=complex) for v in (a, x, exp_neg_x))))
    tiny = 1e-290
    b = x + 1.0 - a
    c = np.full(b.shape, 1.0 / tiny, dtype=complex)
    d = 1.0 / np.where(b == 0, tiny, b)
    h = d
    out = np.empty(b.size, dtype=complex)
    live = np.arange(b.size)
    for i in range(1, 4000):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d[d == 0] = tiny
        c = b + an / c
        c[c == 0] = tiny
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < 1e-16
        if done.any():
            out[live[done]] = enx[done] * h[done]
            more = ~done
            if not more.any():
                return out
            live, a, enx, b, c, d, h = (v[more] for v in (live, a, enx, b, c, d, h))
    raise ConvergenceError("incomplete-gamma continued fraction stalled")


def _lower_series_sum(a: complex, x: complex) -> complex:
    """sum_k x^k / (a (a+1) ... (a+k)), so gamma(a,x) = x^a e^{-x} * sum."""
    term = 1.0 / a
    total = term
    for k in range(1, 4000):
        term *= x / (a + k)
        total += term
        if abs(term) < 1e-17 * abs(total):
            return total
    raise ConvergenceError("incomplete-gamma series stalled")


def _norm_upper_gamma_series(a: complex, x: complex, enx: complex) -> complex:
    """x^{-a} Gamma(a, x) at one element off the continued fraction's
    region, from the power series of gamma(a, x) (see _norm_upper_gamma)."""
    logx = complex(np.log(x))
    if a.real >= 0.5:
        return complex(np.exp(lgamma(a) - a * logx)) - enx * _lower_series_sum(a, x)
    # shift a into the series region, recur downward on H_j = x^{-a} Gamma(a+j, x)
    m = int(math.ceil(0.5 - a.real)) + 1
    top = a + m
    h = complex(np.exp(lgamma(top) - a * logx)) - enx * complex(np.exp(m * logx)) * _lower_series_sum(top, x)
    for j in range(m - 1, -1, -1):
        aj = a + j
        if aj == 0:
            h = complex(np.exp(j * logx)) * complex(_norm_upper_gamma_cf(0.0, x, enx)[0])
            continue
        h = (h - complex(np.exp(j * logx)) * enx) / aj
    return h


def _norm_upper_gamma(a, x, exp_neg_x=None):
    """x^{-a} Gamma(a, x) for complex a and x off the negative real axis,
    broadcast against each other: a complex for scalars, else an array.

    The normalised form keeps every intermediate representable even when
    Gamma(a, x) itself overflows (large |Im a| with x on the imaginary
    axis).  exp_neg_x may supply an exact value of e^{-x} when the caller
    knows one (e.g. exactly 1.0 at x = 2 pi i n).

    The continued fraction runs from |x| >= |a| + 6, and for Re a < 0.5
    already from |x| >= |Im a| + 6, for all such elements in one
    _norm_upper_gamma_cf call; the power series of gamma(a, x) takes the
    rest, element by element.  Beyond |a| + 6 the series cancels
    catastrophically at large |Im a|: with the switch at 1.3 (|a| + 6),
    a_n(1/2 + 400i) at n = -84 lost all its digits.  At Re a < 0.5 the
    series is shifted to a + m and recurred down, which loses every digit
    once |x| is well above |Im a|: a_4(20 + 3i) was off by 82 relative.
    """
    a_arr, x_arr = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(x, dtype=complex))
    shape = a_arr.shape
    a_arr, x_arr = a_arr.ravel(), x_arr.ravel()
    if (x_arr == 0).any():
        raise DomainError("x must be nonzero")
    enx = np.exp(-x_arr) if exp_neg_x is None else np.broadcast_to(
        np.asarray(exp_neg_x, dtype=complex), shape).ravel()
    size_x = np.hypot(x_arr.real, x_arr.imag)
    cf = ((size_x >= np.hypot(a_arr.real, a_arr.imag) + 6.0)
          | ((a_arr.real < 0.5) & (size_x >= np.abs(a_arr.imag) + 6.0)))
    out = np.empty(a_arr.size, dtype=complex)
    if cf.any():
        out[cf] = _norm_upper_gamma_cf(a_arr[cf], x_arr[cf], enx[cf])
    for k in np.flatnonzero(~cf):
        out[k] = _norm_upper_gamma_series(complex(a_arr[k]), complex(x_arr[k]), complex(enx[k]))
    return complex(out[0]) if not shape else out.reshape(shape)


def osc_power_tail(s, m, a0: float):
    """int_{a0}^inf x^{-s} e^{2 pi i m x} dx via the incomplete Gamma
    function, for nonzero integers m: s and m broadcast against each other,
    a complex for scalars, else an array.  One product on 1-d arrays, a
    scalar call on 1-element ones (see the module docstring).

    Principal branch: the power prefactor uses arg(-2 pi i m) = -sign(m) pi/2.
    """
    s_arr, m_arr = np.broadcast_arrays(np.asarray(s, dtype=complex), np.asarray(m))
    if (m_arr == 0).any():
        raise DomainError("m must be nonzero")
    if a0 <= 0:
        raise DomainError("a0 must be positive")
    a = 1.0 - s_arr.ravel()
    # the integral is int x^{-s} e^{-w x} dx with w = -2 pi i m; w a0 has
    # the +0 real part of Python's -2j * pi * m * a0
    x = np.empty(a.size, dtype=complex)
    x.real = 0.0
    x.imag = -_TWO_PI * m_arr.ravel() * a0
    value = np.exp(a * math.log(a0)) * _norm_upper_gamma(a, x)
    return complex(value[0]) if not s_arr.shape else value.reshape(s_arr.shape)


# ---------------------------------------------------------------------------
# Closed-form power tails of zeta1 and of its products.
#
# Past a moderate abscissa A, zeta1(u, a) is replaced by its large-a
# expansion in pure powers of a (DLMF 25.11.43), with a bound on the omitted
# part.  A power integrates against e^{-2 pi i n a} in closed form
# (incomplete Gamma, or a plain power at n = 0) and sums over a + k, k >= 0,
# as a Hurwitz zeta value, so neither quadrature nor a direct sum runs where
# the expansion holds.
# ---------------------------------------------------------------------------


def _zeta1_powers(u: complex, A: float):
    """zeta1(u, a) for a >= A as ({power: coef}, (bound, exponent)):
    DLMF 25.11.43 after _EM_PAIRS Bernoulli pairs, i.e. the Euler-Maclaurin
    expansion of zeta_H(u, a) with no direct terms, less its n = 0 term,

        a^{1-u}/(u-1) - a^{-u}/2 + sum_j B_2j/(2j)! (u)_{2j-1} a^{1-u-2j},

    the two leading powers first, the rest from _em_coeffs.  The omitted
    part is at most bound (a/A)^exponent on [A, inf): the first omitted term
    at A times the _em_coeffs ratio that bounds the rest.  PoleError at u = 1.
    """
    if u == 1.0:
        raise PoleError("zeta1 pole at u = 1")
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs, ratio = _em_coeffs(u)
    powers = {1.0 - u: 1.0 / (u - 1.0), -u: -0.5 + 0j}
    powers.update((1.0 - u - 2 * j, complex(coeffs[j - 1, 0])) for j in range(1, _EM_PAIRS + 1))
    power = -u.real - 2 * _EM_PAIRS - 1
    return powers, (float(abs(coeffs[_EM_PAIRS, 0]) * ratio) * A**power, power)


def _product_powers(w: complex, factors, A: float):
    """a^{-w} prod_j zeta1(u_j, a) for a >= A as ({power: coef}, rem),
    factors being the _zeta1_powers(u_j, A) of its zeta1 factors.

    The factors' power dicts are multiplied, equal powers merged, and
    coefficients below 1e-13 of the largest product merged into them
    dropped as cancelled.  Each factor is its truncated sum P_j, at most
    |P_j(A)| (a/A)^{max power}, plus a remainder R_j bounded the same way;
    rem integrates over [A, inf) the bound this gives on
    prod (P_j + R_j) - prod P_j, one power per nonempty set of R factors.
    """
    keys, coefs, sizes = np.array([-w]), np.array([1.0 + 0j]), np.array([1.0])
    bounds = []
    for powers, rem_bound in factors:
        q = np.array(list(powers))
        c = np.array(list(powers.values()))
        bounds.append(((np.abs(c) * A**q.real).sum(), q.real.max(), rem_bound))
        keys, where = np.unique((keys[:, None] + q).ravel(), return_inverse=True)
        terms, contributions = (coefs[:, None] * c).ravel(), (sizes[:, None] * np.abs(c)).ravel()
        coefs, sizes = np.zeros(keys.size, dtype=complex), np.zeros(keys.size)
        np.add.at(coefs, where, terms)
        np.maximum.at(sizes, where, contributions)
    kept = np.abs(coefs) > 1e-13 * sizes
    rem = 0.0
    for picks in itertools.product((False, True), repeat=len(bounds)):
        size, power = A**-w.real, -w.real
        for (value, value_power, (r, r_power)), pick in zip(bounds, picks):
            size *= r if pick else value
            power += r_power if pick else value_power
        if any(picks):
            rem += size * A / (-power - 1.0) if power < -1.0 else math.inf
    return dict(zip(keys[kept].tolist(), coefs[kept].tolist())), rem


def _closed_power_tail(powers: dict, n, A: float):
    """sum_q c_q int_A^inf a^q e^{-2 pi i n a} da in closed form, and a bound
    (terms + 4) 2^-53 sum |term| on the rounding of that sum (not of the
    incomplete-Gamma values themselves).  n is an integer or an array of
    them: (complex, float) for a scalar, else two arrays.  Every n != 0 takes
    its terms from one osc_power_tail call, and each n sums its terms in
    the order of powers, row by row, so a single n gets the bits it has
    among many (see the module docstring)."""
    ns = np.asarray(n)
    flat = ns.ravel()
    qs = np.array(list(powers), dtype=complex)
    coefs = list(powers.values())
    total, size = np.zeros(flat.size, dtype=complex), np.zeros(flat.size)
    zero = flat == 0
    if zero.any():
        for q in powers:
            if q.real >= -1.0:
                raise DivergenceError(f"tail carries the non-integrable power {q} at n = 0")
        total0, size0 = 0j, 0.0
        for q, c in powers.items():
            term = -c * A ** (q + 1.0) / (q + 1.0)
            total0 += term
            size0 += abs(term)
        total[zero], size[zero] = total0, size0
    if not zero.all():
        coefs = np.reshape(coefs, (-1, 1))
        tails = osc_power_tail(-qs[:, None], -flat[~zero], A)
        terms = coefs * tails
        # summed row by row, one power after another, as at n = 0
        total[~zero], size[~zero] = sum(terms), sum(np.abs(terms))
    rounding = (len(powers) + 4) * 2.0**-53 * size
    if not ns.shape:
        return complex(total[0]), float(rounding[0])
    return total.reshape(ns.shape), rounding.reshape(ns.shape)


def _tail_abscissa(big_w: float, big: float) -> float:
    """First abscissa of a power expansion with zeta1 exponents up to big_w
    and powers up to big in modulus; 0.8 big_w keeps the Euler-Maclaurin
    correction ratio near 1/25 per pair."""
    return max(6.0, 0.8 * big_w, (big + 12.0) / 3.0)


def _certified_powers(expand, A: float, abs_tol: float):
    """expand(A) -> [(powers, rem), ...], one expansion per integrand, A
    moving out by 1.6x until every rem <= abs_tol (a remainder only shrinks
    as A grows); returns (that list, A)."""
    for _ in range(4):
        expansions = expand(A)
        if all(rem <= abs_tol for _, rem in expansions):
            return expansions, A
        A *= 1.6
    raise ConvergenceError("power expansion of the tail failed to certify")


def fourier_coeff_a(n, s):
    """Fourier coefficient a_n(s) of zeta1(s, .) on the unit interval, for
    integers n and complex s broadcast against each other: a complex for
    scalars, else an array.

    a_0(s) = 1/(s-1); for n != 0, a_n(s) = int_1^inf x^{-s} e^{-2 pi i n x} dx,
    continued past Re s <= 1 through the incomplete-Gamma representation
    (equivalently, repeated integration by parts).  The power prefactor uses
    arg(2 pi i n) = sign(n) pi/2; with w = 2 pi i n the whole coefficient is
    the normalised quantity w^{-(1-s)} Gamma(1-s, w), and e^{-w} = 1 exactly.
    Every n != 0 goes to one _norm_upper_gamma call, and a_0 is taken on
    the array too, so a scalar call is a 1-element one (see the module
    docstring).
    """
    n_arr, s_arr = np.broadcast_arrays(np.asarray(n), np.asarray(s, dtype=complex))
    shape = n_arr.shape
    n_arr, s_arr = n_arr.ravel(), s_arr.ravel()
    zero = n_arr == 0
    if (s_arr[zero] == 1.0).any():
        raise PoleError("a_0 pole at s = 1")
    if (s_arr.real[~zero] <= -1.0).any():
        raise DomainError("a_n requires Re s > -1 for n != 0")
    out = np.empty(n_arr.size, dtype=complex)
    out[zero] = 1.0 / (s_arr[zero] - 1.0)
    on = ~zero
    if on.any():
        # w = 2 pi i n, with the signed zero real part of Python's 2j * pi * n
        w = np.empty(np.count_nonzero(on), dtype=complex)
        w.real = 0.0 * n_arr[on]
        w.imag = _TWO_PI * n_arr[on]
        out[on] = _norm_upper_gamma(1.0 - s_arr[on], w, exp_neg_x=1.0)
    return complex(out[0]) if not shape else out.reshape(shape)
