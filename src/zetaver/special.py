"""Base special functions: Gamma, Riemann/Hurwitz zeta, the chi factor,
the Dirichlet-type kernel B_N, Bernoulli numbers, the Beta-type integral
and the Fourier coefficients a_n of the shifted zeta on the unit interval.

Everything is evaluated in double precision with an Euler-Maclaurin
continuation for the zeta-type series.  Functions accept numpy arrays for
the argument over which the surrounding quadrature code vectorises.
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
    "dirichlet_kernel_direct",
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


def _lanczos_core(z: np.ndarray) -> np.ndarray:
    # valid for Re z >= 0.5
    x = z - 1.0
    acc = np.full_like(x, _LANCZOS_C[0])
    for k in range(1, len(_LANCZOS_C)):
        acc = acc + _LANCZOS_C[k] / (x + k)
    tt = x + _LANCZOS_G + 0.5
    return (x + 0.5) * np.log(tt) - tt + 0.5 * _LOG_2PI + np.log(acc)


def lgamma(z):
    """log Gamma(z) for complex z (principal value up to multiples of 2*pi*i).

    Raises PoleError at non-positive integers.
    """
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(_is_nonpositive_integer(arr)):
        raise PoleError("lgamma pole at non-positive integer")
    out = np.empty_like(arr)
    main = np.real(arr) >= 0.5
    if np.any(main):
        out[main] = _lanczos_core(arr[main])
    if np.any(~main):
        zr = arr[~main]
        out[~main] = math.log(math.pi) - _log_sin_pi(zr) - _lanczos_core(1.0 - zr)
    return out[0] if scalar else out


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
def _b2j_over_factorial(j: int) -> float:
    # B_{2j} / (2j)!  computed exactly, then rounded once
    return float(_bernoulli_fraction(2 * j) / Fraction(math.factorial(2 * j)))


@lru_cache(maxsize=None)
def _bernoulli_tail_weights(j_max: int) -> np.ndarray:
    # B_2j / (2j)! for j = 1..j_max+1
    return np.array([_b2j_over_factorial(j) for j in range(1, j_max + 2)])


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


def _neg_power(x, log_x, sigma, t):
    """x^-(sigma + i t) for x > 0 as (c, d) with x^-s = c - i d, i.e.
    x^-sigma times (cos, sin)(t log x); d is None when t is all zero.

    The real power is exact for integer x and sigma, where exp(-s log x)
    is not, and two real trigonometric ufuncs are faster than one complex
    exp.
    """
    power = np.power(x, -sigma)
    if not t.any():
        return power, None
    phase = t * log_x
    return power * np.cos(phase), power * np.sin(phase)


def _em_hurwitz(s, a):
    """zeta_H(s, a) for complex s != 1 and real a > 0, broadcast against
    each other (scalars or arrays).

    Returns (value, error_bound): value has the broadcast shape (a complex
    when both are scalars) and the bound is the largest over its elements.
    The number of direct terms grows like 2 max|Im s|/pi from the smallest
    shift, so the Bernoulli tail converges geometrically with ratio about
    1/16 per correction pair.  A bound that is not finite (|s| above about
    1e18) raises DomainError.
    """
    s_arr = np.asarray(s, dtype=complex)
    a_arr = np.asarray(a, dtype=float)
    if (s_arr == 1.0).any():
        raise PoleError("zeta pole at s = 1")
    if (a_arr <= 0.0).any():
        raise DomainError("shift must be positive")
    j_max = _EM_PAIRS
    sig_min = float(s_arr.real.min())
    if sig_min + 2 * j_max + 1 <= 1.0:
        raise DomainError(f"Re s = {sig_min} too small for {j_max} Bernoulli pairs")
    target = max(float(_EM_FLOOR), 2.0 * float(abs(s_arr.imag).max()) / math.pi)
    n0 = max(int(math.ceil(target - float(a_arr.min()))) + 1, 1)
    if n0 > _EM_MAX_TERMS:
        raise ConvergenceError(f"Euler-Maclaurin base sum exceeds {_EM_MAX_TERMS} terms")

    # An argument with one value stays a scalar; arrays are flattened
    # against each other.
    shape = np.broadcast(s_arr, a_arr).shape
    many_s, many_a = s_arr.size > 1, a_arr.size > 1
    if many_s and many_a:
        s_arr, a_arr = np.broadcast_arrays(s_arr, a_arr)
    s = s_arr.ravel() if many_s else s_arr.flat[0]
    a = a_arr.ravel() if many_a else a_arr.flat[0]
    size = max(s_arr.size, a_arr.size)

    ks = np.arange(n0, dtype=float)
    if not many_a:  # x and log x are shared by every column
        x = (ks + a)[:, None]
        log_x = np.log(x)
    # Column blocks bound the memory.  A column sum of an n0 x w block runs
    # row by row for w >= 2 but pairwise for w = 1, so no block is one
    # column wide unless the output is: every column sums as in one matrix.
    cols = max(2, _EM_BLOCK_TERMS // n0)
    edges = list(range(0, size, cols)) + [size]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    base = np.empty(size, dtype=complex)
    for lo, hi in zip(edges[:-1], edges[1:]):
        if many_a:
            x = ks[:, None] + a[None, lo:hi]
            log_x = np.log(x)
        s_cols = s[None, lo:hi] if many_s else s
        c, d = _neg_power(x, log_x, s_cols.real, s_cols.imag)
        base.real[lo:hi] = c.sum(axis=0)
        base.imag[lo:hi] = 0.0 if d is None else -d.sum(axis=0)

    # Tail x^-s [x/(s-1) + 1/2 + sum_j B_2j/(2j)! (s)_{2j-1} x^(1-2j)] at
    # x = n0 + a, j = 1..J; row j-1 of coeffs is the j-th coefficient, and
    # row J that of the first omitted term.
    # the Pochhammer symbols overflow for |s| above about 1e18
    with np.errstate(over="ignore", invalid="ignore"):
        poch = np.cumprod(np.arange(2.0 * j_max + 1)[:, None] + np.reshape(s, (1, -1)), axis=0)
        coeffs = _bernoulli_tail_weights(j_max)[:, None] * poch[::2]
        x = n0 + a
        inv = 1.0 / x
        inv2 = inv * inv
        poly = (coeffs[:j_max] * inv2 ** np.arange(j_max)[:, None]).sum(axis=0)
        c, d = _neg_power(x, np.log(x), s.real, s.imag)
        xs = c if d is None else c - 1j * d
        value = base + xs * (x / (s - 1.0) + 0.5 + inv * poly)
        # the first omitted term, times the ratio that bounds the rest
        fac = (abs(s) + 2 * j_max + 1) / (s.real + 2 * j_max + 1)
        err = float((abs(coeffs[j_max]) * abs(xs) * inv * inv2**j_max * fac).max())
    if not math.isfinite(err):
        raise DomainError(f"|s| = {float(np.abs(s).max()):.3g} too large for the "
                          f"Euler-Maclaurin bound")

    if not shape:
        return complex(value[0]), err
    return value.reshape(shape), err


def riemann_zeta(s):
    """Riemann zeta(s), continued by Euler-Maclaurin.  PoleError at s = 1.

    s may be a numpy array; the result then has the same shape.
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
    if np.any(alpha_arr < 0.0):
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


def log_chi(s) -> complex:
    """log chi(s) with chi(s) = 2^s pi^{s-1} sin(pi s/2) Gamma(1-s).

    Assembled in log space so |Im s| up to several thousand cannot overflow.
    Near even integers >= 2 the sin zero cancels the Gamma pole; there the
    equivalent form chi(s) = 2^{s-1} pi^s / (cos(pi s/2) Gamma(s)) is used.
    """
    s = complex(s)
    near = round(s.real)
    dist = abs(s - near)
    if dist < 1e-12 and near >= 1 and near % 2 == 1:
        raise PoleError(f"chi has a pole at s = {near}")
    if dist < 0.25 and near >= 2 and near % 2 == 0:
        # cos(pi s/2) = sin(pi (1-s)/2)
        return (
            (s - 1.0) * math.log(2.0)
            + s * math.log(math.pi)
            - complex(_log_sin_pi((1.0 - s) / 2.0))
            - complex(lgamma(s))
        )
    return (
        s * math.log(2.0)
        + (s - 1.0) * math.log(math.pi)
        + complex(_log_sin_pi(s / 2.0))
        + complex(lgamma(1.0 - s))
    )


def chi(s) -> complex:
    """chi(s) = 2^s pi^{s-1} sin(pi s/2) Gamma(1-s); satisfies chi(s)chi(1-s) = 1."""
    s = complex(s)
    if s.imag == 0.0 and s.real == math.floor(s.real):
        n = int(s.real)
        if n <= 0 and n % 2 == 0:
            return 0j  # trivial zeros of the factor
    return complex(np.exp(log_chi(s)))


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


def dirichlet_kernel_direct(N: int, alpha: float) -> complex:
    """Direct compensated summation of the kernel (reference route)."""
    if N < 1:
        raise DomainError("N must be >= 1")
    n = np.arange(1, N + 1, dtype=float)
    return _csum(np.exp(2j * math.pi * n * float(alpha)))


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


def _norm_upper_gamma_cf(a: complex, x: complex, exp_neg_x: complex, max_iter: int = 4000) -> complex:
    """x^{-a} Gamma(a, x) by continued fraction; reliable for |x| >~ |a|."""
    tiny = 1e-290
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / (b if b != 0 else tiny)
    h = d
    for i in range(1, max_iter):
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
    raise ConvergenceError("incomplete-gamma continued fraction stalled")


def _lower_series_sum(a: complex, x: complex, max_iter: int = 4000) -> complex:
    """sum_k x^k / (a (a+1) ... (a+k)), so gamma(a,x) = x^a e^{-x} * sum."""
    term = 1.0 / a
    total = term
    for k in range(1, max_iter):
        term *= x / (a + k)
        total += term
        if abs(term) < 1e-17 * abs(total):
            return total
    raise ConvergenceError("incomplete-gamma series stalled")


def _norm_upper_gamma(a: complex, x: complex, exp_neg_x: complex | None = None) -> complex:
    """x^{-a} Gamma(a, x) for complex a and x off the negative real axis.

    The normalised form keeps every intermediate representable even when
    Gamma(a, x) itself overflows (large |Im a| with x on the imaginary
    axis).  exp_neg_x may supply an exact value of e^{-x} when the caller
    knows one (e.g. exactly 1.0 at x = 2 pi i n).
    """
    a = complex(a)
    x = complex(x)
    if x == 0:
        raise DomainError("x must be nonzero")
    enx = complex(np.exp(-x)) if exp_neg_x is None else complex(exp_neg_x)
    if abs(x) >= 1.3 * (abs(a) + 6.0):
        return _norm_upper_gamma_cf(a, x, enx)
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
            h = complex(np.exp(j * logx)) * _norm_upper_gamma_cf(0.0, x, enx)
            continue
        h = (h - complex(np.exp(j * logx)) * enx) / aj
    return h


def osc_power_tail(s: complex, m: int, a0: float) -> complex:
    """int_{a0}^inf x^{-s} e^{2 pi i m x} dx via the incomplete Gamma function.

    Principal branch: the power prefactor uses arg(-2 pi i m) = -sign(m) pi/2.
    """
    if m == 0:
        raise DomainError("m must be nonzero")
    if a0 <= 0:
        raise DomainError("a0 must be positive")
    s = complex(s)
    w = -2j * math.pi * m  # integral is int x^{-s} e^{-w x} dx
    return complex(np.exp((1.0 - s) * math.log(a0)) * _norm_upper_gamma(1.0 - s, w * a0))


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

    the two leading powers first.  The omitted part is at most
    bound (a/A)^exponent on [A, inf): the first omitted term at A times the
    _em_hurwitz ratio that bounds the rest.  PoleError at u = 1.
    """
    if u == 1.0:
        raise PoleError("zeta1 pole at u = 1")
    if u.real + 2 * _EM_PAIRS + 1 <= 1.0:
        raise DomainError(f"Re u = {u.real} too small for {_EM_PAIRS} Bernoulli pairs")
    powers = {1.0 - u: 1.0 / (u - 1.0), -u: -0.5 + 0j}
    poch = u
    for j in range(1, _EM_PAIRS + 1):
        if j > 1:
            poch = poch * (u + 2 * j - 3) * (u + 2 * j - 2)
        powers[1.0 - u - 2 * j] = _b2j_over_factorial(j) * poch
    poch = poch * (u + 2 * _EM_PAIRS - 1) * (u + 2 * _EM_PAIRS)
    power = -u.real - 2 * _EM_PAIRS - 1
    ratio = (abs(u) + 2 * _EM_PAIRS + 1) / (u.real + 2 * _EM_PAIRS + 1)
    return powers, (abs(_b2j_over_factorial(_EM_PAIRS + 1) * poch) * ratio * A**power, power)


def _product_powers(w: complex, us, A: float):
    """a^{-w} prod_j zeta1(u_j, a) for a >= A as ({power: coef}, rem).

    The factors' power dicts of _zeta1_powers are multiplied, equal powers
    merged, and coefficients below 1e-13 of the largest product merged into
    them dropped as cancelled.  Each factor is its truncated sum P_j, at
    most |P_j(A)| (a/A)^{max power}, plus a remainder R_j bounded the same
    way; rem integrates over [A, inf) the bound this gives on
    prod (P_j + R_j) - prod P_j, one power per nonempty set of R factors.
    """
    keys, coefs, sizes = np.array([-w]), np.array([1.0 + 0j]), np.array([1.0])
    bounds = []
    for u in us:
        powers, rem_bound = _zeta1_powers(u, A)
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


def _closed_power_tail(powers: dict, n: int, A: float) -> tuple[complex, float]:
    """sum_q c_q int_A^inf a^q e^{-2 pi i n a} da in closed form, and a bound
    (terms + 4) 2^-53 sum |term| on the rounding of that sum (not of the
    incomplete-Gamma values themselves)."""
    total, size = 0j, 0.0
    for q, c in powers.items():
        if n == 0:
            if q.real >= -1.0:
                raise DivergenceError(f"tail carries the non-integrable power {q} at n = 0")
            term = -c * A ** (q + 1.0) / (q + 1.0)
        else:
            term = c * osc_power_tail(-q, -n, A)
        total += term
        size += abs(term)
    return complex(total), (len(powers) + 4) * 2.0**-53 * size


def _tail_abscissa(big_w: float, big: float) -> float:
    """First abscissa of a power expansion with zeta1 exponents up to big_w
    and powers up to big in modulus; 0.8 big_w keeps the Euler-Maclaurin
    correction ratio near 1/25 per pair."""
    return max(6.0, 0.8 * big_w, (big + 12.0) / 3.0)


def _certified_powers(expand, A: float, abs_tol: float):
    """expand(A) -> (powers, rem), A moving out by 1.6x until rem <= abs_tol;
    returns (powers, A, rem)."""
    for _ in range(4):
        powers, rem = expand(A)
        if rem <= abs_tol:
            return powers, A, rem
        A *= 1.6
    raise ConvergenceError("power expansion of the tail failed to certify")


def fourier_coeff_a(n: int, s) -> complex:
    """Fourier coefficient a_n(s) of zeta1(s, .) on the unit interval.

    a_0(s) = 1/(s-1); for n != 0, a_n(s) = int_1^inf x^{-s} e^{-2 pi i n x} dx,
    continued past Re s <= 1 through the incomplete-Gamma representation
    (equivalently, repeated integration by parts).  The power prefactor uses
    arg(2 pi i n) = sign(n) pi/2; with w = 2 pi i n the whole coefficient is
    the normalised quantity w^{-(1-s)} Gamma(1-s, w), and e^{-w} = 1 exactly.
    """
    s = complex(s)
    if n == 0:
        if s == 1.0:
            raise PoleError("a_0 pole at s = 1")
        return 1.0 / (s - 1.0)
    if s.real <= -1.0:
        raise DomainError("a_n requires Re s > -1 for n != 0")
    w = 2j * math.pi * n
    return _norm_upper_gamma(1.0 - s, w, exp_neg_x=1.0)
