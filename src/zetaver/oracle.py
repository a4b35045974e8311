"""Extended-precision oracle tier (>= 100 significand bits, via mpmath).

Used to cross-check the double-precision pipeline: same quantities, fully
independent evaluation route.  Precision is set per call and restored.
"""

from __future__ import annotations

import contextlib

import mpmath as mp

from .errors import DomainError

DEFAULT_PREC_BITS = 120

# mp.zeta(s, a) grows in time and memory with a: at 120 bits and
# s = 1.3 + 2i one call takes about 30 ms at a = 1e4, over a second and
# 80 MB at a = 1e6, and several GB at a = 1e8.  Larger shifts raise
# DomainError before mpmath is called.
_MAX_ALPHA = 1e4


@contextlib.contextmanager
def _precision(prec_bits: int):
    old = mp.mp.prec
    mp.mp.prec = prec_bits
    try:
        yield
    finally:
        mp.mp.prec = old


def gamma(z: complex, prec_bits: int = DEFAULT_PREC_BITS) -> complex:
    with _precision(prec_bits):
        return complex(mp.gamma(mp.mpc(z)))


def lgamma(z: complex, prec_bits: int = DEFAULT_PREC_BITS) -> complex:
    with _precision(prec_bits):
        return complex(mp.loggamma(mp.mpc(z)))


def riemann_zeta(s: complex, prec_bits: int = DEFAULT_PREC_BITS) -> complex:
    with _precision(prec_bits):
        return complex(mp.zeta(mp.mpc(s)))


def _check_alpha(alpha: float) -> None:
    if not alpha <= _MAX_ALPHA:
        raise DomainError(f"oracle shift alpha={alpha} exceeds {_MAX_ALPHA:g}")


def hurwitz_zeta1(s: complex, alpha: float, prec_bits: int = DEFAULT_PREC_BITS) -> complex:
    _check_alpha(alpha)
    with _precision(prec_bits):
        return complex(mp.zeta(mp.mpc(s), 1 + mp.mpf(alpha)))


def hurwitz_zeta(s: complex, alpha: float, prec_bits: int = DEFAULT_PREC_BITS) -> complex:
    _check_alpha(alpha)
    with _precision(prec_bits):
        return complex(mp.zeta(mp.mpc(s), mp.mpf(alpha)))


def chi(s: complex, prec_bits: int = DEFAULT_PREC_BITS) -> complex:
    with _precision(prec_bits):
        sm = mp.mpc(s)
        return complex(2**sm * mp.pi ** (sm - 1) * mp.sin(mp.pi * sm / 2) * mp.gamma(1 - sm))


def fourier_coeff_a(n: int, s: complex, prec_bits: int = DEFAULT_PREC_BITS) -> complex:
    with _precision(prec_bits):
        if n == 0:
            return complex(1 / (mp.mpc(s) - 1))
        sm = mp.mpc(s)
        w = 2j * mp.pi * n
        return complex(mp.gammainc(1 - sm, w) * w ** (sm - 1))


def unit_interval_quad(f, prec_bits: int = DEFAULT_PREC_BITS, points=None) -> complex:
    """High-precision quadrature of f over [0, 1] (f receives mpmath types)."""
    with _precision(prec_bits):
        pts = points if points is not None else [0, 1]
        return complex(mp.quad(f, pts))
