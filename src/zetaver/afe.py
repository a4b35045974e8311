"""Approximate functional equations and the kernel-projection machinery:
AFE residuals for zeta and zeta1, the B_N projection identities, the weak
integral form of the functional equation, the explicit kernel-sum integral,
power means I_k / J_k, the dominant exponential sum S_1, and the power-mean
bound harness of the k-th moment inequality.
"""

from __future__ import annotations

import math

import numpy as np

from . import identities
from .errors import DomainError
from .quadrature import QuadResult, integrate_finite
from .special import (
    _csum,
    _half_turns,
    _zeta1_cycles,
    chi,
    dirichlet_kernel,
    hurwitz_zeta1,
    kernel_index,
    riemann_zeta,
)

_2PI = 2.0 * math.pi

__all__ = [
    "afe_zeta_residual",
    "afe_hurwitz_residual",
    "projection_identity_check",
    "weak_afe_residual",
    "lemma3_integral",
    "power_mean_Ik",
    "power_mean_Jk",
    "s1_sum",
    "theorem1_check",
    "kernel_norm_power",
    "loglog_slope",
]


def _power_sum(N: int, z: complex) -> complex:
    n = np.arange(1, N + 1, dtype=float)
    return _csum(np.exp(z * np.log(n)))


def _twisted_power_sum(N: int, z: complex, alpha: float, sign: int) -> complex:
    n = np.arange(1, N + 1, dtype=float)
    return _csum(np.exp(z * np.log(n) + sign * 2j * math.pi * n * alpha))


def afe_zeta_residual(s: complex) -> identities.IdentityReport:
    """Residual of zeta(s) = sum_{n<=N} n^-s + chi(s) sum_{n<=N} n^{s-1},
    N = floor(sqrt(t/2pi)); params["scaled"] is it times t^{sigma/2}."""
    s = complex(s)
    sigma, t = s.real, s.imag
    if not (0.0 < sigma < 1.0 and t >= 10.0):
        raise DomainError("requires 0 < sigma < 1 and t >= 10")
    N = kernel_index(t)
    main = _power_sum(N, -s) + chi(s) * _power_sum(N, s - 1.0)
    resid = abs(riemann_zeta(s) - main)
    return identities.IdentityReport.bound(
        "afe_zeta", {"sigma": sigma, "t": t, "scaled": resid * t ** (sigma / 2.0)}, resid, resid)


def afe_hurwitz_residual(s: complex, alpha: float) -> identities.IdentityReport:
    """Residual of the shifted-series AFE with the twisted second sum,
    uniformly probed over 0 < alpha < 1; scaled by t^{sigma/2}."""
    s = complex(s)
    sigma, t = s.real, s.imag
    if not (0.0 < sigma < 1.0 and t >= 10.0):
        raise DomainError("requires 0 < sigma < 1 and t >= 10")
    if not 0.0 < alpha < 1.0:
        raise DomainError("requires 0 < alpha < 1")
    N = kernel_index(t)
    n = np.arange(1, N + 1, dtype=float)
    s1 = _csum(np.power(n + alpha, -s))
    s2 = _twisted_power_sum(N, s - 1.0, alpha, -1)
    resid = abs(hurwitz_zeta1(s, alpha) - s1 - chi(s) * s2)
    params = {"sigma": sigma, "t": t, "alpha": alpha, "scaled": resid * t ** (sigma / 2.0)}
    return identities.IdentityReport.bound("afe_hurwitz", params, resid, resid)


def projection_identity_check(
    z: complex,
    N: int,
    mirrored: bool = False,
) -> identities.IdentityReport:
    """Exact projection: sum_{n<=N} n^z (lhs) recovered by integrating the
    kernel against the twisted sum (rhs).  mirrored=True uses B_N(-alpha)
    with e^{+2pi i m a}.

    The twisted sum sum_{m<=N} m^z w^m, w = e^{-+2pi i a}, is taken by
    Horner's rule in w, one vector step per m, so an integrand call holds
    O(nodes) values and no nodes x N matrix."""
    if N < 1 or N > 1000:
        raise DomainError("N must be in [1, 1000] for the exact-mode check")
    z = complex(z)
    lhs = _power_sum(N, z)
    mz = np.exp(z * np.log(np.arange(1, N + 1, dtype=float)))
    sign = 1 if mirrored else -1

    def integrand(a: np.ndarray) -> np.ndarray:
        kern = dirichlet_kernel(N, -a) if mirrored else dirichlet_kernel(N, a)
        w = np.exp((sign * 2j * math.pi) * a)
        acc = np.full(a.size, mz[-1])
        for c in mz[-2::-1]:
            acc *= w
            acc += c
        return kern * (acc * w)

    res = integrate_finite(integrand, 0.0, 1.0, cycles=N,
                           abs_tol=max(1e-12, 1e-13 * max(abs(lhs), 1.0)),
                           rel_tol=1e-12)
    return identities.IdentityReport.build(
        "projection", {"N": N, "z": z, "mirrored": mirrored}, lhs, res.value)


def _weak_afe_integrals(s: complex):
    N = kernel_index(s.imag)
    z = _zeta1_cycles(s.imag)

    def cycles(a: float) -> float:  # B_N(+-a) times zeta1 or its partial sums
        return N + z(a)

    def f1(a: np.ndarray) -> np.ndarray:
        return dirichlet_kernel(N, a) * hurwitz_zeta1(s, a)

    def f2(a: np.ndarray) -> np.ndarray:
        return dirichlet_kernel(N, -a) * hurwitz_zeta1(1.0 - s, a)

    i1 = integrate_finite(f1, 0.0, 1.0, cycles=cycles, abs_tol=1e-11, rel_tol=1e-9)
    i2 = integrate_finite(f2, 0.0, 1.0, cycles=cycles, abs_tol=1e-11, rel_tol=1e-9)
    return i1, i2


def weak_afe_residual(s: complex) -> identities.IdentityReport:
    """Residual of the two-integral kernel form of the functional equation,
    scaled by t^{sigma/2} / log t."""
    s = complex(s)
    sigma, t = s.real, s.imag
    if not (0.0 < sigma < 1.0 and t >= 20.0):
        raise DomainError("requires 0 < sigma < 1 and t >= 20")
    i1, i2 = _weak_afe_integrals(s)
    resid = abs(riemann_zeta(s) - i1.value - chi(s) * i2.value)
    params = {"sigma": sigma, "t": t, "scaled": resid * t ** (sigma / 2.0) / math.log(t)}
    return identities.IdentityReport.bound("weak_afe", params, resid, resid)


def lemma3_integral(s: complex) -> identities.IdentityReport:
    """Explicit evaluation of the kernel-weighted partial sum integral.

    The by-parts part int_1^N B_N(a) a^{-s} da (lhs) is compared against
    the two explicit resolvent-type sums (rhs; params["scaled"] is the
    residual times t^{(1+sigma)/2}); the boundary strip [N, N+1] is
    measured against its own t^{-sigma/2} log t envelope, as is each
    leading sum.
    """
    s = complex(s)
    sigma, t = s.real, s.imag
    if not (0.0 < sigma < 1.0 and t >= 20.0):
        raise DomainError("requires 0 < sigma < 1 and t >= 20")
    N = kernel_index(t)

    def f(a: np.ndarray) -> np.ndarray:
        return dirichlet_kernel(N, a) * np.power(a, -s)

    def part(lo: float, hi: float) -> complex:
        # 1e-11 per unit of a: the phase t log a of a^-s rounds to ~1e-16 t,
        # so one tolerance for all of [1, N] would fall below that noise
        return integrate_finite(f, lo, hi, cycles=lambda a: N + t / (_2PI * a),
                                abs_tol=1e-11 * (hi - lo), rel_tol=1e-9).value

    main = part(1.0, float(N)) if N >= 2 else 0j
    strip = part(float(N), float(N + 1))

    n = np.arange(1, N + 1, dtype=float)
    sum1 = (1j / (_2PI * complex(np.exp(s * math.log(N))))) * _csum(1.0 / (t / (_2PI * N) - n))
    sum2 = (1.0 / (2j * math.pi)) * _csum(1.0 / (t / _2PI - n))
    resid = abs(main - sum1 - sum2)
    env = t ** (-sigma / 2.0) * math.log(t)
    params = {
        "sigma": sigma,
        "t": t,
        "scaled": resid * t ** ((1.0 + sigma) / 2.0),
        "strip_over_envelope": abs(strip) / env,
        "sums_over_envelope": (abs(sum1) + abs(sum2)) / env,
    }
    # not `build`: the residual subtracts the two sums one at a time
    return identities.IdentityReport("lemma3", params, main, sum1 + sum2, resid,
                                     resid / max(abs(main), 1e-300))


def power_mean_Ik(k: int, t: float) -> float:
    """I_k(t) = int_0^1 |zeta1(1/2 + it, alpha)|^{2k} d(alpha)."""
    if k not in (1, 2, 3):
        raise DomainError("k must be 1, 2 or 3")
    if not (_2PI <= t <= 3000.0):
        raise DomainError("t out of desk-scale range")
    res = _power_mean(0.5 + 1j * t, k, abs_tol=1e-10, rel_tol=1e-8)
    return _nonnegative(float(res.value.real))


def _power_mean(s: complex, k: int, abs_tol: float, rel_tol: float) -> QuadResult:
    """int_0^1 |zeta1(s, alpha)|^{2k} d(alpha): one integrate_finite call at
    k times the cycles of zeta1 (power_mean_Ik and both Parseval checks).

    zeta1(s, alpha) and its conjugate oscillate in opposite directions, so
    |zeta1|^2 spans the same band [-z, z] as zeta1 itself: the bands of
    conjugate factors overlap, they do not add, and |zeta1|^{2k}, a
    product of k such pairs, has k times the cycles z of zeta1.
    """
    z = _zeta1_cycles(s.imag)

    def f(a: np.ndarray) -> np.ndarray:
        return np.abs(hurwitz_zeta1(s, a)) ** (2 * k)

    return integrate_finite(f, 0.0, 1.0, cycles=lambda a: k * z(a),
                            abs_tol=abs_tol, rel_tol=rel_tol)


def power_mean_Jk(k: int, T: float) -> float:
    """J_k(T) = (1/T) int_0^T |zeta(1/2 + it)|^{2k} dt."""
    if k not in (1, 2):
        raise DomainError("k must be 1 or 2")
    if not (1.0 <= T <= 500.0):
        raise DomainError("T out of desk-scale range")

    def f(tv: np.ndarray) -> np.ndarray:
        return np.abs(riemann_zeta(0.5 + 1j * tv)) ** (2 * k)

    # zeta(1/2 + it) has log(t/2pi)/2pi <= 0.7 zeros per unit t for t <= 500
    res = integrate_finite(f, 0.0, T, cycles=0.8, abs_tol=1e-9, rel_tol=1e-7)
    return _nonnegative(float(res.value.real) / T)


def _nonnegative(value: float) -> float:
    """A power mean integrates a nonnegative function."""
    if value < 0:
        raise ValueError("power mean must be >= 0")
    return value


def s1_sum(sigma: float, t: float, alpha: float) -> complex:
    """S_1(sigma, t, alpha) = sum_{1 <= n < t/2pi} e^{-2 pi i n alpha} n^{s-1}."""
    if not (0.0 < sigma < 1.0):
        raise DomainError("requires 0 < sigma < 1")
    if not _2PI < t <= 1e6:
        raise DomainError("requires 2 pi < t <= 1e6 (desk scale)")
    return _twisted_power_sum(_s1_terms(t), complex(sigma, t) - 1.0, alpha, -1)


def _s1_rounding(sigma: float, t: float, alpha: float, value: complex) -> float:
    """A bound on the rounding of s1_sum's value: u (sum_n n^{sigma-1} (4 +
    3 |t| log n + 6 pi n |alpha|) + |S_1|), u = 2^-53.  A term's error is
    its size times that of its exponent, (sigma - 1 + i t) log n - 2 pi i n
    alpha, plus a few roundings of exp; the sum is rounded once."""
    n = np.arange(1, _s1_terms(t) + 1, dtype=float)
    sizes = n ** (sigma - 1.0) * (4.0 + 3.0 * abs(t) * np.log(n) + 6.0 * math.pi * n * abs(alpha))
    return 2.0**-53 * (math.fsum(sizes) + abs(value))


def _s1_terms(t: float) -> int:
    """The last n of S_1: the largest integer below t/2pi."""
    x = t / _2PI
    n_max = int(math.floor(x))
    return n_max - 1 if float(n_max) == x else n_max


def theorem1_check(k: int, t_grid) -> list[identities.IdentityReport]:
    """Ratios |zeta(1/2+it)| / (t^{1/4k} I_k(t)^{1/2k}) over a t grid,
    recorded as lhs = |zeta|, rhs = ratio."""
    if k not in (1, 2):
        raise DomainError("k must be 1 or 2")
    records = []
    for t in t_grid:
        t = float(t)
        zv = abs(riemann_zeta(0.5 + 1j * t))
        ik = power_mean_Ik(k, t)
        ratio = zv / (t ** (1.0 / (4 * k)) * ik ** (1.0 / (2 * k)))
        records.append(identities.IdentityReport.record(
            "theorem1", {"k": k, "t": t, "ratio": ratio, "Ik": ik}, zv, ratio))
    return records


def kernel_norm_power(N: int, p: float) -> float:
    """int_0^1 |B_N(alpha)|^p d(alpha)  (the p-th power of the L^p norm).

    |B_N(alpha)| = |sin(pi N alpha) / sin(pi alpha)| is real and symmetric
    about 1/2, so twice the integral over [0, 1/2] is taken.  Unless p is an
    even integer, |B_N|^p has kinks at the zeros k/N of B_N, so those below
    1/2 are panel breakpoints.  Between two zeros |sin(pi N alpha)|^p is one
    hump.  At p = 1 it is one smooth half sine with simple zeros at its
    ends, so the kinks alone are the panels; for other p the panels are
    set at max(p, 1) N/2 cycles, as for integer p its highest harmonic has
    p N/2.
    """
    if not 1 <= N <= 100000:
        raise DomainError("N must be in [1, 1e5]")
    if p <= 0:
        raise DomainError("p must be positive")

    def f(a: np.ndarray) -> np.ndarray:
        return np.abs(np.sin(math.pi * _half_turns(N * a)) / np.sin(math.pi * a)) ** p

    kinks = np.arange(1, (N + 1) // 2) / N if p % 2 != 0 else None
    # abs_tol halved: the doubled half-period error still meets 1e-9
    cycles = None if p == 1 else max(p, 1.0) * N / 2.0
    res = integrate_finite(f, 0.0, 0.5, cycles=cycles, initial_points=kinks,
                           abs_tol=0.5e-9, rel_tol=1e-7)
    return 2.0 * float(res.value.real)


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x (boundedness probe)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.maximum(np.asarray(ys, dtype=float), 1e-300))
    lx = lx - lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))
