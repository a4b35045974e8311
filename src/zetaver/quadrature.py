"""The one integration engine: adaptive Gauss-Kronrod on finite intervals.

What brings an integral to a finite interval (the closed Taylor heads of
unit-interval powers, the closed power tails of [1, inf) integrals and the
truncated vertical-line contours) lives with its caller.  Integrands may
be real or complex-valued; they are called with a numpy array of nodes and
must return an array of values of the same shape.  integrate_finite
evaluates every panel, initial or bisected, in batches of up to _CHUNK
panels, so an integrand receives up to 15 * _CHUNK = 480 nodes per call and
must keep its memory per node bounded.  A non-finite panel value or error
estimate raises ConvergenceError.  Panels are picked here only: a caller
states its integrand's frequency (cycles) and its non-smooth points
(initial_points).  Panel processing order is deterministic, so repeated
runs with the same configuration produce bit-identical results.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = ["QuadResult", "integrate_finite"]

# 15-point Kronrod rule with the embedded 7-point Gauss rule (symmetric;
# nonnegative half listed, expanded to ascending full arrays below).
_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))  # 15 ascending nodes
_WGK_FULL = np.concatenate((_WGK[:-1], _WGK[::-1]))
_WG_FULL = np.concatenate((_WG[:-1], _WG[::-1]))

# Panels per batched integrand call: an integrand gets at most
# 15 * _CHUNK = 480 nodes at once, which bounds the memory of integrands
# that build nodes x n matrices.
_CHUNK = 32

# Initial panels per local cycle of an integrand (fourier._fourier_coeffs
# marches its one panel set at the same density), and the most initial
# panels allowed.
_PER_CYCLE = 2.5
_MAX_INITIAL_PANELS = 400_000

# Most panels integrate_finite bisects beyond its initial ones.
_MAX_BISECTIONS = 20_000

# Integrand evaluations made in this process: _gk15_many and
# fourier._fourier_coeffs add every node they hand to an integrand.  A
# reader takes the difference of _evaluations() before and after the work
# it measures, so readings nest; each pool worker counts its own.
_evaluated = 0


def _count(nodes: int) -> None:
    global _evaluated
    _evaluated += nodes


def _evaluations() -> int:
    return _evaluated


@dataclasses.dataclass
class QuadResult:
    """Value, error estimate and cost of one integration."""

    value: complex
    err_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if self.err_estimate < 0:
            raise ValueError("err_estimate must be >= 0")


def _gk15_many(f, los: np.ndarray, his: np.ndarray):
    """GK15 values and error estimates of the panels [los[i], his[i]].

    The nodes of up to _CHUNK panels go to f in one call.  Real floating
    point values take real panel sums; any other values are taken as complex.
    """
    halves = 0.5 * (his - los)
    mids = 0.5 * (los + his)
    vals = np.empty(los.size, dtype=complex)
    errs = np.empty(los.size)
    for c in range(0, los.size, _CHUNK):
        half = halves[c:c + _CHUNK]
        x = (mids[c:c + _CHUNK, None] + half[:, None] * _NODES).ravel()
        _count(x.size)
        fv = np.asarray(f(x)).reshape(-1, _NODES.size)
        if fv.dtype.kind == "f":
            kres = half * (fv @ _WGK_FULL)
            gres = half * (fv[:, 1::2] @ _WG_FULL)
        else:
            fv = np.asarray(fv, dtype=complex)
            kres = half * (np.real(fv) @ _WGK_FULL + 1j * (np.imag(fv) @ _WGK_FULL))
            gv = fv[:, 1::2]
            gres = half * (np.real(gv) @ _WG_FULL + 1j * (np.imag(gv) @ _WG_FULL))
        resabs = half * (np.abs(fv) @ _WGK_FULL)
        vals[c:c + _CHUNK] = kres
        errs[c:c + _CHUNK] = np.maximum(np.abs(kres - gres), 5e-16 * resabs)
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(errs))):
        raise ConvergenceError("integrand is not finite on a panel")
    return vals, errs


def _march_panels(a: float, b: float, cycles_fn, per_cycle: float = _PER_CYCLE):
    """Break [a, b] so each panel spans at most 1/per_cycle of a local period;
    ConvergenceError on a frequency that is not finite and past
    _MAX_INITIAL_PANELS panels.  For a monotone frequency the march needs at
    least per_cycle * (b - a) * min(cycles(a), cycles(b)) panels, so a count
    over the cap is rejected from the two end values before marching."""
    f_x, f_b = cycles_fn(a), cycles_fn(b)
    if per_cycle * (b - a) * min(f_x, f_b) > _MAX_INITIAL_PANELS:
        raise ConvergenceError(f"panelling exceeded {_MAX_INITIAL_PANELS} panels")
    pts = [a]
    x = a
    while x < b:
        f_here = max(f_x, 1e-12)
        nxt = min(x + 1.0 / (per_cycle * f_here), b)
        f_x = cycles_fn(nxt)
        if not math.isfinite(f_here + f_x):
            raise ConvergenceError(f"integrand frequency is not finite on [{x}, {nxt}]")
        if f_x > 1.5 * f_here:
            nxt = min(x + 1.0 / (per_cycle * f_x), b)
            f_x = cycles_fn(nxt)
        pts.append(nxt)
        x = nxt
        if len(pts) > _MAX_INITIAL_PANELS + 1:
            raise ConvergenceError(f"panelling exceeded {_MAX_INITIAL_PANELS} panels")
    return pts


def integrate_finite(
    f,
    a: float,
    b: float,
    *,
    cycles=None,
    initial_points=None,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
) -> QuadResult:
    """Adaptive Gauss-Kronrod integration of f over [a, b].

    cycles, the integrand's cycles per unit of x, sets the initial panels:
    a number gives ceil(_PER_CYCLE * cycles * (b - a)) equal ones, a
    function of x is marched by _march_panels, None gives one panel; it
    must be finite and ask for at most _MAX_INITIAL_PANELS panels.  A
    function must be monotone on [a, b] (every stated frequency is: sums of
    constants and t / (2 pi (x + d)) terms), so its end values bound the
    panel count and an over-cap frequency raises before the march.
    initial_points adds the non-smooth points of f as edges.  Refinement
    goes by generations: while the error sum, taken in panel order,
    exceeds max(abs_tol, rel_tol * |value|), the fewest worst panels whose
    errors hold the excess are bisected together, at most
    _MAX_BISECTIONS panels in all, and every panel goes through the
    batched _gk15_many.  Raises ConvergenceError if a panel value or
    error is not finite, or if the error stalls above its tolerance.
    """
    if not a < b:
        raise DomainError("requires a < b")
    if callable(cycles):
        edges = np.array(_march_panels(a, b, cycles))
    else:
        count = _PER_CYCLE * float(cycles or 0.0) * (b - a)
        if not 0.0 <= count <= _MAX_INITIAL_PANELS:
            raise ConvergenceError(f"{cycles} cycles per unit ask for {count} panels")
        edges = np.linspace(a, b, max(math.ceil(count), 1) + 1)
    if initial_points is not None:
        pts = np.asarray(initial_points, dtype=float).ravel()
        # the edges of np.union1d, without the numpy.ma import it costs
        edges = np.sort(np.concatenate((edges, pts[(pts > a) & (pts < b)])))
        edges = edges[np.append(True, edges[1:] != edges[:-1])]
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _gk15_many(f, lo, hi)
    bisections = 0
    while True:
        total = sum(vals.tolist(), 0j)
        total_err = sum(errs.tolist())
        tol = max(abs_tol, rel_tol * abs(total))
        if total_err <= tol or bisections >= _MAX_BISECTIONS:
            break
        order = np.argsort(-errs, kind="stable")
        worst = order[:np.searchsorted(np.cumsum(errs[order]), total_err - tol) + 1]
        mid = 0.5 * (lo[worst] + hi[worst])
        # a panel at floating-point resolution or without error stays whole
        ok = np.flatnonzero((errs[worst] > 0.0) & (mid > lo[worst]) & (mid < hi[worst]))
        ok = ok[:_MAX_BISECTIONS - bisections]
        worst, mid = worst[ok], mid[ok]
        if not worst.size:
            break
        v, e = _gk15_many(f, np.concatenate((lo[worst], mid)), np.concatenate((mid, hi[worst])))
        lo = np.concatenate((np.delete(lo, worst), lo[worst], mid))
        hi = np.concatenate((np.delete(hi, worst), mid, hi[worst]))
        vals = np.concatenate((np.delete(vals, worst), v))
        errs = np.concatenate((np.delete(errs, worst), e))
        bisections += worst.size
    if total_err > max(abs_tol, rel_tol * abs(total), 1e-13 * abs(total)):
        raise ConvergenceError(
            f"finite integral stalled: err={total_err:.3e} value={abs(total):.3e} panels={lo.size}"
        )
    return QuadResult(complex(total), float(total_err), 15 * (lo.size + bisections))
