"""The one Gauss-Kronrod layer, GK15 panels for two engines: the adaptive
integrate_finite and _fourier_coeffs, all Fourier coefficients at once.

What brings an integral to a finite interval (the closed Taylor heads of
unit-interval powers, the closed power tails of [1, inf) integrals and the
truncated vertical-line contours) lives with its caller.  Integrands may
be real or complex-valued; they are called with a numpy array of nodes and
return one value per node, or an (m, nodes) array of m integrands that
share the nodes, the panels and the meter.  integrate_finite
evaluates every panel, initial or bisected, in batches of _CHUNK = 32
panels, and a remainder shorter than _CHUNK joins the last batch: a batch
holds 32 to 63 panels unless the whole set has fewer, so an integrand
receives up to 15 * (2 * _CHUNK - 1) = 945 nodes per call and must keep
its memory per node bounded.  Every node handed to an integrand counts
once on the one evaluation meter, _evaluations(); a QuadResult holds a
value and an error estimate and no cost of its own.  A non-finite panel
value or error estimate raises ConvergenceError.  Panels are picked here
only: a caller states its integrand's frequency (cycles) and its
non-smooth points (initial_points).  Panel processing order is
deterministic, so repeated runs with the same configuration produce
bit-identical results.  _fourier_coeffs takes every n of a call on one
panel set, its phase rows in blocks of at most _PHASE_BLOCK complex values.
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

# Panels per batched integrand call.  A remainder shorter than _CHUNK
# joins the last batch, so no batch has fewer than _CHUNK panels unless
# the whole set has (a short batch of one s leaves the kernel's shift
# route for its direct sum), and an integrand gets at most
# 15 * (2 * _CHUNK - 1) = 945 nodes at once, which bounds the memory of
# integrands that build nodes x n matrices.
_CHUNK = 32

# Initial panels per local cycle of an integrand (also the density of the
# one panel set of _fourier_coeffs), and the most initial panels allowed.
_PER_CYCLE = 2.5
_MAX_INITIAL_PANELS = 400_000

# Most panels integrate_finite bisects beyond its initial ones.
_MAX_BISECTIONS = 20_000

# Least error of a panel, as a share of its K15 sum of |f|.  The K15
# weights above carry 15 decimals and are off by up to 9.9e-15 of
# themselves (against the 33 digits of QUADPACK's dqk15), a bias of up to
# that share on every panel; the rest covers the rounding of the panel's
# 15-term sums.
_ERR_FLOOR = 2e-14

# Indices reached from one anchor by the phase recurrence of _fourier_coeffs:
# an exact exponential starts each run, and every later index in it costs
# one complex multiply whose rounding adds to the phase error.
_PHASE_RUN = 32

# Most complex values in one block of phase rows of _fourier_coeffs: 2^14,
# 256 KiB.  A block holds max(1, _PHASE_BLOCK // (15 panels)) rows, one
# per n; theorem2 at t = 200 has 221 panels, 4 rows.
_PHASE_BLOCK = 1 << 14

# K15 weights and the K15 - G7 difference weights on the 15 Kronrod nodes:
# one (panels, 15) @ (15, 2) product gives every panel's value and error.
_G7_ON_K15 = np.zeros_like(_WGK_FULL)
_G7_ON_K15[1::2] = _WG_FULL
_KD_WEIGHTS = np.column_stack((_WGK_FULL, _WGK_FULL - _G7_ON_K15))

# Integrand evaluations made in this process, the only count of them:
# _panel_nodes adds every node that _gk15_many or _fourier_coeffs hands to
# an integrand, and the line probes of identities._line_integral add theirs
# by _count.  A reader takes the difference of _evaluations() before and
# after the work it measures, so readings nest; each pool worker counts
# its own.
_evaluated = 0


def _count(nodes: int) -> None:
    global _evaluated
    _evaluated += nodes


def _evaluations() -> int:
    return _evaluated


@dataclasses.dataclass
class QuadResult:
    """Value and error estimate of one integration; its cost is on the
    evaluation meter."""

    value: complex
    err_estimate: float

    def __post_init__(self) -> None:
        if self.err_estimate < 0:
            raise ValueError("err_estimate must be >= 0")


def _panel_nodes(mids: np.ndarray, halves: np.ndarray) -> np.ndarray:
    """The (panels, 15) Kronrod nodes of mids +/- halves, counted on the meter."""
    nodes = mids[:, None] + halves[:, None] * _NODES
    _count(nodes.size)
    return nodes


def _gk15_many(f, los: np.ndarray, his: np.ndarray):
    """GK15 values and error estimates of the panels [los[i], his[i]].

    The panels go to f in order, in batches of _CHUNK with a shorter
    remainder joining the last batch, the nodes of one batch per call.  f
    returns one value per node, or an (m, nodes) array, m components per
    node; values and errors come back in f's leading shape with one entry
    per panel on the last axis.  Real floating point values take real
    panel sums; any other values are taken as complex.
    """
    halves = 0.5 * (his - los)
    mids = 0.5 * (los + his)
    sums = []
    starts = range(0, max(los.size - _CHUNK, 0) + 1, _CHUNK)
    for c, stop in zip(starts, [*starts[1:], los.size]):
        x = _panel_nodes(mids[c:stop], halves[c:stop]).ravel()
        fv = np.asarray(f(x))
        lead = fv.shape[:-1]
        # one row of 15 nodes per component and panel, one matmul for all
        fv = fv.reshape(-1, _NODES.size)
        if fv.dtype.kind == "f":
            k15, g7 = fv @ _WGK_FULL, fv[:, 1::2] @ _WG_FULL
        else:
            fv = np.asarray(fv, dtype=complex)
            gv = fv[:, 1::2]
            k15 = np.real(fv) @ _WGK_FULL + 1j * (np.imag(fv) @ _WGK_FULL)
            g7 = np.real(gv) @ _WG_FULL + 1j * (np.imag(gv) @ _WG_FULL)
        sums.append(np.array((k15, g7, np.abs(fv) @ _WGK_FULL)).reshape(3, -1, x.size // _NODES.size))
    # the K15, G7 and K15-of-|f| sums of every component and panel, scaled
    k15, g7, size = halves * (sums[0] if len(sums) == 1 else np.concatenate(sums, axis=2))
    vals = k15.astype(complex, copy=False)
    errs = np.maximum(np.abs(k15 - g7), _ERR_FLOOR * size.real)
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(errs))):
        raise ConvergenceError("integrand is not finite on a panel")
    return vals.reshape(lead + (los.size,)), errs.reshape(lead + (los.size,))


def _check_panel_cap(a: float, b: float, f_a: float, f_b: float, per_cycle: float = _PER_CYCLE):
    """ConvergenceError if a march over [a, b] of a monotone frequency with
    the end values f_a and f_b needs more than _MAX_INITIAL_PANELS panels,
    as it needs at least per_cycle * (b - a) * min(f_a, f_b)."""
    if per_cycle * (b - a) * min(f_a, f_b) > _MAX_INITIAL_PANELS:
        raise ConvergenceError(f"panelling exceeded {_MAX_INITIAL_PANELS} panels")


def _march_panels(a: float, b: float, cycles_fn, per_cycle: float = _PER_CYCLE):
    """Break [a, b] so each panel spans at most 1/per_cycle of a local period;
    ConvergenceError on a frequency that is not finite and past
    _MAX_INITIAL_PANELS panels, by _check_panel_cap before marching."""
    f_x = cycles_fn(a)
    _check_panel_cap(a, b, f_x, cycles_fn(b), per_cycle)
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
) -> QuadResult | list[QuadResult]:
    """Adaptive Gauss-Kronrod integration of f over [a, b].

    f returns one value per node, and integrate_finite one QuadResult; or
    f returns (m, nodes) values, m integrands on the same nodes, and
    integrate_finite a list of m QuadResults, each with its own value,
    error and tolerance.  The panels are shared, so the meter counts the
    nodes of the whole call once.

    cycles, the integrand's cycles per unit of x, sets the initial panels:
    a number gives ceil(_PER_CYCLE * cycles * (b - a)) equal ones, a
    function of x is marched by _march_panels, None gives one panel; it
    must be finite and ask for at most _MAX_INITIAL_PANELS panels.  A
    function must be monotone on [a, b] (every stated frequency is: sums of
    constants and t / (2 pi (x + d)) terms), so its end values bound the
    panel count and an over-cap frequency raises before the march.
    initial_points adds the non-smooth points of f as edges.  Refinement
    goes by generations: while a component's error sum, taken in panel
    order, exceeds max(abs_tol, rel_tol * |value|), its fewest worst panels
    whose errors hold the excess are picked, and the union of every
    failing component's picks, in first-seen order, is bisected together,
    at most _MAX_BISECTIONS panels in all; every panel goes through the
    batched _gk15_many.  Raises ConvergenceError if a panel value or
    error is not finite, or if a component's error stalls above its
    tolerance.
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
    scalar = vals.ndim == 1
    # (components, panels) from here on
    vals, errs = vals.reshape(-1, lo.size), errs.reshape(-1, lo.size)
    bisections = 0
    while True:
        totals = [sum(row, 0j) for row in vals.tolist()]
        total_errs = [sum(row) for row in errs.tolist()]
        if bisections >= _MAX_BISECTIONS:
            break
        picks = []
        for j, (total, total_err) in enumerate(zip(totals, total_errs)):
            over = total_err - max(abs_tol, rel_tol * abs(total))
            if over > 0.0:
                # the fewest worst panels that hold the excess; a panel
                # without error (last in this order) stays whole
                order = np.argsort(-errs[j], kind="stable")
                cut = np.searchsorted(np.cumsum(errs[j, order]), over) + 1
                picks.append(order[:min(cut, np.count_nonzero(errs[j]))])
        if not picks:
            break
        worst = picks[0]
        if len(picks) > 1:
            worst = np.concatenate(picks)
            worst = worst[np.sort(np.unique(worst, return_index=True)[1])]
        mid = 0.5 * (lo[worst] + hi[worst])
        # a panel at floating-point resolution stays whole
        ok = np.flatnonzero((mid > lo[worst]) & (mid < hi[worst]))
        ok = ok[:_MAX_BISECTIONS - bisections]
        worst, mid = worst[ok], mid[ok]
        if not worst.size:
            break
        v, e = _gk15_many(f, np.concatenate((lo[worst], mid)), np.concatenate((mid, hi[worst])))
        keep = np.ones(lo.size, dtype=bool)
        keep[worst] = False
        lo = np.concatenate((lo[keep], lo[worst], mid))
        hi = np.concatenate((hi[keep], mid, hi[worst]))
        vals = np.concatenate((vals[:, keep], v.reshape(len(totals), -1)), axis=1)
        errs = np.concatenate((errs[:, keep], e.reshape(len(totals), -1)), axis=1)
        bisections += worst.size
    for total, total_err in zip(totals, total_errs):
        if total_err > max(abs_tol, rel_tol * abs(total), 1e-13 * abs(total)):
            raise ConvergenceError(f"finite integral stalled: err={total_err:.3e} "
                                   f"value={abs(total):.3e} panels={lo.size}")
    results = [QuadResult(complex(t), float(e)) for t, e in zip(totals, total_errs)]
    return results[0] if scalar else results


def _fourier_coeffs(values, cycles, ns, a: float, b: float, tol: float):
    """int_a^b values(x) e^{-2 pi i n x} dx for every n in ns.

    One panel set is marched by _march_panels (_PER_CYCLE = 2.5 panels per
    local cycle) for max |n| plus cycles(x), the frequency content of
    values, and values is evaluated once on it; every n is then a phase sum
    over the same nodes, with the embedded G7/K15 difference as its error.
    A largest error above tol raises ConvergenceError, so the caller's
    cycles must make the panels fine enough.

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
    (coeffs, errs) aligned to ns; _panel_nodes counts the nodes.

    The phase rows go through one (rows, panels, 15) buffer in blocks of
    consecutive indices, rows = max(1, _PHASE_BLOCK // (15 panels)), so a
    call holds at most about _PHASE_BLOCK complex values beyond its
    (panels, 15) arrays.  A row is written by np.multiply into the buffer,
    from the exponential at an anchor or from the row before (across a
    block edge, the last row of the previous block); one @ _KD_WEIGHTS
    product and one sum over the panels serve the whole block.  The bits
    are those of one n at a time: the same multiply chain per run, a
    product per (panels, 15) row and the same pairwise sum over the
    panels of each n.
    """
    ns = np.asarray(ns, dtype=float)
    n_big = float(np.max(np.abs(ns)))
    pts = np.array(_march_panels(a, b, lambda x: n_big + cycles(x)))
    halves = 0.5 * (pts[1:] - pts[:-1])
    nodes = _panel_nodes(0.5 * (pts[1:] + pts[:-1]), halves)
    fv = values(nodes.ravel()).reshape(nodes.shape) * halves[:, None]
    frac = nodes - np.floor(nodes)
    step = np.exp(-2j * math.pi * frac)
    size = float(np.sum(np.abs(fv) @ _WGK_FULL))
    # m: steps of each index from its anchor
    index = np.arange(ns.size)
    anchored = np.ones(ns.size, dtype=bool)
    anchored[1:] = np.diff(ns) != 1.0
    m = (index - np.maximum.accumulate(np.where(anchored, index, 0))) % _PHASE_RUN
    rows = min(max(_PHASE_BLOCK // fv.size, 1), ns.size)
    buf = np.empty((rows,) + fv.shape, dtype=complex)
    coeffs = np.empty(ns.size, dtype=complex)
    errs = np.empty(ns.size)
    for lo in range(0, ns.size, rows):
        hi = min(lo + rows, ns.size)
        for j, i in enumerate(range(lo, hi)):
            if m[i]:
                # buf[-1] is the last row of the block before
                np.multiply(buf[j - 1], step, out=buf[j])
            else:
                np.multiply(fv, np.exp(-2j * math.pi * ns[i] * frac), out=buf[j])
        kd = buf[:hi - lo] @ _KD_WEIGHTS
        coeffs[lo:hi] = kd[..., 0].sum(axis=1)
        errs[lo:hi] = np.abs(kd[..., 1]).sum(axis=1)
    errs += (19.0 * np.abs(ns) + 36.0 * m + 6.0) * 2.0**-53 * size
    if not errs.max() <= tol:
        raise ConvergenceError(f"Fourier coefficients stalled: err={errs.max():.3e} > "
                               f"tol={tol:.3e} on {halves.size} panels")
    return coeffs, errs
