"""Piecewise-Chebyshev table of zeta1(s, alpha) over an alpha interval.

The Fourier-side verifiers evaluate zeta1 at one fixed s on tens to
hundreds of thousands of alpha nodes (one node set serves every Fourier
index n).  Building the function once on frequency-adapted panels and
interpolating afterwards turns that cost into a few thousand direct
evaluations.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .quadrature import _march_panels
from .special import _zeta1_cycles, hurwitz_zeta1

# Chebyshev coefficients per panel, panels per local oscillation period of
# zeta1 in alpha, and the random points at which the fit is checked.
_ORDER = 16
_POINTS_PER_CYCLE = 2.0
_CHECK_POINTS = 40


class Zeta1AlphaTable:
    """Chebyshev interpolant of alpha -> zeta1(s, alpha) on [a_lo, a_hi].

    Panels are sized to at most half the local oscillation period of zeta1
    in alpha (log-phase plus kernel content), so a fixed 16-coefficient fit
    per panel reaches ~1e-11 relative accuracy.
    """

    def __init__(self, s: complex, a_lo: float, a_hi: float) -> None:
        if not (0.0 <= a_lo < a_hi):
            raise DomainError("need 0 <= a_lo < a_hi")
        self.s = complex(s)
        self.breaks = np.array(_march_panels(a_lo, a_hi, _zeta1_cycles(self.s.imag),
                                             per_cycle=_POINTS_PER_CYCLE))

        # Chebyshev nodes of the first kind and the value->coefficient map
        j = np.arange(_ORDER)
        theta = math.pi * (j + 0.5) / _ORDER
        self._nodes01 = np.cos(theta)  # in (-1, 1), descending
        cmat = np.cos(np.outer(np.arange(_ORDER), theta)) * (2.0 / _ORDER)
        cmat[0, :] *= 0.5
        lo = self.breaks[:-1]
        hi = self.breaks[1:]
        mids = 0.5 * (lo + hi)
        halves = 0.5 * (hi - lo)
        pts = mids[:, None] + halves[:, None] * self._nodes01[None, :]
        vals = hurwitz_zeta1(self.s, pts.ravel()).reshape(pts.shape)
        self.coeffs = vals @ cmat.T  # (panels, order)
        self.evaluations = pts.size

        rng = np.random.default_rng(7)
        xs = rng.uniform(a_lo, a_hi, size=_CHECK_POINTS)
        direct = hurwitz_zeta1(self.s, xs)
        approx = self(xs)
        scale = float(np.max(np.abs(direct))) or 1.0
        self.max_check_err = float(np.max(np.abs(direct - approx))) / scale

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        idx = np.clip(np.searchsorted(self.breaks, x, side="right") - 1, 0, len(self.breaks) - 2)
        lo = self.breaks[idx]
        hi = self.breaks[idx + 1]
        tt = (2.0 * x - lo - hi) / (hi - lo)
        c = self.coeffs[idx]  # (n, order)
        b1 = np.zeros_like(tt, dtype=complex)
        b2 = np.zeros_like(b1)
        for k in range(_ORDER - 1, 0, -1):
            b1, b2 = 2.0 * tt * b1 - b2 + c[:, k], b1
        out = tt * b1 - b2 + c[:, 0]
        return out[0] if scalar else out
