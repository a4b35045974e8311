"""Integration engines against closed forms and high-precision oracles."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from zetaver import afe, quadrature
from zetaver import identities as idn
from zetaver.errors import ConvergenceError, DomainError, PoleTooCloseError
from zetaver.fourier import _zeta1_pair_cycles
from zetaver.quadrature import _fourier_coeffs, _march_panels, _panel_nodes, integrate_finite
from zetaver.special import hurwitz_zeta1, lgamma
from zetaver.zeta1_cache import Zeta1AlphaTable

mp.mp.dps = 25

_2PI = 2.0 * math.pi


def test_finite_polynomial():
    res = integrate_finite(lambda x: x**2, 0.0, 1.0)
    assert abs(res.value - 1.0 / 3.0) < 1e-13


def test_finite_zeta1_telescoping():
    # int_0^1 zeta1(2, a) da telescopes to sum 1/(n(n+1)) = 1
    res = integrate_finite(lambda a: hurwitz_zeta1(2.0, a), 0.0, 1.0)
    assert abs(res.value - 1.0) < 2e-12


def test_finite_critical_line_square_vs_oracle():
    s = mp.mpc(0.5, 5.0)
    ref = complex(mp.quad(lambda a: abs(mp.zeta(s, 1 + a)) ** 2, mp.linspace(0, 1, 9)))

    def f(a):
        return np.abs(hurwitz_zeta1(0.5 + 5j, a)) ** 2 + 0j

    res = integrate_finite(f, 0.0, 1.0, initial_points=list(np.linspace(0, 1, 9)))
    assert abs(res.value - ref) / abs(ref) < 1e-8


def test_finite_requires_order():
    with pytest.raises(DomainError):
        integrate_finite(lambda x: x, 1.0, 0.0)


def test_additivity():
    f = lambda x: np.exp(1j * x) / (1.0 + x)
    whole = integrate_finite(f, 0.0, 2.0)
    left = integrate_finite(f, 0.0, 0.7)
    right = integrate_finite(f, 0.7, 2.0)
    assert abs(whole.value - left.value - right.value) <= (
        whole.err_estimate + left.err_estimate + right.err_estimate + 1e-14
    )


def test_error_estimate_honesty_battery():
    cases = [
        (lambda x: x**3, 0.0, 1.0, 0.25),
        (lambda x: np.sin(x), 0.0, math.pi, 2.0),
        (lambda x: np.exp(x), 0.0, 1.0, math.e - 1.0),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
        (lambda x: np.exp(2j * x), 0.0, 1.0, (np.exp(2j) - 1.0) / 2j),
        (lambda x: np.sqrt(np.abs(x)), 0.0, 1.0, 2.0 / 3.0),
        (lambda x: np.log(x + 1.0), 0.0, 1.0, 2.0 * math.log(2.0) - 1.0),
        (lambda x: np.cos(40.0 * x), 0.0, 1.0, math.sin(40.0) / 40.0),
        (lambda x: x ** -1.5 + 0j, 1.0, 9.0, 2.0 - 2.0 / 3.0),
        (lambda x: 1.0 / x, 1.0, 5.0, math.log(5.0)),
    ]
    ok = 0
    for f, a, b, truth in cases:
        res = integrate_finite(f, a, b)
        if abs(res.value - truth) <= 10.0 * max(res.err_estimate, 1e-16):
            ok += 1
    assert ok >= 0.99 * len(cases)


# Oscillatory integrals int_a^b f(x) e^{-2 pi i n x} dx run on the Fourier
# coefficient engine; cycles(x) is the frequency content of f.


def _no_cycles(x):
    return 0.0


def test_oscillatory_full_periods():
    (val,), _ = _fourier_coeffs(lambda x: np.ones_like(x, dtype=complex), _no_cycles,
                                [3], 0.0, 1.0, 1e-12)
    assert abs(val) < 1e-13


def test_oscillatory_algebraic_factor_vs_oracle():
    ref = complex(mp.quad(lambda x: x ** mp.mpf(-0.5) * mp.e ** (-2j * mp.pi * x),
                          mp.linspace(1, 10, 40)))
    (val,), _ = _fourier_coeffs(lambda x: x**-0.5 + 0j, _no_cycles, [1], 1.0, 10.0, 1e-12)
    assert abs(val - ref) <= 1e-9


def test_oscillatory_log_phase_vs_oracle():
    # e^{2 pi i 2 x - 10 i log x} over [1, 5]
    ref = complex(mp.quad(lambda x: mp.e ** (2j * mp.pi * 2 * x - 10j * mp.log(x)),
                          mp.linspace(1, 5, 41)))
    (val,), _ = _fourier_coeffs(lambda x: np.exp(-10j * np.log(x)),
                                lambda x: 10.0 / (2.0 * math.pi * x), [-2], 1.0, 5.0, 1e-12)
    assert abs(val - ref) <= 1e-9


def test_oscillatory_matches_finite_low_frequency():
    f = lambda x: 1.0 / (1.0 + x.astype(complex))
    (val,), (err,) = _fourier_coeffs(f, _no_cycles, [-1], 0.0, 2.0, 1e-12)

    def g(x):
        x = np.asarray(x, dtype=complex)
        return np.exp(2j * math.pi * x) / (1.0 + x)

    fin = integrate_finite(g, 0.0, 2.0)
    assert abs(val - fin.value) <= err + fin.err_estimate + 1e-13


# The engine on theorem2's integrand, with zeta1 from the alpha-table: its
# value at a node does not depend on the batch the node comes in, as the
# kernel's does, so the engine and integrate_finite see the same function.


def _theorem2_integrand(t):
    s = complex(0.5, t)
    b = t / _2PI + 1.0
    table = Zeta1AlphaTable(s, 1.0, b + 1e-9)

    def smooth(x):
        return table(x) * np.power(x, -0.5)

    return smooth, b


def test_fourier_engine_matches_per_n_quadrature(spent):
    t = 50.0
    smooth, b = _theorem2_integrand(t)
    cycles = _zeta1_pair_cycles(t, t)
    ns = [-15, 0, 7, 15]
    (coeffs, errs), evals = spent(_fourier_coeffs,
                                  lambda x: smooth(x) * np.exp(1j * t * np.log(x)), cycles, ns,
                                  1.0, b, 5e-7)
    assert evals > 0
    for n, c, e in zip(ns, coeffs, errs):
        def f(x, n=n):
            return smooth(x) * np.exp(1j * (t * np.log(x) - _2PI * n * x))

        # panels of at most half a local period of the phase and of smooth
        pts = _march_panels(1.0, b, lambda x, n=n: abs(t / (_2PI * x) - n) + cycles(x))
        ref = integrate_finite(f, 1.0, b, initial_points=pts, abs_tol=1e-13, rel_tol=1e-11)
        assert abs(c - ref.value) <= 1e-11
        assert abs(c - ref.value) <= e + ref.err_estimate


def test_fourier_engine_recurrence_matches_direct_phase_sum():
    # contiguous n = -127..127 runs through the phase recurrence between
    # anchors; the direct sum takes one exponential per n on the same nodes
    t = 200.0
    smooth, b = _theorem2_integrand(t)
    cycles = _zeta1_pair_cycles(t, t)
    seen = []

    def values(x):
        fx = smooth(x) * np.exp(1j * t * np.log(x))
        seen.append((x, fx))
        return fx

    ns = np.arange(-127, 128)
    coeffs, errs = _fourier_coeffs(values, cycles, ns, 1.0, b, 5e-7)
    pts = np.array(_march_panels(1.0, b, lambda x: 127.0 + cycles(x)))
    halves = 0.5 * (pts[1:] - pts[:-1])
    nodes = _panel_nodes(0.5 * (pts[1:] + pts[:-1]), halves)
    x, fx = seen[-1]
    assert np.array_equal(nodes.ravel(), x)
    wf = fx.reshape(nodes.shape) * quadrature._WGK_FULL * halves[:, None]
    size = float(np.abs(wf).sum())
    frac = nodes - np.floor(nodes)
    for n, c, e in zip(ns, coeffs, errs):
        direct = complex(np.sum(wf * np.exp(-_2PI * 1j * n * frac)))
        assert abs(c - direct) <= 1e-13 * size
        assert abs(c - direct) <= e


def test_fourier_engine_unreachable_tolerance_raises():
    smooth, b = _theorem2_integrand(50.0)
    with pytest.raises(ConvergenceError):
        _fourier_coeffs(smooth, _zeta1_pair_cycles(50.0, 50.0), [0, 3], 1.0, b, 0.0)


@pytest.mark.parametrize("tol", [5e-7, 0.0])
def test_fourier_engine_calls_values_once(tol, spent):
    # one march of max |n| plus cycles and one values call on its nodes,
    # whether tol is met or missed (then ConvergenceError, no second march)
    smooth, b = _theorem2_integrand(50.0)
    cycles = _zeta1_pair_cycles(50.0, 50.0)
    pts = np.array(_march_panels(1.0, b, lambda x: 3.0 + cycles(x)))
    nodes = _panel_nodes(0.5 * (pts[1:] + pts[:-1]), 0.5 * (pts[1:] - pts[:-1]))
    seen = []

    def values(x):
        seen.append(x)
        return smooth(x)

    if tol:
        (_coeffs, errs), evals = spent(_fourier_coeffs, values, cycles, [0, 3], 1.0, b, tol)
        assert errs.max() <= tol and evals == nodes.size
    else:
        with pytest.raises(ConvergenceError):
            _fourier_coeffs(values, cycles, [0, 3], 1.0, b, tol)
    assert len(seen) == 1
    assert np.array_equal(seen[0], nodes.ravel())


# Blocked phase runs against the per-n loop they replaced (kept here as the
# reference): the same multiply chain per run, product and sums per n.


def _fourier_coeffs_per_n(values, cycles, ns, a, b):
    """_fourier_coeffs one n at a time: (coeffs, errs), tol unchecked."""
    ns = np.asarray(ns, dtype=float)
    n_big = float(np.max(np.abs(ns)))
    pts = np.array(_march_panels(a, b, lambda x: n_big + cycles(x)))
    halves = 0.5 * (pts[1:] - pts[:-1])
    nodes = _panel_nodes(0.5 * (pts[1:] + pts[:-1]), halves)
    fv = values(nodes.ravel()).reshape(nodes.shape) * halves[:, None]
    frac = nodes - np.floor(nodes)
    step = np.exp(-2j * math.pi * frac)
    size = float(np.sum(np.abs(fv) @ quadrature._WGK_FULL))
    coeffs, errs = np.empty(ns.size, dtype=complex), np.empty(ns.size)
    m = 0
    for i, n in enumerate(ns):
        if i == 0 or m == quadrature._PHASE_RUN - 1 or n - ns[i - 1] != 1.0:
            cur = fv * np.exp(-2j * math.pi * n * frac)
            m = 0
        else:
            cur *= step
            m += 1
        kd = cur @ quadrature._KD_WEIGHTS
        coeffs[i] = kd[:, 0].sum()
        errs[i] = np.abs(kd[:, 1]).sum() + (19.0 * abs(n) + 36.0 * m + 6.0) * 2.0**-53 * size
    return coeffs, errs


def _log_phase_values(t):
    return lambda y: np.exp(1j * t * np.log(1.0 + y)) * (1.0 + y) ** -0.5


@pytest.mark.parametrize("ns", [
    np.arange(-40, 41),                # crosses _PHASE_RUN twice
    [0, 1, 2, 5, 6, 7, 9, 30, 31],     # gaps restart the run
    np.arange(-10, 0),                 # a negative run
    [17],                              # a single n
    np.arange(-63, 64),                # theorem2 at t = 200
])
@pytest.mark.parametrize("rows", [None, 1, 3, 7])
def test_blocked_phase_runs_are_the_per_n_loop_bit_for_bit(ns, rows, monkeypatch):
    # rows per block: the default cap, or so few that runs split across blocks
    t = 200.0
    cycles = _zeta1_pair_cycles(t, -t)
    folded = lambda y: cycles(1.0 + y)  # noqa: E731
    ref = _fourier_coeffs_per_n(_log_phase_values(t), folded, ns, 0.0, 0.83)
    if rows:
        n_big = float(np.max(np.abs(ns)))
        panels = len(_march_panels(0.0, 0.83, lambda y: n_big + folded(y))) - 1
        monkeypatch.setattr(quadrature, "_PHASE_BLOCK", rows * panels * 15)
    coeffs, errs = _fourier_coeffs(_log_phase_values(t), folded, ns, 0.0, 0.83, 1.0)
    assert coeffs.tobytes() == ref[0].tobytes() and errs.tobytes() == ref[1].tobytes()


def test_phase_blocks_stay_within_their_cap():
    # theorem2's largest part at t = 200: [0, frac b] with 127 n.  Beyond
    # the (panels, 15) arrays that one n needs as well, the blocks take at
    # most _PHASE_BLOCK complex values (plus their K15 and error products)
    t = 200.0
    b = t / _2PI + 1.0
    cycles = _zeta1_pair_cycles(t, t)
    folded = lambda y: cycles(1.0 + y)  # noqa: E731
    ns = np.arange(-63, 64)
    pts = np.array(_march_panels(0.0, b - math.floor(b), lambda y: 63.0 + folded(y)))
    nodes = 15 * (pts.size - 1)
    fx = np.exp(1j * np.arange(nodes))  # values allocate nothing of their own
    peaks = []
    for part_ns in ([63], ns):
        tracemalloc.start()
        try:
            _fourier_coeffs(lambda y: fx, folded, part_ns, 0.0, b - math.floor(b), 1.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    block = 16 * quadrature._PHASE_BLOCK
    assert nodes * 16 < block  # more than one n fits a block
    assert peaks[1] - peaks[0] <= 1.25 * block
    assert peaks[0] <= 8 * nodes * 16


def _mb_integrand(shift: float):
    def g(z):
        z = np.asarray(z, dtype=complex)
        return np.exp(lgamma(z + shift) + lgamma(-z))

    return g


# The line integral and the unit-power map of identities against closed forms.


def test_vertical_line_beta_values():
    # (1/2 pi i) int Gamma(z+a) Gamma(-z) dz = Gamma(a) (1-w)^{-a} at w = -1
    for shift, value in ((1.0, 0.5), (2.0, 0.25)):
        res = idn._line_integral(_mb_integrand(shift), -0.5, [0.0, -shift], 2.0, 1e-12, 1e-10)
        assert abs(res.value - value) < 1e-10


@pytest.mark.parametrize("shift", [0.75, 1.5, 2.0])
def test_vertical_line_fold_meets_beta_closed_form(shift, spent):
    # Gamma(z+a) Gamma(-z) is conjugate-symmetric for real a: the upper half
    # alone meets Gamma(a) 2^-a within its error estimate, as the full line
    # does, at no more than 55% of its evaluations on the meter
    closed = math.gamma(shift) * 2.0**-shift
    runs = [spent(idn._line_integral, _mb_integrand(shift), -0.5, [0.0, -shift], 2.0,
                  1e-12, 1e-10, real=real) for real in (False, True)]
    for res, _ in runs:
        assert abs(res.value - closed) <= res.err_estimate
    (full, full_evals), (half, half_evals) = runs
    assert half.value.imag == 0.0
    assert half_evals <= 0.55 * full_evals


def test_vertical_line_pole_guard():
    with pytest.raises(PoleTooCloseError):
        idn._line_integral(_mb_integrand(1.0), -0.5, [0.0, -0.5 + 1e-5], 2.0, 1e-12, 1e-10)


def test_unit_power_singular():
    # zeta1(0, a) = -1/2 - a and zeta1(-1, a) = -(a^2 + a + 1/6) / 2: the
    # Taylor head is the polynomial itself, with no remainder
    res = idn._unit_power(0.0, -0.5)
    assert abs(res.value + 5.0 / 3.0) < 1e-11
    res = idn._unit_power(-1.0, -0.75)
    assert abs(res.value + 43.0 / 45.0) < 1e-10


def test_finite_nan_at_one_node_raises():
    def f(x):
        y = np.cos(x) + 0j
        y[x == 0.5] = np.nan  # 0.5 is the middle node of the single panel
        return y

    with pytest.raises(ConvergenceError):
        integrate_finite(f, 0.0, 1.0)
    calls = []

    def g(x):  # sqrt needs bisection at 0; NaN on every call after the first
        calls.append(x.size)
        return np.sqrt(x) * (np.nan if len(calls) > 1 else 1.0) + 0j

    with pytest.raises(ConvergenceError):
        integrate_finite(g, 0.0, 1.0)
    assert len(calls) == 2


def test_meter_counts_initial_and_bisected_panels(spent):
    # sqrt bisects toward its kink at 0; every node handed to it counts
    calls = []

    def f(x):
        calls.append(x.size)
        return np.sqrt(x)

    _, evals = spent(integrate_finite, f, 0.0, 1.0, initial_points=[0.25, 0.5])
    assert evals == sum(calls) > 15 * 3


def test_finite_initial_panels_batched(spent):
    calls = []

    def f(x):
        calls.append(x.size)
        return np.cos(x)

    res, evals = spent(integrate_finite, f, 0.0, 1.0, initial_points=np.linspace(0.0, 1.0, 1001))
    assert abs(res.value - math.sin(1.0)) < 1e-14
    bisections = (evals - 15 * 1000) // 30
    assert len(calls) <= math.ceil(1000 / quadrature._CHUNK) + bisections
    assert max(calls) <= 15 * (2 * quadrature._CHUNK - 1)


def test_batches_cover_the_panels_in_order_without_a_short_tail():
    # a remainder shorter than _CHUNK joins the last batch, so a march
    # hands no short trailing batch to its integrand
    calls = []

    def f(x):
        calls.append(x)
        return np.ones(x.size)

    for panels in [*range(1, 301), 5000]:
        calls.clear()
        edges = np.linspace(0.0, 1.0, panels + 1)
        quadrature._gk15_many(f, edges[:-1], edges[1:])
        mids, halves = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
        assert np.array_equal(np.concatenate(calls), _panel_nodes(mids, halves).ravel())
        sizes = [x.size // quadrature._NODES.size for x in calls]
        if panels < quadrature._CHUNK:
            assert sizes == [panels]
        else:
            assert all(quadrature._CHUNK <= n <= 2 * quadrature._CHUNK - 1 for n in sizes), panels


def test_finite_repeat_bit_identical():
    def f(x):
        return np.exp(1j * 40.0 * x) / (1.0 + x * x)

    pts = np.linspace(0.0, 3.0, 150)
    r1 = integrate_finite(f, 0.0, 3.0, initial_points=pts, rel_tol=1e-13)
    r2 = integrate_finite(f, 0.0, 3.0, initial_points=pts, rel_tol=1e-13)
    assert r1 == r2


# cycles: the integrand's frequency picks the initial panels.


def _panel_edges(calls):
    """Edges of the initial panels from the nodes of the batched calls."""
    x = np.concatenate(calls).reshape(-1, quadrature._NODES.size)
    mids = 0.5 * (x[:, 0] + x[:, -1])
    halves = (x[:, -1] - x[:, 0]) / (2.0 * quadrature._NODES[-1])
    return np.append(mids - halves, mids[-1] + halves[-1])


def test_cycles_number_gives_uniform_panels(spent):
    calls = []

    def f(x):
        calls.append(x)
        return np.cos(x)

    res, evals = spent(integrate_finite, f, 0.0, 2.0, cycles=3.3)
    panels = math.ceil(quadrature._PER_CYCLE * 3.3 * 2.0)  # 17
    assert evals == 15 * panels
    assert np.allclose(_panel_edges(calls), np.linspace(0.0, 2.0, panels + 1), atol=1e-14)
    assert abs(res.value - math.sin(2.0)) < 1e-14
    # zero cycles: one panel
    assert spent(integrate_finite, np.cos, 0.0, 1.0, cycles=0.0)[1] == 15


def test_cycles_function_is_marched(spent):
    def cycles(x):
        return 1.0 + 40.0 * x

    calls = []

    def f(x):
        calls.append(x)
        return np.cos(x)

    _, evals = spent(integrate_finite, f, 0.0, 1.0, cycles=cycles)
    pts = quadrature._march_panels(0.0, 1.0, cycles)
    assert evals == 15 * (len(pts) - 1)
    assert np.allclose(_panel_edges(calls), pts, atol=1e-14)
    # each panel spans at most 1/_PER_CYCLE of the local period at its left end
    widths = np.diff(pts)
    assert np.all(widths <= 1.0 / (quadrature._PER_CYCLE * cycles(np.array(pts[:-1]))) + 1e-15)
    # denser where the frequency is higher
    assert widths[0] > 2.0 * widths[-1]


def test_initial_points_join_the_cycle_panels(spent):
    kinks = np.arange(1, 7) / 7.0
    res, evals = spent(integrate_finite, lambda x: np.abs(np.sin(7.0 * math.pi * x)), 0.0, 1.0,
                       cycles=5.0, initial_points=kinks)
    edges = np.union1d(np.linspace(0.0, 1.0, math.ceil(2.5 * 5.0) + 1), kinks)
    assert evals == 15 * (edges.size - 1)
    assert abs(res.value - 2.0 / math.pi) < 1e-13


def test_bisection_budget_counts_beyond_the_initial_panels(monkeypatch):
    calls = []

    def f(x):  # a jump at 1/3: every bisection leaves an error behind
        calls.append(x.size)
        return np.where(x < 1.0 / 3.0, 0.0, 1.0)

    monkeypatch.setattr(quadrature, "_MAX_BISECTIONS", 5)
    with pytest.raises(ConvergenceError, match="panels=105"):
        integrate_finite(f, 0.0, 1.0, cycles=40.0, abs_tol=0.0, rel_tol=0.0)
    # the five bisections of one generation share one integrand call
    assert calls.count(150) == 1 and sum(calls) == 15 * 100 + 30 * 5


def test_unbisected_value_is_the_panel_order_sum(monkeypatch, spent):
    # rows that bisect nothing keep their bits: the value is the plain sum
    # of the initial panel values in panel order
    seen = []

    def gk15_many(f, los, his):
        seen.append(gk15(f, los, his))
        return seen[-1]

    gk15 = quadrature._gk15_many
    monkeypatch.setattr(quadrature, "_gk15_many", gk15_many)
    res, evals = spent(integrate_finite, lambda x: np.exp(30j * x) / (1.0 + x), 0.0, 2.0,
                       cycles=5.0)
    (vals, errs), = seen
    assert res.value == sum(vals.tolist(), 0j)
    assert res.err_estimate == sum(errs.tolist())
    assert evals == 15 * vals.size


def test_real_integrand_matches_its_complex_twin(spent):
    # real values take real panel sums, the same values cast to complex the
    # complex ones: the same panels and bisections, the same value to rounding
    def f(x):
        return np.sqrt(x) * np.cos(20.0 * x)

    real, real_evals = spent(integrate_finite, f, 0.0, 1.0, cycles=3.2)
    twin, twin_evals = spent(integrate_finite, lambda x: f(x) + 0j, 0.0, 1.0, cycles=3.2)
    assert real_evals == twin_evals > 15 * math.ceil(2.5 * 3.2)
    assert real.value.imag == 0.0
    assert abs(real.value - twin.value) <= 1e-15 * abs(twin.value)


@pytest.mark.parametrize("cycles", [None, 2.0, 20.0])
@pytest.mark.parametrize("k", [0, 1, 7, 14, 22])
def test_error_estimate_covers_the_15_decimal_weights(k, cycles):
    # K15 is exact for x^k, k <= 22, but its weights carry 15 decimals and
    # bias every panel by up to 1e-14 of its |f| sum; a floor of 5e-16
    # missed the constant on 50 panels (4.2e-15 against 3.6e-15)
    res = integrate_finite(lambda x: x**k, 0.0, 1.0, cycles=cycles)
    assert abs(res.value - 1.0 / (k + 1)) <= res.err_estimate
    assert abs(math.fsum(quadrature._WGK_FULL) - 2.0) / 2.0 <= quadrature._ERR_FLOOR


# Vector integrands: (m, nodes) values, m integrals on one set of panels.

# integrands on [0, 1] with their closed forms: a kink at 0 that bisects,
# a fast phase, a smooth real one and a complex power
_ORACLES = [
    (np.sqrt, 2.0 / 3.0),
    (lambda x: np.exp(30j * x), (np.exp(30j) - 1.0) / 30j),
    (lambda x: x * x * np.cos(x), 2.0 * math.cos(1.0) - math.sin(1.0)),
    (lambda x: (1.0 + x) ** (-1.5 + 2j), (2.0 ** (-0.5 + 2j) - 1.0) / (-0.5 + 2j)),
]


@pytest.mark.parametrize("f, _exact", _ORACLES)
@pytest.mark.parametrize("kw", [{}, {"cycles": 5.0}, {"initial_points": [0.3, 0.7]}])
def test_one_component_vector_call_is_bit_identical_to_the_scalar_call(f, _exact, kw):
    res, = integrate_finite(lambda x: f(x)[None, :], 0.0, 1.0, **kw)
    assert res == integrate_finite(f, 0.0, 1.0, **kw)


def test_vector_components_agree_with_their_scalar_calls(spent):
    fs = [f for f, _ in _ORACLES]
    calls = []

    def f_all(x):
        calls.append(x.size)
        return np.array([f(x) for f in fs])

    results, evals = spent(integrate_finite, f_all, 0.0, 1.0, cycles=5.0)
    assert len(results) == len(fs)
    for res, (f, exact) in zip(results, _ORACLES):
        alone = integrate_finite(f, 0.0, 1.0, cycles=5.0)
        assert abs(res.value - alone.value) <= res.err_estimate + alone.err_estimate
        assert abs(res.value - exact) <= res.err_estimate
        assert res.err_estimate <= max(1e-12, 1e-10 * abs(res.value))
    # the panels are shared: the meter counts each node once, not once per
    # component
    assert evals == sum(calls)


def test_only_the_failing_component_picks_panels(spent):
    # cos meets its tolerance on the initial panels and sqrt does not: the
    # vector call bisects the panels of sqrt's scalar call and no others,
    # and both components end within their own tolerances
    (smooth, kink), evals = spent(integrate_finite, lambda x: np.array([np.cos(x), np.sqrt(x)]),
                                  0.0, 1.0, cycles=2.0)
    alone, alone_evals = spent(integrate_finite, np.sqrt, 0.0, 1.0, cycles=2.0)
    assert evals == alone_evals > 15 * 5
    assert abs(kink.value - alone.value) <= kink.err_estimate + alone.err_estimate
    for res, exact in ((smooth, math.sin(1.0)), (kink, 2.0 / 3.0)):
        assert res.err_estimate <= max(1e-12, 1e-10 * abs(res.value))
        assert abs(res.value - exact) <= res.err_estimate


def test_two_failing_components_bisect_the_union_of_their_picks(spent):
    # kinks at opposite ends pick disjoint panels, so each generation
    # bisects both components' picks in one integrand call, and each
    # component bisects as it does alone
    calls = []

    def left(x):
        calls.append("left")
        return np.sqrt(x)

    def right(x):
        calls.append("right")
        return np.sqrt(1.0 - x)

    alone_evals = [spent(integrate_finite, g, 0.0, 1.0, cycles=2.0)[1] for g in (left, right)]
    generations = [calls.count(side) for side in ("left", "right")]
    calls.clear()
    both, both_evals = spent(integrate_finite, lambda x: np.array([left(x), right(x)]), 0.0, 1.0,
                             cycles=2.0)
    assert calls.count("left") == max(generations) < sum(generations) - 1
    initial = 15 * 5
    assert both_evals == sum(e - initial for e in alone_evals) + initial
    assert min(alone_evals) > initial
    for res in both:
        assert res.err_estimate <= max(1e-12, 1e-10 * abs(res.value))
        assert abs(res.value - 2.0 / 3.0) <= res.err_estimate


def test_unreachable_tolerance_on_one_component_raises(monkeypatch):
    # a jump at 1/3 leaves an error behind every bisection; the smooth
    # component beside it does not rescue the call
    monkeypatch.setattr(quadrature, "_MAX_BISECTIONS", 5)

    def f(x):
        return np.array([np.cos(x), np.where(x < 1.0 / 3.0, 0.0, 1.0)])

    with pytest.raises(ConvergenceError, match="stalled"):
        integrate_finite(f, 0.0, 1.0, cycles=4.0, abs_tol=1e-14, rel_tol=0.0)


@pytest.mark.parametrize("cycles", [math.nan, math.inf, -math.inf, 1e6, -1.0])
def test_bad_uniform_cycles_raise_before_any_evaluation(cycles):
    calls = []
    with pytest.raises(ConvergenceError):
        integrate_finite(lambda x: calls.append(x) or x, 0.0, 1.0, cycles=cycles)
    assert not calls


@pytest.mark.parametrize("value", [math.nan, math.inf, 1e6])
def test_bad_marched_cycles_raise_before_any_evaluation(value):
    calls = []
    with pytest.raises(ConvergenceError):
        quadrature._march_panels(0.0, 1.0, lambda x: value)
    with pytest.raises(ConvergenceError):
        integrate_finite(lambda x: calls.append(x) or x, 0.0, 1.0, cycles=lambda x: value)
    assert not calls


def test_over_cap_frequency_raises_from_its_end_values(monkeypatch):
    # a monotone frequency needs at least 2.5 (b - a) min(cycles(a), cycles(b))
    # panels: over the cap, the two end values suffice and nothing is marched
    seen = []

    def counted(cycles):
        return lambda x: seen.append(x) or cycles(x)

    with pytest.raises(ConvergenceError, match="400000"):
        integrate_finite(lambda x: x, 0.0, 1.0, cycles=counted(lambda x: 1e6))
    assert len(seen) <= 2
    # lemma3 at t = 1e6: N + t / (2 pi a) on [1, N], N = 399
    seen.clear()
    real = afe.integrate_finite
    monkeypatch.setattr(afe, "integrate_finite",
                        lambda f, a, b, *, cycles, **kw: real(f, a, b, cycles=counted(cycles), **kw))
    with pytest.raises(ConvergenceError, match="400000"):
        afe.lemma3_integral(complex(0.5, 1e6))
    assert len(seen) <= 2


def test_march_rejects_a_frequency_that_turns_non_finite():
    # finite at the start, NaN past 0.5: the march must not return NaN edges
    with pytest.raises(ConvergenceError):
        quadrature._march_panels(0.0, 1.0, lambda x: 3.0 if x < 0.5 else math.nan)
