"""Workload definitions and seeded input generation.

A workload is an ordered list of ``zetaver run-suite`` calls.  Each call is
described by its suite id and its grid axes in the CLI's own syntax.  Seed
variant 0 passes the grids shipped as the suites' defaults exactly as they
are listed.  Only ``identity_sweep`` has other variants: each multiplies
every continuous height or shift by its own seeded factor in
[1 - SCALE, 1 + SCALE], SCALE = 10%.  The integer axes (``N``, ``n``,
``k``, ``M``) and the real parts (``sigma``, ``re``, ``u_re``, ``v_re``) are
kept: the real parts place rows on or off convergence boundaries (the
``mellin_tail`` row at Re(u+v) = 2 is one of them), so moving them would
change which rows fail rather than how much work a row costs.

This module imports nothing from ``zetaver``: the program only ever sees
the generated grid strings.
"""

from __future__ import annotations

import math
import random

# Number of seed variants, each with its own recorded reference; seed n
# runs variant n mod VARIANTS[workload].  quadrature_kernel has integer
# axes only.  fourier_moments spends its time at two heights, and its cost
# jumps with them (the n range is floor(t/pi), parseval4's breakpoints and
# n_max are integer functions of t): +-10% moved its pass time by 22% of
# the median over five seeds, and even +-2% by 13%.  So both run the
# shipped grids for every seed.
VARIANTS = {"fourier_moments": 1, "quadrature_kernel": 1, "identity_sweep": 16}
# Largest relative move of a height or shift.
SCALE = 0.10
PERTURBED_AXES = ("t", "T", "im", "u_im", "alpha", "factor")

# Default grids of the suites at the commit the benchmark was defined on,
# copied so that a later change to a default cannot silently change a
# workload.
_DEFAULT_GRIDS = {
    "square_identity": {"sigma": "1.2,1.5,2.0", "t": "1.0,5.0,10.0", "alpha": "0.0,0.5,1.0"},
    "f_routes": {"u_re": "2.0,3.0", "v_re": "2.0,3.0", "alpha": "0.0,0.5,1.0"},
    "quadratic_moment": {"u_re": "2.0,3.0,4.0", "v_re": "2.0,3.0,4.0"},
    "triple_moment": {"re": "2.0,2.5", "im": "0.0,1.0"},
    "quadruple_moment": {"re": "2.0,2.5", "im": "0.0,1.0"},
    "katsurada": {"u_re": "1.3,1.5,1.7", "u_im": "0.5,2.0"},
    "mellin_tail": {"u_re": "2.0,2.5,3.0", "v_re": "0.0,0.3,0.5"},
    "unit_recursion": {"u_re": "2.0,3.0", "v_re": "0.0,0.5,1.0,1.5"},
    "i1_asymptotic": {"t": "50:800:5:geometric"},
    "remark_219": {"t": "50.0,100.0"},
    "afe_zeta": {"sigma": "0.3,0.5,0.7", "t": "25:1600:7:geometric"},
    "afe_hurwitz": {"sigma": "0.5", "t": "100.0,500.0", "alpha": "0.1,0.3,0.5,0.7,0.9"},
    "projection": {"N": "7,25,50,100"},
    "weak_afe": {"sigma": "0.3,0.5,0.7", "t": "25:400:5:geometric"},
    "lemma3": {"t": "50.0,100.0,200.0,400.0"},
    "power_mean_Ik": {"k": "1,2", "t": "50.0,100.0"},
    "power_mean_Jk": {"k": "1", "T": "50.0,100.0"},
    "s1_sum": {"sigma": "0.5", "t": "66.0,100.0", "alpha": "0.0,0.25,0.5"},
    "theorem1": {"k": "1,2", "t": "50:800:5:geometric"},
    "rane": {"sigma": "0.5,1.5", "t": "0.0,10.0", "alpha": "2.0,5.0", "M": "200"},
    "tail_lemma": {"t": "50.0,100.0", "factor": "2.0,4.0"},
    "qn_modes": {"n": "0,2,5", "u_re": "2.0", "u_im": "1.0"},
    "highfreq_tail": {"t": "50.0", "n": "20,40,80"},
    "parseval4": {"sigma": "0.5", "t": "50.0"},
    "theorem2": {"t": "50.0,100.0,200.0,400.0"},
    "kernel_norms": {"N": "10,100,1000,10000"},
}

_FOURIER_SUITES = ("theorem2", "parseval4", "highfreq_tail")

WORKLOADS = {
    # theorem2 without t=400, which alone takes 25 s and passes.
    "fourier_moments": [("theorem2", {"t": "50.0,100.0,200.0"}),
                        ("parseval4", _DEFAULT_GRIDS["parseval4"]),
                        ("highfreq_tail", _DEFAULT_GRIDS["highfreq_tail"])],
    "quadrature_kernel": [("kernel_norms", _DEFAULT_GRIDS["kernel_norms"])],
    "identity_sweep": [(sid, grid) for sid, grid in _DEFAULT_GRIDS.items()
                       if sid not in _FOURIER_SUITES + ("kernel_norms",)],
}


def variant_of(workload: str, seed: int) -> int:
    return seed % VARIANTS[workload]


def _axis_values(spec: str) -> list[float]:
    if ":" not in spec:
        return [float(v) for v in spec.split(",")]
    lo, hi, count, spacing = spec.split(":")
    lo, hi, count = float(lo), float(hi), int(count)
    if spacing != "geometric":
        raise ValueError(f"unsupported spacing in {spec!r}")
    step = (math.log(hi) - math.log(lo)) / (count - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(count)]


def grid_strings(workload: str, variant: int) -> list[tuple[str, list[str]]]:
    """(suite id, ["axis=spec", ...]) for every call of one workload variant."""
    rng = random.Random(f"{workload}:{variant}")
    calls = []
    for suite, grid in WORKLOADS[workload]:
        axes = []
        for name, spec in grid.items():
            if variant != 0 and name in PERTURBED_AXES:
                vals = [v * (1.0 + SCALE * (2.0 * rng.random() - 1.0))
                        for v in _axis_values(spec)]
                spec = ",".join(format(v, ".10g") for v in vals)
            axes.append(f"{name}={spec}")
        calls.append((suite, axes))
    return calls


def cli_argv(suite: str, axes: list[str], out_path: str) -> list[str]:
    argv = ["run-suite", suite]
    for axis in axes:
        argv += ["--grid", axis]
    return argv + ["--format", "json", "--out", out_path, "--threads", "1"]
