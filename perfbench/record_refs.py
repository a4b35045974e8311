"""Record the gate references and oracle values for every seed variant.

    python3 perfbench/record_refs.py [--workload NAME ...]

Run from the root of a checkout of the commit the references should hold
the program to.  For each workload and variant it runs one untraced pass
through the same worker as the benchmark and stores, per call, the exit
code, the suite verdict and tolerance and the compacted rows.  It then
evaluates the oracle-checked outputs with ``zetaver.oracle``/mpmath at
120 bits (outside any timed region) and stores them next to the rows, in
``perfbench/refs/<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import run
import workloads

PREC_BITS = 120


def _oracle_values():
    """suite -> (oracle expression, function of a grid point -> 120-bit value)."""
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import mpmath as mp

    from zetaver import oracle

    def abs_zeta_crit(t: float) -> float:
        return abs(oracle.riemann_zeta(complex(0.5, t), PREC_BITS))

    def unit_moment(us) -> complex:
        us = [mp.mpc(u.real, u.imag) for u in us]

        def f(a):
            acc = mp.mpf(1)
            for u in us:
                acc *= mp.zeta(u, 1 + a)
            return acc

        return oracle.unit_interval_quad(f, PREC_BITS)

    def kernel_l1(n: int) -> float:
        # |B_N| is symmetric about 1/2 and analytic between its zeros k/N.
        with oracle._precision(PREC_BITS):
            f = lambda a: abs(mp.sin(mp.pi * n * a) / mp.sin(mp.pi * a))  # noqa: E731
            half = mp.mpf(1) / 2
            edges = [mp.mpf(k) / n for k in range(n // 2 + 1)] + [half]
            total = mp.mpf(0)
            for lo, hi in zip(edges[:-1], edges[1:]):
                if hi > lo:
                    total += mp.quad(f, [lo, hi], method="gauss-legendre")
            return float(2 * total)

    def triple(pt):
        b, im = pt["re"], pt.get("im", 0.0)
        return unit_moment((complex(b, im), complex(b + 0.4, -im), complex(b + 0.15, 0.0)))

    def quadruple(pt):
        b, im = pt["re"], pt.get("im", 0.0)
        return unit_moment((complex(b, im), complex(b, -im), complex(b + 0.3, 0.0),
                            complex(b + 0.55, 0.0)))

    return {
        "theorem2": ("lhs", lambda pt: abs_zeta_crit(pt["t"]) ** 4),
        "theorem1": ("lhs", lambda pt: abs_zeta_crit(pt["t"])),
        "kernel_norms": ("l1", lambda pt: kernel_l1(int(pt["N"]))),
        "rane": ("lhs", lambda pt: oracle.hurwitz_zeta1(complex(pt["sigma"], pt["t"]),
                                                        pt["alpha"], PREC_BITS)),
        "quadratic_moment": ("lhs", lambda pt: unit_moment((complex(pt["u_re"]),
                                                            complex(pt["v_re"])))),
        "triple_moment": ("lhs", triple),
        "quadruple_moment": ("lhs", quadruple),
    }


def record(workload: str, oracle_fns: dict, memo: dict) -> dict:
    out = {}
    for v in range(workloads.VARIANTS[workload]):
        grids = workloads.grid_strings(workload, v)
        t0 = time.perf_counter()
        res = run.run_workload(workload, v, 0.0, 0, f"record-{workload}-v{v}",
                               time.monotonic() + 3600.0)
        calls = [dict(c, axes=axes) for c, (_, axes) in zip(res["passes"][0], grids)]
        items = []
        for ci, call in enumerate(calls):
            expr, fn = oracle_fns.get(call["suite"], (None, None))
            for ri, row in enumerate(call["rows"] if fn else []):
                if row["error"] is not None:
                    continue
                mkey = (call["suite"], json.dumps(row["point"], sort_keys=True))
                if mkey not in memo:
                    memo[mkey] = complex(fn(row["point"]))
                val = memo[mkey]
                items.append({"call": ci, "row": ri, "expr": expr, "value": [val.real, val.imag]})
        out[str(v)] = {"calls": calls, "oracle": items}
        print(f"{workload} variant {v}: {sum(t1 - t0 for t0, t1, _ in res['call_stamps'][0]):.2f} s pass, "
              f"{time.perf_counter() - t0:.1f} s with oracle", flush=True)
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = p.parse_args()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                            text=True).stdout.strip()
    oracle_fns = _oracle_values()
    memo: dict = {}
    for workload in args.workload or sorted(workloads.WORKLOADS):
        refs = {"recorded_at_commit": commit, "oracle_prec_bits": PREC_BITS,
                "variants": record(workload, oracle_fns, memo)}
        with open(os.path.join(run.BENCH, "refs", f"{workload}.json"), "w") as fh:
            json.dump(refs, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
