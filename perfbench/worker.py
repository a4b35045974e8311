"""Workload process: one fresh interpreter, serial, BLAS pinned by the caller.

    python3 perfbench/worker.py probe
        import zetaver, build its lazy first-call state, print "ready" and
        the process's CPU seconds so far.
    python3 perfbench/worker.py run --workload W --variant V --seconds S
                                    --trace 0|1 --work-dir DIR --result FILE
        run timed passes of the workload in-process through
        zetaver.cli.main and write every pass's compacted output, and each
        call's wall-clock start and end and CPU seconds, to FILE.
        With --trace 1 every untraced pass is followed by a traced one.

Run from the root of a checkout with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
import workloads  # noqa: E402

# A traced run makes at least this many untraced/traced pass pairs, so
# that the per-layer times and the tracing overhead are medians.
TRACE_PAIRS = 3


def warm_up() -> None:
    """Import zetaver and build the state each layer builds on first use."""
    import numpy as np

    import zetaver
    from zetaver import cli, quadrature, special  # noqa: F401
    from zetaver.zeta1_cache import Zeta1AlphaTable

    if not os.path.abspath(zetaver.__file__).startswith(os.path.join(os.getcwd(), "src") + os.sep):
        raise SystemExit(f"zetaver imported from {zetaver.__file__}, not from ./src")

    s = complex(0.5, 14.0)
    special.hurwitz_zeta1(s, np.linspace(0.0, 1.0, 4))
    special.lgamma(s)
    special.chi(s)
    special.fourier_coeff_a(1, s)
    special.dirichlet_kernel(3, np.linspace(0.0, 1.0, 4))
    quadrature.integrate_finite(np.cos, 0.0, 1.0)
    Zeta1AlphaTable(s, 0.0, 0.5)


def run_metadata() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def _one_pass(calls, out_dir: str, run_cli) -> tuple[list[list[float]], list[dict]]:
    """Time each call of one pass as [wall start, wall end, CPU seconds];
    read and compact the reports afterwards."""
    paths = [os.path.join(out_dir, f"{i:02d}-{suite}.json") for i, (suite, _) in enumerate(calls)]
    exits = []
    stamps = []
    sink = io.StringIO()
    with contextlib.redirect_stderr(sink):
        for (suite, axes), path in zip(calls, paths):
            argv = workloads.cli_argv(suite, axes, path)
            t0, c0 = time.perf_counter(), time.process_time()
            exits.append(run_cli(argv))
            stamps.append([t0, time.perf_counter(), time.process_time() - c0])
    out = []
    for (suite, _), path, code in zip(calls, paths, exits):
        with open(path) as fh:
            report = gate.compact_report(json.load(fh))
        out.append({"suite": suite, "exit": code, **report})
        os.remove(path)
    return stamps, out


def run(args) -> dict:
    import zetaver.cli

    calls = workloads.grid_strings(args.workload, args.variant)
    os.makedirs(args.work_dir, exist_ok=True)
    result: dict = {"call_stamps": [], "passes": []}
    if args.trace:
        from tracer import Tracer

        result.update(traced_call_stamps=[], traced_passes=[], layers=[])
        spans_path = os.path.join(os.path.dirname(args.result),
                                  f"spans-{args.workload}-v{args.variant}.jsonl")
    start = time.perf_counter()
    while True:
        stamps, out = _one_pass(calls, args.work_dir, zetaver.cli.main)
        result["call_stamps"].append(stamps)
        result["passes"].append(out)
        n = len(result["passes"])
        if args.trace:
            tracer = Tracer(f"{args.workload}-v{args.variant}-pair{n}")
            tracer.install()
            try:
                # look the entry point up now, so the call goes through the wrapper
                stamps, out = _one_pass(calls, args.work_dir, lambda argv: zetaver.cli.main(argv))
            finally:
                tracer.uninstall()
            result["traced_call_stamps"].append(stamps)
            result["traced_passes"].append(out)
            result["layers"].append(tracer.metrics())
            tracer.write_spans(spans_path, append=n > 1)
        elapsed = time.perf_counter() - start
        if n >= (TRACE_PAIRS if args.trace else 1) and elapsed * (n + 1) / n > args.seconds:
            break
    result["meta"] = run_metadata()
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["probe", "run"])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--variant", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--work-dir")
    p.add_argument("--result")
    args = p.parse_args()
    warm_up()
    if args.mode == "probe":
        print(f"ready {time.process_time()!r}", flush=True)
        return 0
    result = run(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
