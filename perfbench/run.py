"""zetaver benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts a fresh interpreter for
the workload (serial, ``--threads 1``, BLAS pinned to one thread) that
calls ``zetaver.cli.main(["run-suite", ...])`` in-process, pass after pass,
for about S seconds.  Every pass is gated against the reference recorded
for the seed's variant (``perfbench/refs``).  All processes of a run share
one CPU with a low-priority calibration process (``speed.py``), and times
are reported as CPU seconds at the reference machine speed.  With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics; with ``--trace 1`` alternating untraced and traced passes give
the per-layer metrics.
Metric names and units come from BENCHMARK.json; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# Set-up probes run before and after the workload process (this many on
# each side), so that a slow spell of the machine hits only some of them.
SETUP_PROBES = 10
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_ENV})
    env.pop("ZETAVER_THREADS", None)
    env.pop("ZETAVER_OUT_DIR", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _child(args: list[str], **kw) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, os.path.join(BENCH, "worker.py"), *args],
                            cwd=ROOT, env=child_env(), **kw)


def _wait(proc: subprocess.Popen, deadline: float) -> int:
    try:
        return proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("workload process overran its deadline") from None


def measure_setup(deadline: float) -> list[list[float]]:
    """[wall start, wall end, CPU seconds] from starting a fresh interpreter
    to zetaver warmed up, for each probe."""
    stamps = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = _child(["probe"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        word, _, cpu_s = proc.stdout.readline().partition(" ")
        t1 = time.perf_counter()
        proc.stdout.close()
        if _wait(proc, deadline) != 0 or word != "ready":
            raise BenchError("setup probe failed")
        stamps.append([t0, t1, float(cpu_s)])
    return stamps


def run_workload(workload: str, variant: int, seconds: float, trace: int, tag: str,
                 deadline: float) -> dict:
    """Run the workload in a fresh interpreter and return its result record."""
    os.makedirs(WORK_DIR, exist_ok=True)
    result_path = os.path.join(WORK_DIR, f"worker-{tag}.json")
    log_path = os.path.join(WORK_DIR, f"worker-{tag}.log")
    with open(log_path, "w") as log:
        proc = _child(["run", "--workload", workload, "--variant", str(variant),
                       "--seconds", str(seconds), "--trace", str(trace),
                       "--work-dir", os.path.join(WORK_DIR, tag), "--result", result_path],
                      stdout=log, stderr=subprocess.STDOUT)
        code = _wait(proc, deadline)
    shutil.rmtree(os.path.join(WORK_DIR, tag), ignore_errors=True)
    if code != 0:
        with open(log_path) as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise BenchError(f"workload process exited {code}")
    with open(result_path) as fh:
        return json.load(fh)


def check(passes: list[list[dict]], ref_calls: list[dict]) -> tuple[int, list[str]]:
    """Gate every call of every pass; later passes must match pass 1 bit for bit."""
    failed, problems = 0, []
    for p, calls in enumerate(passes):
        for got, ref, first in zip(calls, ref_calls, passes[0]):
            found = gate.compare_call(ref["suite"], got, ref)
            if p and not gate.rows_identical(got, first):
                found.append("rows differ from the first pass")
            if found:
                failed += 1
                problems += [f"pass {p + 1} {ref['suite']}: {msg}" for msg in found]
    return failed, problems


def normalised(stamps: list[list[float]], log: speed.SpeedLog) -> list[float]:
    """CPU seconds at the reference speed of each [start, end, CPU s] stamp."""
    return [cpu_s * log.factor(t0, t1) for t0, t1, cpu_s in stamps]


def pass_time(call_times: list[list[float]]) -> float:
    """Median time of one full pass, estimated call by call: the sum over
    the workload's calls of each call's median over the passes.  A burst
    of machine noise then moves one sample of the calls it hits instead
    of a whole pass."""
    return sum(statistics.median(samples) for samples in zip(*call_times))


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + 170.0

    if not os.path.isfile(os.path.join(ROOT, "src", "zetaver", "__init__.py")):
        print("perfbench: no zetaver sources under src/ in this checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    variant = workloads.variant_of(args.workload, args.seed)
    with open(os.path.join(BENCH, "refs", f"{args.workload}.json")) as fh:
        ref = json.load(fh)["variants"][str(variant)]
    if [c["axes"] for c in ref["calls"]] != [a for _, a in workloads.grid_strings(args.workload, variant)]:
        print("perfbench: references do not match the workload grids; re-record them",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # Every process of the run, and the calibration beside them, on one CPU.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    os.makedirs(WORK_DIR, exist_ok=True)
    speed_path = os.path.join(WORK_DIR, f"speed-{tag}.bin")
    calibration = speed.start(cpu, speed_path)
    try:
        setup = [] if args.trace else measure_setup(deadline)
        res = run_workload(args.workload, variant, args.seconds, args.trace, tag, deadline)
        if not args.trace:
            setup += measure_setup(deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        code = speed.stop(calibration)
    if code != 0:
        print(f"perfbench: the calibration process exited {code}", file=sys.stderr)
        return 1
    log = speed.SpeedLog(speed_path)
    call_times = [normalised(stamps, log) for stamps in res["call_stamps"]]
    walls = [sum(t1 - t0 for t0, t1, _ in stamps) for stamps in res["call_stamps"]]
    factors = [log.factor(stamps[0][0], stamps[-1][1]) for stamps in res["call_stamps"]]
    passes = res["passes"] + res.get("traced_passes", [])
    failed, problems = check(passes, ref["calls"])
    attempted = sum(len(p) for p in passes)
    first = passes[0]
    rows = [(c["suite"], c["tol"], r) for c in first for r in c["rows"]]
    bad_rows = len(rows) if failed else sum(gate.row_failed(*r) for r in rows)

    counts_repeat = None
    if args.trace:
        # Each per-layer value is its median over the traced passes.  The
        # counts repeat from pass to pass unless the program keeps state
        # between calls; the metadata says whether they did.
        per_pass = [{m["name"]: pl.get(m["name"], 0) for m in spec["per_layer"]}
                    for pl in res["layers"]]
        values = {k: statistics.median(pl[k] for pl in per_pass) for k in per_pass[0]}
        values["trace.overhead_s"] = (pass_time([normalised(stamps, log) for stamps
                                                 in res["traced_call_stamps"]])
                                      - pass_time(call_times))
        counts_repeat = all(pl[m["name"]] == per_pass[0][m["name"]] for pl in per_pass
                            for m in spec["per_layer"] if m["unit"] == "count")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "pass_s": pass_time(call_times),
            "setup_s": statistics.median(normalised(setup, log)),
            "peak_rss_mb": res["maxrss_mb"],
            "row_pass_share": 1.0 - bad_rows / len(rows),
            "oracle_digits": gate.oracle_digits(first, ref["oracle"]),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    meta = dict(res["meta"], seed=args.seed, variant=variant, commit=git_commit(),
                passes=len(walls), wall_pass_s=walls, speed_factor=factors, cpu=cpu,
                wall_setup_s=[t1 - t0 for t0, t1, _ in setup],
                counts_repeat=counts_repeat,
                rows=len(rows), failed_rows=bad_rows, machine=platform.machine())
    for msg in problems[:20]:
        print(f"gate: {msg}", file=sys.stderr)
    print("# " + json.dumps(meta, sort_keys=True))
    record = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    with open(os.path.join(WORK_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(dict(record, meta=meta, gate_problems=problems), fh, indent=1)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
