"""Command-line front door: evaluate the base functions, run named
verification suites over parameter grids, and emit CSV/JSON reports.

Exit codes: 0 when every row is within tolerance, 1 on a tolerance breach,
2 on configuration errors.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import functools
import json
import math
import os
import sys

import numpy as np

from . import afe, fourier, special
from .errors import ConfigError, DomainError, ZetaverError
from .suites import AxisSpec, GridSpec, SuiteSpec, list_suites, run_suite


def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        z = complex(cleaned)
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number: {text!r}") from exc
    if not cmath.isfinite(z):
        raise ConfigError(f"complex number must be finite, got {text!r}")
    return z


def _parse_axis(text: str) -> AxisSpec:
    """min:max:count[:spacing] or v1,v2,...; AxisSpec rejects non-finite values."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) not in (3, 4):
                raise ConfigError(f"axis spec {text!r} must be min:max:count[:spacing]")
            spacing = parts[3] if len(parts) == 4 else "linear"
            return AxisSpec(float(parts[0]), float(parts[1]), int(parts[2]), spacing)
        return AxisSpec(explicit=tuple(float(v) for v in text.split(",")))
    except ValueError as exc:
        raise ConfigError(f"cannot parse axis spec {text!r}: {exc}") from exc


def _grid_from_strings(items) -> GridSpec | None:
    if not items:
        return None
    axes = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(f"grid option {item!r} must be axis=spec")
        name, spec = (part.strip() for part in item.split("=", 1))
        if not name:
            raise ConfigError(f"grid option {item!r} has an empty axis name")
        axes[name] = _parse_axis(spec)
    return GridSpec(axes)


def _load_config_file(path: str, suite_id: str):
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    tol = None
    axes = {}
    if parser.has_section(suite_id):
        for key, value in parser.items(suite_id):
            if key == "tol":
                try:
                    tol = float(value)
                except ValueError:
                    raise ConfigError(f"tol must be a number, got {value!r}") from None
            elif key.startswith("grid."):
                axes[key[5:]] = _parse_axis(value)
            else:
                raise ConfigError(f"unknown config key {key!r} in [{suite_id}]")
    grid = GridSpec(axes) if axes else None
    return tol, grid


def _eval_value(args):
    fn = args.function
    if fn == "zeta":
        return special._em_hurwitz(_require(args, "s"), 1.0)
    if fn == "zeta1":
        shift = special._zeta1_shift(_require_real_alpha(args))
        return special._em_hurwitz(_require(args, "s"), shift)
    if fn in ("chi", "gamma"):
        s = _require(args, "s")
        value = special.chi(s) if fn == "chi" else complex(special.gamma(s))
        return value, float(special._log_space_rounding(s)) * abs(value)
    if fn == "B_N":
        value = complex(special.dirichlet_kernel(_require(args, "N"), _require_real_alpha(args)))
        return value, 1e-13 * max(abs(value), 1.0)
    if fn == "a_n":
        value = special.fourier_coeff_a(_require(args, "n"), _require(args, "s"))
        return value, 1e-12 * abs(value)
    if fn == "q_n":
        n = _require(args, "n")
        u = _require(args, "u")
        v = _require(args, "v")
        if u.real > 1.0 and v.real > 1.0:
            q = fourier.qn_direct(n, u, v)
        else:
            q = fourier.qn_continued(n, u, v)
        return q.value, q.err_estimate
    if fn == "S1":
        value = afe.s1_sum(args.sigma, _require(args, "t"), _require_real_alpha(args))
        return value, 1e-13 * max(abs(value), 1.0)
    if fn == "I_k":
        value = afe.power_mean_Ik(args.k, _require(args, "t"))
        return complex(value), max(1e-10, 1e-8 * value)
    if fn == "J_k":
        value = afe.power_mean_Jk(args.k, _require(args, "T"))
        return complex(value), max(1e-9, 1e-7 * value)
    raise ConfigError(f"unknown function: {fn}")


def _require(args, name: str):
    val = getattr(args, name, None)
    if val is None:
        raise ConfigError(f"--{name} is required for this function")
    return val


def _require_real_alpha(args) -> float:
    alpha = _require(args, "alpha")
    if alpha.imag != 0.0:
        raise ConfigError(f"--alpha must be real, got {alpha}")
    return alpha.real


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, and an append option copies its default list before it adds."""
    p = argparse.ArgumentParser(prog="zetaver",
                                description="verification suites for zeta/Hurwitz identities")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one function at a point")
    pe.add_argument("function", choices=["zeta", "zeta1", "chi", "gamma", "B_N",
                                         "a_n", "q_n", "S1", "I_k", "J_k"])
    pe.add_argument("--s", type=_parse_complex)
    pe.add_argument("--u", type=_parse_complex)
    pe.add_argument("--v", type=_parse_complex)
    pe.add_argument("--alpha", type=_parse_complex)
    pe.add_argument("--N", type=int)
    pe.add_argument("--n", type=int)
    pe.add_argument("--k", type=int, default=1)
    pe.add_argument("--t", type=float)
    pe.add_argument("--T", type=float)
    pe.add_argument("--sigma", type=float, default=0.5)

    pr = sub.add_parser("run-suite", help="run a named verification suite")
    pr.add_argument("suite")
    pr.add_argument("--config", default=None)
    pr.add_argument("--out", default=None)
    pr.add_argument("--format", choices=["csv", "json"], default="csv")
    pr.add_argument("--threads", type=int, default=1)
    pr.add_argument("--tol", type=float, default=None)
    pr.add_argument("--grid", action="append", default=[],
                    help="axis=min:max:count[:spacing] or axis=v1,v2,... (repeatable)")

    pl = sub.add_parser("list-suites", help="list registered suites")
    pl.add_argument("--format", choices=["text", "json"], default="text")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        # inside the try: a ConfigError of a type converter passes argparse
        args = parser.parse_args(argv)
        if args.command == "eval":
            # an overflow shows as a value that is not finite, reported below
            with np.errstate(over="ignore"):
                value, err = _eval_value(args)
            if not (cmath.isfinite(value) and math.isfinite(err)):
                raise DomainError(f"{args.function} is not finite at this point: {value} "
                                  f"(err estimate {err})")
            if value.imag == 0.0:
                print(f"{value.real:.12g}  (err estimate {err:.2g})")
            else:
                print(f"{value.real:.12g} {value.imag:+.12g}i  (err estimate {err:.2g})")
            return 0
        if args.command == "list-suites":
            entries = list_suites()
            if args.format == "json":
                print(json.dumps(entries, indent=2, default=str))
            else:
                for e in entries:
                    tol = "--" if e["default_tol"] is None else f"{e['default_tol']:g}"
                    print(f"{e['suite_id']:<18} ({e['anchor']})  tol={tol:<8} {e['description']}")
                print(f"{len(entries)} suites registered")
            return 0
        if args.command == "run-suite":
            tol, grid = (None, None)
            if args.config:
                tol, grid = _load_config_file(args.config, args.suite)
            if args.tol is not None:
                tol = args.tol
            cli_grid = _grid_from_strings(args.grid)
            if cli_grid is not None:
                grid = cli_grid
            threads = os.environ.get("ZETAVER_THREADS", args.threads)
            try:
                threads = int(threads)
            except ValueError:
                raise ConfigError(f"ZETAVER_THREADS must be an integer, got {threads!r}") from None
            spec = SuiteSpec(args.suite, grid=grid, tolerance=tol)
            report = run_suite(spec, threads=threads)
            payload = report.to_csv() if args.format == "csv" else report.to_json()
            out = args.out
            if out is not None:
                out_dir = os.environ.get("ZETAVER_OUT_DIR")
                if out_dir and not os.path.isabs(out):
                    out = os.path.join(out_dir, out)
                try:
                    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
                    with open(out, "w") as fh:
                        fh.write(payload)
                except OSError as exc:
                    raise ConfigError(f"cannot write report to {out}: {exc}") from None
            else:
                sys.stdout.write(payload)
            status = "pass" if report.passed else "FAIL"
            print(f"# suite={args.suite} rows={len(report.rows)} {status} "
                  f"hash={report.header['config_hash']}", file=sys.stderr)
            return 0 if report.passed else 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ZetaverError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
