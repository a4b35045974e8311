"""Outside-in span tracer for zetaver's layers.

The tracer wraps each layer's public functions at every binding site: the
modules import each other's functions by name (``from .special import
hurwitz_zeta1``), so the wrapper replaces the function object wherever a
``zetaver`` module's globals hold it.  ``Suite.runner`` (frozen dataclasses
in ``suites.SUITES``) and ``Zeta1AlphaTable.__init__``/``__call__`` are
wrapped in place.  Nothing in the program changes; ``uninstall`` restores
every original.

A span opens when a call crosses from one layer into another; a call that
stays inside its caller's layer is only counted.  A layer's self time is
its spans' time minus the time of the child spans they contain.  The
quadrature wrapper also wraps the integrand it is passed, so integrand
closures defined in verifiers run, and are timed, under the quadrature
span.
"""

from __future__ import annotations

import collections
import dataclasses
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = {
    "zetaver.special": "special",
    "zetaver.zeta1_cache": "zeta1_cache",
    "zetaver.quadrature": "quadrature",
    "zetaver.identities": "verifiers",
    "zetaver.afe": "verifiers",
    "zetaver.fourier": "verifiers",
    "zetaver.suites": "suites",
    "zetaver.cli": "cli",
}


class _Frame:
    __slots__ = ("span_id", "layer", "child_s")

    def __init__(self, span_id: int, layer: str) -> None:
        self.span_id = span_id
        self.layer = layer
        self.child_s = 0.0


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, parent id, layer, name, start, end)
        self.self_s: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()
        self.max_check_err = 0.0
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._undo: list = []

    # -- spans ------------------------------------------------------------

    def _call(self, layer: str, name: str, fn, args, kwargs, before=None, after=None):
        """Run fn inside a span of `layer`, unless already inside that layer."""
        stack = self._stack
        if stack and stack[-1].layer == layer:
            return fn(*args, **kwargs)
        self._next_id += 1
        frame = _Frame(self._next_id, layer)
        parent = stack[-1].span_id if stack else 0
        if before is not None:
            args, kwargs = before(args, kwargs)
        stack.append(frame)
        start = time.perf_counter()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            self.self_s[layer] += dur - frame.child_s
            if stack:
                stack[-1].child_s += dur
            self.counts[f"{layer}.calls"] += 1
            self.spans.append((frame.span_id, parent, layer, name, start, end))
            if after is not None:
                after(args, kwargs, result if ok else None, ok, dur)

    # -- per-layer hooks ----------------------------------------------------

    def _special_before(self, args, kwargs):
        sizes = [a.size for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]
        self.counts["special.nodes"] += max(sizes, default=1)
        return args, kwargs

    def _wrap_integrand(self, f):
        counts = self.counts

        def integrand(x, *a, **k):
            counts["quadrature.integrand_calls"] += 1
            counts["quadrature.integrand_nodes"] += np.size(x)
            return f(x, *a, **k)

        return integrand

    def _quadrature_before(self, args, kwargs):
        if args and callable(args[0]):
            args = (self._wrap_integrand(args[0]), *args[1:])
        return args, kwargs

    def _quadrature_after(self, args, kwargs, result, ok, dur):
        if not ok:
            self.counts["quadrature.failures"] += 1
        elif hasattr(result, "evaluations"):
            self.counts["quadrature.evals"] += result.evaluations

    def _verifiers_after(self, args, kwargs, result, ok, dur):
        if not ok:
            self.counts["verifiers.errors"] += 1

    def _suites_after(self, args, kwargs, result, ok, dur):
        if not ok or not hasattr(result, "rows"):
            return
        self.counts["suites.rows"] += len(result.rows)
        self.counts["suites.evals"] += sum(int(r["evals"]) for r in result.rows)
        for r in result.rows:
            self.self_s["suite_s." + result.header["suite"]] += r["seconds"]

    def _cli_after(self, args, kwargs, result, ok, dur):
        if not ok or result != 0:
            self.counts["cli.nonzero_exits"] += 1
        argv = args[0] if args else kwargs.get("argv") or []
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                self.counts["cli.bytes_out"] += os.path.getsize(path)

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, layer: str, name: str, fn):
        hooks = {
            "special": (self._special_before, None),
            "quadrature": (self._quadrature_before, self._quadrature_after),
            "verifiers": (None, self._verifiers_after),
            "suites": (None, self._suites_after),
            "cli": (None, self._cli_after),
        }
        before, after = hooks.get(layer, (None, None))
        counts = self.counts
        key = f"{layer}.{name}.calls"
        call = self._call

        def wrapped(*args, **kwargs):
            counts[key] += 1
            return call(layer, name, fn, args, kwargs, before, after)

        wrapped.__wrapped__ = fn
        return wrapped

    def _wrap_table(self, cls) -> None:
        init, lookup = cls.__init__, cls.__call__
        tracer = self

        def after_init(args, kwargs, result, ok, dur):
            tracer.counts["zeta1_cache.builds"] += 1
            tracer.self_s["zeta1_cache.build_s"] += dur
            if ok:
                tracer.max_check_err = max(tracer.max_check_err, args[0].max_check_err)

        def before_lookup(args, kwargs):
            tracer.counts["zeta1_cache.lookups"] += 1
            tracer.counts["zeta1_cache.lookup_nodes"] += np.size(args[1])
            return args, kwargs

        def new_init(*args, **kwargs):
            return tracer._call("zeta1_cache", "Zeta1AlphaTable.__init__", init, args, kwargs,
                                None, after_init)

        def new_call(*args, **kwargs):
            return tracer._call("zeta1_cache", "Zeta1AlphaTable.__call__", lookup, args, kwargs,
                                before_lookup, None)

        cls.__init__, cls.__call__ = new_init, new_call
        self._undo.append(lambda: (setattr(cls, "__init__", init), setattr(cls, "__call__", lookup)))

    def install(self) -> None:
        """Wrap every public function of every layer at every binding site."""
        import zetaver.cli  # noqa: F401  (loads every layer)
        from zetaver import suites, zeta1_cache

        modules = {n: m for n, m in sys.modules.items() if n == "zetaver" or n.startswith("zetaver.")}
        replace = {}
        for mod_name, layer in LAYERS.items():
            for name, fn in vars(modules[mod_name]).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod_name
                        and not name.startswith("_")):
                    replace[id(fn)] = self._wrapper(layer, name, fn)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                wrapped = replace.get(id(value))
                if wrapped is not None:
                    setattr(mod, name, wrapped)
                    self._undo.append(lambda m=mod, n=name, v=value: setattr(m, n, v))
        for sid, suite in list(suites.SUITES.items()):
            runner = self._wrapper("suites", "runner." + sid, suite.runner)
            suites.SUITES[sid] = dataclasses.replace(suite, runner=runner)
            self._undo.append(lambda s=sid, orig=suite: suites.SUITES.__setitem__(s, orig))
        self._wrap_table(zeta1_cache.Zeta1AlphaTable)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        c, s = self.counts, self.self_s
        nodes = c["special.nodes"]
        integrand_calls = c["quadrature.integrand_calls"]
        out = {
            "zeta1_cache.builds": c["zeta1_cache.builds"],
            "zeta1_cache.build_s": s["zeta1_cache.build_s"],
            "zeta1_cache.lookups": c["zeta1_cache.lookups"],
            "zeta1_cache.lookup_nodes": c["zeta1_cache.lookup_nodes"],
            "zeta1_cache.self_s": s["zeta1_cache"],
            "zeta1_cache.max_check_err": self.max_check_err,
            "verifiers.self_s": s["verifiers"],
            "verifiers.calls": c["verifiers.calls"],
            "verifiers.errors": c["verifiers.errors"],
            "quadrature.self_s": s["quadrature"],
            "quadrature.calls": c["quadrature.calls"],
            "quadrature.evals": c["quadrature.evals"],
            "quadrature.integrand_calls": integrand_calls,
            "quadrature.nodes_per_integrand_call":
                c["quadrature.integrand_nodes"] / integrand_calls if integrand_calls else 0.0,
            "quadrature.failures": c["quadrature.failures"],
            "special.self_s": s["special"],
            "special.calls": c["special.calls"],
            "special.nodes": nodes,
            "special.us_per_node": 1e6 * s["special"] / nodes if nodes else 0.0,
            "special.hurwitz_zeta1.calls": c["special.hurwitz_zeta1.calls"],
            "special.lgamma.calls": c["special.lgamma.calls"],
            "special.dirichlet_kernel.calls": c["special.dirichlet_kernel.calls"],
            "suites.self_s": s["suites"],
            "suites.rows": c["suites.rows"],
            "suites.evals": c["suites.evals"],
            "cli.self_s": s["cli"],
            "cli.bytes_out": c["cli.bytes_out"],
            "cli.nonzero_exits": c["cli.nonzero_exits"],
        }
        for key, value in s.items():
            if key.startswith("suite_s."):
                out[key] = value
        return out

    def deterministic_counts(self) -> dict:
        """Counts that must repeat exactly between runs of the same code."""
        return {k: v for k, v in self.counts.items() if k != "cli.bytes_out"}

    def write_spans(self, path: str, append: bool = False) -> None:
        with open(path, "a" if append else "w") as fh:
            fh.write(json.dumps({"run_id": self.run_id,
                                 "fields": ["id", "parent", "layer", "name", "start", "end"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
