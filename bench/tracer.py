"""Outside-in span tracing of the isslab layers, and the traced child entry.

The program is not instrumented.  Instead each traced site -- a public
function of a package module -- is wrapped at every module attribute that
the program calls it through (``orlicz.luxemburg_norm``,
``bounds.luxemburg_norm``, ``cli.luxemburg_norm``, ...): the original
function object is looked up once and every ``isslab.*`` attribute bound to
that same object is replaced.  Calls made inside a module resolve through
that module's globals, so they are caught too.

Each wrapper records a span (id, parent id, site, thread id, start, end) in
memory; the spans are written out once, when the traced process ends.
Spans nest on a per-thread stack, because ``audit-iss`` runs its cases on a
pool worker thread; a span opened on a thread with an empty stack takes the
main thread's open span as its parent, so the pool's work is a child of the
command that waits for it.

Usage (the benchmark runs this as the traced child process):

    python bench/tracer.py SPANS.json cli run --config CFG --out DIR ...
    python bench/tracer.py SPANS.json fp-iss --seed N --out RESULT.json
"""

from __future__ import annotations

import ast
import functools
import importlib.util
import itertools
import json
import sys
import threading
import time

# site name -> (module, attribute).  cli.command is the span around cli.run:
# schema checks, the command body, CSV/JSON output and the worker pool.
SITES = {
    "cli.command": ("cli", "run"),
    "orlicz.luxemburg_norm": ("orlicz", "luxemburg_norm"),
    "orlicz.small_interval_norm": ("orlicz", "small_interval_norm"),
    "orlicz.complementary": ("orlicz", "complementary"),
    "orlicz.legendre_transform": ("orlicz", "legendre_transform"),
    "signals.restrict": ("signals", "restrict"),
    "bounds.iss_rhs": ("bounds", "iss_rhs"),
    "bounds.audit": ("bounds", "audit"),
    "diagonal.closed_form_solution": ("diagonal", "closed_form_solution"),
    "diagonal.closed_form_trajectory": ("diagonal", "closed_form_trajectory"),
    "diagonal.example3_admissibility": ("diagonal", "example3_admissibility"),
    "mild_solver.solve_mild": ("mild_solver", "solve_mild"),
    "fokker_planck.build_model": ("fokker_planck", "build_model"),
    "fokker_planck.step": ("fokker_planck", "step"),
    "fokker_planck.simulate": ("fokker_planck", "simulate"),
    "fokker_planck.spectral_gap": ("fokker_planck", "spectral_gap"),
    "fokker_planck.fit_gain_constant": ("fokker_planck", "fit_gain_constant"),
    "fokker_planck.run_fp_iss_experiment": ("fokker_planck", "run_fp_iss_experiment"),
}

PACKAGE = "isslab"


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, site: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else 0
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(
                        (sid, parent, site, threading.get_ident(), t0, t1))

        return traced

    def install(self) -> dict:
        """Wrap every site whose module is loaded; return the status of
        each site: "wrapped", "not_loaded" (the workload never imports its
        module, so it cannot be called) or "absent" (the function no longer
        exists)."""
        loaded = {name: mod for name, mod in list(sys.modules.items())
                  if mod is not None and name.startswith(PACKAGE + ".")}
        status = {}
        for site, (modname, attr) in SITES.items():
            module = loaded.get(f"{PACKAGE}.{modname}")
            if module is None:
                status[site] = ("not_loaded" if _defined_in_source(modname, attr)
                                else "absent")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                status[site] = "absent"
                continue
            wrapper = self.wrap(site, original)
            for mod in loaded.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
            status[site] = "wrapped"
        return status


def _defined_in_source(modname: str, attr: str) -> bool:
    """Whether a module not imported by the workload still defines attr at
    top level, read from its source without importing it."""
    spec = importlib.util.find_spec(f"{PACKAGE}.{modname}")
    if spec is None or not spec.origin:
        return False
    with open(spec.origin) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == attr:
                return True
        elif isinstance(node, ast.ImportFrom):
            if any((a.asname or a.name) == attr for a in node.names):
                return True
        elif isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == attr for t in node.targets):
                return True
    return False


def aggregate(spans: list) -> dict:
    """Per-site calls, total time and self time.  Self time is a span's
    duration minus the part of its interval that its child spans cover."""
    children: dict[int, list] = {}
    for sid, parent, _site, _tid, t0, t1 in spans:
        children.setdefault(parent, []).append((t0, t1))
    out: dict[str, dict] = {}
    for sid, _parent, site, _tid, t0, t1 in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        agg = out.setdefault(site, {"calls": 0, "total_s": 0.0, "s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += t1 - t0
        agg["s"] += (t1 - t0) - covered
    return out


def main(argv: list[str]) -> int:
    spans_path, target, rest = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    if target == "cli":
        import isslab.cli as entry
    elif target == "fp-iss":
        import fp_iss as entry
    else:
        raise SystemExit(f"unknown traced target {target!r}")
    import_s = time.perf_counter() - t0

    tracer = Tracer(run_id=f"{target}-{time.time_ns()}")
    status = tracer.install()
    try:
        code = entry.main(rest)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"run_id": tracer.run_id, "import_s": import_s,
                       "sites": status, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
