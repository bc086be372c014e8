"""The library names that the benchmark in bench/ relies on.  The bench
modules are loaded read-only (no bytecode is written next to them)."""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench_module(name: str, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fp_iss_names_are_exported(monkeypatch):
    # fp_iss.py refuses to run once a name it uses leaves its module's __all__
    used = _load_bench_module("fp_iss", monkeypatch).USED
    missing = {module.__name__: [n for n in names if n not in module.__all__]
               for module, names in used.items()}
    assert all(names == [] for names in missing.values()), missing


def test_tracer_sites_are_callables(monkeypatch):
    # a site that is gone is reported "absent" and loses its per-layer count
    tracer = _load_bench_module("tracer", monkeypatch)
    absent = [site for site, (modname, attr) in tracer.SITES.items()
              if not callable(getattr(importlib.import_module(f"{tracer.PACKAGE}.{modname}"),
                                      attr, None))]
    assert absent == []
