import contextlib
import copy
import functools
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isslab
from isslab import cli, diagonal, fokker_planck, mild_solver
from isslab.cli import _DISPATCH, _REQUIRED, _checked, main
from isslab.errors import IsslabError, NumericError
from isslab.orlicz import YoungFunction, complementary
from reference import audit_iss_rows, write_csv_rows


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_orlicz_norm_command(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "command": "orlicz-norm",
            "params": {
                "young": {"kind": "identity"},
                "signal": {"t0": 0, "t1": 3, "constant": 1.0},
            },
        },
    )
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["norm"] == pytest.approx(3.0)
    assert summary["pass"] is True
    assert set(summary["versions"]) == {"isslab", "numpy", "scipy", "python"}
    assert len(summary["config_sha256"]) == 64
    assert (out / "results.csv").exists()


@pytest.mark.parametrize("constant", [2.0, [2.0, 2.0, 2.0]])
def test_constant_signal_fills_d_components(tmp_path, constant):
    # the norm of s^2 is the L^2 norm: |(2, 2, 2)| on [0, 1] is 2 sqrt(3)
    cfg = write_config(tmp_path, "c.json", {"command": "orlicz-norm", "params": {
        "young": {"kind": "power", "p": 2},
        "signal": {"t0": 0, "t1": 1, "constant": constant, "d": 3}}})
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    norm = json.loads((out / "summary.json").read_text())["norm"]
    assert norm == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-14)


def test_invalid_config_exits_2(tmp_path):
    cfg = write_config(tmp_path, "bad.json", {"command": "no-such", "params": {}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--config", missing, "--quiet"]) == 2


def test_numeric_error_exits_3(tmp_path):
    # an absurd admissibility constant overflows the exponential gain
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "command": "audit-iss",
            "seed": 1,
            "params": {"N": 4, "T": 2.0, "cases": 2, "C_B1": 1e9},
        },
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"]) == 3


def test_simulate_diagonal_artifacts(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "command": "simulate-diagonal",
            "seed": 5,
            "params": {
                "N": 4,
                "T": 1.0,
                "quad_h": 5e-4,
                "x0": [0.5, 0.5, 0.5, 0.5],
                "u1": {"t0": 0, "t1": 1, "cells": 8, "amplitude": 1.0, "seed": 5},
            },
        },
    )
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "complete"
    assert summary["max_oracle_error"] <= 1e-6
    assert (out / "trajectory.csv").exists()
    header = (out / "results.csv").read_text().splitlines()[0]
    assert header == "t,norm,oracle_error"


@pytest.mark.parametrize("seed", [46, 60, 80, 137])
def test_oracle_workload_seeds_pass(tmp_path, seed):
    # N=8, T=4 on the default grid; these seeds missed the 1e-6 oracle bound
    # with the plain trapezoid rule at quad_h 5e-4
    cfg = write_config(tmp_path, "c.json", {"command": "simulate-diagonal", "params": {
        "N": 8, "T": 4.0, "oracle_tol": 1e-6,
        "u1": {"t0": 0.0, "t1": 4.0, "cells": 24, "amplitude": 1.0, "seed": 0}}})
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["run", "--config", cfg, "--out", str(out), "--seed", str(seed),
                     "--quiet"]) == 0
    summary = json.loads((a / "summary.json").read_text())
    assert summary["status"] == "complete" and summary["max_oracle_error"] <= 1e-6
    assert 0.0 < summary["quad_error_estimate"] < math.inf
    # quad_error_estimate included, the summary is byte-identical across runs
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_simulate_diagonal_blowup_summary(tmp_path, monkeypatch):
    # u1 = 5 makes the modes grow like e^{8t}; a threshold of 10 cuts the run short
    monkeypatch.setattr(mild_solver, "BLOWUP_THRESHOLD", 10.0)
    cfg = write_config(tmp_path, "c.json", {"command": "simulate-diagonal", "params": {
        "N": 2, "T": 1.0, "u1": {"t0": 0, "t1": 1.0, "constant": 5.0}}})
    out = tmp_path / "run"
    main(["run", "--config", cfg, "--out", str(out), "--quiet"])
    summary = json.loads((out / "summary.json").read_text())
    last_t = (out / "trajectory.csv").read_text().splitlines()[-1].split(",")[0]
    assert summary["status"] == "blowup"
    assert summary["t_blowup"] == float(last_t)
    assert summary["n_points"] == len((out / "trajectory.csv").read_text().splitlines()) - 1


def test_determinism_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "command": "audit-iss",
            "seed": 42,
            "params": {"N": 6, "T": 1.5, "cases": 5},
        },
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a), "--quiet"]) == 0
    assert main(["run", "--config", cfg, "--out", str(b), "--quiet", "--jobs", "2"]) == 0
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()


def test_seed_override(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "command": "audit-iss",
            "seed": 1,
            "params": {"N": 4, "T": 1.0, "cases": 3},
        },
    )
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", cfg, "--out", str(a), "--quiet"])
    main(["run", "--config", cfg, "--out", str(b), "--seed", "99", "--quiet"])
    assert (a / "results.csv").read_text() != (b / "results.csv").read_text()
    assert json.loads((b / "summary.json").read_text())["seed"] == 99


def test_fp_gap_command(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "command": "fp-gap",
            "params": {"nu": 1.0, "J": 64, "W": {"expr": "0*x"}},
        },
    )
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["omega"] == pytest.approx(9.8656, rel=1e-3)


def test_non_finite_fp_field_exits_2(tmp_path, capsys):
    params = {"nu": 0.5, "J": 32, "T": 0.1, "dt": 1e-3}
    for command, expr in (("fp-gap", "1/x"), ("fp-gap", "log(x)"),
                          ("simulate-fp", "1/x")):
        cfg = write_config(tmp_path, "c.json", {
            "command": command, "params": {**params, "W": {"expr": expr}},
        })
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"])
        assert code == 2, (command, expr)
        assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_missing_required_param_exits_2(tmp_path, capsys):
    for command, params in (
        ("fp-gap", {"nu": 0.5, "W": {"expr": "x"}}),
        ("audit-iss", {"N": 4}),
        ("orlicz-norm", {"young": {"kind": "power", "p": 2}}),
    ):
        cfg = write_config(tmp_path, "c.json", {"command": command, "params": params})
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"])
        assert code == 2, (command, params)
        assert json.loads(capsys.readouterr().err)["error"] == "config"


@pytest.mark.parametrize("key", ["cells", "amplitude", "seed"])
def test_random_signal_spec_missing_key_exits_2(tmp_path, capsys, key):
    spec = {"t0": 0, "t1": 1, "cells": 4, "amplitude": 1.0, "seed": 3}
    del spec[key]
    cfg = write_config(tmp_path, "c.json", {
        "command": "orlicz-norm",
        "params": {"young": {"kind": "power", "p": 2}, "signal": spec},
    })
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and key in err["detail"]


@pytest.mark.parametrize("expr", ["nope(x)", "1/0", "x+"])
def test_failing_field_expression_exits_2(tmp_path, capsys, expr):
    cfg = write_config(tmp_path, "c.json", {
        "command": "fp-gap", "params": {"nu": 0.5, "J": 32, "W": {"expr": expr}},
    })
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_field_expression_cannot_run_code(tmp_path, capsys):
    target = tmp_path / "written.txt"
    for expr in (f"x*0 + (np.savetxt({str(target)!r}, x) or 0)",
                 "x*0+().__class__.__base__.__subclasses__().__len__()/1e9"):
        cfg = write_config(tmp_path, "c.json", {
            "command": "fp-gap", "params": {"nu": 0.5, "J": 32, "W": {"expr": expr}},
        })
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"])
        assert code == 2, expr
        assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not target.exists()


def test_wrong_length_field_exits_2(tmp_path, capsys):
    for W in ({"expr": "x[:3]"}, {"expr": "'text'"}, {"expr": "x.reshape(-1, 1)"}):
        cfg = write_config(tmp_path, "c.json", {
            "command": "fp-gap", "params": {"nu": 0.5, "J": 32, "W": W},
        })
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"])
        assert code == 2, W
        assert json.loads(capsys.readouterr().err)["error"] == "config"


@pytest.mark.parametrize("W", [3, {"clamp": True}, ["a"]])
def test_malformed_field_spec_exits_2(tmp_path, capsys, W):
    cfg = write_config(tmp_path, "c.json", {
        "command": "fp-gap", "params": {"nu": 0.5, "J": 32, "W": W},
    })
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


_VENDORED_LAPACK = None not in map(fokker_planck._lapack_symbol, fokker_planck._ARGTYPES)


@pytest.mark.parametrize("entry, module", [
    *(pytest.param("isslab.cli", m, id=m)
      for m in ["scipy.integrate", "scipy.special", "scipy.linalg", "scipy.sparse", "jsonschema"]),
    pytest.param("isslab.cli", "scipy"),
    # fokker_planck runs its LAPACK through numpy's bundled OpenBLAS
    *(pytest.param("isslab.fokker_planck", m, id=f"fokker_planck-{m}", marks=pytest.mark.skipif(
        not _VENDORED_LAPACK, reason="numpy exports no LAPACK: the scipy fallback runs"))
      for m in ["scipy.linalg", "scipy.sparse", "scipy"]),
    # bounds imports orlicz only for the Orlicz norms that fokker_planck never takes
    pytest.param("isslab.fokker_planck", "isslab.orlicz", id="fokker_planck-orlicz"),
])
def test_cli_import_defers_scipy_integrate(entry, module):
    src = str(Path(isslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = f"import sys, {entry}; sys.exit({module!r} in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_versions_name_scipy_only_when_the_run_loaded_it(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"command": "orlicz-norm", "params": {
        "young": {"kind": "identity"}, "signal": {"t0": 0, "t1": 1, "constant": 1.0}}})
    src = str(Path(isslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    fresh = tmp_path / "fresh"
    subprocess.run([sys.executable, "-m", "isslab.cli", "run", "--config", cfg,
                    "--out", str(fresh), "--quiet"], env=env, check=True)
    assert json.loads((fresh / "summary.json").read_text())["versions"]["scipy"] is None
    import scipy
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "loaded"), "--quiet"]) == 0
    versions = json.loads((tmp_path / "loaded" / "summary.json").read_text())["versions"]
    assert versions["scipy"] == scipy.__version__


def test_simulate_fp_command(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "command": "simulate-fp",
            "seed": 3,
            "params": {
                "nu": 0.5,
                "J": 32,
                "W": {"expr": "cos(2*pi*x)/2"},
                "alpha": {"expr": "sin(pi*x)", "clamp": True},
                "T": 0.5,
                "dt": 1e-3,
                "rho0_modes": [0.2],
                "u": {"t0": 0, "t1": 0.5, "cells": 5, "amplitude": 1.0, "seed": 3},
            },
        },
    )
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_mass_drift"] <= 1e-9
    assert (out / "trajectory.csv").read_text().splitlines()[0] == "t,deviation,mass"


def test_huge_input_amplitude_exits_without_traceback(tmp_path, capsys):
    # 5e307 overflows the Crank-Nicolson matrix (numeric, exit 3); 1e308
    # cannot be sampled uniformly (config, exit 2); neither warns
    for amplitude, code, error in ((5e307, 3, "numeric"), (1e308, 2, "config")):
        cfg = write_config(tmp_path, "c.json", {
            "command": "simulate-fp",
            "params": {
                "nu": 0.5, "J": 32, "W": {"expr": "cos(2*pi*x)/2"},
                "alpha": {"expr": "sin(pi*x)", "clamp": True}, "T": 0.1, "dt": 1e-3,
                "u": {"t0": 0, "t1": 0.1, "cells": 5, "amplitude": amplitude, "seed": 3},
            },
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = main(["run", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"])
        assert got == code, amplitude
        assert json.loads(capsys.readouterr().err)["error"] == error


def test_orlicz_norm_of_huge_signal(tmp_path):
    # cell values near 1e200 have squares beyond double range
    cfg = write_config(tmp_path, "c.json", {
        "command": "orlicz-norm",
        "params": {"young": {"kind": "power", "p": 2},
                   "signal": {"t0": 0, "t1": 1, "cells": 4, "amplitude": 1e200, "seed": 3}},
    })
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    norm = json.loads((out / "summary.json").read_text())["norm"]
    assert 1e199 < norm < 1e201


def test_admissibility_scan_command(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "command": "admissibility-scan",
            "params": {"p": 2.0, "N_list": [1, 10, 25, 50]},
        },
    )
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["monotone_growth"] is True
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "N,value,log10_value"
    assert len(lines) == 5


def test_admissibility_scan_past_n1023(tmp_path):
    # 2^n overflows a double at n = 1024; the scan's log-space constants do not
    cfg = write_config(tmp_path, "c.json", {
        "command": "admissibility-scan", "params": {"p": 2.0, "N_list": [5, 1100]}})
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = [[float(x) for x in line.split(",")]
            for line in (out / "results.csv").read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == [5, 1100] and all(map(math.isfinite, rows[1]))


def test_report_aggregation(tmp_path):
    empty_out = tmp_path / "rep0"
    assert main(["report", "--out", str(empty_out), "--quiet"]) == 0
    assert (empty_out / "aggregate.csv").exists()

    ok_dir = tmp_path / "ok"
    ok_dir.mkdir()
    (ok_dir / "summary.json").write_text(
        json.dumps({"command": "fp-gap", "seed": 1, "pass": True})
    )
    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    (bad_dir / "summary.json").write_text(
        json.dumps({"command": "audit-iss", "seed": 2, "pass": False})
    )
    out = tmp_path / "rep1"
    code = main([
        "report", str(ok_dir), str(bad_dir), str(tmp_path / "missing"),
        "--out", str(out), "--quiet",
    ])
    assert code == 1
    report = (out / "report.md").read_text()
    assert "missing" in report
    assert "failed: 1" in report


def test_report_lists_unparseable_summary(tmp_path):
    ok_dir = tmp_path / "ok"
    ok_dir.mkdir()
    (ok_dir / "summary.json").write_text(
        json.dumps({"command": "fp-gap", "seed": 1, "pass": True})
    )
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "summary.json").write_text('{"command": "fp-gap", "pass": tr')
    out = tmp_path / "rep"
    code = main(["report", str(ok_dir), str(broken), "--out", str(out), "--quiet"])
    assert code == 0
    report = (out / "report.md").read_text()
    assert f"- missing summaries: {broken}" in report
    assert "- runs: 1" in report


def test_report_lists_non_object_summary(tmp_path):
    listed = tmp_path / "listed"
    listed.mkdir()
    (listed / "summary.json").write_text("[]")
    out = tmp_path / "rep"
    code = main(["report", str(listed), "--out", str(out), "--quiet"])
    assert code == 0
    report = (out / "report.md").read_text()
    assert f"- missing summaries: {listed}" in report
    assert "- runs: 0" in report


_SIGNAL = {"t0": 0, "t1": 0.2, "cells": 2, "amplitude": 1.0, "seed": 1, "d": 1,
           "zero": False}
# one small valid config per command, each a few tens of milliseconds; they
# give every key that the mutations should reach
_VALID = {
    "orlicz-norm": {"young": {"kind": "power", "p": 3, "complementary": False},
                    "signal": _SIGNAL},
    "simulate-diagonal": {"N": 2, "T": 0.2, "u1": _SIGNAL, "x0": [1.0, -1.0],
                          "tol": 1e-8, "quad_h": 1e-3, "full_state": True,
                          "oracle_tol": 1e-6},
    "simulate-fp": {"nu": 0.5, "J": 16, "W": {"expr": "cos(2*pi*x)/2"},
                    "alpha": {"expr": "sin(pi*x)", "clamp": True}, "T": 0.01,
                    "dt": 2e-3, "rho0_modes": [0.1],
                    "u": {"t0": 0, "t1": 0.01, "constant": 0.5}},
    "audit-iss": {"N": 2, "T": 0.5, "cases": 1, "cells": 2, "samples": 5,
                  "amplitude": 0.5, "C_B1": 2.0, "M": 1.0, "omega": 2.0, "m": 1.0,
                  "tol": 1e-6},
    "admissibility-scan": {"N_list": [1, 3], "p": 2.0, "t": 1.0},
    "fp-gap": {"nu": 1.0, "J": 16, "W": [0.0] * 17},
}


def _key_paths(obj, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


_TARGETS =[(command, path) for command in _VALID for path in
            _key_paths({"command": command, "seed": 1, "params": _VALID[command]})]
_DELETE, _ADD_KEY = "<delete the key>", "<add an unknown key>"


def _run_quietly(config: dict) -> tuple[int, str]:
    """Exit code and stderr of one in-process run of config."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(path), "--out", str(Path(tmp) / "r"),
                         "--quiet"])
    return code, err.getvalue()


@pytest.mark.parametrize("command", _VALID)
def test_fuzz_base_config_exits_0(command):
    # the mutations below start from configs that run cleanly
    assert _run_quietly({"command": command, "seed": 1, "params": _VALID[command]}) == (0, "")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_TARGETS),
       st.sampled_from(["x", True, None, -1, -2.5, math.nan, math.inf, -math.inf, 2**70,
                        [], {}, _DELETE, _ADD_KEY]))
def test_mutated_config_exits_0_2_or_3(target, mutation):
    # exit 1 means a check failed; a config must never cause it or a traceback
    command, path = target
    config = copy.deepcopy({"command": command, "seed": 1, "params": _VALID[command]})
    parent = functools.reduce(operator.getitem, path[:-1], config)
    if mutation == _DELETE:
        del parent[path[-1]]
    elif mutation == _ADD_KEY:
        parent["unknown"] = 1
    else:
        parent[path[-1]] = mutation
    code, err = _run_quietly(config)
    assert code in (0, 2, 3), (config, code, err)
    if code:
        assert isinstance(json.loads(err), dict), err


@pytest.mark.parametrize("command, change", [
    ("audit-iss", {"N": "8"}),
    ("simulate-diagonal", {"N": "8"}),
    ("fp-gap", {"J": 1.5}),
    ("admissibility-scan", {"N_list": []}),
    ("admissibility-scan", {"N_list": "abc"}),
    ("admissibility-scan", {"N_list": [0]}),
    ("admissibility-scan", {"t": 0}),
    ("orlicz-norm", {"tol": "x"}),
    ("audit-iss", {"samples": 2.5}),
    ("audit-iss", {"samples": 1}),
    ("audit-iss", {"C_B1": "x"}),
    ("audit-iss", {"cases": -1}),
    ("audit-iss", {"cels": 4}),
    ("simulate-diagonal", {"oracle_tol": -1e-6}),
    ("simulate-fp", {"rho0_modes": "ab"}),
    ("simulate-fp", {"u": {"t0": 0, "t1": 0.01, "constant": [1, 2]}}),
    ("simulate-fp", {"J": -5}),
    # numbers must be finite doubles or int64 integers
    ("simulate-fp", {"T": math.nan}),
    ("simulate-fp", {"dt": math.nan}),
    ("simulate-fp", {"T": math.inf}),
    ("simulate-diagonal", {"T": math.nan}),
    ("audit-iss", {"omega": math.nan}),
    ("orlicz-norm", {"signal": {**_SIGNAL, "cells": 2**70}}),
    ("orlicz-norm", {"signal": {**_SIGNAL, "t1": 2**70}}),
    ("orlicz-norm", {"signal": {**_SIGNAL, "amplitude": 10**400}}),
    # finite, but more time steps than numpy can allocate
    ("simulate-fp", {"T": 1e300, "u": {"t0": 0, "t1": 1e300, "constant": 0.5}}),
    # a constant list gives one value per component: its length must be d
    ("orlicz-norm", {"signal": {"t0": 0, "t1": 1, "constant": [1, 2], "d": 3}}),
    # a d or cells whose arrays numpy refuses to allocate
    ("orlicz-norm", {"signal": {"t0": 0, "t1": 1, "zero": True, "d": 2**62}}),
    ("orlicz-norm", {"signal": {"t0": 0, "t1": 1, "constant": 2, "d": 2**62}}),
    ("orlicz-norm", {"signal": {**_SIGNAL, "cells": 2**62}}),
    ("audit-iss", {"cells": 2**62, "cases": 1}),
    # the norm has no tolerance to set
    ("orlicz-norm", {"tol": 1e-6}),
    # more modes than numpy can allocate
    ("admissibility-scan", {"N_list": [2**62]}),
    # more cases than numpy can allocate
    ("audit-iss", {"cases": 2**62}),
])
def test_malformed_param_exits_2(command, change):
    config = {"command": command, "params": {**_VALID[command], **change}}
    code, err = _run_quietly(config)
    assert code == 2, err
    assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize("command, change", [
    ("fp-gap", {"nu": 1e300}),
    ("fp-gap", {"nu": 1e-4, "W": {"expr": "cos(2*pi*x)/2"}}),
    ("fp-gap", {"W": {"expr": "1e6*x"}}),
    ("simulate-fp", {"nu": 1e-4}),
    # finite samples whose increments overflow the operator bands
    ("fp-gap", {"J": 64, "W": {"expr": "1e308*(2*x-1)"}}),
])
def test_overflowing_fp_model_exits_3(command, change):
    # e^{Phi/2}, e^{-W/nu} or a band overflows: a numeric failure, reported
    # as one JSON line with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _run_quietly({"command": command, "params": {**_VALID[command], **change}})
    assert code == 3, err
    assert len(err.splitlines()) == 1, err
    assert json.loads(err)["error"] == "numeric"


def test_readme_params_table_matches_dispatch():
    # each row of the README's command table names the required keys and
    # the optional ones (each followed by its default in parentheses)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([\w-]+)` \| ([^|]*) \| ([^|]*) \|$", readme, re.M)
    documented = {command: (set(re.findall(r"`(\w+)`", req)), set(re.findall(r"`(\w+)` \(", opt)))
                  for command, req, opt in rows}
    assert documented == {
        command: ({k for k, v in table.items() if v[2] is _REQUIRED},
                  {k for k, v in table.items() if v[2] is not _REQUIRED})
        for command, (_, table) in _DISPATCH.items()}


def test_summary_echoes_params_as_given(tmp_path):
    params = {"N": 2, "T": 0.5, "cases": 1}
    cfg = write_config(tmp_path, "c.json", {"command": "audit-iss", "params": params})
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "summary.json").read_text())["params"] == params


def test_unexpected_error_exits_4(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise ZeroDivisionError("a fault of the program")

    monkeypatch.setattr(diagonal, "lp_admissibility_scan", broken)
    cfg = write_config(tmp_path, "c.json", {
        "command": "admissibility-scan", "params": {"N_list": [1, 3]}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r"), "--quiet"]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "internal" and "ZeroDivisionError" in err["detail"]


def _audit_files(params: dict, seed: int) -> tuple[int, str | None, str | int]:
    """Exit code and results.csv of one in-process audit-iss run, and the
    case-by-case reference's rows for the checked params (defaults filled
    in), or the exit code its error maps to."""
    checked = _checked(params, _DISPATCH["audit-iss"][1], "params")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps({"command": "audit-iss", "params": params}))
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", "--config", str(path), "--out", str(Path(tmp) / "r"),
                         "--seed", str(seed), "--quiet"])
        out = Path(tmp) / "r" / "results.csv"
        got = out.read_text() if out.exists() else None
        try:
            rows = audit_iss_rows(checked, seed, complementary(YoungFunction.loglog()))
        except IsslabError as exc:
            return code, got, 3 if isinstance(exc, NumericError) else 2
        write_csv_rows(Path(tmp) / "ref.csv", ["case", "seed", "x0_norm", "max_violation",
                                                "min_slack_ratio", "pass"], rows)
        return code, got, (Path(tmp) / "ref.csv").read_text()


# cases after case 0, which is a block alone: one short of a full block,
# one full block, one past it, and several blocks with a partial one
_CASES = {"0": lambda size: 0, "1": lambda size: 1, "block-1": lambda size: size,
          "block": lambda size: 1 + size, "block+1": lambda size: 2 + size,
          "several": lambda size: 2 + 3 * size}


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 12), cells=st.integers(1, 40), samples=st.integers(2, 60),
       amplitude=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 2.0),
       T=st.sampled_from([0.5, 2.0, 3.0]), size=st.integers(1, 4),
       cases=st.sampled_from(sorted(_CASES)), seed=st.integers(0, 2**20))
def test_audit_blocks_equal_the_case_by_case_reference(N, cells, samples, amplitude, T,
                                                       size, cases, seed):
    # blocks of `size` cases: _BLOCK_BYTES sized to `size` (rows x cells) arrays
    params = {"N": N, "T": T, "cells": cells, "samples": samples, "amplitude": amplitude,
              "cases": _CASES[cases](size)}
    with mock.patch.object(cli, "_BLOCK_BYTES", 8 * samples * cells * size):
        code, got, want = _audit_files(params, seed)
    if isinstance(want, int):  # the reference raised: the command exits alike
        assert code == want
    else:
        assert code in (0, 1) and got == want


@pytest.mark.parametrize("cases", [0, 1, 12, 13, 14, 40])
def test_audit_block_edges_equal_the_reference(cases):
    # the benchmark's config: 12 cases per block after case 0
    assert cli._BLOCK_BYTES // (8 * 41 * 16) == 12
    code, got, want = _audit_files({"N": 8, "T": 2.0, "cases": cases}, 7)
    assert code == 0 and got == want


def test_audit_rows_are_a_prefix_of_a_longer_run():
    # a run's rows do not depend on where its blocks end
    longer = _audit_files({"N": 5, "T": 1.5, "cases": 30}, 123)[1].splitlines()
    for n in (1, 2, 12, 13, 14, 29):
        lines = _audit_files({"N": 5, "T": 1.5, "cases": n}, 123)[1].splitlines()
        assert lines == longer[:n + 1]


@pytest.mark.parametrize("change, code", [
    ({}, 3), ({"omega": -1.0}, 2), ({"tol": -1.0}, 2), ({"omega": 0.0, "tol": -1.0}, 2),
    ({"C_B1": 400.0}, 3), ({"C_B1": 400.0, "tol": -1.0}, 3)])
def test_audit_errors_met_as_case_by_case(change, code):
    # case 0's closed form and bound are finite and case 2's closed form
    # overflows, so case 0 meets a check that every case fails (omega <= 0,
    # tol < 0) first; with C_B1 = 400 case 0's gain overflows before it
    params = {"N": 4, "T": 20.0, "cells": 8, "amplitude": 50.0, "C_B1": 0.01, "cases": 14,
              **change}
    got = _audit_files(params, 0)
    assert got[0] == got[2] == code
