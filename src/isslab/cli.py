"""Experiment runner: JSON-config-driven pipelines with reproducible
CSV/JSON artifacts.

Every run writes results.csv (fixed column order, 17-significant-digit
floats) and summary.json (inputs echoed, config hash, seeds, library
versions, pass flag); simulate-* commands additionally write
trajectory.csv.  Exit codes: 0 success, 1 a check failed, 2 config error,
3 numeric failure, 4 internal error (a fault of the program, reported as
JSON like the others).  A config is checked against one parameter table
per command (_DISPATCH): unknown keys, missing required keys, wrong types,
numbers that are not finite doubles or int64 integers, and counts below
their minimum are config errors.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import itertools
import json
import math
import operator
import sys
from pathlib import Path

import numpy as np

from . import __version__, bounds, diagonal
from .errors import DataError, IsslabError, NumericError
from .mild_solver import solve_mild
from .orlicz import YoungFunction, complementary, luxemburg_norm
from .signals import Interval, Signal, _allocate, random_signal, write_csv

# bytes of one (rows x cells) prefix-norm kernel array of an audit block
_BLOCK_BYTES = 1 << 16
# A parameter table maps each key to (test, inclusive minimum, default): a
# test is a predicate, a nested table or a tuple of either.  Tables check
# types and the bounds that no library call checks.
_REQUIRED = object()  # the default of a key that a config must give


def _is(*types):
    return lambda v: type(v) in types


def _list_of(test):
    return lambda v: type(v) is list and v != [] and all(map(test, v))


# int64 integers and finite doubles only: NaN passes every minimum
_INT = lambda v: type(v) is int and -2**63 <= v < 2**63
_NUM = lambda v: _INT(v) or (type(v) is float and math.isfinite(v))
_BOOL, _STR = _is(bool), _is(str)
_NUMS = _list_of(_NUM)


def _checked(spec, table: dict, where: str) -> dict:
    """spec with every default of table filled in; an unknown or missing
    key, or a value that fails its test or minimum, is a config error."""
    if type(spec) is not dict:
        raise DataError(f"{where} must be an object, got {spec!r}")
    unknown = sorted(set(spec) - set(table))
    if unknown:
        raise DataError(f"{where} has unknown keys {unknown}")
    out = {}
    for key, (test, low, default) in table.items():
        name, value = f"{where}.{key}", spec.get(key, default)
        if value is _REQUIRED:
            raise DataError(f"config needs {name}")
        if key in spec:
            for alt in test if type(test) is tuple else (test,):
                if type(alt) is dict and type(value) is dict:
                    value = _checked(value, alt, name)
                    break
                if callable(alt) and alt(value):
                    break
            else:
                raise DataError(f"{name} has the wrong type or is out of range: {value!r}")
            if low is not None and min(value if type(value) is list else [value]) < low:
                raise DataError(f"{name} must be >= {low}, got {value!r}")
        out[key] = value
    return out


_SIGNAL = {
    "t0": (_NUM, None, _REQUIRED), "t1": (_NUM, None, _REQUIRED),
    "constant": ((_NUM, _NUMS), None, None), "zero": (_BOOL, None, False),
    "seed": (_INT, 0, None), "d": (_INT, 1, 1),
    "cells": (_INT, None, None), "amplitude": (_NUM, None, None),
}


def _parse_signal(spec: dict, seed_override: int | None = None) -> Signal:
    iv = Interval(spec["t0"], spec["t1"])
    if spec["zero"]:
        return Signal.zero(iv, spec["d"])
    if spec["constant"] is not None:
        # a number fills all d components, a list gives one value per component
        if type(spec["constant"]) is list and len(spec["constant"]) != spec["d"]:
            raise DataError(f"a constant signal of d={spec['d']} needs {spec['d']} "
                            f"values, got {len(spec['constant'])}")
        return Signal.constant(spec["constant"], iv, spec["d"])
    seed = spec["seed"] if seed_override is None else seed_override
    for key, value in (("seed", seed), ("cells", spec["cells"]),
                       ("amplitude", spec["amplitude"])):
        if value is None:
            raise DataError(f"a random signal needs {key!r}")
    return random_signal(seed, spec["d"], iv, spec["cells"], spec["amplitude"])


_YOUNG = {
    "kind": (lambda v: v in ("power", "power_over_p", "loglog", "identity"),
             None, _REQUIRED),
    "p": (_NUM, None, None), "complementary": (_BOOL, None, False),
}


def _parse_young(spec: dict) -> YoungFunction:
    phi = YoungFunction(spec["kind"], p=spec["p"])
    return complementary(phi) if spec["complementary"] else phi


_EXPR_NAMES = {"pi": np.pi, "e": np.e}
_EXPR_FUNCS = {
    "cos": np.cos, "sin": np.sin, "exp": np.exp, "sqrt": np.sqrt,
    "abs": np.abs, "log": np.log,
}
_EXPR_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
    ast.UAdd: operator.pos, ast.USub: operator.neg,
}


def _eval_expr(node: ast.AST, names: dict):
    """Value of a parsed field expression.  Only numbers (as float64, so a
    huge power overflows to inf), the given names, arithmetic and
    one-argument calls of _EXPR_FUNCS are allowed, so a config runs no code."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return np.float64(node.value)
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_OPS:
        return _EXPR_OPS[type(node.op)](_eval_expr(node.operand, names))
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPS:
        return _EXPR_OPS[type(node.op)](_eval_expr(node.left, names),
                                        _eval_expr(node.right, names))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _EXPR_FUNCS and len(node.args) == 1
            and not node.keywords):
        return _EXPR_FUNCS[node.func.id](_eval_expr(node.args[0], names))
    raise DataError(f"{ast.unparse(node)!r} is not allowed in a field expression")


_FIELD = (_NUMS, {"expr": (_STR, None, _REQUIRED), "clamp": (_BOOL, None, False)})


def _parse_field(spec):
    """Node samples as a literal list, or as a function of the nodes x that
    evaluates a whitelisted expression."""
    if type(spec) is list:
        return spec

    def samples(x: np.ndarray) -> np.ndarray:
        # any failure of the config's expression is a config error;
        # non-finite samples are rejected by build_model, not warned about
        try:
            with np.errstate(all="ignore"):
                tree = ast.parse(spec["expr"], mode="eval")
                value = _eval_expr(tree.body, {**_EXPR_NAMES, "x": x})
            out = np.broadcast_to(np.asarray(value, dtype=float), x.shape).copy()
        except Exception as exc:
            raise DataError(
                f"field expression {spec['expr']!r} must give one number or "
                f"{x.size} node samples ({exc})"
            ) from exc
        if spec["clamp"]:
            from .fokker_planck import clamp_end_slopes
            out = clamp_end_slopes(out)
        return out

    return samples


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_orlicz_norm(params: dict, seed, out_dir: Path) -> dict:
    phi = _parse_young(params["young"])
    u = _parse_signal(params["signal"], seed)
    norm = luxemburg_norm(phi, u)
    write_csv(out_dir / "results.csv", ["kind", "norm"], [[phi.kind, norm]])
    return {"norm": norm, "pass": True}


def _cmd_simulate_diagonal(params: dict, seed, out_dir: Path) -> dict:
    model = diagonal.example3_model(params["N"])
    u1 = _parse_signal(params["u1"], seed) if params["u1"] else None
    x0 = np.asarray(params["x0"] or [1.0] * params["N"], dtype=float)
    traj = solve_mild(model, x0, u1, None, params["T"],
                      tol=params["tol"], quad_h=params["quad_h"])
    oracle = diagonal.closed_form_trajectory(model, x0, u1, traj.grid)
    errs = np.max(np.abs(traj.states - oracle.states), axis=1).tolist()
    traj.to_csv(out_dir / "trajectory.csv", full_state=params["full_state"])
    write_csv(out_dir / "results.csv", ["t", "norm", "oracle_error"],
              np.column_stack([traj.grid, traj.norms, errs]))
    # the oracle distance combines the fixed-point tolerance with the quadrature
    # error, far below quad_error_estimate, the trapezoid error before extrapolation
    ok = max(errs) <= params["oracle_tol"]
    return {**traj.to_json(), "max_oracle_error": max(errs), "pass": bool(ok)}


def _build_fp(params: dict) -> fp.FPModel:
    # imported here, so other commands skip it (and its scipy.linalg fallback)
    from . import fokker_planck as fp
    return fp.build_model(params["nu"], _parse_field(params["W"]),
                          _parse_field(params["alpha"]), params["J"])


def _cmd_simulate_fp(params: dict, seed, out_dir: Path) -> dict:
    from . import fokker_planck as fp
    model = _build_fp(params)
    u = _parse_signal(params["u"], seed) if params["u"] else None
    rho0 = rho_inf = fp.stationary_density(model)
    if params["rho0_modes"]:
        pert = sum(c * np.cos((k + 1) * np.pi * model.grid)
                   for k, c in enumerate(params["rho0_modes"]))
        rho0 = fp.DensityField(model.grid, rho_inf.values + pert)
    times, devs, masses = fp.simulate(model, rho0, u, params["T"], params["dt"])
    write_csv(out_dir / "trajectory.csv", ["t", "deviation", "mass"],
              np.column_stack([times, devs, masses]))
    drift = float(np.max(np.abs(masses - 1.0)))
    write_csv(out_dir / "results.csv", ["max_mass_drift"], [[drift]])
    return {"max_mass_drift": drift, "n_steps": int(times.size - 1),
            "pass": drift <= 1e-9}


def _cmd_audit_iss(params: dict, seed, out_dir: Path) -> dict:
    N, T, n_cases, cells = params["N"], params["T"], params["cases"], params["cells"]
    model = diagonal.example3_model(N)
    base_seed = seed if seed is not None else 0
    phi = complementary(YoungFunction.loglog())
    c_b1 = params["C_B1"]
    if c_b1 is None:
        c_b1 = diagonal.example3_admissibility(N)["C_B1"]
    bp = bounds.BoundParams(M=params["M"], omega=params["omega"], m=params["m"],
                            C_B1=c_b1)
    times = np.linspace(0.0, T, params["samples"])
    figures, passed = _allocate(np.empty, (3, n_cases)), _allocate(np.empty, n_cases, bool)
    # one call per layer and block; case 0 is a block alone, so a check every
    # case fails (omega <= 0, tol < 0) is met after its closed form and bound
    size = max(1, _BLOCK_BYTES // (8 * times.size * max(cells, 1)))
    for a in itertools.chain(range(min(n_cases, 1)), range(1, n_cases, size)):
        b = min(a + size, n_cases) if a else 1
        seeds = range(base_seed + a, base_seed + b)
        x0s = [np.random.Generator(np.random.Philox(s)).uniform(-1.0, 1.0, N) for s in seeds]
        u1s = [random_signal(s + 10_000, 1, Interval(0.0, T), cells, params["amplitude"])
               for s in seeds]
        # one 1-d norm per case: a row norm of the stack differs in the last bit
        x0_norm = np.array([np.linalg.norm(x0) for x0 in x0s])
        traj = diagonal.closed_form_trajectory(model, np.array(x0s)[:, None], u1s, times)
        rhs = bounds.iss_rhs(bp, x0_norm, u1s, None, phi, phi, times)
        rep = bounds.audit(traj, rhs, tol=params["tol"])
        figures[:, a:b] = x0_norm, rep.max_violation, rep.min_slack_ratio
        passed[a:b] = rep.passed
    # rows are made one at a time as the file is written
    write_csv(out_dir / "results.csv",
              ["case", "seed", "x0_norm", "max_violation", "min_slack_ratio", "pass"],
              zip(range(n_cases), range(base_seed, base_seed + n_cases), *figures, passed))
    n_pass = int(np.count_nonzero(passed))
    return {"C_B1": c_b1, "cases": n_cases, "n_pass": n_pass,
            "pass": n_pass == n_cases}


def _cmd_admissibility_scan(params: dict, seed, out_dir: Path) -> dict:
    rows = diagonal.lp_admissibility_scan(params["p"], params["N_list"], params["t"])
    write_csv(out_dir / "results.csv", ["N", "value", "log10_value"],
              [[r["N"], r["constant"], r["log10_constant"]] for r in rows])
    logs = [r["log10_constant"] for r in rows]
    monotone = all(b >= a for a, b in zip(logs, logs[1:]))
    return {"max_log10_constant": rows[-1]["log10_constant"],
            "monotone_growth": monotone, "pass": True}


def _cmd_fp_gap(params: dict, seed, out_dir: Path) -> dict:
    from . import fokker_planck as fp
    model = _build_fp(params)
    gap = fp.spectral_gap(model)
    rho_inf = fp.stationary_density(model)
    # A rho from the three bands (see FPModel)
    A, v = model.A, rho_inf.values
    Av = A[1] * v
    Av[:-1] += A[0, 1:] * v[1:]
    Av[1:] += A[2, :-1] * v[:-1]
    residual = fp.l2_norm(model, Av)
    write_csv(out_dir / "results.csv",
              ["omega", "lambda0", "e0_check", "symmetry_defect", "kernel_residual"],
              [[gap["omega"], gap["lambda0"], gap["e0_check"], gap["symmetry_defect"], residual]])
    return {"omega": gap["omega"], "lambda0": gap["lambda0"],
            "e0_check": gap["e0_check"], "kernel_residual": residual, "pass": True}


_FP = {"nu": (_NUM, None, _REQUIRED), "J": (_INT, None, _REQUIRED),
       "W": (_FIELD, None, _REQUIRED),
       "alpha": (_FIELD, None, {"expr": "0*x", "clamp": False})}
_N, _T = (_INT, None, _REQUIRED), (_NUM, None, _REQUIRED)

# each command's function and parameter table
_DISPATCH = {
    "orlicz-norm": (_cmd_orlicz_norm, {
        "young": (_YOUNG, None, _REQUIRED), "signal": (_SIGNAL, None, _REQUIRED)}),
    "simulate-diagonal": (_cmd_simulate_diagonal, {
        "N": _N, "T": _T, "u1": (_SIGNAL, None, None), "x0": (_NUMS, None, None),
        "tol": (_NUM, None, 1e-8), "quad_h": (_NUM, None, 2e-3),
        "full_state": (_BOOL, None, False), "oracle_tol": (_NUM, 0, 1e-6)}),
    "simulate-fp": (_cmd_simulate_fp, {
        **_FP, "T": _T, "dt": (_NUM, None, _REQUIRED),
        "u": (_SIGNAL, None, None), "rho0_modes": (_NUMS, None, None)}),
    "audit-iss": (_cmd_audit_iss, {
        "N": _N, "T": _T, "cases": (_INT, 0, 50), "samples": (_INT, 2, 41),
        "cells": (_INT, None, 16), "amplitude": (_NUM, None, 1.0),
        "C_B1": (_NUM, None, None), "M": (_NUM, None, 1.0),
        "omega": (_NUM, None, 2.0), "m": (_NUM, None, 1.0), "tol": (_NUM, None, 1e-6)}),
    "admissibility-scan": (_cmd_admissibility_scan, {
        "N_list": (_list_of(_INT), 1, _REQUIRED), "p": (_NUM, None, 2.0),
        "t": (_NUM, None, math.inf)}),
    "fp-gap": (_cmd_fp_gap, _FP),
}
_CONFIG = {"command": (lambda v: type(v) is str and v in _DISPATCH, None, _REQUIRED),
           "params": (_is(dict), None, _REQUIRED), "seed": (_INT, 0, None),
           "out_dir": (_STR, None, ".")}


def run(config: dict, out_dir: Path, seed: int | None, config_bytes: bytes) -> int:
    """Run a config that passed the _CONFIG table, checking its params."""
    command = config["command"]
    cmd, table = _DISPATCH[command]
    params = _checked(config["params"], table, "params")
    eff_seed = seed if seed is not None else config["seed"]
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "command": command,
        "seed": eff_seed,
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "params": config["params"],
    }
    summary.update(cmd(params, eff_seed, out_dir))
    # filled after the command, so that scipy is named only if the run loaded it
    summary["versions"] = {"isslab": __version__, "numpy": np.__version__,
                           "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
                           "python": ".".join(map(str, sys.version_info[:3]))}
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if summary.get("pass", True) else 1


def report(run_dirs: list[Path], out_dir: Path) -> int:
    """Aggregate summary.json files into report.md + aggregate.csv."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, missing = [], []
    for d in run_dirs:
        try:
            with open(Path(d) / "summary.json") as fh:
                s = json.load(fh)
        except (OSError, ValueError):
            s = None
        if not isinstance(s, dict):  # absent, unparseable or not an object
            missing.append(str(d))
            continue
        rows.append([str(d), s.get("command"), s.get("seed"),
                     bool(s.get("pass", True))])
    write_csv(out_dir / "aggregate.csv", ["run_dir", "command", "seed", "pass"], rows)
    n_pass = sum(1 for r in rows if r[-1])
    lines = ["# Run aggregate", "", f"- runs: {len(rows)}", f"- passed: {n_pass}",
             f"- failed: {len(rows) - n_pass}"]
    if missing:
        lines.append(f"- missing summaries: {', '.join(missing)}")
    lines += ["", "| run | command | seed | pass |", "|---|---|---|---|"]
    lines += [f"| {r[0]} | {r[1]} | {r[2]} | {r[3]} |" for r in rows]
    (out_dir / "report.md").write_text("\n".join(lines) + "\n")
    return 0 if n_pass == len(rows) else 1


def _fail(error: str, detail, code: int) -> int:
    print(json.dumps({"error": error, "detail": str(detail)}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="isslab", description="ISS numerical laboratory for bilinear control systems")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility and ignored: runs are serial")
    p_run.add_argument("--quiet", action="store_true")
    p_rep = sub.add_parser("report", help="aggregate run directories")
    p_rep.add_argument("dirs", nargs="*")
    p_rep.add_argument("--out", default=".")
    p_rep.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.mode == "report":
        code = report([Path(d) for d in args.dirs], Path(args.out))
        if not args.quiet:
            print(f"report written to {args.out} (exit {code})")
        return code

    try:
        config_bytes = Path(args.config).read_bytes()
        config = _checked(json.loads(config_bytes), _CONFIG, "config")
    except (OSError, ValueError, DataError) as exc:
        return _fail("config", exc, 2)
    out_dir = Path(args.out or config["out_dir"])
    try:
        code = run(config, out_dir, args.seed, config_bytes)
    except NumericError as exc:
        return _fail("numeric", exc, 3)
    except IsslabError as exc:
        return _fail("config", exc, 2)
    except Exception:  # a fault of the program: exit 1 means a failed check
        import traceback  # only here: it costs every run a few ms to import
        return _fail("internal", traceback.format_exc(), 4)
    if not args.quiet:
        print(f"{config['command']}: exit {code}, artifacts in {out_dir}")
    return code


if __name__ == "__main__":
    sys.exit(main())
