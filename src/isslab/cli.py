"""Experiment runner: JSON-config-driven pipelines with reproducible
CSV/JSON artifacts.

Every run writes results.csv (fixed column order, 17-significant-digit
floats) and summary.json (inputs echoed, config hash, seeds, library
versions, pass flag); simulate-* commands additionally write
trajectory.csv.  Exit codes: 0 success, 1 audit failure, 2 config error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import operator
import sys
from pathlib import Path

import jsonschema
import numpy as np
import scipy

from . import __version__, bounds, diagonal
from .errors import DataError, IsslabError, NumericError
from .mild_solver import solve_mild
from .orlicz import YoungFunction, complementary, luxemburg_norm
from .signals import Interval, Signal, random_signal, write_csv

COMMANDS = (
    "orlicz-norm",
    "simulate-diagonal",
    "simulate-fp",
    "audit-iss",
    "admissibility-scan",
    "fp-gap",
)

_SIGNAL_SCHEMA = {
    "type": "object",
    "properties": {
        "t0": {"type": "number", "minimum": 0},
        "t1": {"type": "number"},
        "constant": {"type": ["number", "array"]},
        "zero": {"type": "boolean"},
        "seed": {"type": "integer", "minimum": 0},
        "d": {"type": "integer", "minimum": 1},
        "cells": {"type": "integer", "minimum": 1},
        "amplitude": {"type": "number", "minimum": 0},
    },
    "required": ["t0", "t1"],
}

_YOUNG_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["power", "power_over_p", "loglog", "identity"]},
        "p": {"type": "number", "exclusiveMinimum": 1},
        "complementary": {"type": "boolean"},
    },
    "required": ["kind"],
}

_FIELD_SCHEMA = {
    "oneOf": [
        {"type": "array", "items": {"type": "number"}},
        {
            "type": "object",
            "properties": {
                "expr": {"type": "string"},
                "clamp": {"type": "boolean"},
            },
            "required": ["expr"],
        },
    ]
}

class _Params(dict):
    """Command params or a signal spec; a required key that is absent is a
    config error."""

    def __missing__(self, key):
        raise DataError(f"config needs {key!r}")


CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "command": {"enum": list(COMMANDS)},
        "seed": {"type": "integer", "minimum": 0},
        "out_dir": {"type": "string"},
        "params": {"type": "object"},
    },
    "required": ["command", "params"],
    "additionalProperties": False,
}


def _parse_signal(spec: dict, seed_override: int | None = None) -> Signal:
    jsonschema.validate(spec, _SIGNAL_SCHEMA)
    spec = _Params(spec)
    iv = Interval(spec["t0"], spec["t1"])
    if spec.get("zero"):
        return Signal.zero(iv, spec.get("d", 1))
    if "constant" in spec:
        return Signal.constant(spec["constant"], iv)
    seed = seed_override if seed_override is not None else spec["seed"]
    return random_signal(seed, spec.get("d", 1), iv, spec["cells"], spec["amplitude"])


def _parse_young(spec: dict) -> YoungFunction:
    jsonschema.validate(spec, _YOUNG_SCHEMA)
    phi = YoungFunction(spec["kind"], p=spec.get("p"))
    if spec.get("complementary"):
        phi = complementary(phi)
    return phi


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


def _parse_field(spec, J: int) -> np.ndarray:
    """Node samples from a literal list or a whitelisted expression of x."""
    jsonschema.validate(spec, _FIELD_SCHEMA)
    x = np.linspace(0.0, 1.0, J + 1)
    if isinstance(spec, list):
        out = np.asarray(spec, dtype=float)
    else:
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
                f"{J + 1} node samples ({exc})"
            ) from exc
        if spec.get("clamp"):
            from .fokker_planck import clamp_end_slopes
            out = clamp_end_slopes(out)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_orlicz_norm(params: dict, seed, out_dir: Path) -> dict:
    phi = _parse_young(params["young"])
    u = _parse_signal(params["signal"], seed)
    tol = params.get("tol", 1e-12)
    norm = luxemburg_norm(phi, u, tol=tol)
    write_csv(out_dir / "results.csv", ["kind", "norm"], [[phi.kind, norm]])
    return {"norm": norm, "pass": True}


def _cmd_simulate_diagonal(params: dict, seed, out_dir: Path) -> dict:
    model = diagonal.example3_model(params["N"])
    T = params["T"]
    u1 = _parse_signal(params["u1"], seed) if "u1" in params else None
    x0 = np.asarray(params.get("x0", [1.0] * params["N"]), dtype=float)
    tol = params.get("tol", 1e-8)
    traj = solve_mild(
        diagonal.to_system_model(model), x0, u1, None, T,
        tol=tol, quad_h=params.get("quad_h", 5e-4),
    )
    oracle = diagonal.closed_form_trajectory(model, x0, u1, traj.grid)
    errs = np.max(np.abs(traj.states - oracle.states), axis=1).tolist()
    traj.to_csv(out_dir / "trajectory.csv", full_state=params.get("full_state", False))
    write_csv(out_dir / "results.csv", ["t", "norm", "oracle_error"],
              np.column_stack([traj.grid, traj.norms, errs]).tolist())
    # the oracle distance combines the fixed-point tolerance with the
    # quadrature error of the convolution
    ok = max(errs) <= params.get("oracle_tol", 1e-6)
    return {
        "status": traj.status,
        "max_oracle_error": max(errs),
        "n_points": int(traj.grid.size),
        "pass": bool(ok),
    }


def _build_fp(params: dict) -> fp.FPModel:
    # imported here: fokker_planck pulls in scipy.linalg and scipy.sparse
    from . import fokker_planck as fp
    J = params["J"]
    W = _parse_field(params["W"], J)
    alpha = _parse_field(params.get("alpha", {"expr": "0*x"}), J)
    return fp.build_model(params["nu"], W, alpha, J)


def _cmd_simulate_fp(params: dict, seed, out_dir: Path) -> dict:
    from . import fokker_planck as fp
    model = _build_fp(params)
    u = _parse_signal(params["u"], seed) if "u" in params else None
    rho_inf = fp.stationary_density(model)
    rho0 = rho_inf
    if "rho0_modes" in params:
        pert = sum(
            c * np.cos((k + 1) * np.pi * model.grid)
            for k, c in enumerate(params["rho0_modes"])
        )
        rho0 = fp.DensityField(model.grid, rho_inf.values + pert)
    times, devs, masses = fp.simulate(model, rho0, u, params["T"], params["dt"])
    write_csv(out_dir / "trajectory.csv", ["t", "deviation", "mass"],
              np.column_stack([times, devs, masses]).tolist())
    drift = float(np.max(np.abs(masses - 1.0)))
    write_csv(out_dir / "results.csv", ["max_mass_drift"], [[drift]])
    return {"max_mass_drift": drift, "n_steps": int(times.size - 1),
            "pass": drift <= 1e-9}


def _cmd_audit_iss(params: dict, seed, out_dir: Path) -> dict:
    model = diagonal.example3_model(params["N"])
    T = params["T"]
    amplitude = params.get("amplitude", 1.0)
    cells = params.get("cells", 16)
    n_cases = params.get("cases", 50)
    base_seed = seed if seed is not None else 0
    phi = complementary(YoungFunction.loglog())
    c_b1 = params.get("C_B1")
    if c_b1 is None:
        c_b1 = diagonal.example3_admissibility(params["N"])["C_B1"]
    bp = bounds.BoundParams(
        M=params.get("M", 1.0), omega=params.get("omega", 2.0),
        m=params.get("m", 1.0), C_B1=c_b1,
    )
    times = np.linspace(0.0, T, params.get("samples", 41))
    rows = []
    for i in range(n_cases):
        case_seed = base_seed + i
        rng = np.random.Generator(np.random.Philox(case_seed))
        x0 = rng.uniform(-1.0, 1.0, params["N"])
        u1 = random_signal(case_seed + 10_000, 1, Interval(0.0, T), cells, amplitude)
        x0_norm = float(np.linalg.norm(x0))
        traj = diagonal.closed_form_trajectory(model, x0, u1, times)
        rhs = bounds.iss_rhs(bp, x0_norm, u1, None, phi, phi, times)
        rep = bounds.audit(traj, rhs, tol=params.get("tol", 1e-6))
        rows.append([i, case_seed, x0_norm, rep.max_violation,
                     rep.min_slack_ratio, rep.passed])
    write_csv(
        out_dir / "results.csv",
        ["case", "seed", "x0_norm", "max_violation", "min_slack_ratio", "pass"],
        rows,
    )
    n_pass = sum(1 for r in rows if r[-1])
    return {"C_B1": c_b1, "cases": n_cases, "n_pass": n_pass,
            "pass": n_pass == n_cases}


def _cmd_admissibility_scan(params: dict, seed, out_dir: Path) -> dict:
    rows = diagonal.lp_admissibility_scan(
        params.get("p", 2.0), params["N_list"], params.get("t", math.inf)
    )
    write_csv(
        out_dir / "results.csv",
        ["N", "value", "log10_value"],
        [[r["N"], r["constant"], r["log10_constant"]] for r in rows],
    )
    monotone = all(
        rows[i + 1]["log10_constant"] >= rows[i]["log10_constant"]
        for i in range(len(rows) - 1)
    )
    return {
        "max_log10_constant": rows[-1]["log10_constant"],
        "monotone_growth": monotone,
        "pass": True,
    }


def _cmd_fp_gap(params: dict, seed, out_dir: Path) -> dict:
    from . import fokker_planck as fp
    model = _build_fp(params)
    gap = fp.spectral_gap(model)
    rho_inf = fp.stationary_density(model)
    residual = fp.l2_norm(model, model.A @ rho_inf.values)
    write_csv(
        out_dir / "results.csv",
        ["omega", "lambda0", "e0_check", "symmetry_defect", "kernel_residual"],
        [[gap["omega"], gap["lambda0"], gap["e0_check"],
          gap["symmetry_defect"], residual]],
    )
    return {
        "omega": gap["omega"],
        "lambda0": gap["lambda0"],
        "e0_check": gap["e0_check"],
        "kernel_residual": residual,
        "pass": True,
    }


_DISPATCH = {
    "orlicz-norm": _cmd_orlicz_norm,
    "simulate-diagonal": _cmd_simulate_diagonal,
    "simulate-fp": _cmd_simulate_fp,
    "audit-iss": _cmd_audit_iss,
    "admissibility-scan": _cmd_admissibility_scan,
    "fp-gap": _cmd_fp_gap,
}


def run(config: dict, out_dir: Path, seed: int | None, config_bytes: bytes) -> int:
    jsonschema.validate(config, CONFIG_SCHEMA)
    command = config["command"]
    eff_seed = seed if seed is not None else config.get("seed")
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "command": command,
        "seed": eff_seed,
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "params": config["params"],
        "versions": {
            "isslab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }
    result = _DISPATCH[command](_Params(config["params"]), eff_seed, out_dir)
    summary.update(result)
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
    lines = [
        "# Run aggregate",
        "",
        f"- runs: {len(rows)}",
        f"- passed: {n_pass}",
        f"- failed: {len(rows) - n_pass}",
    ]
    if missing:
        lines.append(f"- missing summaries: {', '.join(missing)}")
    lines += ["", "| run | command | seed | pass |", "|---|---|---|---|"]
    lines += [f"| {r[0]} | {r[1]} | {r[2]} | {r[3]} |" for r in rows]
    (out_dir / "report.md").write_text("\n".join(lines) + "\n")
    return 0 if n_pass == len(rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="isslab",
        description="ISS numerical laboratory for bilinear control systems",
    )
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
        config = json.loads(config_bytes)
        jsonschema.validate(config, CONFIG_SCHEMA)
    except (OSError, json.JSONDecodeError, jsonschema.ValidationError) as exc:
        print(json.dumps({"error": "config", "detail": str(exc)}), file=sys.stderr)
        return 2
    out_dir = Path(args.out or config.get("out_dir", "."))
    try:
        code = run(config, out_dir, args.seed, config_bytes)
    except jsonschema.ValidationError as exc:
        print(json.dumps({"error": "config", "detail": str(exc)}), file=sys.stderr)
        return 2
    except NumericError as exc:
        print(json.dumps({"error": "numeric", "detail": str(exc)}), file=sys.stderr)
        return 3
    except IsslabError as exc:
        print(json.dumps({"error": "config", "detail": str(exc)}), file=sys.stderr)
        return 2
    if not args.quiet:
        print(f"{config['command']}: exit {code}, artifacts in {out_dir}")
    return code


if __name__ == "__main__":
    sys.exit(main())
