"""The fp-iss workload: the Fokker-Planck ISS experiment through the public
library API, in the shape of the acceptance test for it.

Build a J=128 model and compute its spectral gap; simulate 10 training runs
(T=3, dt=2e-3) and fit the gain constant to them; then audit 20 validation
runs against the fitted estimate.  With --setup only the model and the
spectral gap are computed.  The result (omega, fitted constant, mass drift,
validation passes) is written as JSON for the benchmark to check.

    python bench/fp_iss.py --seed N --out RESULT.json [--setup]

Only names listed in each module's __all__ are used; the training input
energies int_0^t |u|^2 are computed here from the signal's public cells.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

import isslab.fokker_planck as fp
import isslab.signals as signals

USED = {
    fp: ("clamp_end_slopes", "build_model", "spectral_gap",
         "discrete_stationary_density", "DensityField", "simulate",
         "fit_gain_constant", "run_fp_iss_experiment"),
    signals: ("Interval", "random_signal"),
}

J, NU, T, DT = 128, 0.5, 3.0, 2e-3
TRAINING, VALIDATION = 10, 20


def _check_public_api() -> None:
    for module, names in USED.items():
        private = [n for n in names if n not in module.__all__]
        if private:
            raise SystemExit(f"{module.__name__} no longer exports {private}")


def build_model():
    x = np.linspace(0.0, 1.0, J + 1)
    alpha = fp.clamp_end_slopes(np.sin(np.pi * x))
    return fp.build_model(NU, lambda x: np.cos(2 * np.pi * x) / 2, alpha, J)


def seeded_case(model, equil, seed: int):
    rng = np.random.Generator(np.random.Philox(seed))
    coeffs = rng.uniform(-0.3, 0.3, 3)
    x = model.grid
    pert = sum(c * np.cos((k + 1) * np.pi * x) for k, c in enumerate(coeffs))
    rho0 = fp.DensityField(x, equil.values + pert)
    u = signals.random_signal(seed + 1000, 1, signals.Interval(0.0, T), 30,
                              rng.uniform(0.2, 1.5))
    return rho0, u


def input_energy(u, times: np.ndarray) -> np.ndarray:
    """int_0^t |u(s)|^2 ds at each t; exact for piecewise-constant u, whose
    running energy is linear between breakpoints."""
    cell_energy = np.diff(u.grid) * np.sum(u.values**2, axis=1)
    at_knots = np.concatenate(([0.0], np.cumsum(cell_energy)))
    return np.interp(times, u.grid, at_knots)


def run(seed: int, setup: bool) -> dict:
    model = build_model()
    omega = fp.spectral_gap(model)["omega"]
    result = {"omega": omega}
    if setup:
        return result
    equil = fp.discrete_stationary_density(model)
    base = 10_000 * seed
    training, drift = [], 0.0
    for i in range(TRAINING):
        rho0, u = seeded_case(model, equil, base + i)
        times, devs, masses = fp.simulate(model, rho0, u, T, DT)
        drift = max(drift, float(np.max(np.abs(masses - rho0.mass))))
        training.append((times, devs, input_energy(u, times)))
    fit_c = fp.fit_gain_constant(model, training, omega, margin=1.5)
    passed, worst_slack = 0, np.inf
    for i in range(VALIDATION):
        rho0, u = seeded_case(model, equil, base + 100 + i)
        report = fp.run_fp_iss_experiment(model, rho0, u, T, DT, fit_c,
                                          omega=omega, tol=1e-6)
        passed += bool(report.passed)
        worst_slack = min(worst_slack, report.min_slack_ratio)
    result.update(fit_c=fit_c, max_mass_drift=drift, validations=VALIDATION,
                  n_pass=passed, min_slack_ratio=worst_slack)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fp_iss")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup", action="store_true")
    args = parser.parse_args(argv)
    _check_public_api()
    result = run(args.seed, args.setup)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
