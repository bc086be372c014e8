"""End-to-end acceptance checks: each test exercises one of the headline
guarantees of the package at its stated tolerance and runtime budget."""

import math
import time

import numpy as np
import pytest

from isslab import bounds, diagonal, fokker_planck as fp
from isslab.mild_solver import solve_mild
from isslab.orlicz import YoungFunction, complementary, luxemburg_norm
from isslab.signals import Interval, Signal, random_signal, restrict
from reference import carleson_series_term, dense, holder_pair, lp_norm


def test_acceptance_1_orlicz_lp_consistency():
    start = time.monotonic()
    for p in (1.5, 2.0, 4.0):
        phi = YoungFunction.power(p)
        for seed in range(100):
            u = random_signal(seed, 2, Interval(0.0, 2.0), 10, 2.0)
            assert luxemburg_norm(phi, u) == pytest.approx(lp_norm(u, p), rel=1e-8)
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_acceptance_2_holder_sweep(p):
    phi = YoungFunction.power_over_p(p)
    iv = Interval(0.0, 2.0)
    violations = 0
    for seed in range(1000):
        u = random_signal(seed, 1, iv, 6, 1.5)
        v = random_signal(seed + 100_000, 1, iv, 9, 1.5)
        hp = holder_pair(u, v, phi, iv)
        if hp["lhs"] > hp["rhs"] + 1e-10:
            violations += 1
    assert violations == 0


def test_acceptance_3_solver_oracle_equivalence():
    start = time.monotonic()
    model = diagonal.example3_model(8)
    x0 = np.full(8, 0.5)
    for seed in range(20):
        u = random_signal(seed, 1, Interval(0.0, 2.0), 12, 1.0)
        traj = solve_mild(model, x0, u, None, 2.0, tol=1e-8, quad_h=5e-4)
        err = max(
            float(np.max(np.abs(
                traj.states[i] - diagonal.closed_form_solution(model, x0, u, t)
            )))
            for i, t in enumerate(traj.grid)
        )
        assert err <= 1e-6, f"seed {seed}: oracle distance {err}"

    # restart consistency: solve to 1, restart, compare with one pass
    tol = 1e-6
    u = random_signal(33, 1, Interval(0.0, 2.0), 12, 1.0)
    full = solve_mild(model, x0, u, None, 2.0, tol=tol, quad_h=5e-4)
    first = solve_mild(model, x0, u, None, 1.0, tol=tol, quad_h=5e-4)
    tail = restrict(u, Interval(1.0, 2.0))
    second = solve_mild(model, first.states[-1], Signal(tail.grid - 1.0, tail.values),
                        None, 1.0, tol=tol, quad_h=5e-4)
    assert np.linalg.norm(second.states[-1] - full.states[-1]) <= 5 * tol
    assert time.monotonic() - start < 30.0


def test_acceptance_4_bound_audit_with_negative_control(comp_loglog, adm8):
    model = diagonal.example3_model(8)
    params = bounds.BoundParams(M=1.0, omega=2.0, m=1.0, C_B1=adm8["C_B1"])
    times = np.linspace(0.0, 2.0, 41)

    n_pass = 0
    for case in range(50):
        rng = np.random.Generator(np.random.Philox(case))
        x0 = rng.uniform(-1.0, 1.0, 8)
        u1 = random_signal(case + 10_000, 1, Interval(0.0, 2.0), 16, 1.0)
        traj = diagonal.closed_form_trajectory(model, x0, u1, times)
        rhs = [
            bounds.iss_rhs(params, float(np.linalg.norm(x0)), u1, None,
                           comp_loglog, comp_loglog, t)
            for t in times
        ]
        if bounds.audit(traj, np.asarray(rhs), tol=1e-6).passed:
            n_pass += 1
    assert n_pass == 50

    # negative control: a long strongly-forced run must expose a halved
    # admissibility constant while the true constant still covers it
    halved = bounds.BoundParams(M=1.0, omega=2.0, m=1.0, C_B1=adm8["C_B1"] / 2)
    x0 = np.zeros(8)
    x0[0] = 1e-3
    found = False
    for horizon in np.arange(10.0, 65.0, 5.0):
        u1 = Signal.constant(2.0, Interval(0.0, horizon))
        tgrid = np.linspace(0.0, horizon, 81)
        traj = diagonal.closed_form_trajectory(model, x0, u1, tgrid)

        def rhs_vals(p):
            return np.array([
                bounds.iss_rhs(p, float(np.linalg.norm(x0)), u1, None,
                               comp_loglog, comp_loglog, t)
                for t in tgrid
            ])

        full_ok = bounds.audit(traj, rhs_vals(params), tol=1e-6).passed
        half_ok = bounds.audit(traj, rhs_vals(halved), tol=1e-6).passed
        if full_ok and not half_ok:
            found = True
            break
    assert found, "no horizon separated the valid constant from its half"


def test_acceptance_5_kn_certificates():
    for n in range(2, 21):
        result = diagonal.verify_kn_bound(n, 1.0)
        assert result["pass"], f"certificate failed at n={n}: {result}"


def test_acceptance_5_carleson_witnesses():
    start = time.monotonic()
    for p in (2.5, 3.0, 4.0, 8.0):
        assert any(
            carleson_series_term(p, n, log10=True) > 3.0
            for n in range(1, 201)
        ), f"no divergence witness for p={p}"
    assert time.monotonic() - start < 5.0


def test_acceptance_5_scan_constant_exceeds_threshold_at_n50():
    # For p = 2 and t = inf the per-mode constant is 2^{(n-1)/2}/n, which
    # increases for n >= 3, so the scan constant at N >= 7 is 2^{(N-1)/2}/N.
    # At N=50 that is 2^{24.5}/50, about 4.75e5; the 1e6 threshold is first
    # crossed at N=53 (N=52 gives 9.13e5, N=53 gives 1.27e6).
    expected = 24.5 * math.log10(2.0) - math.log10(50)
    rows = diagonal.lp_admissibility_scan(2.0, [50])
    assert rows[0]["log10_constant"] == pytest.approx(expected, abs=1e-12), (
        f"N=50 constant is 1e{rows[0]['log10_constant']:.3f}"
    )
    below, above = diagonal.lp_admissibility_scan(2.0, [52, 53])
    assert below["log10_constant"] < 6.0 < above["log10_constant"], (
        f"1e6 crossing moved: N=52 gives 1e{below['log10_constant']:.3f}, "
        f"N=53 gives 1e{above['log10_constant']:.3f}"
    )


def test_acceptance_6_fp_mass_conservation():
    model = fp.build_model(
        0.5, lambda x: np.cos(2 * np.pi * x) / 2,
        fp.clamp_end_slopes(np.sin(np.pi * np.linspace(0, 1, 257))), 256,
    )
    u = random_signal(7, 1, Interval(0.0, 10.0), 100, 2.0)
    rho_inf = fp.discrete_stationary_density(model)
    rho0 = fp.DensityField(
        model.grid, rho_inf.values + 0.3 * np.cos(np.pi * model.grid)
    )
    _, _, masses = fp.simulate(model, rho0, u, 10.0, 1e-3)
    assert masses.size == 10_001
    assert np.max(np.abs(masses - 1.0)) <= 1e-9


def test_acceptance_7_fp_spectrum_and_kernel_residual():
    m = fp.build_model(1.0, lambda x: 0 * x, lambda x: 0 * x, 256)
    gap = fp.spectral_gap(m)["omega"]
    target = 2.0 * 256**2 * (1.0 - math.cos(math.pi / 256))
    assert abs(gap - target) / target <= 0.02

    res = []
    for J in (64, 128, 256):
        mm = fp.build_model(0.5, lambda x: np.cos(2 * np.pi * x) / 2,
                            lambda x: 0 * x, J)
        res.append(fp.l2_norm(mm, dense(mm.A) @ fp.stationary_density(mm).values))
    slopes = [math.log2(res[i] / res[i + 1]) for i in range(2)]
    assert all(1.8 <= s <= 2.2 for s in slopes), slopes


def test_acceptance_8_fp_iss_validation(fp_bench):
    start = time.monotonic()
    gap = fp.spectral_gap(fp_bench)
    omega = gap["omega"]
    equil = fp.discrete_stationary_density(fp_bench)
    x = fp_bench.grid

    def seeded_case(seed):
        rng = np.random.Generator(np.random.Philox(seed))
        coeffs = rng.uniform(-0.3, 0.3, 3)
        pert = sum(c * np.cos((k + 1) * np.pi * x) for k, c in enumerate(coeffs))
        rho0 = fp.DensityField(x, equil.values + pert)
        u = random_signal(seed + 1000, 1, Interval(0.0, 3.0), 30,
                          rng.uniform(0.2, 1.5))
        return rho0, u

    training = []
    for seed in range(10):
        rho0, u = seeded_case(seed)
        times, devs, _ = fp.simulate(fp_bench, rho0, u, 3.0, 2e-3)
        energies = np.array([fp._input_energy(u, t) for t in times])
        training.append((times, devs, energies))
    fitC = fp.fit_gain_constant(fp_bench, training, omega, margin=1.5)

    for seed in range(100, 120):  # disjoint from the training seeds
        rho0, u = seeded_case(seed)
        report = fp.run_fp_iss_experiment(
            fp_bench, rho0, u, 3.0, 2e-3, fitC, omega=omega, tol=1e-6
        )
        assert report.passed, f"validation seed {seed} failed: {report}"

    # zero-input decay exponent tracks the computed gap
    rho0, _ = seeded_case(500)
    T = 5.0 / omega
    times, devs, _ = fp.simulate(fp_bench, rho0, None, T, 5e-4)
    i1 = int(np.searchsorted(times, 1.0 / omega))
    slope = -(math.log(devs[-1]) - math.log(devs[i1])) / (times[-1] - times[i1])
    assert abs(slope - omega) / omega <= 0.10
    assert time.monotonic() - start < 120.0
