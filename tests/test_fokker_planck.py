import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isslab import fokker_planck as fp
from isslab.errors import ContractError, DataError, DomainError, NumericError
from isslab.signals import Interval, Signal, random_signal
from reference import cn_step, dense, fit_gain_constant_bisection


def uniform_model(J=64, nu=1.0):
    return fp.build_model(nu, lambda x: 0 * x, lambda x: 0 * x, J)


def dense_flux_operator(P, nu, h):
    """Reference assembly: the flux-form operator built row by row as a
    dense (J+1) x (J+1) matrix."""
    J = P.size - 1
    A = np.zeros((J + 1, J + 1))
    drift = np.diff(P) / h
    c_lo = -nu / h + 0.5 * drift
    c_hi = nu / h + 0.5 * drift
    for i in range(J + 1):
        cell = h if 0 < i < J else h / 2.0
        if i < J:  # outgoing face i+1/2
            A[i, i] += c_lo[i] / cell
            A[i, i + 1] += c_hi[i] / cell
        if i > 0:  # incoming face i-1/2
            A[i, i - 1] -= c_lo[i - 1] / cell
            A[i, i] -= c_hi[i - 1] / cell
    return A


def dense_cn_step(L, v, dt):
    eye = np.eye(v.size)
    return np.linalg.solve(eye - 0.5 * dt * L, (eye + 0.5 * dt * L) @ v)


def cosine_series(coeffs, x):
    return sum(c * np.cos((k + 1) * np.pi * x) for k, c in enumerate(coeffs))


_coeffs = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4)


@settings(deadline=None, max_examples=60)
@given(J=st.integers(16, 96), nu=st.floats(0.2, 1.0), w_coeffs=_coeffs,
       a_coeffs=_coeffs, u=st.floats(-2.0, 2.0), dt=st.floats(1e-4, 1e-2))
def test_banded_operators_match_dense_reference(J, nu, w_coeffs, a_coeffs, u, dt):
    x = np.linspace(0.0, 1.0, J + 1)
    W = cosine_series(w_coeffs, x)
    alpha = fp.clamp_end_slopes(cosine_series(a_coeffs, x))
    m = fp.build_model(nu, W, alpha, J)
    A_ref = dense_flux_operator(W, nu, m.h)
    B_ref = dense_flux_operator(alpha, 0.0, m.h)
    for op, ref in ((m.A, A_ref), (m.B, B_ref)):
        assert np.max(np.abs(dense(op) - ref)) <= 1e-14 * np.max(np.abs(ref))
    rho = fp.DensityField(x, 1.0 + 0.5 * np.cos(np.pi * x))
    after = fp.step(m, rho, u, dt)
    ref = dense_cn_step(A_ref + u * B_ref, rho.values, dt)
    assert np.max(np.abs(after.values - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert abs(after.mass - rho.mass) <= 1e-12


@pytest.mark.parametrize("dt, u", [(1e-3, 0.7), (0.1, 3.0), (1.0, -2.0)])
def test_stiff_step_matches_dense_reference(dt, u):
    # the fp-long model at J = 512: dt/2 |A + u B| reaches about 1e5, where
    # 2 (I - dt/2 L)^{-1} v - v cancels most of its leading digits
    J = 512
    x = np.linspace(0.0, 1.0, J + 1)
    W, alpha = np.cos(2 * np.pi * x) / 2, fp.clamp_end_slopes(np.sin(np.pi * x))
    m = fp.build_model(0.5, W, alpha, J)
    rho = fp.DensityField(x, fp.stationary_density(m).values + 0.2 * np.cos(np.pi * x))
    L = dense_flux_operator(W, 0.5, m.h) + u * dense_flux_operator(alpha, 0.0, m.h)
    ref = dense_cn_step(L, rho.values, dt)
    after = fp.step(m, rho, u, dt)
    assert np.max(np.abs(after.values - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_step_and_simulate_leave_the_input_density_unchanged(fp_bench):
    x = fp_bench.grid
    rho = fp.DensityField(x, fp.stationary_density(fp_bench).values + 0.2 * np.cos(np.pi * x))
    before = rho.values.copy()
    fp.step(fp_bench, rho, 0.7, 1e-2)
    fp.simulate(fp_bench, rho, Signal.constant(0.7, Interval(0.0, 0.1)), 0.1, 1e-3)
    assert rho.values.tobytes() == before.tobytes()


@pytest.mark.parametrize("J", [64, 128])
def test_spectral_gap_matches_dense_eigh(J):
    nu = 0.5
    x = np.linspace(0.0, 1.0, J + 1)
    W = np.cos(2 * np.pi * x) / 2
    m = fp.build_model(nu, W, fp.clamp_end_slopes(np.sin(np.pi * x)), J)
    d = np.sqrt(m.weights) * np.exp(0.5 * (math.log(nu) + W / nu))
    S = d[:, None] * dense_flux_operator(W, nu, m.h) * (1.0 / d)[None, :]
    vals = np.linalg.eigvalsh(0.5 * (S + S.T))
    defect = np.linalg.norm(S - S.T) / np.linalg.norm(S)
    g = fp.spectral_gap(m)
    assert g["omega"] == pytest.approx(abs(vals[-2]), rel=1e-10)
    assert g["symmetry_defect"] == pytest.approx(defect, abs=1e-12)
    assert "eigenvalues" not in g


def test_build_model_validation():
    with pytest.raises(DomainError):
        fp.build_model(1.0, np.zeros(9), np.zeros(9), 8)
    with pytest.raises(DomainError):
        uniform_model(nu=0.0)
    with pytest.raises(ContractError):
        fp.build_model(1.0, lambda x: 0 * x, lambda x: x, 64)
    clamped = fp.clamp_end_slopes(np.sin(np.pi * np.linspace(0, 1, 65)))
    fp.build_model(1.0, lambda x: 0 * x, clamped, 64)


def test_build_model_rejects_non_finite_fields():
    x = np.linspace(0.0, 1.0, 65)
    with np.errstate(divide="ignore"):
        singular = (1.0 / x, np.log(x))
    for W in singular:
        with pytest.raises(DataError):
            fp.build_model(1.0, W, np.zeros(65), 64)
    alpha = np.zeros(65)
    alpha[30] = np.nan
    with pytest.raises(DataError):
        fp.build_model(1.0, np.zeros(65), alpha, 64)


def test_overflowing_operator_bands_raise_numeric_error():
    # finite samples whose increments overflow: a NumericError, with no warning
    x = np.linspace(0.0, 1.0, 65)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for W, alpha in ((1e308 * (2 * x - 1), np.zeros(65)),
                         (np.zeros(65), fp.clamp_end_slopes(1e308 * (2 * x - 1)))):
            with pytest.raises(NumericError, match="bands overflow"):
                fp.build_model(0.5, W, alpha, 64)


def test_overflowing_model_raises_numeric_error():
    # e^{Phi/2} in spectral_gap over- or underflows: a NumericError, with no
    # warning
    x = np.linspace(0.0, 1.0, 65)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu, W in ((1e300, 0 * x), (1e-4, np.cos(2 * np.pi * x) / 2), (1.0, 1e6 * x)):
            with pytest.raises(NumericError, match="spectral_gap"):
                fp.spectral_gap(fp.build_model(nu, W, np.zeros(65), 64))


def test_offset_potential_gives_unshifted_results():
    # W and W + c are the same physics: both functions shift W by its minimum
    x = np.linspace(0.0, 1.0, 65)
    cos = np.cos(2 * np.pi * x) / 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for W, offset in ((0 * x, 1e6), (cos, 1000.0), (cos, -1000.0)):
            plain, shifted = (fp.build_model(1.0, V, np.zeros(65), 64) for V in (W, W + offset))
            assert fp.spectral_gap(shifted)["omega"] == pytest.approx(
                fp.spectral_gap(plain)["omega"], rel=1e-12)
            np.testing.assert_allclose(fp.stationary_density(shifted).values,
                                       fp.stationary_density(plain).values, rtol=1e-12)
        # a well too steep for e^{-W/nu} unshifted: the density peaks at its
        # minimum x = 1/2 and the rest underflows, with mass 1
        rho = fp.stationary_density(fp.build_model(1e-4, cos, np.zeros(65), 64))
        assert np.argmax(rho.values) == 32 and rho.mass == pytest.approx(1.0, rel=1e-12)


def test_density_field_mass_is_computed_not_given():
    x = np.linspace(0.0, 1.0, 5)
    assert fp.DensityField(x, np.ones(5)).mass == 1.0
    with pytest.raises(TypeError):
        fp.DensityField(x, np.ones(5), mass=5.0)


def test_operator_mass_identities(fp_bench):
    w = fp_bench.weights
    assert np.max(np.abs(w @ dense(fp_bench.A))) <= 1e-13
    assert np.max(np.abs(w @ dense(fp_bench.B))) <= 1e-13


def test_neumann_laplacian_limits():
    m = uniform_model()
    rho = np.ones(m.J + 1)
    assert np.max(np.abs(dense(m.A) @ rho)) <= 1e-12
    # interior rows reduce to the standard second difference
    v = np.cos(np.pi * m.grid)
    interior = (dense(m.A) @ v)[1:-1]
    h = m.h
    ref = (v[:-2] - 2 * v[1:-1] + v[2:]) / h**2
    assert np.allclose(interior, ref, atol=1e-10)


def test_stationary_density():
    m = uniform_model()
    rho = fp.stationary_density(m)
    assert np.allclose(rho.values, 1.0)
    assert rho.mass == pytest.approx(1.0)
    nu = 0.4
    m2 = fp.build_model(nu, lambda x: x, lambda x: 0 * x, 128)
    rho2 = fp.stationary_density(m2)
    exact = np.exp(-m2.grid / nu) / (nu * (1.0 - math.exp(-1.0 / nu)))
    assert np.max(np.abs(rho2.values - exact)) < 1e-4
    assert rho2.mass == pytest.approx(1.0, abs=1e-14)


def test_kernel_residual_second_order():
    res = []
    for J in (64, 128, 256):
        m = fp.build_model(0.5, lambda x: np.cos(2 * np.pi * x) / 2, lambda x: 0 * x, J)
        res.append(fp.l2_norm(m, dense(m.A) @ fp.stationary_density(m).values))
    slopes = [math.log2(res[i] / res[i + 1]) for i in range(2)]
    assert all(1.8 <= s <= 2.2 for s in slopes), slopes


def test_step_fixes_stationary_density(fp_bench):
    rho = fp.discrete_stationary_density(fp_bench)
    assert np.max(np.abs(dense(fp_bench.A) @ rho.values)) <= 1e-11
    after = fp.step(fp_bench, rho, 0.0, 1e-2)
    assert np.max(np.abs(after.values - rho.values)) <= 1e-10
    # the continuum equilibrium agrees with the discrete kernel to O(h^2)
    gibbs = fp.stationary_density(fp_bench)
    assert np.max(np.abs(gibbs.values - rho.values)) <= 5.0 / fp_bench.J**2


def test_step_mass_and_dissipativity(fp_bench):
    rho_inf = fp.stationary_density(fp_bench)
    rho = fp.DensityField(
        fp_bench.grid, rho_inf.values + 0.2 * np.cos(np.pi * fp_bench.grid)
    )
    dev_prev = fp.l2_norm(fp_bench, rho.values - rho_inf.values)
    for _ in range(50):
        rho = fp.step(fp_bench, rho, 0.0, 1e-3)
        dev = fp.l2_norm(fp_bench, rho.values - rho_inf.values)
        assert dev <= dev_prev + 1e-12
        assert abs(rho.mass - 1.0) <= 1e-12
        dev_prev = dev


def test_step_time_accuracy(fp_bench):
    rho_inf = fp.stationary_density(fp_bench)
    rho0 = fp.DensityField(
        fp_bench.grid, rho_inf.values + 0.1 * np.cos(np.pi * fp_bench.grid)
    )
    ends = []
    for dt in (4e-3, 2e-3, 1e-3):
        rho = rho0
        n = int(round(0.2 / dt))
        for i in range(n):
            rho = fp.step(fp_bench, rho, 0.7, dt)
        ends.append(rho.values)
    e1 = fp.l2_norm(fp_bench, ends[0] - ends[2])
    e2 = fp.l2_norm(fp_bench, ends[1] - ends[2])
    # halving dt shrinks the endpoint difference at least quadratically
    # (faster transients of the stiff modes can make it shrink more)
    assert e1 / e2 >= 3.0


def stepped_reference(m, rho0, u, T, n):
    """simulate's record, rebuilt from n reference steps that factor on
    every call."""
    dt = T / n
    times = np.linspace(0.0, T, n + 1)
    rho_inf = fp.discrete_stationary_density(m).values
    v, devs, masses = rho0.values, [], []
    for t in times:
        devs.append(fp.l2_norm(m, v - rho_inf))
        masses.append(np.trapezoid(v, m.grid))
        if t < T:
            u_cell = 0.0 if u is None else u.value_at([t + 0.5 * dt])[0, 0]
            v = cn_step(m, v, u_cell, dt)
    return times, np.array(devs), np.array(masses)


@pytest.mark.parametrize("u, T, dt", [
    # one control for all steps: a factor reused across blocks
    (None, 0.3, 1e-3),
    (Signal.constant(0.7, Interval(0.0, 0.25)), 0.25, 1.3e-3),
    # 7 cells whose boundaries fall inside steps
    (random_signal(4, 1, Interval(0.0, 0.2), 7, 1.5), 0.2, 0.2 / 150),
])
def test_simulate_matches_stepping(fp_bench, u, T, dt):
    x = fp_bench.grid
    rho0 = fp.DensityField(x, fp.stationary_density(fp_bench).values + 0.2 * np.cos(np.pi * x))
    times, devs, masses = fp.simulate(fp_bench, rho0, u, T, dt)
    n = times.size - 1
    rows = fp._block_rows(fp_bench.J + 1)
    assert n > rows and (n + 1) % rows != 0  # last block partial
    ref_times, ref_devs, ref_masses = stepped_reference(fp_bench, rho0, u, T, n)
    assert times.tobytes() == ref_times.tobytes()
    assert np.max(np.abs(devs - ref_devs) / ref_devs) <= 1e-13
    assert np.max(np.abs(masses - ref_masses) / ref_masses) <= 1e-13
    assert np.max(np.abs(masses - rho0.mass)) <= 1e-9


def test_step_numeric_errors(fp_bench):
    rho = fp.discrete_stationary_density(fp_bench)
    with pytest.raises(NumericError, match="overflows"), np.errstate(all="raise"):
        fp.step(fp_bench, rho, 1e308, 1e-3)  # the bands overflow
    # A = (2/dt) I makes I - dt/2 A exactly zero
    n, dt = fp_bench.J + 1, 0.5
    bands = np.zeros((3, n))
    bands[1] = 2.0 / dt
    singular = replace(fp_bench, A=bands)
    with pytest.raises(NumericError, match="singular"):
        fp.step(singular, rho, 0.0, dt)


def test_step_rejects_non_finite_dt(fp_bench):
    rho = fp.discrete_stationary_density(fp_bench)
    for dt in (math.nan, math.inf, 0.0, -1e-3):
        with pytest.raises(DomainError, match="finite"):
            fp.step(fp_bench, rho, 0.0, dt)


def test_step_and_simulate_reject_wrong_length_density(fp_bench):
    short = fp.DensityField(np.linspace(0.0, 1.0, 10), np.ones(10))
    with pytest.raises(DataError):
        fp.step(fp_bench, short, 0.0, 1e-3)
    with pytest.raises(DataError):
        fp.simulate(fp_bench, short, None, 0.1, 1e-3)


def test_simulate_rejects_non_finite_or_unallocatable_steps(fp_bench):
    rho = fp.stationary_density(fp_bench)
    for T, dt in ((math.nan, 1e-3), (0.1, math.nan), (math.inf, 1e-3), (0.1, math.inf)):
        with pytest.raises(DomainError, match="finite"):
            fp.simulate(fp_bench, rho, None, T, dt)
    # 5e302 steps, and T/dt overflowing to inf: numpy refuses such arrays
    # before it allocates anything
    for T, dt in ((1e300, 2e-3), (1e300, 1e-300)):
        with pytest.raises(DomainError, match="memory"):
            fp.simulate(fp_bench, rho, None, T, dt)


@settings(deadline=None, max_examples=25)
@given(J=st.integers(40, 64), nu=st.floats(0.2, 1.0), w_coeffs=_coeffs,
       a_coeffs=_coeffs, seed=st.integers(0, 10_000), amplitude=st.floats(0.0, 2.0),
       n_steps=st.integers(1, 80))
def test_simulate_conserves_mass(J, nu, w_coeffs, a_coeffs, seed, amplitude, n_steps):
    # |W'| <= 5 pi and J >= 40 keep |W_{i+1} - W_i|/2 below nu, as the
    # discrete kernel that simulate measures deviations from needs
    x = np.linspace(0.0, 1.0, J + 1)
    alpha = fp.clamp_end_slopes(cosine_series(a_coeffs, x))
    m = fp.build_model(nu, cosine_series(w_coeffs, x) / 2, alpha, J)
    rho0 = fp.DensityField(x, fp.stationary_density(m).values + 0.3 * np.cos(np.pi * x))
    u = random_signal(seed, 1, Interval(0.0, 0.1), 5, amplitude)
    _, _, masses = fp.simulate(m, rho0, u, 0.1, 0.1 / n_steps)
    assert np.max(np.abs(masses - rho0.mass)) <= 1e-9


def test_simulate_rejects_vector_control(fp_bench):
    # one scalar control multiplies B; a second component has no operator
    u = Signal.constant([1.0, 2.0], Interval(0.0, 0.1))
    with pytest.raises(DomainError):
        fp.simulate(fp_bench, fp.stationary_density(fp_bench), u, 0.1, 1e-3)


def test_spectral_gap_uniform():
    m = uniform_model(J=256)
    g = fp.spectral_gap(m)
    target = 2.0 * 256**2 * (1.0 - math.cos(math.pi / 256))
    assert g["omega"] == pytest.approx(target, rel=0.02)
    assert abs(g["lambda0"]) <= 1e-8
    assert g["e0_check"] <= 1e-6
    assert g["symmetry_defect"] <= 1e-12


def test_spectral_gap_matches_decay(fp_bench):
    g = fp.spectral_gap(fp_bench)
    rho_inf = fp.stationary_density(fp_bench)
    rho0 = fp.DensityField(
        fp_bench.grid, rho_inf.values + 0.2 * np.cos(np.pi * fp_bench.grid)
    )
    T = 5.0 / g["omega"]
    times, devs, _ = fp.simulate(fp_bench, rho0, None, T, 5e-4)
    i1 = np.searchsorted(times, 1.0 / g["omega"])
    slope = -(math.log(devs[-1]) - math.log(devs[i1])) / (times[-1] - times[i1])
    assert slope == pytest.approx(g["omega"], rel=0.10)


def test_iss_experiment_pipeline(fp_bench):
    g = fp.spectral_gap(fp_bench)
    equil = fp.discrete_stationary_density(fp_bench)
    rho0 = fp.DensityField(
        fp_bench.grid, equil.values + 0.2 * np.cos(np.pi * fp_bench.grid)
    )
    # trivial case: start at equilibrium, no input
    rep0 = fp.run_fp_iss_experiment(
        fp_bench, equil, None, 0.5, 1e-3, fitC=1.0, omega=g["omega"]
    )
    assert rep0.passed
    u = random_signal(17, 1, Interval(0.0, 2.0), 20, 1.0)
    times, devs, masses = fp.simulate(fp_bench, rho0, u, 2.0, 1e-3)
    energies = np.array([fp._input_energy(u, t) for t in times])
    assert np.array_equal(fp._input_energy(u, times), energies)
    C = fp.fit_gain_constant(fp_bench, [(times, devs, energies)], g["omega"])
    rep = fp.run_fp_iss_experiment(fp_bench, rho0, u, 2.0, 1e-3, C, omega=g["omega"])
    assert rep.passed
    assert rep.min_slack_ratio >= 1.0
    # halving the fitted constant must break this calibrated run
    bad = fp.run_fp_iss_experiment(fp_bench, rho0, u, 2.0, 1e-3, C / 4, omega=g["omega"])
    assert not bad.passed


@st.composite
def training_runs(draw):
    """fit_gain_constant's runs: unequal lengths, deviations over twenty
    decades (a zero first one now and then), and energies that are zero,
    small, or past gamma_fp's overflow guard, or now and then negative."""
    runs = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 30))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 3.0, n - 1))))
        devs = rng.uniform(0.0, 1.0, n) * draw(st.sampled_from([1e-6, 1e-2, 1.0, 1e3, 1e14]))
        if draw(st.booleans()):
            devs[0] = 0.0
        energies = np.cumsum(rng.uniform(0.0, 1.0, n))
        energies *= draw(st.sampled_from([0.0, 1e-3, 1.0, 100.0, 1e6]))
        if draw(st.integers(0, 9)) == 0:
            energies[draw(st.integers(0, n - 1))] = -1.0
        runs.append((times, devs, energies))
    return runs


def _fit_outcome(fit):
    """The fitted constant, or the type of the error the fit raised."""
    try:
        with np.errstate(all="ignore"):
            return fit()
    except (DomainError, NumericError) as exc:
        return type(exc)


_T5 = np.linspace(0.0, 2.0, 5)


@settings(deadline=None, max_examples=300)
@given(runs=training_runs(), omega=st.sampled_from([0.3, 2.0, 11.9]),
       margin=st.sampled_from([1.0, 1.5]))
# runs of unequal length, one of them under the curve at C = 1
@example(runs=[(_T5[:1], np.array([0.3]), np.zeros(1)),
               (_T5, np.array([0.3, 0.2, 0.1, 0.05, 0.02]), _T5)], omega=2.0, margin=1.5)
# zero input energy: the decay term alone must hold
@example(runs=[(_T5, np.array([0.5, 0.4, 0.3, 0.3, 0.3]), np.zeros(5))], omega=2.0, margin=1.5)
# no C up to 1e12 fits a rise from zero without input
@example(runs=[(_T5, np.array([0.0, 0.1, 0.1, 0.1, 0.1]), np.zeros(5))], omega=2.0, margin=1.5)
# C sqrt(energy) passes gamma_fp's overflow guard at C = 1
@example(runs=[(_T5, np.ones(5), np.full(5, 1e6))], omega=2.0, margin=1.5)
# a negative energy
@example(runs=[(_T5, np.ones(5), np.array([0.0, 1.0, -1.0, 2.0, 3.0]))], omega=2.0, margin=1.5)
def test_fit_gain_constant_matches_full_set_bisection(fp_bench, runs, omega, margin):
    # dropping the points that hold where their run fails leaves every bit
    # of the fitted constant, and every error, as the bisection over all points
    got = _fit_outcome(lambda: fp.fit_gain_constant(fp_bench, runs, omega, margin))
    assert got == _fit_outcome(lambda: fit_gain_constant_bisection(runs, omega, margin))


def test_gain_arguments_must_be_finite(fp_bench):
    run = (_T5, np.exp(-_T5), _T5)
    for margin in (0.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="margin"):
            fp.fit_gain_constant(fp_bench, [run], 2.0, margin)
    equil = fp.discrete_stationary_density(fp_bench)
    for omega in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ContractError, match="omega"):
            fp.fit_gain_constant(fp_bench, [run], omega)
        with pytest.raises(ContractError, match="omega"):
            fp.run_fp_iss_experiment(fp_bench, equil, None, 0.1, 1e-3, 1.0, omega=omega)
    # a run's times, devs and energies pair up point by point
    for short in ((_T5[:4], np.exp(-_T5), _T5), (_T5, np.exp(-_T5[:4]), _T5),
                  (_T5, np.exp(-_T5), _T5[:4])):
        with pytest.raises(DataError, match="length"):
            fp.fit_gain_constant(fp_bench, [run, short], 2.0)
    # deviations are norms: a negative one would make the bound fall with C
    with pytest.raises(DomainError, match="devs"):
        fp.fit_gain_constant(fp_bench, [(_T5, -np.exp(-_T5), _T5)], 2.0)
    for C in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="finite C > 0"):
            fp.run_fp_iss_experiment(fp_bench, equil, None, 0.1, 1e-3, C, omega=2.0)


@pytest.mark.parametrize("J", [64, 128, 512])
def test_step_gives_the_bits_of_a_fresh_factor(J):
    m, rho0 = fp_long_model(J)
    for u, dt in ((0.7, 1e-2), (0.0, 1e-3), (-2.0, 0.5)):
        assert fp.step(m, rho0, u, dt).values.tobytes() == cn_step(m, rho0.values, u, dt).tobytes()


def test_simulate_ends_at_horizon(fp_bench):
    # dt that does not divide T: uniform steps of at most dt, ending at T
    equil = fp.discrete_stationary_density(fp_bench)
    u = random_signal(3, 1, Interval(0.0, 1.0), 4, 1.0)
    for dt, n_steps in ((0.6, 2), (0.4, 3)):
        times, devs, masses = fp.simulate(fp_bench, equil, u, 1.0, dt)
        assert times.size == devs.size == masses.size == n_steps + 1
        assert times[0] == 0.0 and times[-1] == 1.0
        assert np.all(np.diff(times) <= dt)


def test_input_energy_is_zero_outside_domain():
    # energy rate 2 on [0.5, 1) and 4 on [1, 2]; simulate accepts a step
    # grid that ends past the input, so the energy must be defined there
    u = Signal(np.array([0.5, 1.0, 2.0]), np.array([[1.0, 1.0], [2.0, 0.0]]))
    assert fp._input_energy(u, 1.5) == 3.0
    energies = fp._input_energy(u, np.array([0.0, 0.75, 2.0, 3.0]))
    assert np.array_equal(energies, [0.0, 0.5, 5.0, 5.0])
    assert fp._input_energy(None, 3.0) == 0.0



# --- the two LAPACK routes: numpy's bundled OpenBLAS and the scipy fallback


def _routes():
    """(route at import, scipy fallback), the fallback forced by a symbol
    lookup that finds nothing."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fp, "_lapack_symbol", lambda name: None)
        return fp._LAPACK, fp._resolve()


def on_both_routes(run):
    """run() on each LAPACK route, its arrays as bytes or its NumericError."""
    out = []
    for route in _routes():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fp, "_LAPACK", route)
            try:
                result = run()
            except NumericError as exc:
                result = str(exc)
        out.append(result if isinstance(result, str) else
                   [np.asarray(r).tobytes() for r in result])
    return out


vendored = pytest.mark.skipif(None in map(fp._lapack_symbol, fp._ARGTYPES),
                              reason="numpy exports no LAPACK: only the scipy route runs")


def fp_long_model(J):
    x = np.linspace(0.0, 1.0, J + 1)
    m = fp.build_model(0.5, np.cos(2 * np.pi * x) / 2, fp.clamp_end_slopes(np.sin(np.pi * x)), J)
    return m, fp.DensityField(x, fp.stationary_density(m).values + 0.2 * np.cos(np.pi * x))


@vendored
@pytest.mark.parametrize("J", [128, 512])
def test_routes_give_the_same_bits(J):
    m, rho0 = fp_long_model(J)
    u = random_signal(0, 1, Interval(0.0, 1.0), 20, 1.0)
    ctypes_run, scipy_run = on_both_routes(lambda: (
        *fp.simulate(m, rho0, u, 1.0, 1e-3),
        fp.step(m, rho0, 0.7, 1e-2).values,
        list(fp.spectral_gap(m).values()),
    ))
    assert ctypes_run == scipy_run


@vendored
@settings(deadline=None, max_examples=40)
@given(J=st.integers(16, 1024), u=st.floats(-3.0, 3.0), dt=st.floats(1e-4, 1.0))
def test_routes_factor_and_solve_alike(J, u, dt):
    m, rho0 = fp_long_model(J)

    def solve():
        factor, advance = fp._cn_workspace(m, dt)
        with np.errstate(over="ignore", invalid="ignore"):
            factor(u)
            return [advance(rho0.values, np.empty(J + 1))]

    ctypes_run, scipy_run = on_both_routes(solve)
    assert ctypes_run == scipy_run


def test_lapack_failures_are_numeric_errors(fp_bench, monkeypatch):
    rho = fp.discrete_stationary_density(fp_bench)
    route = fp._LAPACK

    def failing(which, code):
        """The route with its gttrf (which = 0) or gttrs (1) call replaced
        by one that reports info = code."""
        def tridiagonal(arrays, info):
            calls = list(route.tridiagonal(arrays, info))
            calls[which] = lambda: setattr(info, "value", code)
            return calls
        return route._replace(tridiagonal=tridiagonal)

    for which, code, message in ((0, 3, "gttrf info 3"), (1, -9, "gttrs info -9")):
        monkeypatch.setattr(fp, "_LAPACK", failing(which, code))
        with pytest.raises(NumericError, match=message):
            fp.step(fp_bench, rho, 0.0, 1e-3)
        with pytest.raises(NumericError, match=message):
            fp.simulate(fp_bench, rho, None, 0.1, 1e-3)
    monkeypatch.setattr(fp, "_LAPACK", route._replace(stebz=lambda d, e, il, iu: (0, d, d, d, 4)))
    with pytest.raises(NumericError, match="info 4"):
        fp.spectral_gap(fp_bench)
    monkeypatch.setattr(fp, "_LAPACK", route._replace(stein=lambda d, e, w, ib, isp: (None, 1)))
    with pytest.raises(NumericError, match="info 1"):
        fp.spectral_gap(fp_bench)


def test_strided_density_steps_like_its_copy(fp_bench):
    # every second node of a 2J+1 grid: a view that LAPACK must never see
    fine = np.linspace(0.0, 1.0, 2 * fp_bench.J + 1)
    strided = fp.DensityField(fine[::2], (1.0 + 0.3 * np.cos(np.pi * fine))[::2])
    assert not strided.values.flags.c_contiguous
    copy = fp.DensityField(fp_bench.grid, strided.values.copy())
    u = random_signal(5, 1, Interval(0.0, 0.1), 3, 1.0)
    runs = [[fp.step(fp_bench, rho, 0.7, 1e-3).values, *fp.simulate(fp_bench, rho, u, 0.1, 1e-3)]
            for rho in (strided, copy)]
    assert [a.tobytes() for a in runs[0]] == [a.tobytes() for a in runs[1]]
