import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import isslab
from isslab import mild_solver
from isslab.cli import _DISPATCH
from isslab.diagonal import (
    closed_form_solution,
    closed_form_trajectory,
    example3_model,
    stable_model,
)
from isslab.errors import DataError, DomainError, NumericError
from isslab.mild_solver import SystemModel, Trajectory, _l2_norms, solve_mild
from isslab.orlicz import YoungFunction, small_interval_norm
from isslab.signals import Interval, Signal, random_signal, restrict
from reference import mode_admissibility_l2


def scalar_model(lam: float, mu: float = 1.0) -> SystemModel:
    """x' = lam x + mu u1 x + u2."""
    return SystemModel([lam], [mu],
                       abs(mu) / math.sqrt(2.0 * abs(lam)) if lam < 0 else 1.0)


def test_trajectory_validation():
    with pytest.raises(DataError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)))
    with pytest.raises(DataError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)))
    traj = Trajectory(np.array([0.0, 1.0]), np.array([[3.0, 4.0], [0.0, 1.0]]))
    assert traj.norms[0] == 5.0
    # a state that overflowed to inf keeps an inf norm
    assert Trajectory(np.array([0.0]), np.array([[math.inf, 1.0]])).norms[0] == math.inf


def test_zero_input_is_pure_semigroup():
    m = scalar_model(-1.0)
    traj = solve_mild(m, [2.0], None, None, 1.5, tol=1e-10)
    for i, t in enumerate(traj.grid):
        assert traj.states[i, 0] == pytest.approx(2.0 * math.exp(-t), rel=1e-12)


def test_exponent_cancellation():
    # x' = -x + u1 x with u1 = 1 stays at the initial value
    m = scalar_model(-1.0)
    u1 = Signal.constant(1.0, Interval(0.0, 2.0))
    traj = solve_mild(m, [1.0], u1, None, 2.0, tol=1e-10, quad_h=5e-4)
    assert traj.status == "complete"
    assert traj.states[-1, 0] == pytest.approx(1.0, abs=1e-7)


def test_additive_input_matches_variation_of_constants():
    # x' = -x + u2, u2 = 1: x(t) = 1 + (x0 - 1) e^{-t}
    m = scalar_model(-1.0)
    u2 = Signal.constant(1.0, Interval(0.0, 3.0))
    traj = solve_mild(m, [0.0], None, u2, 3.0, tol=1e-10, quad_h=1e-3)
    exact = 1.0 - np.exp(-traj.grid)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-7


def test_oracle_agreement_diagonal():
    model = example3_model(8)
    x0 = np.full(8, 0.5)
    for seed in (0, 1, 2):
        u = random_signal(seed, 1, Interval(0.0, 2.0), 12, 1.0)
        traj = solve_mild(model, x0, u, None, 2.0, tol=1e-8, quad_h=5e-4)
        err = max(
            float(np.max(np.abs(traj.states[i] - closed_form_solution(model, x0, u, t))))
            for i, t in enumerate(traj.grid)
        )
        # combined fixed-point + quadrature error against the exact solution
        assert err <= 1e-6


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_solver_matches_oracle_on_random_diagonal_models(data):
    """solve_mild agrees with closed_form_solution to 1e-6, the bound of
    simulate-diagonal, at every node on [0, 1], with the CLI's tol=1e-8 and
    quad_h=5e-4, and stable_model's surrogate is the l^2 combination of the
    per-mode L^2 constants.  Drawn: N in 1..3, lam_n in [-4, -0.5], mu_n in
    [-2, 2], x0_n in [-1, 1], and a scalar u1 of 1..8 cells with amplitude
    in [0, 1]."""
    N = data.draw(st.integers(1, 3))
    lam = np.array(data.draw(st.lists(st.floats(-4.0, -0.5), min_size=N, max_size=N)))
    mu = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=N, max_size=N)))
    x0 = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=N, max_size=N)))
    u1 = random_signal(data.draw(st.integers(0, 2**16)), 1, Interval(0.0, 1.0),
                       data.draw(st.integers(1, 8)), data.draw(st.floats(0.0, 1.0)))
    model = stable_model(lam, mu)
    per_mode = [mode_admissibility_l2(lam_n, mu_n, math.inf) for lam_n, mu_n in zip(lam, mu)]
    assert model.adm_c == pytest.approx(math.hypot(*per_mode), rel=1e-14)
    traj = solve_mild(model, x0, u1, None, 1.0, tol=1e-8, quad_h=5e-4)
    assert traj.status == "complete"
    assert np.max(np.abs(traj.states - closed_form_solution(model, x0, u1, traj.grid))) <= 1e-6


def test_scan_with_underflowing_and_growing_factors():
    # e^{-1e6 dt} underflows to 0 at dt = 1e-3 while e^{0.5 dt} exceeds 1;
    # with u2 = None each mode is exp(lam t + mu int u1) x0 exactly
    model = SystemModel([-1e6, 0.5], [1.0, 0.5], 1.0)
    u1 = random_signal(4, 1, Interval(0.0, 2.0), 8, 0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = solve_mild(model, [1.0, 1.0], u1, None, 2.0, tol=1e-10, quad_h=1e-3)
        exact = closed_form_solution(model, [1.0, 1.0], u1, traj.grid)
    assert traj.status == "complete" and traj.grid[-1] == 2.0
    assert np.all(traj.states[1:, 0] == 0.0)
    assert np.max(np.abs(traj.states - exact)) <= 1e-6


def test_zero_width_padding_is_the_identity():
    # a cell of zero width has g = 1 and c = 0, so padding a row with them
    # leaves every state at its real nodes bit-identical
    model = example3_model(3)
    u1 = random_signal(5, 1, Interval(0.0, 2.0), 9, 1.0)
    u2 = random_signal(6, 3, Interval(0.0, 2.0), 7, 0.5)
    x_a = np.array([1.0, 0.0, -0.5])
    nodes = mild_solver._window_nodes(0.0, 0.3, u1, u2, 2e-3)
    padded = np.append(nodes, np.repeat(nodes[-1], nodes.size - 1))
    plain = mild_solver._picard(model, x_a, nodes[None, :], u1, u2, 1e-10)
    both = mild_solver._picard(model, x_a, padded[None, :], u1, u2, 1e-10)
    assert plain is not None and both is not None
    assert np.array_equal(both[0, :nodes.size], plain[0])


def test_mode_started_at_zero_stays_exactly_zero():
    # with u2 = None the forcing of a mode is mu u1 x, which is 0 where x is,
    # so every sweep and both grids of each window keep that mode at 0
    u1 = random_signal(5, 1, Interval(0.0, 2.0), 9, 1.0)
    assert np.all(u1.values != 0.0)
    traj = solve_mild(example3_model(3), [1.0, 0.0, -0.5], u1, None, 2.0)
    assert traj.status == "complete" and traj.grid[-1] == 2.0
    assert np.all(traj.states[:, 1] == 0.0)
    assert np.all(traj.states[:, [0, 2]] != 0.0)


def test_oracle_agreement_n14():
    # |lam_14| = 16384: quad_h is set so |lam_N| quad_h stays small, where
    # the trapezoid error is below the 1e-6 oracle bound
    model = example3_model(14)
    x0 = np.ones(14)
    u = random_signal(1, 1, Interval(0.0, 1.0), 12, 1.0)
    traj = solve_mild(model, x0, u, None, 1.0, tol=1e-8, quad_h=1.25e-5)
    assert traj.status == "complete"
    oracle = closed_form_trajectory(model, x0, u, traj.grid)
    assert np.max(np.abs(traj.states - oracle.states)) <= 1e-6


def test_oracle_agreement_n14_at_cli_default_quad_h():
    # the same run on the CLI's default grid: |lam_14| quad_h = 33, and the
    # Richardson windows still keep the oracle distance below 1e-6
    model = example3_model(14)
    x0 = np.ones(14)
    u = random_signal(1, 1, Interval(0.0, 1.0), 12, 1.0)
    quad_h = _DISPATCH["simulate-diagonal"][1]["quad_h"][2]
    traj = solve_mild(model, x0, u, None, 1.0, tol=1e-8, quad_h=quad_h)
    assert traj.status == "complete"
    oracle = closed_form_trajectory(model, x0, u, traj.grid)
    assert np.max(np.abs(traj.states - oracle.states)) <= 1e-6


def test_restart_consistency():
    sm = example3_model(6)
    x0 = np.full(6, 0.3)
    u = random_signal(9, 1, Interval(0.0, 2.0), 10, 0.8)
    # the comparison tolerance must cover the quadrature error, so the
    # fixed-point tolerance is chosen to dominate it
    tol = 1e-6
    full = solve_mild(sm, x0, u, None, 2.0, tol=tol, quad_h=5e-4)
    first = solve_mild(sm, x0, u, None, 1.0, tol=tol, quad_h=5e-4)
    tail = restrict(u, Interval(1.0, 2.0))
    shifted = Signal(tail.grid - 1.0, tail.values)
    second = solve_mild(sm, first.states[-1], shifted, None,
                        1.0, tol=tol, quad_h=5e-4)
    assert np.linalg.norm(second.states[-1] - full.states[-1]) <= 5 * tol


def test_grid_refinement_fourth_order():
    m = scalar_model(-1.0)
    u1 = random_signal(2, 1, Interval(0.0, 1.0), 4, 0.9)
    ends = []
    for h in (4e-2, 2e-2, 1e-2, 5e-3):
        traj = solve_mild(m, [1.0], u1, None, 1.0, tol=1e-12, quad_h=h)
        ends.append(traj.states[-1, 0])
    # successive-difference slope of the Richardson-extrapolated trapezoid
    # convolution, which is fourth order
    diffs = [abs(ends[i] - ends[i + 1]) for i in range(len(ends) - 1)]
    slopes = [math.log2(diffs[i] / diffs[i + 1]) for i in range(len(diffs) - 1)]
    assert all(3.6 <= s <= 4.4 for s in slopes), slopes


def test_semigroup_model_laws():
    dm = example3_model(5)
    sm = stable_model(dm.lam, dm.mu)
    assert np.array_equal(sm.lam, dm.lam) and np.array_equal(sm.mu, dm.mu)
    assert sm.dim == 5 and sm.omega == 2.0
    # the l^2 combination of the per-mode L^2 admissibility constants
    per_mode = [mode_admissibility_l2(lam_n, mu_n, math.inf)
                for lam_n, mu_n in zip(dm.lam, dm.mu)]
    assert sm.adm_c == pytest.approx(math.hypot(*per_mode), rel=1e-14)
    with pytest.raises(DomainError):
        stable_model([-1.0, 0.0], [1.0, 1.0])
    with pytest.raises(DataError):
        SystemModel([-1.0, -2.0], [1.0], 1.0)
    with pytest.raises(DomainError):
        SystemModel([-1.0], [1.0], -1.0)
    # stable_model validates the arrays before its arithmetic
    with pytest.raises(DataError):
        stable_model([-1.0, -2.0], [1.0])
    with pytest.raises(DataError):
        stable_model([-1.0], [math.nan])
    # a zero control operator has admissibility constant 0
    assert stable_model([-1.0], [0.0]).adm_c == 0.0
    # squares that under- or overflow still give the l^2 combination
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = stable_model([-1.0], [2.85e-217])
        huge = stable_model([-1.0, -1.0], [1e160, 1e160])
        part = stable_model([-0.5, -0.5], [3e-160, 4e-160])
    assert tiny.adm_c == pytest.approx(2.85e-217 / math.sqrt(2.0), rel=1e-14, abs=0.0)
    assert huge.adm_c == pytest.approx(1e160, rel=1e-14)
    # a sum of squares in the subnormal range keeps its digits too
    assert part.adm_c == pytest.approx(5e-160, rel=1e-15, abs=0.0)


def test_empty_model_raises_data_error():
    with pytest.raises(DataError):
        SystemModel([], [], 0.0)
    with pytest.raises(DataError):
        stable_model([], [])


@pytest.mark.parametrize("name, value", [("T", math.nan), ("T", math.inf), ("T", 0.0),
                                         ("tol", math.nan), ("tol", math.inf),
                                         ("quad_h", math.nan), ("quad_h", math.inf)])
def test_solver_arguments_must_be_positive_and_finite(name, value):
    args = {"T": 1.0, "tol": 1e-8, "quad_h": 1e-3, name: value}
    with pytest.raises(DomainError):
        solve_mild(scalar_model(-1.0), [1.0], None, None, **args)


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_initial_state_must_be_finite(x0):
    # rejected before any window: no ladder of Picard attempts, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="x0 must be finite"):
            solve_mild(scalar_model(-1.0), [x0], None, None, 1.0)


def test_blowup_detection(monkeypatch):
    # x' = x + 2 x = 3x grows like e^{3t} and crosses the threshold
    m = scalar_model(1.0)
    u1 = Signal.constant(2.0, Interval(0.0, 12.0))
    threshold = 1e6
    monkeypatch.setattr(mild_solver, "BLOWUP_THRESHOLD", threshold)
    traj = solve_mild(m, [1.0], u1, None, 12.0, tol=1e-8, quad_h=1e-2)
    assert traj.status == "blowup"
    assert traj.t_blowup == pytest.approx(math.log(threshold) / 3.0, abs=0.05)
    # the cut trajectory is the unbounded solve up to the first crossing
    monkeypatch.setattr(mild_solver, "BLOWUP_THRESHOLD", math.inf)
    full = solve_mild(m, [1.0], u1, None, 12.0, tol=1e-8, quad_h=1e-2)
    assert full.status == "complete" and full.grid[-1] == 12.0
    n = traj.grid.size
    assert np.array_equal(full.grid[:n], traj.grid)
    assert np.array_equal(full.states[:n], traj.states)
    assert full.norms[n - 1] > threshold >= np.max(full.norms[: n - 1])
    assert traj.t_blowup == full.grid[n - 1]
    monkeypatch.setattr(mild_solver, "BLOWUP_THRESHOLD", 10.0)
    stable = solve_mild(scalar_model(-1.0), [1.0], None, None, 1.0)
    assert stable.status == "complete" and stable.t_blowup is None


def test_initial_state_beyond_threshold_is_blowup_at_zero():
    traj = solve_mild(scalar_model(-1.0), [1e13], None, None, 1.0)
    assert traj.grid.tolist() == [0.0] and traj.states.tolist() == [[1e13]]
    assert traj.status == "blowup" and traj.t_blowup == 0.0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_window_rule_matches_luxemburg_reference(data):
    """The contracting rungs of the window rule are those of the rule
    adm_c * small_interval_norm(power(2), u, a, delta) <= bound.  Drawn: a
    signal of 1..3 components and 1..30 cells with amplitude 1e-200..1e200,
    a window start (a breakpoint or any time) and adm_c: 0, log-uniform, so
    that the bound falls anywhere on the halving ladder or past either end,
    or placing one rung 1e-11..1e-2 relative above or below the bound.
    Draws whose reference lies within 1e-12 relative of the bound are exempt."""
    d, cells = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 30))
    amplitude = 10.0 ** data.draw(st.floats(-200.0, 200.0))
    u = random_signal(data.draw(st.integers(0, 2**16)), d, Interval(0.0, 2.0), cells, amplitude)
    a = data.draw(st.one_of(st.sampled_from(u.grid[:-1].tolist()),
                            st.floats(0.0, 1.9)))
    ladder = (2.0 - a) * 0.5 ** np.arange(64)
    ladder = ladder[ladder >= 1e-12]
    ref = np.array([small_interval_norm(YoungFunction.power(2), u, a, float(delta))
                    for delta in ladder])
    bound = data.draw(st.sampled_from([0.5, 1.0]))
    k = data.draw(st.integers(0, ladder.size - 1))
    near = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-11.0, -2.0)).map(
        lambda se: bound / (ref[k] * (1.0 + se[0] * 10.0 ** se[1])) if ref[k] > 0 else 0.0)
    adm_c = data.draw(st.one_of(
        st.just(0.0), st.floats(-1.0, 7.0).map(lambda e: 10.0 ** e / amplitude), near))
    assume(not np.any(np.abs(adm_c * ref - bound) <= 1e-12 * bound))
    got = adm_c * _l2_norms(u)(a, a + ladder) <= bound
    assert np.array_equal(got, adm_c * ref <= bound)


def test_blowup_of_example_model_under_large_control():
    # u1 = 40 drives x' = (lam + 40 mu) x past the threshold; only tiny
    # windows contract, so each window takes a low rung of its ladder
    u1 = Signal.constant(40.0, Interval(0.0, 0.5))
    traj = solve_mild(example3_model(2), np.ones(2), u1, None, 0.5,
                      tol=1e-8, quad_h=5e-4)
    assert traj.status == "blowup"
    assert traj.t_blowup == 0.35286891681817745
    assert traj.grid.size == 9124


def test_window_ladder_falls_back_to_lower_rungs(monkeypatch):
    # the ladder's for/else: a window whose sweeps do not converge tries the
    # next rung down, and one that no rung lets converge raises
    model, x0 = example3_model(3), np.ones(3)
    u1 = random_signal(5, 1, Interval(0.0, 2.0), 9, 1.0)
    default = solve_mild(model, x0, u1, None, 2.0, quad_h=2e-3)
    monkeypatch.setattr(mild_solver, "_PICARD_CAP", 4)
    capped = solve_mild(model, x0, u1, None, 2.0, quad_h=2e-3)
    assert capped.status == "complete" and capped.grid[-1] == 2.0
    assert capped.grid.size > default.grid.size
    oracle = closed_form_trajectory(model, x0, u1, capped.grid)
    assert np.max(np.abs(capped.states - oracle.states)) <= 1e-6
    monkeypatch.setattr(mild_solver, "_PICARD_CAP", 0)
    with pytest.raises(NumericError, match="delta floor"):
        solve_mild(model, x0, u1, None, 2.0, quad_h=2e-3)


def test_solver_import_does_not_load_orlicz():
    # the window rule needs L^2 energies only, not the Young-function machinery
    src = str(Path(isslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = "import sys, isslab.mild_solver; sys.exit('isslab.orlicz' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_two_inputs_match_ode_reference():
    # x' = lam x + mu u1 x + u2 with a scalar u1 and a 2-component u2
    from scipy.integrate import solve_ivp

    lam, mu = np.array([-1.0, -3.0]), np.array([1.0, 0.5])
    model = SystemModel(lam, mu, float(np.linalg.norm(mu / np.sqrt(2.0 * np.abs(lam)))))
    T = 2.0
    u1 = random_signal(4, 1, Interval(0.0, T), 8, 0.8)
    u2 = random_signal(5, 2, Interval(0.0, T), 6, 1.0)
    x0 = np.array([1.0, -0.5])
    traj = solve_mild(model, x0, u1, u2, T, tol=1e-10, quad_h=1e-3)
    assert traj.status == "complete" and traj.grid[-1] == T
    # reference: the linear ODE of each input cell, cell after cell
    ref, x = np.empty_like(traj.states), x0
    breaks = np.union1d(u1.grid, u2.grid)
    for b0, b1 in zip(breaks[:-1], breaks[1:]):
        c1 = u1.value_at(0.5 * (b0 + b1))[0]
        c2 = u2.value_at(0.5 * (b0 + b1))
        sol = solve_ivp(lambda t, y: (lam + mu * c1) * y + c2, (b0, b1), x,
                        method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True)
        here = (traj.grid >= b0) & (traj.grid <= b1)
        ref[here] = sol.sol(traj.grid[here]).T
        x = sol.y[:, -1]
    assert np.max(np.abs(traj.states - ref)) <= 1e-6


def test_input_domain_checked():
    m = scalar_model(-1.0)
    short = Signal.constant(1.0, Interval(0.0, 0.5))
    with pytest.raises(DomainError):
        solve_mild(m, [1.0], short, None, 1.0)
    # u1 is scalar; u2 has one component or one per mode
    sm = example3_model(4)
    iv = Interval(0.0, 1.0)
    with pytest.raises(DomainError):
        solve_mild(sm, np.ones(4), random_signal(0, 2, iv, 4, 0.5), None, 1.0)
    with pytest.raises(DomainError):
        solve_mild(sm, np.ones(4), None, random_signal(0, 3, iv, 4, 0.5), 1.0)


def test_trajectory_serialization(tmp_path):
    traj = solve_mild(scalar_model(-1.0), [1.0], None, None, 0.5)
    path = tmp_path / "traj.csv"
    traj.to_csv(path, full_state=True)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,norm,x_1"
    assert len(rows) == traj.grid.size + 1
    meta = traj.to_json()
    assert meta["status"] == "complete"


def test_trajectory_stack_norms_are_each_trajectorys():
    grid = np.linspace(0.0, 1.0, 5)
    states = np.random.default_rng(4).normal(size=(3, 5, 2))
    states[1, 2] = [1e300, 1e300]  # squares that overflow are rescaled
    stack = Trajectory(grid, states)
    assert stack.norms.shape == (3, 5)
    for i in range(3):
        assert np.array_equal(stack.norms[i], Trajectory(grid, states[i]).norms)
    with pytest.raises(DataError):
        Trajectory(grid, states[:, :4])
