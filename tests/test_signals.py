import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from isslab.errors import DataError, DomainError
from isslab.orlicz import YoungFunction, luxemburg_norm
from isslab.signals import Interval, Signal, random_signal, restrict, write_csv
from reference import lp_norm, read_csv, write_csv_rows


def test_interval_validation():
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(-0.5, 1.0)
    assert Interval(0.0, 2.0).length == 2.0


def test_signal_validation():
    with pytest.raises(DataError):
        Signal(np.array([0.0, 0.0, 1.0]), np.zeros((2, 1)))
    with pytest.raises(DataError):
        Signal(np.array([0.0, 1.0]), np.zeros((2, 1)))
    with pytest.raises(DataError):
        Signal(np.array([0.0, 1.0]), np.array([[np.nan]]))


def test_value_at_right_continuous():
    u = Signal(np.array([0.0, 1.0, 2.0]), np.array([[1.0], [5.0]]))
    assert u.value_at(0.5)[0] == 1.0
    assert u.value_at(1.0)[0] == 5.0
    assert u.value_at(2.0)[0] == 5.0
    with pytest.raises(DomainError):
        u.value_at(2.5)
    # an array of times gives one row per time, equal to the scalar calls
    for sig in (u, random_signal(4, 2, Interval(0.5, 3.0), 5, 1.0)):
        ts = np.concatenate((sig.grid, np.linspace(sig.grid[0], sig.grid[-1], 17)))
        assert np.array_equal(sig.value_at(ts), np.array([sig.value_at(t) for t in ts]))
        for bad in (sig.grid[0] - 0.1, sig.grid[-1] + 0.1):
            with pytest.raises(DomainError):
                sig.value_at(np.array([sig.grid[0], bad]))


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    d=st.sampled_from([1, 2]),
    cells=st.integers(min_value=1, max_value=12),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_integral_exact_at_breakpoints_and_linear_between(seed, d, cells, frac):
    rng = np.random.Generator(np.random.Philox(seed))
    grid = rng.uniform(0.0, 2.0) + np.concatenate(
        ([0.0], np.cumsum(rng.uniform(0.05, 1.0, cells)))
    )
    u = Signal(grid, rng.uniform(-2.0, 2.0, (cells, d)))
    # |integral| <= 24, so 1e-12 is far above the summation-order round-off
    at_breaks = u.integral(grid)
    running = np.cumsum(u.widths[:, None] * u.values, axis=0)
    assert at_breaks.shape == (cells + 1, d)
    assert np.allclose(at_breaks, np.vstack((np.zeros(d), running)), rtol=0, atol=1e-12)
    inner = grid[:-1] + frac * u.widths
    between = u.integral(inner)
    assert np.allclose(between, at_breaks[:-1] + (inner - grid[:-1])[:, None] * u.values,
                       rtol=0, atol=1e-12)
    assert np.array_equal(u.integral(inner[-1]), between[-1])
    assert np.array_equal(u.integral(grid[-1] + 1e-13), at_breaks[-1])
    for bad in (grid[-1] + 1e-11, grid[0] - 1e-9):
        with pytest.raises(DomainError):
            u.integral(np.array([grid[0], bad]))


def test_write_csv_cell_format(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(path, ["f", "g", "i", "b"], [[0.1, np.float64(1.0) / 3.0, 3, True]])
    assert path.read_text().splitlines() == [
        "f,g,i,b", "0.10000000000000001,0.33333333333333331,3,True",
    ]
    write_csv(path, ["f", "i"], [[0.1, 2], [1e-300, -7]])
    assert np.array_equal(read_csv(path), np.array([[0.1, 2.0], [1e-300, -7.0]]))


_EDGE_FLOATS = [0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan, 1.7976931348623157e308]


@settings(max_examples=100, deadline=None)
@example(rows=np.array([_EDGE_FLOATS, _EDGE_FLOATS[::-1]]))
@given(hnp.arrays(float, st.tuples(st.integers(0, 6), st.integers(1, 6)),
                  elements=st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))))
def test_write_csv_float_array_matches_csv_writer(tmp_path_factory, rows):
    """A float ndarray, formatted in one pass, gives the bytes of csv.writer
    over its rows as Python floats.  Drawn: 0..6 rows of 1..6 columns, any
    double, and 0, -0, the smallest subnormal, +-inf, nan and the largest
    double by name; the explicit example holds all seven in one table."""
    header = [f"c{j}" for j in range(rows.shape[1])]
    d = tmp_path_factory.mktemp("csv")
    write_csv(d / "fast.csv", header, rows)
    write_csv_rows(d / "ref.csv", header, rows.tolist())
    assert (d / "fast.csv").read_bytes() == (d / "ref.csv").read_bytes()


def test_restrict_identity_and_clip():
    u = Signal.constant(1.0, Interval(0.0, 2.0))
    full = restrict(u, Interval(0.0, 2.0))
    assert np.array_equal(full.grid, u.grid)
    clipped = restrict(u, Interval(0.0, 1.0))
    assert clipped.domain.t1 == 1.0
    assert clipped.values[0, 0] == 1.0
    with pytest.raises(DomainError):
        restrict(u, Interval(0.0, 3.0))


def test_restrict_norm_consistency():
    u = random_signal(11, 2, Interval(0.0, 4.0), 13, 1.0)
    iv = Interval(0.5, 2.75)
    phi = YoungFunction.power(2)
    assert luxemburg_norm(phi, restrict(u, iv)) == pytest.approx(
        luxemburg_norm(phi, u, iv), rel=1e-10
    )


def test_random_signal_deterministic_and_bounded():
    a = random_signal(123, 3, Interval(0.0, 1.0), 20, 0.7)
    b = random_signal(123, 3, Interval(0.0, 1.0), 20, 0.7)
    assert np.array_equal(a.values, b.values)
    assert lp_norm(a, math.inf) <= 0.7 * math.sqrt(3)
    zero = random_signal(1, 2, Interval(0.0, 1.0), 4, 0.0)
    assert lp_norm(zero, 1) == 0.0


def test_random_signal_rejects_overflowing_amplitude():
    # rng.uniform(-a, a) needs the width 2a to be finite
    iv = Interval(0.0, 1.0)
    assert np.max(np.abs(random_signal(1, 1, iv, 4, 8e307).values)) <= 8e307
    for amplitude in (1e308, math.inf, math.nan):
        with pytest.raises(DomainError):
            random_signal(1, 1, iv, 4, amplitude)


def test_sizes_numpy_refuses_raise_domain_error():
    # 2**62 doubles exceed numpy's size limit, which it checks before allocating
    iv = Interval(0.0, 1.0)
    for make in (lambda: Signal.zero(iv, 2**62), lambda: Signal.constant(2.0, iv, 2**62),
                 lambda: random_signal(1, 1, iv, 2**62, 1.0),
                 lambda: random_signal(1, 2**62, iv, 1, 1.0)):
        with pytest.raises(DomainError):
            make()
    assert np.array_equal(Signal.zero(iv, 3).values, np.zeros((1, 3)))


def test_lp_norm_values():
    # lp_norm is the reference that the Luxemburg power norms are checked against
    assert lp_norm(Signal.constant(1.0, Interval(0.0, 4.0)), 2) == pytest.approx(2.0)
    assert lp_norm(Signal.constant(3.0, Interval(0.0, 1.0)), math.inf) == 3.0
    with pytest.raises(DomainError):
        lp_norm(Signal.constant(1.0, Interval(0.0, 1.0)), 0.5)
    # squares of values above about 1.3e154 overflow, the norms must not
    big = random_signal(1, 1, Interval(0.0, 1.0), 4, 8e307)
    assert lp_norm(big, math.inf) == np.max(np.abs(big.values))
    r = Signal(np.arange(4.0), [[3.0, 4.0], [1e200, -1e200], [1e-200, 0.0]]).cell_norms()
    assert r[0] == 5.0 and r[1] == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    # and squares below about 1e-308 underflow, the norms must not
    assert r[2] == 1e-200
    # a sum of squares in the subnormal range keeps its digits too
    part = Signal.constant([3e-162, 4e-162], Interval(0.0, 1.0)).cell_norms()
    assert part[0] == pytest.approx(5e-162, rel=1e-15)
    tiny = Signal.constant(1e-200, Interval(0.0, 1.0))
    assert luxemburg_norm(YoungFunction.power(2), tiny) == pytest.approx(1e-200, rel=1e-15)
    assert lp_norm(tiny, 2) == pytest.approx(1e-200, rel=1e-15)
