import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isslab import orlicz
from isslab.errors import DataError, DomainError, NumericError, UnsupportedError
from isslab.orlicz import (
    YoungFunction,
    complementary,
    legendre_transform,
    luxemburg_norm,
    prefix_luxemburg_norms,
    small_interval_norm,
)
from isslab.signals import Interval, Signal, random_signal, restrict
from reference import holder_pair, lp_norm

ALL_KINDS = [
    YoungFunction.power(2),
    YoungFunction.power_over_p(3),
    YoungFunction.loglog(),
    YoungFunction.identity(),
]

# Phi through (0, 0), (1, 1), (2, 4), (4, 16), with slope 6 above s = 4
HAND_PHI = YoungFunction.tabulated([[1.0, 1.0], [2.0, 4.0], [4.0, 16.0]])

# knots that are not convex: slope 2.4 through (1/2.4, 1) up to s = 0.45, then
# 0.1 or 0.5, so a unit cell on [0, 1] has norm 2.4; the last two are shallower
# or flat below s = 0.4 or 0.35, where Newton's steps from k = 1 land
NON_CONVEX = [YoungFunction.tabulated(knots) for knots in (
    [[0.45, 1.08], [3.0, 1.335]], [[0.45, 1.08], [3.0, 2.355]],
    [[0.1, 0.01], [0.4, 0.96], [0.45, 1.08], [3.0, 1.335]],
    [[0.3, 0.0], [0.35, 0.84], [0.45, 1.08], [3.0, 1.335]])]


# -- evaluation ------------------------------------------------------------


def test_eval_young_values():
    assert YoungFunction.power(2)(3.0) == 9.0
    assert YoungFunction.loglog()(0.0) == 0.0
    assert YoungFunction.power_over_p(2)(2.0) == 2.0
    with pytest.raises(DomainError):
        YoungFunction.power(2)(-1.0)


@pytest.mark.parametrize("phi", ALL_KINDS, ids=lambda p: p.kind)
def test_young_convex_and_increasing(phi):
    s = np.geomspace(1e-6, 1e6, 100)
    v = phi(s)
    assert v[0] >= 0
    assert np.all(np.diff(v) >= 0)
    # chord midpoint dominates the function value (convexity)
    mid = phi(0.5 * (s[:-1] + s[1:]))
    assert np.all(mid <= 0.5 * (v[:-1] + v[1:]) * (1 + 1e-12))


@pytest.mark.parametrize(
    "phi", [p for p in ALL_KINDS if p.kind != "identity"], ids=lambda p: p.kind
)
def test_young_growth_conditions(phi):
    small = np.geomspace(1e-12, 1e-6, 5)
    assert phi(small[0]) / small[0] <= phi(small[-1]) / small[-1] + 1e-9
    assert phi(1e-12) / 1e-12 < 0.1
    # the ratio Phi(s)/s keeps growing without bound (slowly for the
    # nearly-linear kind, so only a factor is asserted here)
    assert phi(1e6) / 1e6 > 5.0 * max(phi(1.0), 1e-12)
    assert phi(1e12) / 1e12 > phi(1e6) / 1e6


# power kinds whose s^p is not s^(p-1) * s in every bit
CLOSED_KINDS = [*ALL_KINDS, YoungFunction.power(3.5), YoungFunction.power_over_p(2.5)]


@pytest.fixture(scope="module")
def evaluators(comp_loglog):
    return [*CLOSED_KINDS, HAND_PHI, comp_loglog, complementary(YoungFunction.power(1.01))]


def test_call_reads_value_slope(evaluators):
    # one evaluator: Phi(s) is the value of _value_slope, bit for bit
    s = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-12, 1e12, 400), [1e300]])
    for phi in evaluators:
        with np.errstate(over="ignore"):
            value = phi._value_slope(s)[0]
        assert np.array_equal(phi(s), value)


def test_tabulated_knots_read_back_exactly(evaluators):
    # the right-continuous lookup reads a knot on the piece it starts
    for phi in (p for p in evaluators if p.kind == "tabulated"):
        assert np.array_equal(phi(phi.knots[:, 0]), phi.knots[:, 1])


def test_phi_at_infinity_is_inf(evaluators):
    # loglog's slope there is inf/inf, which __call__ must not warn about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [phi(math.inf) for phi in evaluators] == [math.inf] * len(evaluators)


@given(kind=st.integers(min_value=0, max_value=len(CLOSED_KINDS) + 2), data=st.data())
@settings(max_examples=300, deadline=None)
def test_slope_is_a_subgradient(evaluators, kind, data):
    # Phi(t) >= Phi(s) + g(s) (t - s) for s and t in both orders, with the
    # knots, where a table's slope changes, among the points
    phi = evaluators[kind]
    knots = phi.knots[:, 0].tolist() if phi.kind == "tabulated" else [1.0]
    point = st.one_of(st.floats(min_value=0.0, max_value=1e4), st.sampled_from(knots))
    s = np.array([data.draw(point), data.draw(point)])
    val, g = phi._value_slope(s)
    for i, j in ((0, 1), (1, 0)):
        step = g[i] * (s[j] - s[i])
        assert val[j] >= val[i] + step - 1e-12 * (val[i] + abs(step) + val[j])


# -- complementary functions ----------------------------------------------


def test_complementary_closed_forms():
    assert complementary(YoungFunction.power_over_p(2)).p == 2.0
    assert complementary(YoungFunction.power_over_p(3)).p == pytest.approx(1.5)
    with pytest.raises(UnsupportedError):
        complementary(YoungFunction.identity())


def test_tabulated_functions_compare_by_knot_values():
    a, b = complementary(YoungFunction.power(2)), complementary(YoungFunction.power(2))
    assert a.kind == "tabulated" and a is not b
    assert a == b and hash(a) == hash(b)
    assert a != complementary(YoungFunction.power(3))
    assert a != YoungFunction.tabulated(a.knots * [1.0, 2.0])
    assert len({a, b, YoungFunction.power(2)}) == 2


def test_legendre_transform_matches_closed_form():
    s = np.logspace(-6, 6)
    phi = YoungFunction.power_over_p(3)
    assert np.max(np.abs(legendre_transform(phi, s) / complementary(phi)(s) - 1)) <= 1e-14
    for p in (1.1, 2.0, 7.0):
        exact = (p - 1.0) * (s / p) ** (p / (p - 1.0))
        assert np.max(np.abs(legendre_transform(YoungFunction.power(p), s) / exact - 1)) <= 1e-14
    assert legendre_transform(phi, 0.0) == 0.0


def test_loglog_conjugate_identity():
    # Phi~(Phi'(t)) = t Phi'(t) - Phi(t) for Phi(t) = t ln ln(t+e), in a
    # form without cancellation: t / ((1 + e/t)(1 + log1p(t/e)))
    t = np.logspace(-12, 280, 400)
    phi = YoungFunction.loglog()
    slope = phi._value_slope(t)[1]
    exact = t / ((1.0 + math.e / t) * (1.0 + np.log1p(t / math.e)))
    assert np.max(np.abs(legendre_transform(phi, slope) / exact - 1)) <= 1e-11


def test_legendre_transform_edge_values():
    # HAND_PHI: slopes 1, 3, 6 on [0, 1), [1, 2), [2, inf); the sup sits at
    # the knot where the slope passes s, and is inf past the last slope
    assert legendre_transform(HAND_PHI, np.array([0.5, 2.0, 3.0, 5.0, 6.0, 7.0])).tolist() == [
        0.0, 1.0, 2.0, 6.0, 8.0, math.inf]
    # identity: 0 up to slope 1, then inf
    assert legendre_transform(YoungFunction.identity(), [0.0, 0.5, 1.0, 2.0]).tolist() == [
        0.0, 0.0, 0.0, math.inf]
    # (s/2)^2 past the double range stays inf
    assert legendre_transform(YoungFunction.power(2), [1e200, 1e300]).tolist() == [math.inf] * 2
    value = legendre_transform(YoungFunction.loglog(), 2.0)
    assert type(value) is float and value > 0
    assert legendre_transform(YoungFunction.loglog(), 0.0) == 0.0


@pytest.mark.parametrize(
    "phi",
    [YoungFunction.loglog(), YoungFunction.power_over_p(3), YoungFunction.power(2.5)],
    ids=lambda p: p.kind,
)
def test_legendre_transform_batch_matches_per_knot(phi):
    s = np.concatenate([[0.0], np.logspace(-6, 6, 101)])
    batch = legendre_transform(phi, s)
    assert batch.shape == s.shape
    assert np.array_equal(batch, [legendre_transform(phi, x) for x in s])
    assert legendre_transform(phi, float(s[40])) == batch[40]
    assert np.array_equal(legendre_transform(phi, s.reshape(3, -1)), batch.reshape(3, -1))
    with pytest.raises(DomainError):
        legendre_transform(phi, np.array([1.0, -1.0]))


def test_complementary_knots_match_per_knot_transform(comp_loglog):
    # the table is one batched transform, bit for bit the per-knot values
    s, vals = comp_loglog.knots[:, 0], comp_loglog.knots[:, 1]
    assert np.array_equal(vals, [legendre_transform(YoungFunction.loglog(), x) for x in s])


@pytest.mark.parametrize("p", [1.1, 1.5])
def test_complementary_power_knots_below_the_grid(p):
    # s^p has its maximizers t = (s/p)^{1/(p-1)} below 1e-12 at the small
    # knots (s < 0.066 for p = 1.1), where the transform (p-1)(s/p)^q is tiny
    # but positive; the bisection on the order of floats reaches such t, so
    # every knot keeps its relative accuracy
    knots = complementary(YoungFunction.power(p)).knots
    s, vals = knots[:, 0], knots[:, 1]
    assert s.size == 512 and np.all(vals > 0)
    exact = (p - 1.0) * (s / p) ** (p / (p - 1.0))
    assert np.max(np.abs(vals - exact) / exact) <= 1e-14


def test_tabulated_conjugate_interpolation_accuracy():
    phi = YoungFunction.power_over_p(3)
    t = np.geomspace(0.01, 10, 2000)
    tab_knots = np.column_stack([t, legendre_transform(phi, t)])
    tab = YoungFunction.tabulated(tab_knots)
    s = np.array([0.5, 1.0, 2.0])
    exact = complementary(phi)(s)
    assert np.allclose(tab(s), exact, rtol=1e-5)


# -- Luxemburg norm --------------------------------------------------------


def test_luxemburg_basic_values():
    iv = Interval(0.0, 1.0)
    assert luxemburg_norm(YoungFunction.power(2), Signal.constant(2.0, iv)) == pytest.approx(2.0, rel=1e-10)
    assert luxemburg_norm(YoungFunction.loglog(), Signal.zero(iv)) == 0.0
    assert luxemburg_norm(
        YoungFunction.identity(), Signal.constant(1.0, Interval(0.0, 3.0))
    ) == pytest.approx(3.0)


@pytest.mark.parametrize("phi", ALL_KINDS, ids=lambda p: p.kind)
def test_luxemburg_homogeneity(phi):
    u = random_signal(4, 2, Interval(0.0, 2.0), 10, 1.0)
    base = luxemburg_norm(phi, u)
    for c in (0.125, 3.0, 40.0):
        scaled = Signal(u.grid, c * u.values)
        assert luxemburg_norm(phi, scaled) == pytest.approx(c * base, rel=1e-10)


@pytest.mark.parametrize("phi", ALL_KINDS, ids=lambda p: p.kind)
def test_luxemburg_interval_monotone(phi):
    u = random_signal(6, 1, Interval(0.0, 3.0), 12, 1.0)
    inner = luxemburg_norm(phi, u, Interval(0.5, 2.0))
    outer = luxemburg_norm(phi, u, Interval(0.0, 3.0))
    assert inner <= outer + 1e-12


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
def test_luxemburg_matches_lp(p):
    for seed in range(20):
        u = random_signal(seed, 2, Interval(0.0, 2.0), 8, 2.0)
        assert luxemburg_norm(YoungFunction.power(p), u) == pytest.approx(
            lp_norm(u, p), rel=1e-8
        )
        # s^p/p is the L^p norm scaled by p^{-1/p}
        assert luxemburg_norm(YoungFunction.power_over_p(p), u) == pytest.approx(
            p ** (-1.0 / p) * lp_norm(u, p), rel=1e-14
        )


PREFIX_KINDS = [
    YoungFunction.power(2),
    YoungFunction.power(3.5),
    YoungFunction.power_over_p(3),
    YoungFunction.loglog(),
    YoungFunction.identity(),
    "tabulated",
]


@given(
    kind=st.sampled_from([YoungFunction.power_over_p(2), *PREFIX_KINDS]),
    seed=st.integers(min_value=0, max_value=10_000),
    c=st.floats(min_value=0.01, max_value=100.0),
)
@settings(max_examples=30, deadline=None)
def test_luxemburg_homogeneity_property(comp_loglog, kind, seed, c):
    u = random_signal(seed, 1, Interval(0.0, 1.0), 6, 1.0)
    phi = comp_loglog if kind == "tabulated" else kind
    base = luxemburg_norm(phi, u)
    scaled = Signal(u.grid, c * u.values)
    assert luxemburg_norm(phi, scaled) == pytest.approx(c * base, rel=1e-9, abs=1e-12)


@given(
    kind=st.sampled_from(PREFIX_KINDS),
    seed=st.integers(min_value=0, max_value=10_000),
    shrink=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=6, max_size=6),
)
@settings(max_examples=30, deadline=None)
def test_luxemburg_monotonicity_property(comp_loglog, kind, seed, shrink):
    # scaling some cells' values by factors in [0, 1] never raises the norm
    phi = comp_loglog if kind == "tabulated" else kind
    u = random_signal(seed, 2, Interval(0.0, 1.0), 6, 1.0)
    smaller = Signal(u.grid, np.asarray(shrink)[:, None] * u.values)
    assert luxemburg_norm(phi, smaller) <= luxemburg_norm(phi, u) * (1 + 1e-9) + 1e-12


def _modular(phi, r, w, k):
    with np.errstate(over="ignore"):
        vals = phi(r / k)
    return float(np.sum(w * np.where(np.isfinite(vals), vals, np.inf)))


def _luxemburg_one(phi, u, tol=1e-12):
    """Scalar reference: bracket from k = max r by halving or doubling,
    then bisect, one modular evaluation at a time; as in the kernel, a
    norm below 1e-300 is 0."""
    r, w = u.cell_norms(), u.widths
    if not np.any(r > 0):
        return 0.0
    if phi.kind == "identity":
        return float(np.sum(w * r))
    k = float(np.max(r))
    if _modular(phi, r, w, k) <= 1.0:
        hi, lo = k, k / 2.0
        while _modular(phi, r, w, lo) <= 1.0:
            hi, lo = lo, lo / 2.0
    else:
        lo, hi = k, k * 2.0
        while _modular(phi, r, w, hi) > 1.0:
            lo, hi = hi, hi * 2.0
    while hi - lo > tol * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if _modular(phi, r, w, mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    # the kernel's rule: 0 where the norm is below 1e-300, tested at 1e-300
    # itself, since hi may lie up to twice above a norm that small
    return hi if _modular(phi, r, w, 1e-300) > 1.0 else 0.0


@given(
    kind=st.integers(min_value=0, max_value=len(PREFIX_KINDS) - 1),
    seed=st.integers(min_value=0, max_value=10_000),
    cells=st.integers(min_value=1, max_value=12),
    d=st.integers(min_value=1, max_value=2),
    scale=st.sampled_from([1e-3, 1.0, 40.0]),
    length=st.sampled_from([0.05, 2.0, 60.0]),
    zeros=st.lists(st.integers(min_value=0, max_value=11), max_size=4),
    inner=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=5),
)
@settings(max_examples=100, deadline=None)
def test_prefix_norms_equal_luxemburg_norms(comp_loglog, kind, seed, cells, d,
                                            scale, length, zeros, inner):
    phi = comp_loglog if PREFIX_KINDS[kind] == "tabulated" else PREFIX_KINDS[kind]
    u = random_signal(seed, d, Interval(0.0, length), cells, scale)
    values = u.values.copy()
    values[[z for z in zeros if z < cells]] = 0.0
    u = Signal(u.grid, values)
    # t = 0, every breakpoint, and points inside cells; short and long
    # domains put the norm far below and far above the start k = max r
    ends = np.concatenate([[0.0], u.grid[1:], length * np.asarray(inner, dtype=float)])
    got = prefix_luxemburg_norms(phi, u, ends)
    assert got.shape == ends.shape
    for t, norm in zip(ends, got):
        if t == 0.0:
            assert norm == 0.0
            continue
        ur = restrict(u, Interval(0.0, t))
        assert norm == luxemburg_norm(phi, u, Interval(0.0, t))
        ref = _luxemburg_one(phi, ur)
        if phi.kind == "identity" or norm == 0:
            assert norm == ref
            continue
        # the smallest feasible float: it never under-reports, the float
        # below it is infeasible, and it is no larger than the bisection,
        # which stops up to 1e-12*(1+k) above the norm (4 ulps allowed)
        r, w = ur.cell_norms(), ur.widths
        assert _modular(phi, r, w, norm) <= 1.0 < _modular(phi, r, w, np.nextafter(norm, 0.0))
        assert norm <= ref + 4 * np.spacing(ref)


@given(
    kind=st.sampled_from([k for k in PREFIX_KINDS if k != YoungFunction.identity()]),
    rows=st.lists(st.tuples(st.integers(min_value=0, max_value=10_000),
                            st.integers(min_value=1, max_value=8),
                            st.integers(min_value=1, max_value=2),
                            st.sampled_from([0.0, 1e-3, 1.0, 40.0]),
                            st.sampled_from([0.05, 2.0, 60.0])), min_size=1, max_size=5),
    pad=st.sampled_from([0.0, 1.0, 1e300]),
)
@settings(max_examples=60, deadline=None)
def test_kernel_rows_equal_their_single_norms(comp_loglog, kind, rows, pad):
    # one row per signal, padded to the longest with zero widths whose
    # cell norms (pad) the kernel leaves out
    phi = comp_loglog if kind == "tabulated" else kind
    us = [random_signal(seed, d, Interval(0.0, length), cells, amplitude)
          for seed, cells, d, amplitude, length in rows]
    r = np.full((len(us), max(u.widths.size for u in us)), pad)
    W = np.zeros_like(r)
    for i, u in enumerate(us):
        r[i, :u.widths.size], W[i, :u.widths.size] = u.cell_norms(), u.widths
    got = orlicz._luxemburg_rows(phi, r, W)
    assert got.tolist() == [luxemburg_norm(phi, u) for u in us]


@pytest.mark.parametrize("grid, values, exact", [
    ([0.0, 1.0], [0.3], 0.3),  # Phi(c/k) = 1 on [0, 1]: k = c
    ([0.0, 1.0], [7.5], 7.5),
    ([0.0, 0.5, 1.0], [3.0, 1.0], 2.5),  # (Phi(3/k) + Phi(1/k))/2 = 1, 3/k in (1, 2)
    ([0.0, 0.25, 1.0], [8.0, 1.0], 4.5),  # 8/k in (1, 2), 1/k in (0, 1)
    ([0.0, 1.0 / 32.0], [20.0], 3.0),  # Phi(20/k) = 32 above the last knot
])
def test_tabulated_norm_is_exact(grid, values, exact):
    u = Signal(np.array(grid), np.array(values).reshape(-1, 1))
    norm = luxemburg_norm(HAND_PHI, u)
    assert abs(norm - exact) <= 4 * np.spacing(exact)
    # the smallest feasible float: the one below it is infeasible
    r, w = u.cell_norms(), u.widths
    assert _modular(HAND_PHI, r, w, norm) <= 1.0
    assert _modular(HAND_PHI, r, w, np.nextafter(norm, 0.0)) > 1.0


@pytest.fixture(scope="module")
def tight_kinds(comp_loglog):
    # every kind but identity (whose norm is the L^1 sum), s^p at a large p,
    # tables, and knots that are not convex
    return [*(phi for phi in ALL_KINDS if phi.kind != "identity"), YoungFunction.power(300),
            *(complementary(YoungFunction.power(p)) for p in (1.1, 1.5, 7.0)), comp_loglog,
            HAND_PHI, *NON_CONVEX]


@given(
    kind=st.integers(min_value=0, max_value=12),
    cells=st.lists(st.tuples(st.floats(min_value=-300.0, max_value=300.0),
                             st.floats(min_value=-320.0, max_value=5.0)),
                   min_size=1, max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_norm_is_feasible_and_tight(tight_kinds, kind, cells):
    # values from 1e-300 to 1e300 and widths from 1e-320 (subnormal) to 1e5
    # give norms that are 0 or near the top of the double range, modulars
    # that underflow or overflow at the start k = max r, and r/k below a
    # table's first knot or above its last.  Ascending widths keep the grid
    # strictly increasing.
    logv, logw = np.asarray(cells).T
    grid = np.concatenate([[0.0], np.cumsum(np.sort(10.0**logw))])
    u = Signal(grid, (10.0**logv).reshape(-1, 1))
    phi = tight_kinds[kind]
    norm = luxemburg_norm(phi, u)
    r, w = u.cell_norms(), u.widths
    if norm == 0.0:  # the smallest feasible float is below 1e-300
        assert _modular(phi, r, w, 1e-300) <= 1.0
        return
    assert _modular(phi, r, w, norm) <= 1.0
    assert _modular(phi, r, w, np.nextafter(norm, 0.0)) > 1.0


def _bisected_rows(monkeypatch):
    """A list that collects the number of rows of each _float_bisect call."""
    rows, bisect = [], orlicz._float_bisect

    def spy(test, lo, hi):
        rows.append(lo.size)
        return bisect(test, lo, hi)

    monkeypatch.setattr(orlicz, "_float_bisect", spy)
    return rows


def test_tabulated_newton_falls_back_to_bisection(comp_loglog, monkeypatch):
    # from k = 1 the log step lands at s = 0.238, below the slope-2.4 piece
    # that holds the root s = 1/2.4 (k = 2.4).  With slope 3.17 on [0.1, 0.4]
    # Newton rises to s = 0.413, and the exact step from there would rise
    # again: Newton stops on a feasible k = 2.42, too far for the ulp steps
    # down, and the row bisects.  With Phi = 0 on [0, 0.3] the next step is
    # not finite, and the row bisects at once.
    u = Signal.constant(1.0, Interval(0.0, 1.0))
    rows = _bisected_rows(monkeypatch)
    for phi in NON_CONVEX[2:]:
        rows.clear()
        assert 2.4 <= luxemburg_norm(phi, u) <= 2.4 + 4 * np.spacing(2.4)
        assert sum(rows) == 1
    # rows still falling when the sweeps run out bisect as well
    u = random_signal(3, 1, Interval(0.0, 1.0), 8, 1.0)
    newton = luxemburg_norm(comp_loglog, u)
    monkeypatch.setattr(orlicz, "_NEWTON_CAP", 1)
    assert abs(luxemburg_norm(comp_loglog, u) - newton) <= 4 * np.spacing(newton)


@pytest.mark.parametrize("phi", [YoungFunction.power(3.5), YoungFunction.loglog()],
                         ids=lambda p: p.kind)
def test_newton_stopped_below_the_root_bisects(phi, monkeypatch):
    # a Newton norm 1e-9 low lies millions of ulps below the root, farther
    # than the ulp walk goes: the row bisects from the walk's last
    # infeasible float up to inf, onto the same norm
    u = random_signal(3, 1, Interval(0.0, 1.0), 8, 1.0)
    exact = luxemburg_norm(phi, u)
    newton = orlicz._newton

    def low(*args):
        norm, bisect = newton(*args)
        return norm * (1.0 - 1e-9), bisect

    monkeypatch.setattr(orlicz, "_newton", low)
    assert luxemburg_norm(phi, u) == exact


@pytest.mark.parametrize("p", [2, 30, 100, 300])
def test_power_norm_takes_no_bisection(p, monkeypatch):
    # the log-space step is exact for s^p, so at any p Newton ends within
    # the ulp walk of the root, and no row of a 600-cell signal bisects
    u = random_signal(0, 1, Interval(0.0, 1.0), 600, 1.0)
    rows = _bisected_rows(monkeypatch)
    assert luxemburg_norm(YoungFunction.power(p), u) == pytest.approx(lp_norm(u, p), rel=1e-12)
    assert not any(rows)


def test_norm_past_the_double_range_raises():
    # the norm of s^2 on one cell is r sqrt(w): up to DBL_MAX it is returned,
    # smallest feasible float as always; past it the kernel raises
    phi, top = YoungFunction.power(2), np.finfo(float).max

    def cell(w, r):
        return Signal(np.array([0.0, w]), np.array([[r]]))

    for u in (cell(1e4, 1e300), cell(3.2, 1e308), cell(1.0, top)):
        norm = luxemburg_norm(phi, u)
        assert norm == pytest.approx(u.cell_norms()[0] * math.sqrt(u.widths[0]), rel=1e-15)
        r, w = u.cell_norms(), u.widths
        assert _modular(phi, r, w, norm) <= 1.0 < _modular(phi, r, w, np.nextafter(norm, 0.0))
    assert luxemburg_norm(phi, cell(1.0, top)) == top
    for u in (cell(4.0, 1e308), cell(1e300, 1e300), cell(1e308, 1e308)):
        with pytest.raises(NumericError, match="double range"):
            luxemburg_norm(phi, u)


def test_tabulated_knot_values_must_not_decrease():
    with pytest.raises(DataError, match="nondecreasing"):
        YoungFunction.tabulated([[1.0, 2.0], [2.0, 1.0], [3.0, 5.0]])
    # flat pieces are allowed, and so are slope decreases (no convexity check)
    YoungFunction.tabulated([[1.0, 1.0], [2.0, 1.0], [3.0, 5.0], [4.0, 6.0]])


@pytest.mark.parametrize("p, e", [(3.5, 1022), (3.0, 999), (3.0, -999), (7.0, 700)])
def test_power_norm_is_exact_far_from_a_unit_modular(p, e):
    # one cell of width 2^-e: the norm is 0.75 * 2^(-e/p) exactly, where a
    # closed form (2^-e)^(1/p) errs by |ln 2^-e| times the rounding of 1/p
    u = Signal(np.array([0.0, 2.0**-e]), np.array([[0.75]]))
    exact = 0.75 * 2.0 ** (-e / p)
    assert abs(luxemburg_norm(YoungFunction.power(p), u) - exact) <= np.spacing(exact)


def test_power_norm_of_subnormal_width_cell():
    # the true norm 3.2e-158 lies where the modular overflows (below 7.2e-158):
    # Newton gets no finite step there, and the row bisects to where it ends;
    # the norm 1.5e-300 of one cell 3e-300 wide 0.25 is just above the 1e-300
    # zero rule, which kernel and reference both apply to the final norm only
    phi = YoungFunction.power(2)
    for u, ref in (
            (restrict(Signal(np.array([0.0, 1.0]), np.array([[9.7e-4]])), Interval(0.0, 1.1e-309)),
             1.45e-157),
            (Signal(np.array([0.0, 0.25]), np.array([[3e-300]])), 1.5e-300)):
        norm = luxemburg_norm(phi, u)
        assert 0.0 < norm <= _luxemburg_one(phi, u) == pytest.approx(ref, rel=1e-3)
        assert _modular(phi, u.cell_norms(), u.widths, norm) <= 1.0


def test_prefix_norms_shape_and_domain():
    u = random_signal(2, 1, Interval(0.0, 1.0), 5, 1.0)
    ends = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    got = prefix_luxemburg_norms(YoungFunction.loglog(), u, ends)
    assert got.shape == (2, 3)
    assert np.all(np.diff(got.ravel()) >= 0)
    assert np.array_equal(prefix_luxemburg_norms(YoungFunction.power(2), Signal.zero(
        Interval(0.0, 1.0)), [0.5, 1.0]), [0.0, 0.0])
    with pytest.raises(DomainError):
        prefix_luxemburg_norms(YoungFunction.power(2), u, [0.5, 1.5])


def test_small_interval_norm():
    u = Signal.constant(1.0, Interval(0.0, 1.0))
    assert small_interval_norm(YoungFunction.identity(), u, 0.0, 0.25) == pytest.approx(0.25)
    assert small_interval_norm(YoungFunction.power(2), u, 0.0, 0.01) == pytest.approx(0.1, rel=1e-9)
    # vanishes with the interval, and is monotone in delta
    deltas = [0.2, 0.1, 0.05, 0.01, 0.001]
    vals = [small_interval_norm(YoungFunction.loglog(), u, 0.3, d) for d in deltas]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.05


# -- Hoelder pairing -------------------------------------------------------


def test_holder_pair_values():
    iv = Interval(0.0, 1.0)
    phi = YoungFunction.power_over_p(2)
    zero = holder_pair(Signal.zero(iv), Signal.constant(1.0, iv), phi, iv)
    assert zero["lhs"] == 0.0 and zero["rhs"] == 0.0
    ones = holder_pair(Signal.constant(1.0, iv), Signal.constant(1.0, iv), phi, iv)
    # Luxemburg norms solve (1/k)^2/2 = 1, i.e. k = 1/sqrt(2), so the
    # right-hand side 2*k*k equals 1 and the pairing is an equality case
    assert ones["lhs"] == pytest.approx(1.0)
    assert ones["rhs"] == pytest.approx(1.0, rel=1e-9)
    assert ones["lhs"] <= ones["rhs"] + 1e-10


def test_holder_random_sweep():
    iv = Interval(0.0, 2.0)
    phi = YoungFunction.power_over_p(3)
    for seed in range(50):
        u = random_signal(seed, 1, iv, 7, 1.5)
        v = random_signal(seed + 500, 1, iv, 11, 1.5)
        hp = holder_pair(u, v, phi, iv)
        assert hp["lhs"] <= hp["rhs"] + 1e-10



@given(
    kind=st.integers(min_value=0, max_value=len(PREFIX_KINDS) - 1),
    seeds=st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=6),
    cells=st.integers(min_value=1, max_value=12),
    d=st.integers(min_value=1, max_value=2),
    scale=st.sampled_from([0.0, 1e-3, 1.0, 40.0]),
    inner=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_prefix_norms_of_a_stack_equal_each_signal(comp_loglog, kind, seeds, cells, d,
                                                   scale, inner):
    # one kernel call for the whole stack gives each signal's own prefix norms
    phi = comp_loglog if PREFIX_KINDS[kind] == "tabulated" else PREFIX_KINDS[kind]
    us = [random_signal(s, d, Interval(0.0, 2.0), cells, scale) for s in seeds]
    ends = np.concatenate([[0.0], us[0].grid[1:], 2.0 * np.asarray(inner, dtype=float)])
    got = prefix_luxemburg_norms(phi, us, ends)
    assert got.shape == (len(us),) + ends.shape
    for u, row in zip(us, got):
        assert row.tolist() == prefix_luxemburg_norms(phi, u, ends).tolist()


def test_prefix_norms_stack_contract():
    phi = YoungFunction.power(2)
    u = random_signal(2, 1, Interval(0.0, 1.0), 5, 1.0)
    ends = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    assert prefix_luxemburg_norms(phi, (u, u, u), ends).shape == (3, 2, 3)
    # a stack shares one grid and d, and holds at least one signal
    for bad in ([], [u, random_signal(3, 1, Interval(0.0, 1.0), 4, 1.0)],
                [u, random_signal(3, 2, Interval(0.0, 1.0), 5, 1.0)]):
        with pytest.raises(DataError):
            prefix_luxemburg_norms(phi, bad, ends)
