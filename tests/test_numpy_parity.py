"""The grid path's BLAS and LAPACK calls against the numpy and scipy expressions they replace, byte for byte.

schrodinger and potential compute on array('d') buffers through scipy's
bundled OpenBLAS.  Each reference below is the numpy expression that the
package used before, evaluated here with numpy: linspace, polyval's
Horner steps, eigvals on the companion matrix, `weights @ f` and lstsq.
The one step that is not compared is scaling_study's ln B', which is
math.log: numpy's SIMD log differs from the C library's by one unit in
the last place for a few arguments in a thousand on hosts with AVX-512,
so the fit is compared from the same logs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.polynomial import polyval

from instanton_gas import potential as potential_module
from instanton_gas.potential import find_minima, instanton_action
from instanton_gas.schrodinger import (
    GridSpec, _fit_line, benchmark_point, benchmark_potential, discretize, scaling_study,
)

LAMBDAS = (2.0, 3.3, 7.9, 16.0, 37.5, 96.0, 150.0, 256.0)
ASYMMETRIES = (0.0, 0.5, -0.5, 1.5, -1.5)
POINTS = (3, 101, 1001, 4001, 8001)


def parent_discretize(pot, grid):
    """The diagonal and off-diagonal that numpy formed: linspace, polyval's Horner, 1/h^2 + V."""
    x = np.linspace(grid.x_min, grid.x_max, grid.points)
    h = grid.spacing
    return 1.0 / h**2 + polyval(x, pot.coefficients)[1:-1], -0.5 / h**2


def parent_stationary_points(pot):
    """The real eigenvalues of V''s companion matrix as polycompanion forms it, by np.linalg.eigvals."""
    slope = potential_module._derivative(pot.coefficients)
    while slope[-1] == 0.0:
        slope.pop()
    lead = slope.pop()
    companion = np.eye(len(slope), k=-1)
    companion[:, -1] = [0.0 - c / lead for c in slope]
    roots = np.linalg.eigvals(companion).tolist()
    return sorted(z.real for z in roots if abs(z.imag) <= 1e-9 * (1.0 + abs(z)))


def parent_rule(pot, x0, x1, n):
    """half * (weights @ sqrt(2 max(V - floor, 0))) at the n-node rule's nodes, in numpy."""
    floor = 0.5 * (pot(x0) + pot(x1))
    nodes, weights = map(np.array, potential_module._gauss_rule(n))
    half = 0.5 * (x1 - x0)
    f = np.sqrt(2.0 * np.maximum(polyval(0.5 * (x0 + x1) + half * nodes, pot.coefficients) - floor, 0.0))
    return half * float(weights @ f)


def harmonic_minima(pot):
    return [w.location for w in find_minima(pot) if w.harmonic]


@pytest.mark.parametrize("points", POINTS)
@pytest.mark.parametrize("b", ASYMMETRIES)
def test_discretize(b, points):
    grid = GridSpec(-3.5, 3.5, points)
    for lam in LAMBDAS:
        pot = benchmark_potential(lam, b)
        op = discretize(pot, grid)
        diagonal, off_diagonal = parent_discretize(pot, grid)
        assert op.diagonal.tobytes() == diagonal.tobytes()
        assert op.off_diagonal.hex() == off_diagonal.hex()


@settings(max_examples=200, deadline=None)
@given(
    x_min=st.floats(-50.0, 0.0),
    width=st.floats(1e-3, 100.0),
    points=st.integers(3, 9000),
)
def test_grid_points_and_every_other_point_of_the_refinement(x_min, width, points):
    # numeric_gap reads the coarse grid's values of V at every other point of its refinement
    grid = GridSpec(x_min, x_min + width, points)
    x = grid.array()
    assert x.tobytes() == np.linspace(grid.x_min, grid.x_max, grid.points).tobytes()
    assert grid.refined().array()[::2].tobytes() == x.tobytes()


@pytest.mark.parametrize("b", ASYMMETRIES)
def test_stationary_points_and_action(b):
    for lam in LAMBDAS:
        pot = benchmark_potential(lam, b)
        expected = parent_stationary_points(pot)
        assert [x.hex() for x in potential_module._stationary_points(pot)] == [x.hex() for x in expected]
        x0, x1 = harmonic_minima(pot)
        floor = 0.5 * (pot(x0) + pot(x1))
        coarse, fine = potential_module._action_rules(pot, floor, x0, x1)
        assert (coarse.hex(), fine.hex()) == (parent_rule(pot, x0, x1, 64).hex(), parent_rule(pot, x0, x1, 128).hex())
        assert instanton_action(pot, x0, x1) == fine


def parent_fit(s, lnb):
    """lstsq's line through (s_i, lnb_i) and its residuals, as scaling_study formed them in numpy."""
    s, lnb = np.array(s), np.array(lnb)
    design = np.vstack([s, np.ones_like(s)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, lnb, rcond=None)
    return float(slope), float(intercept), (lnb - (slope * s + intercept)).tolist()


def hexes(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("points", [101, 1001, 4001])
def test_scaling_study_fit(points):
    # scaling_study fits the symmetric family; its asymmetric wells are asymmetry dominated and excluded
    study = scaling_study(0.0, LAMBDAS[:6], grid=GridSpec(-3.5, 3.5, points))
    dropped = {lam for lam, _ in study.excluded}
    usable = [rec for rec in study.records if rec.lam not in dropped]
    assert len(usable) >= 3
    s, lnb = [rec.s_inst for rec in usable], [math.log(rec.b_prime) for rec in usable]
    slope, intercept, residuals = parent_fit(s, lnb)
    assert hexes((study.slope, study.intercept, *study.residuals)) == hexes((slope, intercept, *residuals))


@pytest.mark.parametrize("b", ASYMMETRIES)
def test_fit_on_benchmark_records(b):
    # the fit alone, on the family's actions and log gaps (B' is 0 where the asymmetry dominates)
    records = [benchmark_point(lam, b, GridSpec(-3.5, 3.5, 1001))[0] for lam in LAMBDAS]
    s, y = zip(*((rec.s_inst, math.log(rec.gap_numeric)) for rec in records if rec.gap_numeric > 0.0))
    assert hexes(_fit_line(s, y)) == hexes(parent_fit(s, y)[:2])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1e3), st.floats(-1e3, 1e3)), min_size=2, max_size=40))
def test_fit_on_random_points(points):
    s, lnb = zip(*points)
    assert hexes(_fit_line(s, lnb)) == hexes(parent_fit(s, lnb)[:2])
