import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

from instanton_gas import schrodinger
from instanton_gas.potential import ParameterError, PolynomialPotential
from instanton_gas.schrodinger import (
    EIGENVALUE_TOL,
    BracketError,
    DomainError,
    MAX_POINTS,
    GridSpec,
    ScalingError,
    SolverError,
    TridiagonalOperator,
    benchmark_point,
    benchmark_potential,
    discretize,
    lowest_eigenvalues,
    numeric_gap,
    scaling_study,
    sturm_count,
)
from instanton_gas.spectrum import extract_coupling, truncated_hamiltonian

HO_GRID = GridSpec(-10.0, 10.0, 2001)


def harmonic(x):
    return 0.5 * x * x


def dense(op):
    off = np.full(op.size - 1, op.off_diagonal)
    return np.diag(op.diagonal) + np.diag(off, 1) + np.diag(off, -1)


class TestDiscretize:
    def test_harmonic_oscillator_levels(self):
        op = discretize(harmonic, HO_GRID)
        e0, e1 = lowest_eigenvalues(op, 2)
        assert abs(e0 - 0.5) < 1e-4
        assert abs(e1 - 1.5) < 1e-4

    def test_particle_in_a_box(self):
        grid = GridSpec(0.0, math.pi, 2001)
        op = discretize(lambda x: 0.0 * x, grid)
        ground = lowest_eigenvalues(op, 1)[0]
        assert ground == pytest.approx(0.5, abs=1e-5)

    def test_second_order_convergence(self):
        errors = []
        for grid in (HO_GRID, HO_GRID.refined()):
            op = discretize(harmonic, grid)
            e0, e1 = lowest_eigenvalues(op, 2)
            errors.append((abs(e0 - 0.5), abs(e1 - 1.5)))
        for coarse, fine in zip(errors[0], errors[1]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_operator_structure(self):
        grid = GridSpec(-1.0, 1.0, 11)
        op = discretize(lambda x: x**2, grid)
        h = grid.spacing
        assert op.size == 9
        assert op.off_diagonal == -0.5 / h**2
        assert op.diagonal[0] == pytest.approx(1.0 / h**2 + 0.64, rel=1e-12)

    def test_domain_confinement_check(self):
        pot = benchmark_potential(2.0, 0.0)
        with pytest.raises(DomainError, match="domain too small"):
            discretize(pot, GridSpec(-1.5, 1.5, 101), min_boundary_potential=50.0)

    def test_grid_validation(self):
        with pytest.raises(SolverError):
            GridSpec(0.0, 1.0, 2)
        with pytest.raises(SolverError):
            GridSpec(1.0, 0.0, 11)

    def test_point_count_bounded_before_any_array(self, monkeypatch):
        def no_array(grid):
            raise AssertionError("grid array built")

        monkeypatch.setattr(GridSpec, "array", no_array)
        with pytest.raises(SolverError, match=f"at most {MAX_POINTS} grid points"):
            GridSpec(-3.0, 3.0, 2_000_000_000)
        # the grid fits, its refinement does not: refused before the first solve
        grid = GridSpec(-3.0, 3.0, MAX_POINTS // 2 + 2)
        with pytest.raises(SolverError, match="refined grids included"):
            numeric_gap(benchmark_potential(4.0, 0.5), grid)
        assert GridSpec(-3.0, 3.0, MAX_POINTS // 2 + 1).refined().points == MAX_POINTS


class TestEigenvalues:
    def test_against_lapack_bisection(self):
        rng = np.random.default_rng(42)
        for _ in range(4):
            n = 400
            diag = rng.uniform(0.0, 10.0, n)
            off = -float(rng.uniform(0.5, 3.0))
            op = TridiagonalOperator(diagonal=diag, off_diagonal=off, size=n)
            mine = lowest_eigenvalues(op, 4)
            ref = np.linalg.eigvalsh(dense(op))[:4]
            assert np.max(np.abs(np.array(mine) - ref)) < 1e-10
            assert mine == sorted(mine)

    @pytest.mark.parametrize("b", [0.0, 0.5])
    def test_benchmark_family_against_dense(self, b):
        op = discretize(benchmark_potential(16.0, b), GridSpec(-3.5, 3.5, 801))
        mine = lowest_eigenvalues(op, 2)
        assert type(mine) is list and all(type(e) is float for e in mine)
        ref = np.linalg.eigvalsh(dense(op))[:2]
        assert np.max(np.abs(np.array(mine) - ref)) < 1e-10
        one_row = TridiagonalOperator(diagonal=np.array([1.0]), off_diagonal=-0.1, size=1)
        with pytest.raises(BracketError):
            lowest_eigenvalues(one_row, 2)

    def test_sturm_count_matches_spectrum(self):
        grid = GridSpec(0.0, math.pi, 201)
        op = discretize(lambda x: 0.0 * x, grid)
        w = eigh_tridiagonal(
            op.diagonal, np.full(op.size - 1, op.off_diagonal), eigvals_only=True
        )
        for x in (0.3, 0.5, 2.0, 5.0, 100.0, 2026.423672847677):
            assert sturm_count(op, x) == int(np.sum(w < x))

    def test_localized_limit(self):
        diag = np.full(50, 1e6)
        diag[20] = 5.0
        op = TridiagonalOperator(diagonal=diag, off_diagonal=-1.0, size=50)
        ground = lowest_eigenvalues(op, 1)[0]
        assert ground == pytest.approx(5.0, abs=1e-4)

    def test_count_validation(self):
        op = discretize(harmonic, GridSpec(-5.0, 5.0, 101))
        with pytest.raises(SolverError):
            lowest_eigenvalues(op, 5)
        with pytest.raises(SolverError):
            lowest_eigenvalues(op, 0)

    def test_bracket_failure(self):
        op = TridiagonalOperator(diagonal=np.array([1.0, 2.0]), off_diagonal=-0.1, size=2)
        with pytest.raises(BracketError):
            lowest_eigenvalues(op, 4)

    @pytest.mark.parametrize("diagonal, off_diagonal", [
        ([1.0, math.nan, 2.0], -0.1),
        ([1.0, math.inf, 2.0], -0.1),
        ([1.0, -math.inf, 2.0], -0.1),
        ([1.0, 1.5, 2.0], -math.inf),
        ([1.0, 1.5, 2.0], math.nan),
    ])
    def test_non_finite_operator_is_solver_error(self, diagonal, off_diagonal):
        # refused before LAPACK runs, which has no finiteness check of its own
        with pytest.raises(SolverError, match="finite"):
            lowest_eigenvalues(TridiagonalOperator(np.array(diagonal), off_diagonal, 3), 2)

    @pytest.mark.parametrize("found, info", [(1, 0), (2, 4)], ids=["short", "info"])
    def test_lapack_failure_is_solver_error(self, monkeypatch, found, info):
        def stebz(*args):
            # M and INFO, the 11th and 18th arguments of LAPACK's DSTEBZ, are its integer outputs
            args[10][0], args[17][0] = found, info

        # a Python routine behind the solver's own ctypes prototype, so the call passes the same conversions
        prototype = type(schrodinger._dstebz_routine())
        monkeypatch.setattr(schrodinger, "_dstebz_routine", lambda: prototype(stebz))
        op = TridiagonalOperator(diagonal=np.array([1.0, 2.0, 3.0]), off_diagonal=-0.1, size=3)
        with pytest.raises(SolverError, match=f"info {info} with {found} of 2 eigenvalues"):
            lowest_eigenvalues(op, 2)

    def test_one_row_is_its_diagonal(self):
        op = discretize(harmonic, GridSpec(-1.0, 1.0, 3))
        assert lowest_eigenvalues(op, 1) == [op.diagonal[0]] == eigh_tridiagonal(
            op.diagonal, np.empty(0), eigvals_only=True, select="i", select_range=(0, 0),
            lapack_driver="stebz", tol=EIGENVALUE_TOL,
        ).tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.floats(math.log(2.0), math.log(256.0)).map(math.exp),
        b=st.floats(-1.5, 1.5, exclude_min=True, exclude_max=True),
        points=st.sampled_from([7, 101, 1201, 4001]),
        count=st.integers(1, 4),
    )
    def test_same_bits_as_eigh_tridiagonal(self, lam, b, points, count):
        op = discretize(benchmark_potential(lam, b), GridSpec(-3.5, 3.5, points))
        ref = eigh_tridiagonal(
            op.diagonal, np.full(op.size - 1, op.off_diagonal), eigvals_only=True, select="i",
            select_range=(0, count - 1), lapack_driver="stebz", tol=EIGENVALUE_TOL,
        )
        assert lowest_eigenvalues(op, count) == ref.tolist()

    def test_double_well_near_degeneracy(self):
        pot = PolynomialPotential((5.0, 0.0, -10.0, 0.0, 5.0))  # 5 (x^2-1)^2
        op = discretize(pot, GridSpec(-3.0, 3.0, 2001))
        e0, e1, e2 = lowest_eigenvalues(op, 3)
        assert (e1 - e0) < 0.12 * (e2 - e1)

    def test_parity_of_doublet(self):
        pot = benchmark_potential(5.0, 0.0)
        op = discretize(pot, GridSpec(-3.0, 3.0, 2001))
        off = np.full(op.size - 1, op.off_diagonal)
        _, vectors = eigh_tridiagonal(op.diagonal, off, select="i", select_range=(0, 1))
        # overlap <psi, P psi> with P the grid reflection; columns are unit-norm
        even, odd = (float(np.dot(v, v[::-1])) for v in vectors.T)
        assert even > 0.999
        assert odd < -0.999


def sequential_gap(potential, grid):
    """numeric_gap's gap and error estimate from one grid after the other, as float.hex."""
    (c0, c1), (f0, f1) = (lowest_eigenvalues(discretize(potential, g), 2) for g in (grid, grid.refined()))
    return (f1 - f0).hex(), (abs((f1 - f0) - (c1 - c0)) / 3.0).hex()


class TestNumericGap:
    @settings(max_examples=30, deadline=None)
    @given(
        lam=st.floats(math.log(2.0), math.log(256.0)).map(math.exp),
        b=st.floats(-1.5, 1.5, exclude_min=True, exclude_max=True),
        points=st.sampled_from([101, 1201, 4001]),
    )
    def test_same_bits_as_sequential_solves(self, lam, b, points):
        pot = benchmark_potential(lam, b)
        grid = GridSpec(-3.5, 3.5, points)
        gap, error = numeric_gap(pot, grid)
        assert (gap.hex(), error.hex()) == sequential_gap(pot, grid)

    def test_concurrent_solves_keep_the_sequential_bits(self):
        # more threads than cores, switching often, each solving its own operators
        cases = [(lam, b, points) for lam, b in ((3.0, 0.0), (16.0, 0.5), (64.0, -0.8), (200.0, 1.2))
                 for points in (1201, 4001)]
        ops = [discretize(benchmark_potential(lam, b), GridSpec(-3.5, 3.5, points)) for lam, b, points in cases]
        expected = [lowest_eigenvalues(op, 4) for op in ops]
        results = [[] for _ in ops]

        def solve(i):
            for _ in range(3):
                results[i].append(lowest_eigenvalues(ops[i], 4))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(ops))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[eigs] * 3 for eigs in expected]

    def test_coarse_solve_error_comes_first_and_leaves_no_thread(self):
        # three coarse points leave a one-row operator, which has no doublet; the fine grid adds
        # x = +-1.5, where the potential is not finite, so its discretization fails as well
        def potential(x):
            return np.where(np.abs(x) == 1.5, np.nan, x * x)

        threads = threading.active_count()
        with pytest.raises(BracketError, match="cannot find 2 eigenvalues of a 1-row operator"):
            numeric_gap(potential, GridSpec(-3.0, 3.0, 3))
        assert threading.active_count() == threads
        with pytest.raises(DomainError, match="not finite"):
            numeric_gap(potential, GridSpec(-3.0, 3.0, 5))
        assert threading.active_count() == threads

    def test_slow_coarse_error_wins_over_fine_error(self, monkeypatch):
        # the coarse solve fails after the fine one has failed; the sequential order still decides
        solved = threading.Event()

        def failing_solve(operator, count):
            if operator.size > 100:
                solved.set()
            else:
                solved.wait(timeout=10)
            raise SolverError(f"no solve of {operator.size} rows")

        monkeypatch.setattr(schrodinger, "lowest_eigenvalues", failing_solve)
        threads = threading.active_count()
        with pytest.raises(SolverError, match="no solve of 99 rows"):
            numeric_gap(harmonic, GridSpec(-3.0, 3.0, 101))
        assert threading.active_count() == threads

    def test_self_consistency_across_resolutions(self):
        pot = benchmark_potential(4.0, 0.5)
        g1 = numeric_gap(pot, GridSpec(-3.0, 3.0, 2001))
        g2 = numeric_gap(pot, GridSpec(-3.0, 3.0, 3001))
        assert g1.error_estimate > 0
        assert abs(g1.gap - g2.gap) < 10.0 * (g1.error_estimate + g2.error_estimate)

    def test_symmetric_gap_equals_twice_coupling(self):
        pot = benchmark_potential(4.0, 0.0)
        gap, _ = numeric_gap(pot, GridSpec(-3.0, 3.0, 2001))
        est = extract_coupling(gap, 2.0, 2.0)
        assert est.b_prime == pytest.approx(gap / 2.0, rel=1e-14)

    def test_deep_well_gap_approaches_harmonic_offset(self):
        # with the tunneling term negligible the gap sits near the bare
        # level offset |delta|; anharmonic well shifts keep it slightly
        # below (the clamping regime), never above
        for lam in (4.0, 25.0):
            pot = benchmark_potential(lam, 0.5)
            gap, _ = numeric_gap(pot, GridSpec(-3.0, 3.0, 2001))
            delta = (math.sqrt(12.0 * lam) - math.sqrt(20.0 * lam)) / 2.0
            ratio = gap / abs(delta)
            assert 0.85 < ratio < 1.0


class TestBenchmarkFamily:
    def test_potential_expansion_against_polymul(self):
        lam, b = 3.0, 0.4
        expected = lam * np.polymul(
            np.polymul([1.0, 0.0, -1.0], [1.0, 0.0, -1.0]), [1.0, b, 1.0]
        )[::-1]
        pot = benchmark_potential(lam, b)
        assert np.allclose(pot.coefficients, expected, rtol=1e-14)

    def test_validation(self):
        with pytest.raises(SolverError):
            benchmark_potential(1.0, 2.0)
        with pytest.raises(SolverError):
            benchmark_potential(-1.0, 0.0)

    def test_benchmark_point_clamps_at_moderate_asymmetry(self):
        record, clamped = benchmark_point(4.0, 0.5, GridSpec(-3.0, 3.0, 2001))
        assert clamped
        assert record.b_prime == 0.0
        assert record.omega0 == pytest.approx(math.sqrt(48.0), rel=1e-9)
        assert record.omega1 == pytest.approx(math.sqrt(80.0), rel=1e-9)

    def test_gap_decreases_with_barrier_height(self):
        grid = GridSpec(-3.0, 3.0, 1501)
        gaps = [
            numeric_gap(benchmark_potential(lam, 0.0), grid).gap
            for lam in (2.0, 4.0, 6.0)
        ]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0


class TestScalingStudy:
    def test_deep_symmetric_family_slope(self):
        study = scaling_study(
            0.0, [16.0, 20.0, 25.0], grid=GridSpec(-3.0, 3.0, 3001)
        )
        assert study.excluded == ()
        assert -1.0 < study.slope < -0.6
        assert max(abs(r) for r in study.residuals) < 0.05
        assert len(study.records) == 3

    def test_prefactor_hint_prediction(self):
        base = scaling_study(0.0, [16.0, 20.0, 25.0], grid=GridSpec(-3.0, 3.0, 3001))
        anchor = base.records[1]
        k_imp = anchor.b_prime * math.exp(anchor.s_inst)
        study = scaling_study(
            0.0, [16.0, 20.0, 25.0], K_hint=k_imp, grid=GridSpec(-3.0, 3.0, 3001)
        )
        assert len(study.predicted_gaps) == 3
        for rec, predicted in zip(study.records, study.predicted_gaps):
            assert predicted == pytest.approx(rec.gap_numeric, rel=0.35)

    def test_asymmetric_shallow_family_errors(self):
        with pytest.raises(ScalingError, match="fewer than 3 usable"):
            scaling_study(0.5, [2.0, 3.0, 4.0], grid=GridSpec(-3.0, 3.0, 2001))

    def test_lambdas_must_ascend(self):
        # repeated lambdas would fit a rank-deficient design
        for lambdas in ([3.0, 2.0], [16.0, 16.0, 16.0], [16.0, 16.0, 32.0], [16.0, 20.0, 20.0]):
            with pytest.raises(SolverError, match="strictly ascending"):
                scaling_study(0.0, lambdas)

    @pytest.mark.parametrize("k_hint", [-1.0, math.nan, math.inf])
    def test_k_hint_must_be_finite_and_non_negative(self, k_hint):
        with pytest.raises(ParameterError) as excinfo:
            scaling_study(0.0, [16.0, 20.0, 25.0], K_hint=k_hint)
        assert excinfo.value.parameter == "k_hint"


class TestExtractionLoop:
    def test_two_level_model_round_trip(self):
        res = truncated_hamiltonian(1.3, 2.1, 0.17)
        est = extract_coupling(res.gap, 1.3, 2.1)
        assert est.b_prime == pytest.approx(0.17, rel=1e-12)
