import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from instanton_gas.potential import PolynomialPotential
from instanton_gas.schrodinger import (
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


class TestNumericGap:
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
        with pytest.raises(SolverError):
            scaling_study(0.0, [3.0, 2.0])


class TestExtractionLoop:
    def test_two_level_model_round_trip(self):
        res = truncated_hamiltonian(1.3, 2.1, 0.17)
        est = extract_coupling(res.gap, 1.3, 2.1)
        assert est.b_prime == pytest.approx(0.17, rel=1e-12)
