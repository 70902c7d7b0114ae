import math
from fractions import Fraction
from math import comb, exp, factorial

import pytest

from instanton_gas.moments import moment_recursive
from instanton_gas.potential import WellParameters
from instanton_gas.triangle import (
    BasisCoefficient,
    StabilizationError,
    TriangleError,
    a0_closed_form,
    a1_closed_form,
    build_triangle,
    central_generating_sum,
    central_sequence,
    closed_form_coefficients,
    column_coefficients,
    exponential_split,
    series_a0_a1,
    verify_column_relations,
)


def as_set(coeffs):
    return {(c.sign, c.j, c.weight) for c in coeffs}


class TestConstruction:
    def test_base_entry(self):
        r = Fraction(2, 5)
        tri = build_triangle(2, r)
        assert as_set(tri.entry(0, 0)) == {("+", 0, r), ("-", 0, -r)}

    def test_first_boundary_entry(self):
        r = Fraction(2, 5)
        tri = build_triangle(2, r)
        assert as_set(tri.entry(1, 0)) == {
            ("+", 1, r),
            ("+", 0, -(r**2)),
            ("-", 0, r**2),
        }

    def test_interior_subtraction_rule(self):
        r = Fraction(-3, 7)
        tri = build_triangle(8, r)
        for n in range(1, 4):
            for m in range(1, 4):
                above = {
                    (s, j): w for s, j, w in (
                        (c.sign, c.j, c.weight) for c in tri.entry(n, m - 1)
                    )
                }
                left = {
                    (s, j): w for s, j, w in (
                        (c.sign, c.j, c.weight) for c in tri.entry(n - 1, m)
                    )
                }
                for c in tri.entry(n, m):
                    expected = r * (
                        above.get((c.sign, c.j), Fraction(0))
                        - left.get((c.sign, c.j), Fraction(0))
                    )
                    assert c.weight == expected

    def test_float_evaluation_matches_recursion(self):
        b, d, t = 0.3, -0.5, 2.0
        tri = build_triangle(8, Fraction(-3, 5))
        table = moment_recursive(4, 4, WellParameters(omega0=1.0, omega1=2.0, T=t, B=b))
        for n in range(5):
            for m in range(5):
                assert tri.evaluate(n, m, b, d, t) == pytest.approx(
                    table.value(n, m).stripped, rel=1e-12
                )

    def test_depth_cap_and_ratio_validation(self):
        with pytest.raises(TriangleError):
            build_triangle(25, Fraction(1, 2))
        with pytest.raises(TriangleError):
            build_triangle(4, Fraction(0))
        with pytest.raises(TriangleError):
            build_triangle(4, 0.4)

    def test_basis_coefficient_rejects_floats(self):
        with pytest.raises(TriangleError):
            BasisCoefficient("+", 0, 0.5)
        with pytest.raises(TriangleError):
            BasisCoefficient("x", 0, Fraction(1))


class TestClosedFormCoefficients:
    def test_base_case(self):
        r = Fraction(2, 5)
        assert as_set(closed_form_coefficients((0, 0), r)) == as_set(
            build_triangle(0, r).entry(0, 0)
        )

    def test_exact_match_to_depth_ten(self):
        r = Fraction(3, 7)
        tri = build_triangle(10, r)
        for n in range(11):
            for m in range(11 - n):
                assert as_set(closed_form_coefficients((n, m), r)) == as_set(
                    tri.entry(n, m)
                )

    def test_binomial_structure_2_1(self):
        # the j-ladder of entry (2,1) weights carry C(3-j, 2)
        r = Fraction(2, 5)
        ladder = {
            c.j: c.weight
            for c in closed_form_coefficients((2, 1), r)
            if c.sign == "-"
        }
        assert ladder == {
            0: comb(3, 2) * (-1) ** 3 * r**4,
            1: comb(2, 2) * (-1) ** 3 * r**3,
        }
        assert {abs(w) for w in ladder.values()} == {3 * r**4, r**3}


class TestColumnSums:
    def test_relations_all_exact_at_depth_12(self):
        report = verify_column_relations(build_triangle(12, Fraction(2, 5)))
        assert report.total_failures == 0
        assert set(report.families) == {
            "subtraction",
            "index-shift",
            "off-diagonal",
            "main-rule",
        }
        assert all(checked > 0 for checked, _ in report.families.values())
        assert report.total_checked == sum(c for c, _ in report.families.values())

    def test_relations_negative_ratio(self):
        report = verify_column_relations(build_triangle(12, Fraction(-3, 7)))
        assert report.total_failures == 0

    def test_central_recurrence_to_index_nine(self):
        # depth 20 aligns truncations for the recurrence up to a_9
        report = verify_column_relations(build_triangle(20, Fraction(2, 5)))
        assert report.total_failures == 0
        checked, failed = report.families["main-rule"]
        assert checked > 100 and failed == 0

    def test_column_coefficients_shape(self):
        tri = build_triangle(12, Fraction(1, 5))
        col = column_coefficients(tri, 1, 0, 4)
        assert len(col.plus_coeffs) == 4
        assert len(col.minus_coeffs) == 4
        assert len(col.complete) == 4
        with pytest.raises(TriangleError):
            column_coefficients(tri, 4, 4, 3)

    def test_complete_flags(self):
        tri_small = build_triangle(22, Fraction(1, 10))
        col = column_coefficients(tri_small, 0, 0, 10)
        assert col.complete[0]
        tri_big = build_triangle(22, Fraction(7, 2))
        col_big = column_coefficients(tri_big, 0, 0, 10)
        assert not any(col_big.complete)


class TestCentralSequence:
    def test_matches_direct_combinatorial_sum(self):
        r = Fraction(2, 5)
        tri = build_triangle(20, r)
        a_plus, a_minus = central_sequence(tri, 6)
        for i in range(7):
            terms = [
                comb(i + 2 * k, i + k) * Fraction(-1) ** k * r ** (i + 2 * k + 1)
                for k in range(tri.depth // 2 - i + 1)
            ]
            assert a_plus[i] == sum(terms)
            assert a_minus[i] == (-1) ** (i + 1) * a_plus[i]

    def test_error_beyond_stabilized_range(self):
        tri = build_triangle(12, Fraction(2, 5))
        with pytest.raises(StabilizationError, match="a_7"):
            central_sequence(tri, 7)

    def test_a0_closed_form_value(self):
        assert a0_closed_form(0.5) == pytest.approx(0.5 / math.sqrt(2.0), rel=1e-14)
        assert a0_closed_form(0.5) == pytest.approx(0.353553, abs=5e-7)

    def test_a1_closed_form_value(self):
        expected = 0.5 - 0.5 / math.sqrt(1.25)
        assert a1_closed_form(0.25) == pytest.approx(expected, rel=1e-14)
        assert a1_closed_form(0.25) == pytest.approx(0.052786, abs=5e-7)


class TestSeries:
    @pytest.mark.parametrize("x", [0.1, 0.25, 0.4, -0.25])
    def test_converges_to_closed_forms(self, x):
        a0, a1, converged = series_a0_a1(x, 200)
        assert converged
        assert a0 == pytest.approx(a0_closed_form(x), rel=1e-12)
        assert a1 == pytest.approx(a1_closed_form(x), rel=1e-12)

    def test_quarter_value(self):
        a0, a1, _ = series_a0_a1(0.25, 100)
        assert a0 == pytest.approx(0.25 / math.sqrt(1.25), rel=1e-12)
        assert a0 == pytest.approx(0.223607, abs=5e-7)
        assert a1 == pytest.approx(0.052786, abs=5e-7)

    def test_small_x_leading_order(self):
        x = 1e-4
        a0, a1, converged = series_a0_a1(x, 50)
        assert converged
        assert a0 / x == pytest.approx(1.0, abs=1e-7)
        assert a1 / x**2 == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("x", [0.5, 0.75, 4.0])
    def test_divergence_reported(self, x):
        _, _, converged = series_a0_a1(x, 200)
        assert not converged

    def test_terms_validation(self):
        with pytest.raises(ValueError):
            series_a0_a1(0.1, 0)


class TestExponentialCollapse:
    @pytest.mark.parametrize("x", [0.3, 0.45, 2.0, 0.1])
    def test_positive_ratio_single_growing_mode(self, x):
        c_plus, alpha_plus, c_minus, alpha_minus = exponential_split(x)
        assert c_minus == pytest.approx(0.0, abs=1e-15)
        assert c_plus == pytest.approx(a0_closed_form(x), rel=1e-12)
        for y in (-3.0, -1.0, 0.5, 1.7, 3.0):
            assert central_generating_sum(x, y) == pytest.approx(
                c_plus * exp(alpha_plus * y), rel=1e-10
            )

    @pytest.mark.parametrize("x", [-0.3, -2.0])
    def test_negative_ratio_mirrored_mode(self, x):
        c_plus, alpha_plus, c_minus, alpha_minus = exponential_split(x)
        assert c_plus == pytest.approx(0.0, abs=1e-15)
        for y in (-3.0, -0.5, 2.0, 3.0):
            assert central_generating_sum(x, y) == pytest.approx(
                c_minus * exp(alpha_minus * y), rel=1e-10
            )

    def test_recurrence_consistency_with_triangle(self):
        # the float recurrence values agree with the exact truncated sums
        # once the truncation tail is negligible (small ratio)
        r = Fraction(1, 10)
        tri = build_triangle(24, r)
        a_plus, _ = central_sequence(tri, 3)
        x = float(r)
        seq = [a0_closed_form(x), a1_closed_form(x)]
        for _ in range(2):
            seq.append(seq[-2] - seq[-1] / x)
        for exact, approx in zip(a_plus, seq):
            assert float(exact) == pytest.approx(approx, rel=1e-9)
