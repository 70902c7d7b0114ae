import math
from fractions import Fraction
from math import comb, exp

import pytest
from hypothesis import given, settings, strategies as st

from instanton_gas import triangle as triangle_module
from instanton_gas.triangle import (
    BasisCoefficient,
    CoefficientTriangle,
    StabilizationError,
    TriangleError,
    TriangleParameterError,
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

FAMILIES = ("subtraction", "index-shift", "off-diagonal", "main-rule")
# identities checked per family at each depth, as the direct Fraction column
# sums counted them; they do not depend on the ratio
CHECKED = {
    0: (0, 0, 0, 0),
    1: (0, 1, 0, 0),
    2: (0, 6, 1, 0),
    3: (4, 12, 2, 0),
    4: (18, 30, 6, 2),
    5: (36, 45, 9, 4),
    6: (80, 84, 18, 10),
    7: (120, 112, 24, 16),
    8: (210, 180, 40, 26),
    9: (280, 225, 50, 34),
    10: (432, 330, 75, 48),
    11: (540, 396, 90, 58),
    12: (770, 546, 126, 76),
    13: (924, 637, 147, 88),
    14: (1248, 840, 196, 110),
    15: (1456, 960, 224, 124),
    16: (1890, 1224, 288, 150),
    17: (2160, 1377, 324, 166),
    18: (2720, 1710, 405, 196),
    19: (3060, 1900, 450, 214),
    20: (3762, 2310, 550, 248),
    21: (4180, 2541, 605, 268),
    22: (5040, 3036, 726, 306),
    23: (5544, 3312, 792, 328),
    24: (6578, 3900, 936, 370),
}


def as_set(coeffs):
    return {(c.sign, c.j, c.weight) for c in coeffs}


def corrupted(triangle, sign, key, j, weight):
    """A copy of the triangle with one coefficient replaced by the Fraction `weight`.

    The rows hold ints times the scale, so every row and the scale are
    multiplied by the denominator that `weight` needs; every other
    coefficient keeps its value.
    """
    factor = (weight * triangle.scale).denominator
    plus, minus = (
        {k: tuple(w * factor for w in row) for k, row in store.items()}
        for store in (triangle._plus, triangle._minus)
    )
    store = plus if sign == "+" else minus
    row = list(store[key])
    row[j] = int(weight * triangle.scale * factor)
    store[key] = tuple(row)
    return CoefficientTriangle(
        depth=triangle.depth, ratio=triangle.ratio, scale=triangle.scale * factor, _plus=plus, _minus=minus
    )


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

    @pytest.mark.parametrize("sign", ["x", "", None, "+-"])
    def test_branch_refuses_unknown_sign(self, sign):
        with pytest.raises(TriangleParameterError, match="sign must be") as excinfo:
            build_triangle(6, Fraction(2, 5)).branch(0, 0, sign)
        assert excinfo.value.parameter == "sign"

    def test_branch_of_each_sign(self):
        tri = build_triangle(6, Fraction(2, 5))
        assert tri.branch(0, 0, "+") == (Fraction(2, 5),)
        assert tri.branch(0, 0, "-") == (Fraction(-2, 5),)

    def test_depth_cap_and_ratio_validation(self):
        with pytest.raises(TriangleError):
            build_triangle(25, Fraction(1, 2))
        with pytest.raises(TriangleError):
            build_triangle(4, Fraction(0))
        with pytest.raises(TriangleError):
            build_triangle(4, 0.4)

    # the command line's rule: p/q or an integer, never a decimal or an exponent; text that
    # is no number at all, such as one, is unparsable, not a decimal
    @pytest.mark.parametrize("ratio, reason", [
        ("1/0", "cannot parse ratio"), ("abc", "cannot parse ratio"), ("2/5/3", "cannot parse ratio"),
        ("one", "cannot parse ratio"), ("", "cannot parse ratio"),
        ("0.4", "decimals are rejected"), ("1e2", "decimals are rejected"),
    ])
    def test_unparsable_ratio_text_is_parameter_error(self, ratio, reason):
        with pytest.raises(TriangleParameterError, match=reason) as excinfo:
            build_triangle(4, ratio)
        assert excinfo.value.parameter == "ratio"

    def test_ratio_text(self):
        assert build_triangle(6, " -3/7 ") == build_triangle(6, Fraction(-3, 7))
        assert build_triangle(6, "2") == build_triangle(6, 2)

    def test_integral_float_depth(self):
        tri = build_triangle(2.0, Fraction(2, 5))
        assert tri == build_triangle(2, Fraction(2, 5)) and type(tri.depth) is int

    @pytest.mark.parametrize("call, parameter, message", [
        (lambda tri: column_coefficients(tri, -1, 0, 2), "n", "n must be a non-negative integer, got -1"),
        (lambda tri: column_coefficients(tri, 2, -3, 2), "m", "m must be a non-negative integer, got -3"),
        (lambda tri: column_coefficients(tri, 0, 0, 1.5), "order", "order must be a non-negative integer, got 1.5"),
        (lambda tri: central_sequence(tri, -1), "order", "order must be a non-negative integer, got -1"),
        (lambda tri: tri.entry(0.5, 0), "n", "n must be a non-negative integer, got 0.5"),
        (lambda tri: build_triangle(2.5, Fraction(2, 5)), "depth", "depth must be a non-negative integer, got 2.5"),
        (lambda tri: build_triangle("2", Fraction(2, 5)), "depth", "depth must be a non-negative integer, got '2'"),
        (lambda tri: column_coefficients(tri, 0, 0, 0), "order", "order must be >= 1"),
        (lambda tri: column_coefficients(tri, 0, 0, -1), "order", "order must be >= 1"),
    ], ids=["column-n", "column-m", "column-order", "central-order", "entry-n", "depth-fraction", "depth-str",
            "order-zero", "order-negative"])
    def test_bad_index_names_it(self, call, parameter, message):
        with pytest.raises(TriangleParameterError) as excinfo:
            call(build_triangle(12, Fraction(2, 5)))
        assert str(excinfo.value) == message and excinfo.value.parameter == parameter

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

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(-40, 40).filter(bool),
        st.integers(1, 40),
        st.integers(0, 24),
    )
    def test_every_entry_matches_the_closed_form(self, p, q, depth):
        r = Fraction(p, q)
        tri = build_triangle(depth, r)
        for n in range(depth + 1):
            for m in range(depth + 1 - n):
                assert as_set(tri.entry(n, m)) == as_set(closed_form_coefficients((n, m), r))

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

    @pytest.mark.parametrize("key, name", [
        ((1.5, 2), "n"), ((1, 2.5), "m"), ((-1, 2), "n"), ((1, -2), "m"), (("1", 2), "n"), ((1, None), "m"),
    ])
    def test_bad_index_names_it(self, key, name):
        with pytest.raises(TriangleParameterError, match=f"{name} must be a non-negative integer") as excinfo:
            closed_form_coefficients(key, Fraction(2, 5))
        assert excinfo.value.parameter == name

    def test_integral_float_index(self):
        r = Fraction(2, 5)
        assert closed_form_coefficients((2.0, 1.0), r) == closed_form_coefficients((2, 1), r)


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

    @pytest.mark.parametrize("ratio", ["2/5", "-7/3"])
    @pytest.mark.parametrize("depth", sorted(CHECKED))
    def test_frozen_family_counts(self, depth, ratio):
        report = verify_column_relations(build_triangle(depth, Fraction(ratio)))
        assert report.families == {
            name: (checked, 0) for name, checked in zip(FAMILIES, CHECKED[depth])
        }

    @pytest.mark.parametrize("ratio", ["9", "-1/9"])
    def test_all_exact_at_depth_24(self, ratio):
        report = verify_column_relations(build_triangle(24, Fraction(ratio)))
        assert report.total_failures == 0
        assert report.total_checked == sum(CHECKED[24])

    # failures per family after one coefficient is replaced, as the direct
    # Fraction column sums counted them
    @pytest.mark.parametrize("depth, ratio, sign, key, j, shift, failures", [
        (10, "2/5", "+", (5, 5), 5, Fraction(-7, 11), (4, 5, 0, 1)),
        (12, "2/5", "+", (3, 2), 1, Fraction(1, 3), (7, 6, 0, 2)),
        (16, "-1/9", "-", (0, 0), 0, Fraction(1, 9), (0, 0, 0, 1)),
        (18, "-7/3", "-", (4, 6), 2, None, (13, 0, 0, 0)),
        (24, "9", "+", (1, 1), 0, Fraction(5), (3, 2, 0, 2)),
    ])
    def test_corrupted_coefficient_fails(self, depth, ratio, sign, key, j, shift, failures):
        tri = build_triangle(depth, Fraction(ratio))
        weight = tri.branch(*key, sign)[j]
        bad = corrupted(tri, sign, key, j, 2 * weight if shift is None else weight + shift)
        report = verify_column_relations(bad)
        assert report.families == {
            name: (checked, failed)
            for name, checked, failed in zip(FAMILIES, CHECKED[depth], failures)
        }

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-40, 40).filter(bool),
        st.integers(1, 40),
        st.integers(0, 12),
        st.data(),
    )
    def test_table_matches_direct_fraction_sums(self, p, q, depth, data):
        tri = build_triangle(depth, Fraction(p, q))
        n = data.draw(st.integers(0, depth))
        m = data.draw(st.integers(0, depth - n))
        count = data.draw(st.integers(1, (depth - n - m) // 2 + 1))
        for branch, sign in enumerate("+-"):
            rows = [tri.branch(n + k, m + k, sign) for k in range(count)]
            for j in range(depth + 2):
                direct = sum(row[j] for row in rows if j < len(row))
                assert Fraction(tri._column(branch, n, m, count, j), tri.scale) == direct

    def test_column_coefficients_shape(self):
        tri = build_triangle(12, Fraction(1, 5))
        col = column_coefficients(tri, 1, 0, 4)
        assert len(col.plus_coeffs) == 4
        assert len(col.minus_coeffs) == 4
        assert len(col.complete) == 4
        with pytest.raises(TriangleError):
            column_coefficients(tri, 4, 4, 3)

    def test_ratio_beyond_float64(self):
        r = Fraction(10**400)
        tri = build_triangle(4, r)
        col = column_coefficients(tri, 0, 0, 1)
        assert col.complete == (False,)
        assert col.plus_coeffs == (tri.branch(0, 0, "+")[0] + tri.branch(1, 1, "+")[0],)

    def test_ratio_rounding_to_one_half(self):
        # float(r) is 0.5, so the float tail factor 1 - 4 r^2 is 0
        col = column_coefficients(build_triangle(8, Fraction(1, 2) - Fraction(1, 10**30)), 0, 0, 3)
        assert col.complete == (False, False, False)

    def test_next_entry_taken_once(self, monkeypatch):
        calls = []

        def counted(key, ratio):
            calls.append(key)
            return closed_form_coefficients(key, ratio)

        monkeypatch.setattr(triangle_module, "closed_form_coefficients", counted)
        column_coefficients(build_triangle(12, Fraction(1, 5)), 1, 0, 4)
        assert calls == [(6, 5)]

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


@pytest.mark.parametrize("call, parameter, message", [
    (lambda: series_a0_a1(0.1, 0), "terms", "terms must be >= 1"),
    (lambda: exponential_split(0.0), "x", "x must be nonzero"),
    (lambda: central_generating_sum(0.0, 1.0), "x", "x must be nonzero"),
])
def test_series_helpers_raise_package_errors(call, parameter, message):
    with pytest.raises(TriangleParameterError, match=message) as excinfo:
        call()
    assert isinstance(excinfo.value, TriangleError) and isinstance(excinfo.value, ValueError)
    assert excinfo.value.parameter == parameter


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
