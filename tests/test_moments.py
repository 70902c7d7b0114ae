import math
from fractions import Fraction
from math import comb, exp, factorial

import pytest

from instanton_gas.moments import (
    MomentKey,
    MomentValue,
    SymmetricLimitError,
    moment_closed,
    moment_quadrature,
    moment_recursive,
    moment_symmetric,
    multi_instanton,
    prefactor,
    sweep_grid,
)
from instanton_gas.potential import WellParameters
from instanton_gas.triangle import closed_form_coefficients

# frozen oracle values (mpmath tanh-sinh quadrature, 30 digits), all at
# omega0=1, omega1=2, B=0.3, T=2
I_S_00 = 0.62531436659249683
I_F_00 = 0.13952649476089778
I_S_11 = 0.036908073022558779
I_S_21 = 0.0049865008776918887

P_EXAMPLE = WellParameters(omega0=1.0, omega1=2.0, T=2.0, B=0.3)


def antiderivative_00(params):
    """Independent closed antiderivative of e^(dt): stripped I(0,0)."""
    d, b, t = params.delta, params.B, params.T
    return (b / d) * (exp(d * t / 2.0) - exp(-d * t / 2.0))


class TestQuadrature:
    def test_base_case_against_antiderivative(self):
        val = moment_quadrature((0, 0), P_EXAMPLE)
        assert val.stripped == pytest.approx(antiderivative_00(P_EXAMPLE), rel=1e-13)
        assert val.stripped == pytest.approx(I_S_00, rel=1e-12)
        assert val.full == pytest.approx(I_F_00, rel=1e-12)
        assert val.method == "quadrature"

    def test_tiny_delta_approaches_bt(self):
        params = WellParameters(omega0=1.0 + 1e-10, omega1=1.0 - 1e-10, T=2.0, B=0.3)
        val = moment_quadrature((0, 0), params)
        assert val.stripped == pytest.approx(0.6, rel=1e-8)

    def test_beta_integral_case(self):
        params = WellParameters(omega0=1.0, omega1=1.0, T=2.0, B=1.0)
        val = moment_quadrature((1, 0), params)
        assert val.stripped == pytest.approx(2.0, rel=1e-12)

    def test_frozen_values(self):
        assert moment_quadrature((1, 1), P_EXAMPLE).stripped == pytest.approx(I_S_11, rel=1e-12)
        assert moment_quadrature((2, 1), P_EXAMPLE).stripped == pytest.approx(I_S_21, rel=1e-12)

    def test_requires_positive_b(self):
        params = WellParameters(omega0=1.0, omega1=2.0, T=2.0, B=0.0)
        with pytest.raises(ValueError):
            moment_quadrature((0, 0), params)


class TestRecursive:
    def test_matches_quadrature(self):
        table = moment_recursive(2, 2, P_EXAMPLE)
        assert table.value(0, 0).stripped == pytest.approx(I_S_00, rel=1e-12)
        assert table.value(1, 1).stripped == pytest.approx(I_S_11, rel=1e-10)
        assert table.value(2, 1).stripped == pytest.approx(I_S_21, rel=1e-10)

    def test_reflection_swaps_indices(self):
        fwd = moment_recursive(3, 2, P_EXAMPLE)
        params_rev = WellParameters(omega0=2.0, omega1=1.0, T=2.0, B=0.3)
        rev = moment_recursive(2, 3, params_rev)
        for n in range(4):
            for m in range(3):
                assert rev.value(m, n).stripped == pytest.approx(
                    fwd.value(n, m).stripped, rel=1e-12
                )

    def test_zero_delta_directed_to_symmetric(self):
        params = WellParameters(omega0=1.0, omega1=1.0, T=2.0, B=0.3)
        with pytest.raises(SymmetricLimitError):
            moment_recursive(2, 2, params)


class TestClosed:
    def test_base_case_full_value(self):
        val = moment_closed((0, 0), P_EXAMPLE)
        assert val.full == pytest.approx(I_F_00, rel=1e-12)
        assert val.full == pytest.approx(0.139526, abs=5e-7)

    def test_diagonal_sweep_against_quadrature(self):
        params = WellParameters(omega0=1.0, omega1=3.0, T=1.0, B=0.5)
        for i in range(7):
            c = moment_closed((i, i), params)
            q = moment_quadrature((i, i), params)
            assert c.stripped == pytest.approx(q.stripped, rel=1e-8)

    def test_sign_structure_against_exact_triangle(self):
        # same basis expansion, with B/delta pinned to the exact ratio -3/5
        d, b, t = P_EXAMPLE.delta, P_EXAMPLE.B, P_EXAMPLE.T
        r = Fraction(-3, 5)
        coeffs = closed_form_coefficients((1, 0), r)
        # two terms on the e^{+dT/2} ladder with signs (-1)^(1-i), one on
        # the other ladder with sign (-1)^2
        assert {(c.sign, c.j, c.weight) for c in coeffs} == {
            ("+", 1, r),
            ("+", 0, -(r**2)),
            ("-", 0, r**2),
        }
        expansion = sum(
            float(c.weight)
            * exp((d if c.sign == "+" else -d) * t / 2.0)
            * (b * t) ** c.j
            / factorial(c.j)
            for c in coeffs
        )
        assert moment_closed((1, 0), P_EXAMPLE).stripped == pytest.approx(
            expansion, rel=1e-12
        )

    def test_auto_precision_survives_cancellation(self):
        params = WellParameters(omega0=1.0, omega1=1.5, T=5.0, B=1.0)
        c = moment_closed((8, 8), params)
        q = moment_quadrature((8, 8), params)
        assert c.stripped == pytest.approx(q.stripped, rel=1e-10)


class TestSymmetric:
    def test_diagonal_value(self):
        val = moment_symmetric((1, 1), B=0.3, T=2.0, omega=1.0)
        assert val.stripped == pytest.approx(0.036, rel=1e-14)

    def test_unit_case(self):
        assert moment_symmetric((0, 0), B=1.0, T=1.0, omega=1.0).stripped == 1.0

    def test_off_diagonal_matches_quadrature(self):
        params = WellParameters(omega0=1.0, omega1=1.0, T=2.0, B=1.0)
        val = moment_symmetric((2, 1), B=1.0, T=2.0, omega=1.0)
        assert val.stripped == pytest.approx(2.0**4 / 24.0, rel=1e-14)
        assert val.stripped == pytest.approx(
            moment_quadrature((2, 1), params).stripped, rel=1e-11
        )


class TestMultiInstanton:
    def test_single_event_symmetric(self):
        params = WellParameters(omega0=1.0, omega1=1.0, T=2.0, B=0.3)
        val = multi_instanton(0, params)
        assert val.full == pytest.approx(0.6 * exp(-1.0), rel=1e-12)
        assert val.method == "quadrature"

    def test_three_event_matches_quadrature(self):
        val = multi_instanton(1, P_EXAMPLE)
        assert val.full == pytest.approx(
            moment_quadrature((1, 1), P_EXAMPLE).full, rel=1e-10
        )

    def test_decay_bound_on_grid(self):
        for params in sweep_grid()[::7]:
            bound_factor = (params.B * params.T) ** 2 * exp(abs(params.delta) * params.T)
            prev = multi_instanton(0, params).full
            for i in range(6):
                cur = multi_instanton(i + 1, params).full
                assert 0 < cur < prev * bound_factor / ((2 * i + 2) * (2 * i + 3))
                prev = cur

    def test_b_zero_gives_zero(self):
        params = WellParameters(omega0=1.0, omega1=2.0, T=2.0, B=0.0)
        assert multi_instanton(3, params).full == 0.0


class TestInvariants:
    def test_quadrature_satisfies_defining_recursion(self):
        for params in (P_EXAMPLE, WellParameters(omega0=3.0, omega1=1.5, T=1.0, B=0.5)):
            r = params.B / params.delta
            for (n, m) in ((1, 1), (2, 1), (3, 2)):
                lhs = moment_quadrature((n, m), params).stripped
                rhs = r * (
                    moment_quadrature((n, m - 1), params).stripped
                    - moment_quadrature((n - 1, m), params).stripped
                )
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_reflection_closed_form(self):
        params_rev = WellParameters(omega0=2.0, omega1=1.0, T=2.0, B=0.3)
        for (n, m) in ((0, 1), (2, 1), (3, 3)):
            assert moment_closed((n, m), P_EXAMPLE).stripped == pytest.approx(
                moment_closed((m, n), params_rev).stripped, rel=1e-12
            )

    def test_symmetric_limit_of_recursive_and_closed(self):
        # |delta| T = 1e-6; double precision cannot survive this cancellation
        # at n+m ~ 10, so the auto mode must escalate internally
        params = WellParameters(omega0=1.0 + 5e-7, omega1=1.0 - 5e-7, T=2.0, B=0.3)
        table = moment_recursive(5, 5, params)
        for n in range(6):
            for m in range(6):
                reference = moment_symmetric((n, m), 0.3, 2.0, 1.0).stripped
                assert table.value(n, m).stripped == pytest.approx(reference, rel=1e-5)
                assert moment_closed((n, m), params).stripped == pytest.approx(
                    reference, rel=1e-5
                )

    def test_scaling_collapse(self):
        base = WellParameters(omega0=1.0, omega1=2.0, T=2.0, B=0.3)
        scaled = WellParameters(omega0=1.0, omega1=1.5, T=4.0, B=0.15)
        assert scaled.delta == base.delta / 2.0
        for key in ((0, 0), (1, 2), (3, 3)):
            assert moment_closed(key, base).stripped == pytest.approx(
                moment_closed(key, scaled).stripped, rel=1e-11
            )

    def test_full_equals_stripped_times_prefactor(self):
        for params in sweep_grid()[::11]:
            v = moment_quadrature((2, 2), params)
            assert v.full == pytest.approx(v.stripped * prefactor(params), rel=1e-15)

    def test_stripped_positive(self):
        for params in sweep_grid()[::13]:
            assert moment_quadrature((3, 1), params).stripped > 0
            assert moment_closed((3, 1), params).stripped > 0


class TestValidation:
    def test_key_validation(self):
        with pytest.raises(ValueError):
            MomentKey(-1, 0)
        with pytest.raises(ValueError):
            MomentKey(0, 65)

    def test_method_validation(self):
        with pytest.raises(ValueError):
            MomentValue(1.0, 1.0, "guess")

    def test_sweep_grid_size(self):
        grid = sweep_grid()
        assert len(grid) == 108
        assert all(p.omega0 != p.omega1 for p in grid)
