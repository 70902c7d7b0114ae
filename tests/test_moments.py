import math
import sys
from fractions import Fraction
from math import comb, exp, factorial

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from instanton_gas import moments
from instanton_gas.moments import (
    MomentError,
    MomentKey,
    MomentParameterError,
    MomentValue,
    QuadratureError,
    SymmetricLimitError,
    moment_closed,
    moment_quadrature,
    moment_recursive,
    moment_symmetric,
    multi_instanton,
    prefactor,
    sweep_grid,
)
from instanton_gas.potential import ParameterError, WellParameters
from instanton_gas.triangle import closed_form_coefficients

# frozen oracle values (mpmath tanh-sinh quadrature, 30 digits), all at
# omega0=1, omega1=2, B=0.3, T=2
I_S_00 = 0.62531436659249683
I_F_00 = 0.13952649476089778
I_S_11 = 0.036908073022558779
I_S_21 = 0.0049865008776918887

P_EXAMPLE = WellParameters(omega0=1.0, omega1=2.0, T=2.0, B=0.3)


def reference_50_digits(n, m, params):
    """Stripped I(n, m) at 50 digits from Kummer's function:
    (2 B h)^N / N! e^(-a) M(n+1, N+1, 2a), h = T/2, a = delta h, N = n+m+1."""
    with mp.workdps(50):
        d, b, h = mp.mpf(params.delta), mp.mpf(params.B), mp.mpf(params.T) / 2
        big_n = n + m + 1
        return (2 * b * h) ** big_n / mp.factorial(big_n) * mp.exp(-d * h) * mp.hyp1f1(
            n + 1, big_n + 1, 2 * d * h
        )


def well(delta, T, B):
    """Well parameters with the given delta (up to its rounding)."""
    return WellParameters(omega0=1.0 + 2.0 * max(delta, 0.0), omega1=1.0 + 2.0 * max(-delta, 0.0), T=T, B=B)


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

    def test_zero_b_gives_zero(self):
        # no tunneling, no amplitude: the same zero as the closed form and recursion
        params = WellParameters(omega0=1.0, omega1=2.0, T=2.0, B=0.0)
        assert moment_quadrature((0, 0), params) == MomentValue(0.0, 0.0, "quadrature")

    # |d| T past 300 integrates only the stretch next to the peak; B keeps the value in float64
    @pytest.mark.parametrize("key, delta, T, B", [
        ((64, 64), 150.0, 2.0, 1.0),
        ((0, 64), -1000.0, 1.0, 1.0),
        ((3, 5), 2500.0, 2.0, 1e-130),
        ((64, 0), -4e4, 0.5, 1e-60),
    ])
    def test_large_delta_t_against_50_digits(self, key, delta, T, B):
        params = well(delta, T, B)
        reference = reference_50_digits(*key, params)
        assert moment_quadrature(key, params).stripped == pytest.approx(float(reference), rel=1e-14)

    def test_certain_overflow_refused_before_any_array(self, monkeypatch):
        def no_arrays(panels):
            raise AssertionError("arrays built")

        monkeypatch.setattr(moments, "_panel_rule", no_arrays)
        with pytest.raises(MomentError, match="exceeds float64"):
            moment_quadrature((3, 3), WellParameters(omega0=1.0, omega1=2.0, T=1e300, B=0.5))

    def test_overflow_found_after_integration(self):
        # the a-priori bound passes, the integrated value exceeds float64
        params = WellParameters(omega0=1.0, omega1=1.0, T=2.0, B=1e308)
        assert moments._log_stripped_lower(0, 0, params) < moments._LOG_HUGEST
        with pytest.raises(MomentError, match="exceeds float64"):
            moment_quadrature((0, 0), params)

    def test_tiny_t_is_finite(self):
        # T/2 underflows to 0: the stripped value B T rounds to 0
        params = WellParameters(omega0=1.0, omega1=2.0, T=5e-324, B=0.5)
        assert moment_quadrature((0, 0), params).stripped == 0.0

    def test_rule_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(moments, "_QUADRATURE_RTOL", 0.0)
        with pytest.raises(QuadratureError, match="rules disagree") as excinfo:
            moment_quadrature((5, 7), well(50.0, 2.0, 0.5))
        assert 0.0 < excinfo.value.error_estimate < 1e-12


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 64),
    m=st.integers(0, 64),
    delta_t=st.one_of(st.floats(0.0, 300.0), st.floats(1e-12, 0.1)),
    sign=st.sampled_from((-1.0, 1.0)),
    T=st.floats(0.1, 30.0),
    B=st.floats(0.01, 5.0),
)
@example(n=64, m=64, delta_t=300.0, sign=1.0, T=2.0, B=1.0)
@example(n=0, m=64, delta_t=300.0, sign=1.0, T=0.5, B=0.2)
@example(n=64, m=0, delta_t=300.0, sign=1.0, T=0.5, B=0.2)
@example(n=20, m=20, delta_t=3e-5, sign=1.0, T=3.0, B=0.5)
def test_quadrature_against_50_digit_kummer(n, m, delta_t, sign, T, B):
    params = well(sign * delta_t / T, T, B)
    reference = reference_50_digits(n, m, params)
    try:
        value = moment_quadrature((n, m), params).stripped
    except MomentError:
        assert reference > sys.float_info.max * (1.0 - 1e-14)
        return
    assert abs(value - reference) <= 1e-14 * reference + 5e-324


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

    # B^2 raises OverflowError; B T overflows to inf without one
    @pytest.mark.parametrize("key, T", [((0, 1), 1.0), ((0, 0), 10.0)])
    def test_beyond_float64_is_moment_error(self, key, T):
        with pytest.raises(MomentError, match="exceeds float64"):
            moment_symmetric(key, B=1e308, T=T, omega=1.0)


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

    def test_unknown_method_is_package_error(self):
        with pytest.raises(MomentParameterError, match="unknown method 'guess'") as excinfo:
            MomentValue(1.0, 1.0, "guess")
        assert isinstance(excinfo.value, MomentError) and excinfo.value.parameter == "method"

    def test_sweep_grid_size(self):
        grid = sweep_grid()
        assert len(grid) == 108
        assert all(p.omega0 != p.omega1 for p in grid)

    @pytest.mark.parametrize("evaluate", [
        lambda p: moment_closed((1, 1), p),
        lambda p: moment_recursive(1, 1, p),
        lambda p: moment_quadrature((1, 1), p),
        lambda p: multi_instanton(1, p),
    ])
    def test_b_required(self, evaluate):
        with pytest.raises(MomentParameterError, match="params.B required") as excinfo:
            evaluate(WellParameters(omega0=1.0, omega1=2.0, T=1.0))
        assert isinstance(excinfo.value, MomentError) and isinstance(excinfo.value, ParameterError)
        assert isinstance(excinfo.value, ValueError) and excinfo.value.parameter == "B"

    def test_negative_index(self):
        params = WellParameters(omega0=1.0, omega1=2.0, T=1.0, B=0.3)
        with pytest.raises(MomentParameterError, match="i must be >= 0") as excinfo:
            multi_instanton(-1, params)
        assert isinstance(excinfo.value, MomentError) and isinstance(excinfo.value, ParameterError)
        assert isinstance(excinfo.value, ValueError) and excinfo.value.parameter == "i"
