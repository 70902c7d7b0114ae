import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from instanton_gas import moments
from instanton_gas.moments import multi_instanton, sweep_grid
from instanton_gas.potential import ParameterError, WellParameters
from instanton_gas.spectrum import (
    SpectrumError,
    SpectrumParameterError,
    SpectrumResult,
    energies,
    extract_coupling,
    gas_sum_closed,
    gas_sum_partial,
    truncated_hamiltonian,
)

P_EXAMPLE = WellParameters(omega0=1.0, omega1=2.0, T=2.0, B=0.3)
# |d| T = 1.5e-5: every term of the sum is a Kummer series
P_NEAR = WellParameters(omega0=2.00001, omega1=2.0, T=3.0, B=0.5)


class TestEnergies:
    def test_reference_values(self):
        res = energies(P_EXAMPLE)
        root = math.sqrt(0.0625 + 0.09)
        assert res.e_plus == pytest.approx(0.75 - root, rel=1e-14)
        assert res.e_minus == pytest.approx(0.75 + root, rel=1e-14)
        assert res.gap == pytest.approx(math.sqrt(0.61), rel=1e-14)
        assert res.e_plus == pytest.approx(0.359488, abs=5e-7)
        assert res.e_minus == pytest.approx(1.140512, abs=5e-7)
        assert res.gap == pytest.approx(0.781025, abs=5e-7)

    def test_symmetric_limit(self):
        params = WellParameters(omega0=1.0, omega1=1.0, T=1.0, B=0.3)
        res = energies(params)
        assert res.e_plus == 0.2
        assert res.e_minus == 0.8
        assert res.gap == 0.6
        assert res.amplitude_coefficient == 0.5

    def test_decoupled_wells_exact(self):
        for w0, w1 in ((1.0, 2.0), (math.sqrt(2.0), math.sqrt(3.0)), (1.9, 0.7)):
            params = WellParameters(omega0=w0, omega1=w1, T=1.0, B=0.0)
            res = energies(params)
            assert res.e_plus == min(w0, w1) / 2.0
            assert res.e_minus == max(w0, w1) / 2.0
            assert res.amplitude_coefficient == 0.0

    def test_degenerate_doublet(self):
        params = WellParameters(omega0=1.0, omega1=1.0, T=1.0, B=0.0)
        res = energies(params)
        assert res.e_plus == res.e_minus == 0.5
        assert res.gap == 0.0

    def test_gap_invariants_on_grid(self):
        for params in sweep_grid():
            res = energies(params)
            assert res.gap >= abs(params.omega1 - params.omega0) / 2.0
            assert res.gap >= 2.0 * params.B * (1.0 - 1e-15)
            assert 0.0 < res.amplitude_coefficient < 0.5

    def test_self_check_with_prefactor_inputs(self):
        params = WellParameters(omega0=1.0, omega1=2.0, T=1.0, K=0.9, s_inst=1.1)
        res = energies(params)
        expected = math.hypot(0.5, 2.0 * 0.9 * math.exp(-1.1))
        assert res.gap == pytest.approx(expected, rel=1e-14)

    def test_requires_b(self):
        params = WellParameters(omega0=1.0, omega1=2.0, T=1.0)
        with pytest.raises(ValueError):
            energies(params)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            SpectrumResult(1.0, 0.5, -0.5, 0.1)

    def test_ordering_is_package_error(self):
        with pytest.raises(SpectrumParameterError, match="e_plus must not exceed e_minus") as excinfo:
            SpectrumResult(1.0, 0.5, -0.5, 0.1)
        assert isinstance(excinfo.value, SpectrumError) and excinfo.value.parameter == "e_plus"

    def test_extreme_asymmetry_keeps_lower_level(self):
        # mean - root cancels to 0.0 here; the level is w0/2 - B^2/|d| ~ 0.5
        res = energies(WellParameters(omega0=1.0, omega1=1e308, T=1.0, B=1.0))
        assert res.e_plus == pytest.approx(0.5, rel=1e-15)
        assert res.e_minus == 5e307
        assert truncated_hamiltonian(1.0, 1e308, 1.0).e_plus == res.e_plus

    def test_levels_finite_where_omega0_plus_omega1_overflows(self):
        # w0 + w1 = 2e308 is beyond float64; the levels 5e307 -+ 1, which round to 5e307, are not
        res = energies(WellParameters(omega0=1e308, omega1=1e308, T=1.0, B=1.0))
        assert (res.e_plus, res.e_minus, res.gap, res.amplitude_coefficient) == (5e307, 5e307, 2.0, 0.5)
        assert truncated_hamiltonian(1e308, 1e308, 1.0) == res

    @pytest.mark.parametrize("omega1", [1.0, 1.5, 3.0, 10.0, 1e3, 1e8, 1e16, 1e100, 1e300])
    @pytest.mark.parametrize("b_ratio", [0.0, 1e-3, 0.1, 0.3, 0.4])
    def test_lower_level_against_mpmath(self, omega1, b_ratio):
        # B <= 0.4 sqrt(w0 w1) keeps E+ >= 0.36 w0 w1 / (4 E-), away from 0
        omega0 = 1.0
        b = b_ratio * math.sqrt(omega0 * omega1)
        res = truncated_hamiltonian(omega0, omega1, b)
        with mpmath.workdps(60):
            w0, w1, bm = mpmath.mpf(omega0), mpmath.mpf(omega1), mpmath.mpf(b)
            # E+ = det / E-: mean - root would cancel in mpmath too at w1 = 1e300
            exact = (w0 * w1 / 4 - bm**2) / ((w0 + w1) / 4 + mpmath.sqrt(((w0 - w1) / 4) ** 2 + bm**2))
            assert abs(res.e_plus - exact) <= 1e-14 * abs(exact)


class TestGasSum:
    def test_reference_coefficient(self):
        res = energies(P_EXAMPLE)
        assert res.amplitude_coefficient == pytest.approx(
            1.0 / (2.0 * math.sqrt(1.0 + (0.5 / 0.6) ** 2)), rel=1e-14
        )
        assert res.amplitude_coefficient == pytest.approx(0.384111, abs=5e-7)
        expected = res.amplitude_coefficient * (
            math.exp(-2.0 * res.e_plus) - math.exp(-2.0 * res.e_minus)
        )
        assert gas_sum_closed(P_EXAMPLE) == pytest.approx(expected, rel=1e-14)

    def test_symmetric_reduction_to_sinh(self):
        params = WellParameters(omega0=1.0, omega1=1.0, T=2.0, B=0.3)
        assert gas_sum_closed(params) == pytest.approx(
            math.exp(-1.0) * math.sinh(0.6), rel=1e-14
        )

    def test_short_time_linear(self):
        params = WellParameters(omega0=1.0, omega1=2.0, T=1e-8, B=0.3)
        res = energies(params)
        assert gas_sum_closed(params) == pytest.approx(
            res.amplitude_coefficient * res.gap * params.T, rel=1e-7, abs=0.0
        )

    @pytest.mark.parametrize("t", [1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.5, 2.0, 10.0])
    def test_closed_form_against_mpmath(self, t):
        # -C e^(-E+ T) expm1(-gap T) keeps full precision at small T, where
        # the difference of the two exponentials would cancel
        params = WellParameters(omega0=1.0, omega1=2.0, T=t, B=0.3)
        with mpmath.workdps(50):
            w0, w1, b, tm = (mpmath.mpf(v) for v in (1.0, 2.0, 0.3, t))
            d = (w0 - w1) / 2
            root = mpmath.sqrt(d**2 / 4 + b**2)
            mean = (w0 + w1) / 4
            c = 1 / (2 * mpmath.sqrt(1 + (d / (2 * b)) ** 2))
            exact = c * (mpmath.exp(-(mean - root) * tm) - mpmath.exp(-(mean + root) * tm))
            assert abs(gas_sum_closed(params) - exact) <= 1e-14 * exact

    def test_subnormal_coupling_keeps_the_amplitude(self):
        # d/2B = -2.5e319 is beyond float64, but C = B / (2 root) = 1.99998e-320 is not; the 50-digit
        # references of C and of the closed form, 4.65083e-321, round to these subnormals
        params = WellParameters(omega0=1.0, omega1=2.0, T=2.0, B=1e-320)
        assert energies(params).amplitude_coefficient == 2e-320
        assert gas_sum_closed(params) == gas_sum_partial(params, 3)[0] == 4.65e-321

    def test_no_tunneling(self):
        params = WellParameters(omega0=1.0, omega1=2.0, T=2.0, B=0.0)
        assert gas_sum_closed(params) == 0.0

    def test_partial_matches_closed(self):
        total, terms = gas_sum_partial(P_EXAMPLE, 30)
        assert len(terms) == 30
        assert total == pytest.approx(gas_sum_closed(P_EXAMPLE), rel=1e-12)

    def test_single_term_is_m0(self):
        total, terms = gas_sum_partial(P_EXAMPLE, 1)
        assert total == terms[0] == multi_instanton(0, P_EXAMPLE).full

    def test_monotone_tail(self):
        for params in sweep_grid()[::9]:
            _, terms = gas_sum_partial(params, 12)
            start = int(params.B * params.T * math.exp(abs(params.delta) * params.T / 2.0) / 2.0) + 1
            for i in range(start, len(terms) - 1):
                assert abs(terms[i + 1]) < abs(terms[i])


def test_gas_sum_names_the_first_term_beyond_float64():
    # stripped I(0, 0) = 1.0104 B exceeds float64; the sum used to take it as inf and fail at I(1, 1)
    params = WellParameters(omega0=2.0, omega1=1.0, T=1.0, B=1.78e308)
    with pytest.raises(moments.MomentError, match=r"^stripped I\(0, 0\) exceeds float64$"):
        gas_sum_partial(params, 3)


def per_term_sum(params, n_terms):
    """gas_sum_partial's (total, terms) from one multi_instanton call per term, in order.

    Above |d| T = 0.1 a term for which _below_float64 holds is 0.0.  Below it a term that
    multi_instanton refuses as a stripped value beyond float64 is None, and so is the total:
    the one-pass sum folds the damping in first, so its full value may still be finite."""
    kummer = moments._kummer_route(params)
    logs = moments._bound_logs(params) if params.B > 0.0 and not kummer else None
    total, terms = 0.0, []
    for i in range(n_terms):
        if logs is not None and moments._below_float64(i, logs):
            t = 0.0
        elif kummer:
            try:
                t = multi_instanton(i, params).full
            except moments.MomentError as exc:
                assert str(exc) == f"stripped I({i}, {i}) exceeds float64"
                t = None
        else:
            t = multi_instanton(i, params).full
        terms.append(t)
        total = None if t is None or total is None else total + t
    return total, terms


def full_term_50_digits(i, params):
    """Full I(i, i) = (BT)^N/N! 0F1(; i+3/2; (|d|T/4)^2) e^(-x) at 50 digits, N = 2i+1, with
    x = moments._decay(params), the float by which every route damps."""
    with mpmath.workdps(50):
        z = abs(mpmath.mpf(params.delta)) * params.T
        lead = (mpmath.mpf(params.B) * params.T) ** (2 * i + 1) / mpmath.factorial(2 * i + 1)
        return lead * mpmath.hyp0f1(i + mpmath.mpf(3) / 2, (z / 4) ** 2) * mpmath.exp(-moments._decay(params))


@st.composite
def gas_sum_params(draw):
    """B in [0, 2], T in [1e-3, 1e4], and |d| T in [0, 0.1) with d of either
    sign or 0 (the Kummer route); in one draw of ten, |d| T in [0.1, 3]
    with d != 0 instead (the closed route, about 45 ms a sum of 65 terms).

    Every other draw is a shallow pair of wells (omega < 0.02) at large B T,
    where the prefactor no longer hides that I(i, i) exceeds float64."""
    closed = draw(st.integers(0, 9)) == 0
    if draw(st.booleans()):
        omega1 = 10.0 ** draw(st.floats(-3.0, 0.6))
        t = 10.0 ** draw(st.floats(-3.0, 4.0))
        b = draw(st.floats(0.0, 2.0))
    else:
        omega1 = draw(st.floats(1e-3, 0.02))
        t = draw(st.floats(6e3, 1e4))
        b = draw(st.floats(1.5, 2.0))
    if closed:
        z = draw(st.floats(0.1, 3.0))
        sign = draw(st.sampled_from((-1.0, 1.0)))
    else:
        z = 0.1 * 10.0 ** -draw(st.floats(0.0, 8.0, exclude_min=True))
        sign = draw(st.sampled_from((-1.0, 0.0, 1.0)))
    delta = sign * z / t
    assume(omega1 + 2.0 * delta > 0.0)
    params = WellParameters(omega0=omega1 + 2.0 * delta, omega1=omega1, T=t, B=b)
    assume(moments._kummer_route(params) != closed)
    return params


# delta = 1/8 exactly, so |d| T is 0.8/8: the float 0.1 itself, or the one below it
_BELOW_THRESHOLD = WellParameters(omega0=1.25, omega1=1.0, T=math.nextafter(0.8, 0.0), B=0.5)
_AT_THRESHOLD = WellParameters(omega0=1.25, omega1=1.0, T=0.8, B=0.5)


@settings(max_examples=150, deadline=None)
@given(params=gas_sum_params(), n_terms=st.integers(1, 65))
@example(params=_BELOW_THRESHOLD, n_terms=65)
@example(params=WellParameters(omega0=1.0, omega1=1.25, T=math.nextafter(0.8, 0.0), B=0.5), n_terms=65)
@example(params=_AT_THRESHOLD, n_terms=65)
@example(params=P_NEAR, n_terms=40)
@example(params=WellParameters(omega0=2.0, omega1=2.0, T=1e4, B=0.5), n_terms=65)  # every term below float64
@example(params=WellParameters(omega0=1e-3, omega1=1e-3, T=1e4, B=2.0), n_terms=65)  # I(i, i) overflows
@example(params=WellParameters(omega0=0.03, omega1=0.03, T=1e4, B=1.6), n_terms=65)  # only (BT)^N/N! overflows
@example(params=WellParameters(omega0=0.999998, omega1=1.0, T=1e4, B=2.0), n_terms=59)  # and the full value is 0
@example(params=WellParameters(omega0=1.0, omega1=1.0, T=3.0, B=0.0), n_terms=65)
@example(params=WellParameters(omega0=2.0, omega1=2.0, T=1000.0, B=1.0), n_terms=65)  # leading terms skipped
@example(params=P_EXAMPLE, n_terms=40)  # the closed route from here on
@example(params=WellParameters(omega0=1.0, omega1=2.0, T=2.0, B=0.0), n_terms=65)
@example(params=WellParameters(omega0=1e-3, omega1=1.2e-3, T=1e4, B=2.0), n_terms=65)  # I(i, i) overflows
def test_one_pass_sum_is_the_per_term_route(params, n_terms):
    try:
        expected = per_term_sum(params, n_terms)
    except Exception as exc:
        with pytest.raises(type(exc)) as excinfo:
            gas_sum_partial(params, n_terms)
        assert type(excinfo.value) is type(exc) and str(excinfo.value) == str(exc)
        return
    refused = {i: full_term_50_digits(i, params) for i, t in enumerate(expected[1]) if t is None}
    # where multi_instanton refuses the stripped value, the one-pass sum refuses the first
    # full value beyond float64, and gives every other within 1e-14 of 50 digits (or one
    # subnormal unit, where it is below float64)
    assume(all(abs(ref / sys.float_info.max - 1) > 1e-14 for ref in refused.values()))
    beyond = [i for i, ref in refused.items() if ref > sys.float_info.max]
    if beyond:
        with pytest.raises(moments.MomentError) as excinfo:
            gas_sum_partial(params, n_terms)
        assert str(excinfo.value) == f"full I({beyond[0]}, {beyond[0]}) exceeds float64"
        return
    total, terms = gas_sum_partial(params, n_terms)
    assert len(terms) == n_terms
    for i, (t, e) in enumerate(zip(terms, expected[1])):
        if e is None:
            assert abs(t - refused[i]) <= max(1e-14 * refused[i], mpmath.mpf(5e-324))
        else:
            assert t.hex() == e.hex()
    assert math.isfinite(total)
    if expected[0] is not None:
        assert total.hex() == expected[0].hex()


class TestTruncatedHamiltonian:
    def test_reference_eigenvalues(self):
        # characteristic polynomial of [[0.5, 0.3], [0.3, 1.0]] by hand
        res = truncated_hamiltonian(1.0, 2.0, 0.3)
        roots = sorted(np.roots([1.0, -1.5, 0.5 * 1.0 - 0.09]).real)
        assert res.e_plus == pytest.approx(roots[0], rel=1e-14)
        assert res.e_minus == pytest.approx(roots[1], rel=1e-14)
        assert res.e_plus == pytest.approx(0.359488, abs=5e-7)
        assert res.e_minus == pytest.approx(1.140512, abs=5e-7)

    def test_diagonal_case(self):
        res = truncated_hamiltonian(1.0, 2.0, 0.0)
        assert res.e_plus == 0.5
        assert res.e_minus == 1.0

    @pytest.mark.parametrize("omega0, omega1", [(math.sqrt(2.0), math.sqrt(3.0)), (1.9, 0.7), (0.1, 0.3), (1.0, 1.0)])
    def test_zero_coupling_is_the_bare_levels_of_energies(self, omega0, omega1):
        # mean -+ root misses min/2 by one ulp on the first three
        res = truncated_hamiltonian(omega0, omega1, 0.0)
        assert (res.e_plus, res.e_minus) == (min(omega0, omega1) / 2.0, max(omega0, omega1) / 2.0)
        assert res == energies(WellParameters(omega0=omega0, omega1=omega1, T=1.0, B=0.0))

    def test_symmetric_case(self):
        res = truncated_hamiltonian(1.0, 1.0, 0.3)
        assert res.e_plus == pytest.approx(0.2, rel=1e-15)
        assert res.e_minus == pytest.approx(0.8, rel=1e-15)

    def test_coupling_sign(self):
        with pytest.raises(ValueError):
            truncated_hamiltonian(1.0, 2.0, -0.1)

    def test_identity_with_energies_on_grid(self):
        for params in sweep_grid():
            a = energies(params)
            b = truncated_hamiltonian(params.omega0, params.omega1, params.B)
            assert a.e_plus == pytest.approx(b.e_plus, rel=1e-14)
            assert a.e_minus == pytest.approx(b.e_minus, rel=1e-14)
            assert a.gap == pytest.approx(b.gap, rel=1e-14)

    def test_trace_and_determinant(self):
        for params in sweep_grid()[::5]:
            res = energies(params)
            trace = (params.omega0 + params.omega1) / 2.0
            det = params.omega0 * params.omega1 / 4.0 - params.B**2
            assert res.e_plus + res.e_minus == pytest.approx(trace, rel=1e-14)
            assert res.e_plus * res.e_minus == pytest.approx(det, rel=1e-13)

    def test_gap_monotonicity(self):
        gaps_b = [
            truncated_hamiltonian(1.0, 2.0, b).gap for b in (0.0, 0.1, 0.3, 0.7, 1.5)
        ]
        assert gaps_b == sorted(gaps_b) and len(set(gaps_b)) == len(gaps_b)
        gaps_w = [
            truncated_hamiltonian(1.0, 1.0 + dw, 0.3).gap for dw in (0.0, 0.5, 1.0, 2.0)
        ]
        assert gaps_w == sorted(gaps_w) and len(set(gaps_w)) == len(gaps_w)


class TestExtractCoupling:
    def test_reference_inversion(self):
        gap = energies(P_EXAMPLE).gap
        est = extract_coupling(gap, 1.0, 2.0)
        assert est.b_prime == pytest.approx(0.3, rel=1e-12)
        assert not est.asymmetry_dominated

    def test_boundary_clamp(self):
        est = extract_coupling(0.5, 1.0, 2.0)
        assert est.b_prime == 0.0
        assert est.asymmetry_dominated

    def test_symmetric_halving(self):
        est = extract_coupling(0.6, 1.0, 1.0)
        assert est.b_prime == pytest.approx(0.3, rel=1e-14)

    def test_round_trip_on_grid(self):
        for params in sweep_grid():
            gap = energies(params).gap
            est = extract_coupling(gap, params.omega0, params.omega1)
            assert est.b_prime == pytest.approx(params.B, rel=1e-12)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            extract_coupling(-0.1, 1.0, 2.0)


class TestParameterErrors:
    """Each domain error is a SpectrumError and a ParameterError (a ValueError) naming its parameter."""

    @staticmethod
    def check(excinfo, parameter):
        assert isinstance(excinfo.value, SpectrumError)
        assert isinstance(excinfo.value, ParameterError) and isinstance(excinfo.value, ValueError)
        assert excinfo.value.parameter == parameter

    @pytest.mark.parametrize("fn", [energies, gas_sum_closed, gas_sum_partial])
    def test_b_required(self, fn):
        args = (40,) if fn is gas_sum_partial else ()  # its n_terms is required
        with pytest.raises(SpectrumParameterError, match="params.B required") as excinfo:
            fn(WellParameters(omega0=1.0, omega1=2.0, T=1.0), *args)
        self.check(excinfo, "B")

    @pytest.mark.parametrize("n_terms", [0, -3])
    def test_n_terms(self, n_terms):
        with pytest.raises(SpectrumParameterError, match="n_terms must be >= 1") as excinfo:
            gas_sum_partial(P_EXAMPLE, n_terms)
        self.check(excinfo, "n_terms")

    @pytest.mark.parametrize("n_terms, message", [(66, "n_terms must be <= 65"), (2.5, "n_terms must be an integer")])
    def test_n_terms_refused_before_any_term(self, monkeypatch, n_terms, message):
        def no_terms(*args):
            raise AssertionError("a term was evaluated")

        # what moments._diagonal evaluates: the closed route's per-term call, the Kummer route's kernel
        monkeypatch.setattr(moments, "multi_instanton", no_terms)
        monkeypatch.setattr(moments, "_kummer_diagonal", no_terms)
        for params in (P_EXAMPLE, P_NEAR):  # the closed and the Kummer route
            with pytest.raises(SpectrumParameterError, match=message) as excinfo:
                gas_sum_partial(params, n_terms)
            self.check(excinfo, "n_terms")

    def test_n_terms_at_the_cap_and_integral_floats(self):
        assert len(gas_sum_partial(P_EXAMPLE, 65)[1]) == 65
        assert gas_sum_partial(P_EXAMPLE, 3.0) == gas_sum_partial(P_EXAMPLE, 3)

    def test_coupling(self):
        with pytest.raises(SpectrumParameterError, match="coupling must be >= 0") as excinfo:
            truncated_hamiltonian(1.0, 2.0, -0.1)
        self.check(excinfo, "coupling")

    def test_measured_gap(self):
        with pytest.raises(SpectrumParameterError, match="measured_gap must be >= 0") as excinfo:
            extract_coupling(-0.1, 1.0, 2.0)
        self.check(excinfo, "measured_gap")

    @pytest.mark.parametrize("args, parameter, message", [
        ((1.0, 2.0, math.nan), "coupling", "coupling must be finite, got nan"),
        ((1.0, 2.0, math.inf), "coupling", "coupling must be finite, got inf"),
        ((math.nan, 2.0, 0.3), "omega0", "omega0 must be finite, got nan"),
        ((1.0, -math.inf, 0.3), "omega1", "omega1 must be finite, got -inf"),
        ((-1.0, 2.0, 0.3), "omega0", "omega0 must be positive"),
        ((1.0, 0.0, 0.3), "omega1", "omega1 must be positive"),
    ])
    def test_truncated_hamiltonian_arguments(self, args, parameter, message):
        with pytest.raises(SpectrumParameterError, match=message) as excinfo:
            truncated_hamiltonian(*args)
        self.check(excinfo, parameter)

    @pytest.mark.parametrize("args, parameter, message", [
        ((math.nan, 1.0, 2.0), "measured_gap", "measured_gap must be finite, got nan"),
        ((math.inf, 1.0, 2.0), "measured_gap", "measured_gap must be finite, got inf"),
        ((0.5, math.inf, 2.0), "omega0", "omega0 must be finite, got inf"),
        ((0.5, 1.0, math.nan), "omega1", "omega1 must be finite, got nan"),
        ((0.5, 0.0, 2.0), "omega0", "omega0 must be positive"),
        ((0.5, 1.0, -2.0), "omega1", "omega1 must be positive"),
    ])
    def test_extract_coupling_arguments(self, args, parameter, message):
        with pytest.raises(SpectrumParameterError, match=message) as excinfo:
            extract_coupling(*args)
        self.check(excinfo, parameter)

    @pytest.mark.parametrize("omega0, omega1", [(1.0, 2.0), (2.0, 2.0), (1e-300, 1e300)])
    def test_zero_gap_still_clamps(self, omega0, omega1):
        # a numeric gap of 0.0 (the subtraction floor of deep wells) is a clamp, not an error
        assert extract_coupling(0.0, omega0, omega1) == (0.0, True)
