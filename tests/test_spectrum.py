import math

import mpmath
import numpy as np
import pytest

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
            res.amplitude_coefficient * res.gap * params.T, rel=1e-7
        )

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

    def test_auto_truncation(self):
        total, terms = gas_sum_partial(P_EXAMPLE)
        assert len(terms) <= 64
        assert total == pytest.approx(gas_sum_closed(P_EXAMPLE), rel=1e-12)

    def test_monotone_tail(self):
        for params in sweep_grid()[::9]:
            _, terms = gas_sum_partial(params, 12)
            start = int(params.B * params.T * math.exp(abs(params.delta) * params.T / 2.0) / 2.0) + 1
            for i in range(start, len(terms) - 1):
                assert abs(terms[i + 1]) < abs(terms[i])


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
        with pytest.raises(SpectrumParameterError, match="params.B required") as excinfo:
            fn(WellParameters(omega0=1.0, omega1=2.0, T=1.0))
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

        monkeypatch.setattr(moments, "multi_instanton", no_terms)
        with pytest.raises(SpectrumParameterError, match=message) as excinfo:
            gas_sum_partial(P_EXAMPLE, n_terms)
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
