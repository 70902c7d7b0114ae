import math

import pytest
import sympy
from numpy.polynomial import polynomial as npoly

from instanton_gas.potential import (
    AsymmetricDepthsError,
    NoWellsError,
    PolynomialPotential,
    PotentialError,
    WellParameters,
    _gauss_rule,
    find_minima,
    instanton_action,
    well_parameters,
)

QUARTIC = PolynomialPotential((1.0, 0.0, -2.0, 0.0, 1.0))  # (x^2-1)^2
# x^2 (x-2)^4, expanded
SEXTIC = PolynomialPotential((0.0, 0.0, 16.0, -32.0, 24.0, -8.0, 1.0))
# (x^2-1)^2 (x^2 + 0.5 x + 1), expanded
PRODUCT = PolynomialPotential((1.0, 0.5, -1.0, -1.0, -1.0, 0.5, 1.0))

# frozen tanh-sinh quadrature oracle values (mpmath, 30 digits)
S_QUARTIC = 1.8856180831641267  # = 4 sqrt(2) / 3
S_PRODUCT = 2.0507038700265397
# the action of (x^2-1)^2 (x^2 + b x + 1) on [-1, 1] by mpmath.quad at 40
# digits, split at x = -b/2
BENCHMARK_ACTIONS = [
    (0.0, 2.0580631003505765),
    (0.5, 2.0507038700265396),
    (-1.2, 2.0123766669486125),
    (1.9, 1.9153898852967595),
    (1.99, 1.8895976433256367),
    (1.999, 1.8860627053875874),
]


# Nodes and weights of the Gauss-Legendre rules (n, index), by Newton's
# method on the Legendre recurrence in mpmath at 50 digits
GAUSS_TABLE = [
    (64, 0, "-0.999305041735772139456905624346", "0.00178328072169643294729607914497"),
    (64, 1, "-0.996340116771955279346924500676", "0.00414703326056246763528753572855"),
    (64, 16, "-0.685236313054233242563558371031", "0.0354722132568823838106931467152"),
    (64, 31, "-0.0243502926634244325089558428537", "0.0486909570091397203833653907347"),
    (96, 0, "-0.999689503883230766827690105784", "0.000796792065552012429438143496944"),
    (96, 1, "-0.998364375863181677724149439527", "0.00185396078894692173233592535089"),
    (96, 24, "-0.692564536642171561344245769818", "0.0234833990859262198422359326676"),
    (96, 47, "-0.0162767448496029695791345636952", "0.0325506144923631662419614182973"),
    (128, 0, "-0.999824887947131914473608082982", "0.000449380960292090376394292239989"),
    (128, 1, "-0.999077459977375895011987757684", "0.00104581267934034877931285160011"),
    (128, 32, "-0.696214708369514332385086602419", "0.0175494758271177046487069256344"),
    (128, 63, "-0.0122236989606157641980521196674", "0.0244461801962625182113258526106"),
]


def sympy_second_derivative(potential, x0):
    """Independent symbolic oracle for V'' at a point."""
    x = sympy.symbols("x")
    expr = sum(c * x**k for k, c in enumerate(potential.coefficients))
    return float(sympy.diff(expr, x, 2).subs(x, sympy.nsimplify(x0)))


class TestPolynomialPotential:
    def test_evaluation_matches_expansion(self):
        for xv in (-1.7, -1.0, 0.0, 0.3, 2.5):
            assert PRODUCT(xv) == pytest.approx(
                (xv**2 - 1) ** 2 * (xv**2 + 0.5 * xv + 1), rel=1e-14
            )

    def test_rejects_odd_degree(self):
        with pytest.raises(PotentialError):
            PolynomialPotential((0.0, 0.0, 0.0, 0.0, 1.0, 1.0))

    def test_rejects_low_degree(self):
        with pytest.raises(PotentialError):
            PolynomialPotential((1.0, 0.0, 1.0))

    def test_rejects_negative_leading(self):
        with pytest.raises(PotentialError):
            PolynomialPotential((0.0, 0.0, 0.0, 0.0, -1.0))


class TestFindMinima:
    def test_symmetric_quartic(self):
        minima = find_minima(QUARTIC)
        assert [w.location for w in minima] == pytest.approx([-1.0, 1.0], abs=1e-12)
        for w in minima:
            assert w.value == pytest.approx(0.0, abs=1e-14)
            assert w.curvature == pytest.approx(8.0, rel=1e-12)
            assert w.harmonic

    def test_sextic_with_degenerate_minimum(self):
        minima = find_minima(SEXTIC)
        assert len(minima) == 2
        origin, flat = minima
        assert origin.location == pytest.approx(0.0, abs=1e-10)
        assert origin.harmonic
        assert origin.curvature == pytest.approx(
            sympy_second_derivative(SEXTIC, 0.0), rel=1e-10
        )
        assert origin.curvature == pytest.approx(32.0, rel=1e-10)
        assert flat.location == pytest.approx(2.0, abs=1e-4)
        assert not flat.harmonic
        assert sympy_second_derivative(SEXTIC, 2.0) == 0.0

    def test_product_well_curvatures(self):
        minima = find_minima(PRODUCT)
        assert [w.location for w in minima] == pytest.approx([-1.0, 1.0], abs=1e-10)
        left, right = minima
        assert left.curvature == pytest.approx(
            sympy_second_derivative(PRODUCT, -1.0), rel=1e-12
        )
        assert right.curvature == pytest.approx(
            sympy_second_derivative(PRODUCT, 1.0), rel=1e-12
        )
        assert left.curvature == pytest.approx(12.0, rel=1e-12)
        assert right.curvature == pytest.approx(20.0, rel=1e-12)

    def test_residual_and_frequency_invariants(self):
        for pot in (QUARTIC, SEXTIC, PRODUCT):
            for w in find_minima(pot):
                residual = abs(pot.derivative(w.location))
                assert residual <= 1e-12 * max(1.0, abs(w.curvature) * abs(w.location))
                assert w.frequency == math.sqrt(max(w.curvature, 0.0))


class TestInstantonAction:
    def test_quartic_closed_form(self):
        s = instanton_action(QUARTIC, -1.0, 1.0)
        assert s == pytest.approx(S_QUARTIC, rel=1e-10)

    def test_scaling_by_sqrt_lambda(self):
        s1 = instanton_action(QUARTIC, -1.0, 1.0)
        s4 = instanton_action(PolynomialPotential((4.0, 0.0, -8.0, 0.0, 4.0)), -1.0, 1.0)
        assert s4 == pytest.approx(2.0 * s1, rel=1e-9)

    def test_product_against_tanh_sinh_oracle(self):
        s = instanton_action(PRODUCT, -1.0, 1.0)
        assert s == pytest.approx(S_PRODUCT, rel=1e-10)

    def test_reflection_invariance(self):
        s = instanton_action(PRODUCT, -1.0, 1.0)
        # V(-x): odd coefficients change sign
        mirrored = PolynomialPotential(
            tuple(c if k % 2 == 0 else -c for k, c in enumerate(PRODUCT.coefficients))
        )
        s_mirror = instanton_action(mirrored, -1.0, 1.0)
        assert s_mirror == pytest.approx(s, rel=1e-11)

    def test_dipping_potential_rejected(self):
        # endpoints on the outer walls: the wells dip below their level
        with pytest.raises(PotentialError, match="below well floor"):
            instanton_action(QUARTIC, -2.0, 2.0)

    @pytest.mark.parametrize("b, action", BENCHMARK_ACTIONS)
    def test_benchmark_family_against_mpmath(self, b, action):
        # (x^2-1)^2 (x^2 + b x + 1); near b = 2 the last factor nearly
        # vanishes at x = -b/2, next to the left minimum
        coeffs = (1.0, b, -1.0, -2.0 * b, -1.0, b, 1.0)
        s = instanton_action(PolynomialPotential(coeffs), -1.0, 1.0)
        assert s == pytest.approx(action, rel=1e-12)

    def test_unresolved_action_rejected(self):
        # (x^2-1)^2 ((x-0.3)^2 + 1e-4): the integrand has a near-kink at 0.3
        # that 64 and 128 Gauss-Legendre nodes resolve differently
        coeffs = npoly.polymul(npoly.polymul((-1.0, 0.0, 1.0), (-1.0, 0.0, 1.0)), (0.0901, -0.6, 1.0))
        with pytest.raises(PotentialError, match="not resolved"):
            instanton_action(PolynomialPotential(tuple(coeffs)), -1.0, 1.0)


class TestWellParameters:
    def test_symmetric_quartic_parameters(self):
        left, right = find_minima(QUARTIC)
        params = well_parameters(QUARTIC, left, right, T=2.0)
        assert params.omega0 == params.omega1 == pytest.approx(math.sqrt(8.0), rel=1e-12)
        assert params.delta == 0.0
        assert params.B is None and params.K is None
        assert params.s_inst == pytest.approx(S_QUARTIC, rel=1e-10)

    def test_product_well_parameters(self):
        left, right = find_minima(PRODUCT)
        params = well_parameters(PRODUCT, left, right, K=1.0, T=2.0)
        assert params.omega0 == pytest.approx(math.sqrt(12.0), rel=1e-12)
        assert params.omega1 == pytest.approx(math.sqrt(20.0), rel=1e-12)
        assert params.delta == pytest.approx(
            (math.sqrt(12.0) - math.sqrt(20.0)) / 2.0, rel=1e-12
        )
        assert params.delta == pytest.approx(-0.5040, abs=5e-5)
        assert params.B == pytest.approx(math.exp(-S_PRODUCT), rel=1e-9)

    def test_direct_construction_delta(self):
        params = WellParameters(omega0=1.0, omega1=2.0, T=1.0, B=0.1)
        assert params.delta == -0.5

    def test_derives_b_from_prefactor(self):
        params = WellParameters(omega0=1.0, omega1=2.0, T=1.0, K=2.0, s_inst=1.0)
        assert params.B == 2.0 * math.exp(-1.0)

    def test_inconsistent_b_and_prefactor(self):
        with pytest.raises(ValueError, match="inconsistent"):
            WellParameters(omega0=1.0, omega1=2.0, T=1.0, B=0.3, K=1.0, s_inst=0.0)

    def test_consistent_b_and_prefactor_accepted(self):
        s = 1.2039728043259361
        params = WellParameters(
            omega0=1.0, omega1=2.0, T=1.0, B=math.exp(-s), K=1.0, s_inst=s
        )
        assert params.K == 1.0

    def test_asymmetric_depths_rejected(self):
        tilted = PolynomialPotential((1.0, 0.1, -2.0, 0.0, 1.0))
        minima = [w for w in find_minima(tilted) if w.harmonic]
        assert len(minima) == 2
        with pytest.raises(AsymmetricDepthsError):
            well_parameters(tilted, minima[0], minima[1], T=1.0)

    def test_non_harmonic_minimum_rejected(self):
        minima = find_minima(SEXTIC)
        with pytest.raises(PotentialError):
            well_parameters(SEXTIC, minima[0], minima[1], T=1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            WellParameters(omega0=-1.0, omega1=1.0, T=1.0, B=0.1)
        with pytest.raises(ValueError):
            WellParameters(omega0=1.0, omega1=1.0, T=0.0, B=0.1)
        with pytest.raises(ValueError):
            WellParameters(omega0=1.0, omega1=1.0, T=1.0, B=-0.1)


class TestGaussRule:
    @pytest.mark.parametrize("n, i, node, weight", GAUSS_TABLE)
    def test_correctly_rounded_against_frozen_table(self, n, i, node, weight):
        nodes, weights = _gauss_rule(n)
        assert nodes[i] == float(node) and nodes[n - 1 - i] == -float(node)
        assert weights[i] == float(weight) and weights[n - 1 - i] == float(weight)

    @pytest.mark.parametrize("n", [2, 5, 64, 96, 128])
    def test_integrates_polynomials_exactly(self, n):
        # x^(2k) integrates to 2/(2k+1) for every 2k <= 2n - 1
        nodes, weights = _gauss_rule(n)
        assert list(nodes) == sorted(nodes) and len(nodes) == n
        for k in range(n):
            assert float(weights @ nodes ** (2 * k)) == pytest.approx(2.0 / (2 * k + 1), rel=1e-13)
