import math
import sys
from fractions import Fraction
from itertools import islice
from math import comb, exp, factorial

import mpmath as mp
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from instanton_gas import moments
from instanton_gas.moments import (
    MomentError,
    MomentKey,
    MomentKeyError,
    MomentParameterError,
    MomentValue,
    QuadratureError,
    SymmetricLimitError,
    moment_closed,
    moment_kummer,
    moment_quadrature,
    moment_recursive,
    multi_instanton,
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


def symmetric_limit_50_digits(n, m, B, T):
    """Stripped I(n, m) at delta = 0, the paper's symmetric limit, at 50 digits: (BT)^N / N!."""
    with mp.workdps(50):
        return (mp.mpf(B) * mp.mpf(T)) ** (n + m + 1) / mp.factorial(n + m + 1)


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
        assert moments._log_stripped_lower(0, 0, moments._bound_logs(params)) < moments._LOG_HUGEST
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


def defining_integral_50_digits(n, m, params):
    """Stripped I(n, m) by mpmath.quad of its defining integral at 50 digits,
    with t = (T/2) x: B^N (T/2)^N / (n! m!) Int_{-1}^{1} e^(a x) (1+x)^n (1-x)^m dx,
    a = delta T/2.  (The integral over t itself is below quad's absolute
    tolerance where (T/2)^N is small.)"""
    with mp.workdps(50):
        d, b, h = mp.mpf(params.delta), mp.mpf(params.B), mp.mpf(params.T) / 2
        a = d * h
        integral = mp.quad(lambda x: mp.exp(a * x) * (1 + x) ** n * (1 - x) ** m, [-1, 1])
        return (b * h) ** (n + m + 1) * integral / (mp.factorial(n) * mp.factorial(m))


# The worst relative error, in units of 2^-53, of the quadrature on the
# sample below when it summed in numpy: 7.952 units.  The seed and the
# absent example database make every run draw that sample.
QUADRATURE_WORST_ULPS = 7.96


@seed(1)
@settings(max_examples=300, deadline=None, database=None)
@given(
    n=st.integers(0, 16),
    m=st.integers(0, 16),
    delta_t=st.floats(0.0, 50.0),
    sign=st.sampled_from((-1.0, 1.0)),
    T=st.floats(0.01, 40.0),
    B=st.floats(0.05, 1.0),
)
def test_quadrature_against_the_defining_integral(n, m, delta_t, sign, T, B):
    # |d| T up to 50 takes up to 4 panels; above |a| = 1 the nodes carry the rounding of a
    params = well(sign * delta_t / T, T, B)
    reference = defining_integral_50_digits(n, m, params)
    value = moment_quadrature((n, m), params).stripped
    assert abs(value - reference) <= QUADRATURE_WORST_ULPS * 2.0**-53 * reference


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


@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(0, 40),
    m=st.integers(0, 40),
    delta_t=st.floats(math.log(1e-6), math.log(50.0)).map(math.exp),
    sign=st.sampled_from((-1.0, 1.0)),
    T=st.floats(0.5, 5.0),
    B=st.floats(0.05, 1.5),
)
@example(n=2, m=3, delta_t=1.0, sign=-1.0, T=2.0, B=0.3)  # the golden `moments` case
@example(n=40, m=40, delta_t=1e-6, sign=1.0, T=5.0, B=1.5)
@example(n=0, m=40, delta_t=50.0, sign=-1.0, T=0.5, B=0.05)
def test_closed_and_recursion_against_50_digits(n, m, delta_t, sign, T, B):
    params = well(sign * delta_t / T, T, B)
    table = moment_recursive(n, m, params)
    values = [((n, m), moment_closed((n, m), params).stripped)]
    values += [(nm, v.stripped) for nm, v in table.values.items()]
    for (i, j), value in values:
        reference = reference_50_digits(i, j, params)
        if reference < sys.float_info.min:  # below the normal range, rounded coarser
            continue
        assert abs(value - reference) <= 1e-15 * reference, (i, j)


def closed_per_term(n, m, params):
    """Stripped I(n, m) by the paper's closed form, each term built from its own
    powers, binomial and factorial, in mpmath at moment_closed's working digits
    and rounded once to float64."""
    with mp.workdps(moments._working_digits(n, m, params)):
        d, b, t = mp.mpf(params.delta), mp.mpf(params.B), mp.mpf(params.T)
        r, bt, e_plus, e_minus = b / d, b * t, mp.exp(d * t / 2), mp.exp(-d * t / 2)
        acc = mp.mpf(0)
        for i in range(n + 1):
            acc += e_plus * comb(m + n - i, m) * (-1) ** (n - i) * r ** (n + m - i + 1) * bt**i / factorial(i)
        for j in range(m + 1):
            acc += e_minus * comb(m + n - j, n) * (-1) ** (n + 1) * r ** (n + m - j + 1) * bt**j / factorial(j)
        return float(acc)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(0, 64),
    m=st.integers(0, 64),
    delta_t=st.floats(0.1, 60.0),
    sign=st.sampled_from((-1.0, 1.0)),
    T=st.floats(0.1, 30.0),
    B=st.floats(0.01, 5.0),
)
@example(n=0, m=0, delta_t=1.0, sign=1.0, T=2.0, B=0.3)
@example(n=0, m=64, delta_t=20.0, sign=-1.0, T=2.0, B=0.5)
@example(n=64, m=0, delta_t=20.0, sign=1.0, T=2.0, B=0.5)
@example(n=30, m=45, delta_t=0.1, sign=1.0, T=30.0, B=5.0)  # B/d = 1500
@example(n=20, m=10, delta_t=60.0, sign=-1.0, T=0.1, B=0.01)  # B/d = -1.7e-5
def test_closed_running_ratio_is_the_per_term_sum(n, m, delta_t, sign, T, B):
    # moment_closed takes each term from the one before; the same bits as building each anew
    params = well(sign * delta_t / T, T, B)
    try:
        value = moment_closed((n, m), params).stripped
    except MomentError:
        with pytest.raises(MomentError, match="exceeds float64"):
            moments._working_digits(n, m, params)
        return
    assert value.hex() == closed_per_term(n, m, params).hex()


class TestKummer:
    def test_zero_b_gives_zero(self):
        params = WellParameters(omega0=1.0, omega1=1.0 + 1e-3, T=2.0, B=0.0)
        assert moment_kummer((3, 2), params) == MomentValue(0.0, 0.0, "kummer")

    # a huge T, a huge B, and B T = 2e4 at N = 129: each raised by the kernel's ldexp
    @pytest.mark.parametrize("key, T, B", [((3, 3), 1e300, 0.5), ((0, 0), 2.0, 1e308), ((64, 64), 2.0, 1e4)])
    def test_beyond_float64_is_moment_error(self, key, T, B):
        params = WellParameters(omega0=1.0, omega1=1.0, T=T, B=B)
        with pytest.raises(MomentError, match="exceeds float64"):
            moment_kummer(key, params)

    @pytest.mark.parametrize("key", [(0, 0), (1, 0), (2, 1), (7, 7), (40, 23), (64, 64)])
    def test_zero_delta_equals_symmetric_limit(self, key):
        value = moment_kummer(key, WellParameters(omega0=1.5, omega1=1.5, T=2.0, B=0.7))
        reference = symmetric_limit_50_digits(*key, B=0.7, T=2.0)
        with mp.workdps(50):
            full = reference * mp.exp(-mp.mpf(1.5) * 2 / 2)  # e^(-omega T/2)
        assert value.stripped == pytest.approx(float(reference), rel=2e-15)
        assert value.full == pytest.approx(float(full), rel=2e-15)

    @pytest.mark.parametrize("delta_t", [0.1, -0.5, 1e300])
    def test_outside_domain_names_delta(self, delta_t):
        with pytest.raises(MomentParameterError, match=r"needs \|delta\| T < 0.1") as excinfo:
            moment_kummer((1, 1), well(delta_t / 2.0, 2.0, 0.3))
        assert excinfo.value.parameter == "delta"

    def test_multi_instanton_near_symmetric_matches_quadrature(self):
        # the B and T of the sweep grid, with |d| T from 0 to just below 0.1 of either sign
        for k, params in enumerate(sweep_grid()[::4]):
            delta_t = (0.0, 1e-7, 3e-4, 0.02, 0.0999)[k % 5] * (-1.0) ** k
            near = well(delta_t / params.T, params.T, params.B)
            for i in (0, 1, 5, 17, 39):
                value = multi_instanton(i, near)
                assert value.method == "kummer"
                assert value.full == pytest.approx(moment_quadrature((i, i), near).full, rel=1e-13)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 64),
    m=st.integers(0, 64),
    delta_t=st.one_of(st.just(0.0), st.floats(0.0, 0.1, exclude_max=True), st.floats(1e-12, 1e-3)),
    sign=st.sampled_from((-1.0, 1.0)),
    T=st.floats(0.1, 30.0),
    B=st.floats(0.01, 5.0),
)
@example(n=64, m=64, delta_t=0.0, sign=1.0, T=2.0, B=150.0)  # B T = 300
@example(n=64, m=64, delta_t=0.0999, sign=-1.0, T=2.0, B=150.0)
@example(n=0, m=64, delta_t=0.0999, sign=1.0, T=0.1, B=0.01)
# delta = 0 inputs whose value float64 holds, but where B**N or T**N alone does not:
# formed apart, they give 0, "exceeds float64", and a value 7.5% off
@example(n=61, m=40, delta_t=0.0, sign=1.0, T=78.78757092719883, B=0.0005325570569768075)
@example(n=48, m=61, delta_t=0.0, sign=1.0, T=915.9009138986003, B=1.0900076616798224)
@example(n=37, m=58, delta_t=0.0, sign=1.0, T=827.5353551398848, B=0.00042912169626377713)
def test_kummer_against_50_digits(n, m, delta_t, sign, T, B):
    params = well(sign * delta_t / T, T, B)
    if not abs(params.delta) * T < 0.1:  # delta rounded up across the domain's edge
        return
    reference = reference_50_digits(n, m, params)
    try:
        value = moment_kummer((n, m), params)
    except MomentError:
        assert reference > sys.float_info.max * (1.0 - 1e-14)
        return
    assert math.isfinite(value.stripped) and math.isfinite(value.full)
    assert abs(value.stripped - reference) <= 1e-14 * reference + 5e-324


def kummer_symmetric_limit(i, B, T):
    """Stripped I(i, i) at delta = 0 as the Kummer kernels form it: (BT)^N/N!
    from the mantissas of B and T and one power of two, N = 2i+1."""
    big_n = 2 * i + 1
    mb, eb = math.frexp(B)
    mt, et = math.frexp(T)
    return math.ldexp(mb**big_n * mt**big_n / factorial(big_n) * (1.0 * 1.0), big_n * (eb + et))


@settings(max_examples=300, deadline=None)
@given(
    i=st.integers(0, 64),
    delta_t=st.one_of(
        st.just(0.0),
        st.floats(0.0, 0.1, exclude_max=True),
        st.floats(1e-12, 1e-3),
        st.just(math.nextafter(0.1, 0.0)),
    ),
    sign=st.sampled_from((-1.0, 1.0)),
    T=st.floats(0.1, 30.0),
    BT=st.floats(1e-3, 300.0),
)
@example(i=64, delta_t=math.nextafter(0.1, 0.0), sign=1.0, T=2.0, BT=300.0)
@example(i=0, delta_t=0.0999, sign=-1.0, T=0.1, BT=1e-3)
def test_kummer_diagonal_against_50_digits(i, delta_t, sign, T, BT):
    params = well(sign * delta_t / T, T, BT / T)
    if not abs(params.delta) * T < 0.1:  # delta rounded up across the domain's edge
        return
    big_n = 2 * i + 1
    with mp.workdps(50):
        bt = mp.mpf(params.B) * mp.mpf(T)
        z = abs(mp.mpf(params.delta)) * mp.mpf(T)
        # Kummer's second transformation: e^(-z/2) M(i+1, 2i+2, z) = 0F1(; i+3/2; z^2/16)
        lead = bt**big_n / mp.factorial(big_n)
        reference = lead * mp.hyp0f1(i + mp.mpf(3) / 2, (z / 4) ** 2)
        kummer = lead * mp.exp(-z / 2) * mp.hyp1f1(i + 1, big_n + 1, z)
        assert abs(reference - kummer) <= mp.mpf(10) ** -40 * reference
    value = moment_kummer((i, i), params)
    assert abs(value.stripped - reference) <= 1e-14 * reference + 5e-324
    # one kernel, three readers: moment_kummer, multi_instanton and the gas sum's term
    assert value.full.hex() == multi_instanton(i, params).full.hex()
    assert value.full.hex() == list(islice(moments._diagonal(params), i + 1))[i].hex()
    if params.delta == 0.0:
        assert value.stripped.hex() == kummer_symmetric_limit(i, params.B, T).hex()


@pytest.mark.parametrize("i", [0, 1, 7, 40, 64])
@pytest.mark.parametrize("B, T", [(0.7, 2.0), (0.5, 3.0), (1e-3, 900.0), (150.0, 2.0), (0.0005325570569768075, 78.7)])
def test_kummer_diagonal_at_zero_delta_is_the_symmetric_limit(i, B, T):
    params = WellParameters(omega0=1.5, omega1=1.5, T=T, B=B)
    value = moment_kummer((i, i), params)
    assert value.stripped.hex() == kummer_symmetric_limit(i, B, T).hex()
    assert value.full.hex() == list(islice(moments._diagonal(params), i + 1))[i].hex()


def full_diagonal_50_digits(i, params):
    """Full I(i, i) = (BT)^N/N! 0F1(; i+3/2; (|d|T/4)^2) e^(-x) at 50 digits, N = 2i+1, with
    x = moments._decay(params): every route damps by that float, whose rounding alone moves
    e^(-x) by up to x 2^-53 relative (2e-13 at x = 1500)."""
    big_n = 2 * i + 1
    with mp.workdps(50):
        z = abs(mp.mpf(params.delta)) * mp.mpf(params.T)
        lead = (mp.mpf(params.B) * mp.mpf(params.T)) ** big_n / mp.factorial(big_n)
        return lead * mp.hyp0f1(i + mp.mpf(3) / 2, (z / 4) ** 2) * mp.exp(-mp.mpf(moments._decay(params)))


@settings(max_examples=300, deadline=None)
@given(
    i=st.integers(0, 64),
    delta_t=st.one_of(st.just(0.0), st.floats(0.0, 0.1, exclude_max=True), st.just(math.nextafter(0.1, 0.0))),
    sign=st.sampled_from((-1.0, 1.0)),
    T=st.floats(1e-3, 1e4),
    BT=st.one_of(st.floats(1e-3, 300.0), st.floats(300.0, 1e5)),
    # omega1 T: e^(-(w0+w1)T/4) is a normal float below about 1417, and subnormal or 0 above
    omega_t=st.one_of(st.floats(1e-3, 10.0), st.floats(10.0, 1400.0), st.floats(1400.0, 3000.0)),
)
@example(i=61, delta_t=0.0, sign=1.0, T=1e4, BT=1.6e4, omega_t=300.0)  # stripped beyond float64, full 7.6e246
@example(i=64, delta_t=0.0, sign=1.0, T=1e4, BT=2e4, omega_t=3000.0)  # both, and a subnormal damping
@example(i=64, delta_t=0.0, sign=1.0, T=1e4, BT=2e4, omega_t=20.0)  # the full value beyond float64 too
@example(i=0, delta_t=0.0999, sign=-1.0, T=1e-3, BT=1e-3, omega_t=1420.0)  # a subnormal full value
def test_kummer_full_term_against_50_digits(i, delta_t, sign, T, BT, omega_t):
    # the gas sum's Kummer terms are full values from one ldexp, whatever the stripped value does
    delta = sign * delta_t / T
    omega1 = omega_t / T
    if not omega1 + 2.0 * delta > 0.0:
        return
    params = WellParameters(omega0=omega1 + 2.0 * delta, omega1=omega1, T=T, B=BT / T)
    if not moments._kummer_route(params):  # delta rounded up across the domain's edge
        return
    reference = full_diagonal_50_digits(i, params)
    try:
        value = list(islice(moments._diagonal(params), i + 1))[i]
    except MomentError as exc:  # this term's full value, or an earlier one's, is beyond float64
        j = int(str(exc).partition("(")[2].partition(",")[0])
        assert j <= i and str(exc) == f"full I({j}, {j}) exceeds float64"
        assert full_diagonal_50_digits(j, params) > sys.float_info.max * (1.0 - 1e-14)
        return
    assert math.isfinite(value)
    assert abs(value - reference) <= max(1e-14 * reference, mp.mpf(5e-324))
    try:
        assert moment_kummer((i, i), params).full.hex() == value.hex()
    except MomentError as exc:  # the stripped value alone is beyond float64
        assert str(exc) == f"stripped I({i}, {i}) exceeds float64"
        with mp.workdps(50):
            assert reference / mp.exp(-mp.mpf(moments._decay(params))) > sys.float_info.max * (1.0 - 1e-14)


@pytest.mark.parametrize("omega, T", [(1e300, 1.0), (1e308, 1e10)])  # (w0+w1)T/4 = 5e299, and inf
def test_full_terms_vanish_where_the_damping_exponent_is_huge(omega, T):
    # (BT)^N/N! exceeds float64 at T = 1e10; the damping's power of two stays bounded either way
    params = WellParameters(omega0=omega, omega1=omega, T=T, B=1.0)
    assert list(moments._diagonal(params)) == [0.0] * (moments.DEPTH_CAP + 1)
    assert moment_kummer((3, 3), params).full == 0.0
    num, den = sys.float_info.max.as_integer_ratio()
    assert moments._moment_value("quadrature", 0, 0, num, den, 0, params).full == 0.0


def test_full_term_where_the_stripped_one_overflows():
    # omega0 = omega1 = 0.03, T = 1e4, B = 1.6: (BT)^N/N! exceeds float64 from i = 61 on, and
    # the gas sum used to refuse it; the full I(61, 61) = 7.55e246
    params = WellParameters(omega0=0.03, omega1=0.03, T=1e4, B=1.6)
    with pytest.raises(MomentError, match=r"^stripped I\(61, 61\) exceeds float64$"):
        multi_instanton(61, params)
    terms = list(moments._diagonal(params))
    assert all(math.isfinite(t) for t in terms)
    with mp.workdps(50):
        exact = (mp.mpf(1.6) * mp.mpf(1e4)) ** 123 / mp.factorial(123) * mp.exp(-(mp.mpf(0.03) * 2) * mp.mpf(1e4) / 4)
        assert abs(terms[61] - exact) <= 1e-14 * exact
    assert terms[61] == pytest.approx(7.553381522608461e246, rel=1e-14)


def below_float64_by_lgamma(i, logs):
    """moments._below_float64 with its log factorials from one math.lgamma call each."""
    log_b, log_t, log_d, _, _, log_shift = logs
    n = 2 * i + 1
    bound = min(n * (log_b + log_t) - math.lgamma(n + 1), n * log_b + 2 * i * log_t - 2 * math.lgamma(i + 1) - log_d)
    return bound + log_shift < moments._LOG_TINIEST


def skips(below, params):
    logs = moments._bound_logs(params)
    return [below(i, logs) for i in range(moments.DEPTH_CAP + 1)]


class TestSkipBound:
    """_below_float64 reads its log factorials from a table; the skip flips at the same i as with lgamma."""

    def test_tables_hold_the_bits_of_the_calls(self):
        for k in range(2 * moments.DEPTH_CAP + 2):
            assert moments._LOG_FACTORIAL[k].hex() == math.lgamma(k + 1).hex()
            assert moments._FACTORIAL[k].hex() == float(factorial(k)).hex()

    def test_sweep_grid(self):
        for params in sweep_grid():
            assert skips(moments._below_float64, params) == skips(below_float64_by_lgamma, params)

    @pytest.mark.parametrize("params, skipped", [
        (WellParameters(omega0=2.0, omega1=2.0, T=1e4, B=0.5), 65),  # every term skipped
        (WellParameters(omega0=2.0, omega1=2.0, T=1000.0, B=1.0), None),  # leading terms skipped
    ])
    def test_skipped_examples(self, params, skipped):
        flags = skips(moments._below_float64, params)
        assert flags == skips(below_float64_by_lgamma, params)
        if skipped is None:
            assert flags[0] and not all(flags)
        else:
            assert sum(flags) == skipped

    @settings(max_examples=200, deadline=None)
    @given(
        B=st.floats(1e-3, 10.0),
        T=st.floats(1e-3, 1e4),
        delta_t=st.floats(0.0, 3.0),
        sign=st.sampled_from((-1.0, 1.0)),
        omega=st.floats(1e-3, 4.0),
    )
    def test_random_wells(self, B, T, delta_t, sign, omega):
        delta = sign * delta_t / T
        params = WellParameters(omega0=omega + 2.0 * max(delta, 0.0), omega1=omega + 2.0 * max(-delta, 0.0), T=T, B=B)
        assert skips(moments._below_float64, params) == skips(below_float64_by_lgamma, params)


class TestSymmetric:
    """The paper's symmetric limit, omega0 == omega1, where moment_kummer is the evaluator."""

    def test_diagonal_value(self):
        val = moment_kummer((1, 1), WellParameters(omega0=1.0, omega1=1.0, T=2.0, B=0.3))
        assert val.stripped == pytest.approx(0.036, rel=1e-14)

    def test_unit_case(self):
        assert moment_kummer((0, 0), WellParameters(omega0=1.0, omega1=1.0, T=1.0, B=1.0)).stripped == 1.0

    def test_off_diagonal_matches_quadrature(self):
        params = WellParameters(omega0=1.0, omega1=1.0, T=2.0, B=1.0)
        val = moment_kummer((2, 1), params)
        assert val.stripped == pytest.approx(2.0**4 / 24.0, rel=1e-14)
        assert val.stripped == pytest.approx(
            moment_quadrature((2, 1), params).stripped, rel=1e-11
        )

    def test_full_value_where_omega0_plus_omega1_overflows(self):
        # w0 + w1 is inf, yet the prefactor e^(-omega T/2) = e^(-7.5) is a normal float
        val = moment_kummer((0, 0), WellParameters(omega0=1.5e308, omega1=1.5e308, T=1e-307, B=1e300))
        assert val.stripped == pytest.approx(1e-7, rel=1e-15)
        assert val.full == pytest.approx(val.stripped * exp(-1.5e308 * 1e-307 / 2.0), rel=1e-15)


@settings(max_examples=300, deadline=None)
@given(stripped=st.floats(5e-324, sys.float_info.max), x=st.floats(700.0, 760.0))
@example(stripped=1.0, x=708.3964185322641)  # e^(-x) just below the least normal float
@example(stripped=sys.float_info.max, x=760.0)
def test_exit_damping_against_50_digits(stripped, x):
    # omega0 = omega1 = 2x and T = 1 make _decay exactly x
    params = WellParameters(omega0=2.0 * x, omega1=2.0 * x, T=1.0, B=1.0)
    assert moments._decay(params) == x
    value = moments._moment_value("quadrature", 0, 0, *stripped.as_integer_ratio(), 0, params)
    assert value.stripped == stripped
    with mp.workdps(50):
        reference = mp.mpf(stripped) * mp.exp(-mp.mpf(x))
        error = abs(mp.mpf(value.full) - reference)
        # 3e-16 relative where the result is a normal float, else one subnormal unit
        assert error <= max(3e-16 * reference, mp.mpf(5e-324))


class TestFloat64Exit:
    """Every route rounds its stripped value in _moment_value, which refuses one beyond float64."""

    # omega0 2, omega1 1, T 1: I(0, 0) = 1.0104 B, beyond float64 at B = 1.78e308
    EDGE = WellParameters(omega0=2.0, omega1=1.0, T=1.0, B=1.78e308)
    BELOW = WellParameters(omega0=2.0, omega1=1.0, T=1.0, B=1.7e308)

    @pytest.mark.parametrize("route", [
        lambda p: moment_closed((0, 0), p),
        lambda p: moment_recursive(0, 0, p).value(0, 0),
        lambda p: moment_quadrature((0, 0), p),
        lambda p: multi_instanton(0, p),
    ], ids=["closed", "recursive", "quadrature", "multi_instanton"])
    def test_every_route_refuses_the_same_value(self, route):
        with pytest.raises(MomentError, match=r"^stripped I\(0, 0\) exceeds float64$"):
            route(self.EDGE)
        # just below the edge each route keeps the bits it had before the exit
        value = route(self.BELOW)
        assert (value.stripped.hex(), value.full.hex()) == ("0x1.e93c405762c21p+1023", "0x1.ce3263f8331b0p+1022")

    def test_rectangle_refuses_only_the_entry_beyond_float64(self):
        # B T = 1/2 at T = 2872: stripped I(0, 0) = 2.3e308 exceeds float64, I(1, 0) = 1.16e308 does not
        params = WellParameters(omega0=2.0, omega1=1.0, T=2872.0, B=0.5 / 2872.0)
        table = moment_recursive(1, 0, params)
        with pytest.raises(MomentError, match=r"^stripped I\(0, 0\) exceeds float64$"):
            table.value(0, 0)
        value, closed = table.value(1, 0), moment_closed((1, 0), params)
        assert (value.stripped, value.full) == (closed.stripped, closed.full) == (1.1585666861073404e308, 0.0)

    # at delta = 0, I(0, 0) = B T and I(0, 1) = (B T)^2/2
    @pytest.mark.parametrize("key, B, T, bits", [
        ((0, 0), 1e308, 1.7, ("0x1.e42d130773b76p+1023", "0x1.9de35eceb8e4bp+1022")),
        ((0, 0), 1e308, 2.0, None),
        ((0, 1), 1e154, 1.8, ("0x1.cd642d3d50274p+1023", "0x1.772ce8558a239p+1022")),
        ((0, 1), 1e154, 1.9, None),
    ])
    def test_kummer_edge(self, key, B, T, bits):
        params = WellParameters(omega0=1.0, omega1=1.0, T=T, B=B)
        if bits is None:
            with pytest.raises(MomentError, match=rf"^stripped I\({key[0]}, {key[1]}\) exceeds float64$"):
                moment_kummer(key, params)
        else:
            value = moment_kummer(key, params)
            assert (value.stripped.hex(), value.full.hex()) == bits

    def test_full_value_of_a_subnormal_stripped_one_from_its_53_bits(self):
        # the exact stripped value, 2.6 units of 2^-1074, rounds to 3 units; the full value at
        # e^(-x) = 0.9 is 2.34 units and rounds to 2, where 3 units times 0.9 would round to 3
        x = -math.log(0.9)
        params = WellParameters(omega0=2.0 * x, omega1=2.0 * x, T=1.0, B=1.0)
        value = moments._moment_value("quadrature", 0, 0, 13, 5, -1074, params)
        assert (value.stripped, value.full) == (3 * 5e-324, 2 * 5e-324)


class TestMultiInstanton:
    def test_single_event_symmetric(self):
        params = WellParameters(omega0=1.0, omega1=1.0, T=2.0, B=0.3)
        val = multi_instanton(0, params)
        assert val.full == pytest.approx(0.6 * exp(-1.0), rel=1e-12)
        assert val.method == "kummer"

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
        # at n+m ~ 10, so the working digits must cover it
        params = WellParameters(omega0=1.0 + 5e-7, omega1=1.0 - 5e-7, T=2.0, B=0.3)
        table = moment_recursive(5, 5, params)
        for n in range(6):
            for m in range(6):
                reference = float(symmetric_limit_50_digits(n, m, 0.3, 2.0))
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
            damping = exp(-(params.omega0 + params.omega1) * params.T / 4.0)
            assert v.full == pytest.approx(v.stripped * damping, rel=1e-15)

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

    @pytest.mark.parametrize("key, name", [((1.5, 2), "n"), ((1, 2.5), "m"), (("1", 2), "n"), ((None, 2), "n")])
    def test_non_integral_index_is_key_error(self, key, name):
        with pytest.raises(MomentKeyError, match=f"{name} must be an integer"):
            moment_closed(key, P_EXAMPLE)

    @pytest.mark.parametrize("key, parameter, message", [
        ((70, -1), "n", "n, m capped at 64"),
        ((3, 70), "m", "n, m capped at 64"),
        ((-1, 0), "n", "n and m must be non-negative"),
        ((0, -2), "m", "n and m must be non-negative"),
        ((1, 2.5), "m", "m must be an integer, got 2.5"),
    ])
    def test_bad_index_is_parameter_error_naming_it(self, key, parameter, message):
        with pytest.raises(MomentParameterError) as excinfo:
            MomentKey(*key)
        assert str(excinfo.value) == message and excinfo.value.parameter == parameter

    def test_integral_index_of_any_type(self):
        assert MomentKey(2.0, True) == MomentKey(2, 1)
        assert type(MomentKey(2.0, 1).n) is int
        assert moment_closed((2.0, 1.0), P_EXAMPLE) == moment_closed((2, 1), P_EXAMPLE)
        assert moment_recursive(2.0, 1.0, P_EXAMPLE).value(2, 1) == moment_recursive(2, 1, P_EXAMPLE).value(2, 1)
        assert multi_instanton(1.0, P_EXAMPLE) == multi_instanton(1, P_EXAMPLE)

    def test_non_integral_event_index(self):
        with pytest.raises(MomentParameterError, match="i must be an integer") as excinfo:
            multi_instanton(1.5, P_EXAMPLE)
        assert excinfo.value.parameter == "i"

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
        lambda p: moment_kummer((1, 1), p),
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
