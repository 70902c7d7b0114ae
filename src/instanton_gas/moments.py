"""The two-index family of dilute-gas overlap integrals.

A chain of n+1 tunneling events one way and m the other contributes

    I(n, m) = B^(n+m+1) e^(-(w0+w1)T/4)
              * Int_{-T/2}^{T/2} e^(d t) (T/2+t)^n / n!  (T/2-t)^m / m!  dt

with d = (w0 - w1)/2 and B the single-event weight.  The diagonal entries
I(i, i) are the (2i+1)-event contributions to the well-to-well amplitude.

Three independent evaluation routes are provided and cross-checked:
direct quadrature of the integral, the integration-by-parts recursion

    I(0,0) = (B/d) [e^(dT/2) - e^(-dT/2)]
    I(n,0) = (B/d) [e^(dT/2) (BT)^n/n! - I(n-1,0)]
    I(0,m) = (B/d) [I(0,m-1) - e^(-dT/2) (BT)^m/m!]
    I(n,m) = (B/d) [I(n,m-1) - I(n-1,m)]

(stripped of the common prefactor e^(-(w0+w1)T/4)), and the closed form

    I(n,m) = e^(-w1 T/2) sum_{i<=n} C(m+n-i, m) (-1)^(n-i) (B/d)^(n+m-i+1) (BT)^i/i!
           + e^(-w0 T/2) sum_{j<=m} C(m+n-j, n) (-1)^(n+1) (B/d)^(n+m-j+1) (BT)^j/j!

The closed form is summed by its running term ratio: the first term of
each sum is formed once, and each next one is the one before times
BT/(B/d) = dT and a ratio of integers, so no term takes a power, a
binomial or a factorial of its own.

Both the recursion and the closed form cancel catastrophically for small
|d| T or large |B/d|, so both always run in mpmath, at one digit count
from a bound on the closed form's |terms| (_working_digits), and round
once to float64.  mpmath is imported on their first call.

Quadrature is the oracle: composite Gauss-Legendre in plain floats and
ints, checked against a second rule.  Below |d| T = 0.1 multi_instanton
sums Kummer's series instead,

    I(n,m) = (BT)^N/N! e^(-|d|T/2) M(p+1, N+1, |d|T),   N = n+m+1,

with p = n for d >= 0 and p = m otherwise (DLMF 13.4.1, and Kummer's
transformation 13.2.39 for d < 0): every term is positive, so nothing
cancels, and the series needs plain floats only.  On the diagonal, whose
terms the gas sum adds, a = i+1 and b = 2i+2 = 2a, and Kummer's second
transformation (DLMF 13.6.9 with the Bessel series 10.25.2) gives

    I(i,i) = (BT)^N/N! 0F1(; i+3/2; (|d|T/4)^2),   N = 2i+1,

a series even in d whose terms fall by (|d|T/4)^2/((i+3/2+k)(k+1)), so
it needs about half as many as M.  At d = 0, the paper's symmetric limit,
both series are 1 and I is (BT)^N/N! alone: moment_kummer is the
evaluator there too.  No route loads scipy.

Every route ends in one exit, _moment_value, which rounds the exact
stripped value once, refuses it beyond float64, and forms the full value,
times e^(-(w0+w1)T/4), from its 53-bit significand.  The gas sum's terms
come from _diagonal alone, which takes the route once, by _kummer_route.
Below the threshold it runs the diagonal kernel, _kummer_diagonal, in one
pass, with the exit's damping inline, so a term below float64 is 0 by
itself; multi_instanton and moment_kummer at n = m read the same kernel,
so the three give the same bits.  Above it, terms below float64 are
skipped by a bound read from tables of ln k!.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from math import comb, exp, factorial, frexp, ldexp, lgamma, log
from operator import mul

from .potential import ComputationError, ParameterError, WellParameters, _gauss_rule, _integral

DEPTH_CAP = 64
# Natural log of the largest float64, and of the smallest positive one (the
# least subnormal).
_LOG_HUGEST = log(sys.float_info.max)
_LOG_TINIEST = log(5e-324)
# Below it a float64 is subnormal, and ldexp of a product rounds twice.
_LEAST_NORMAL = sys.float_info.min
# Decimal digits carried beyond the closed form's worst-case cancellation.
_GUARD_DIGITS = 30
_LN10 = math.log(10.0)
# Gauss-Legendre nodes per panel of the quadrature's fine and coarse rule;
# both exceed DEPTH_CAP + 1, so both integrate the polynomial part exactly.
_FINE_NODES = 128
_COARSE_NODES = 96
# |a| times the width of one panel, and the |a| s beyond which the
# integrand of J no longer counts.
_PANEL_SPAN = 16.0
_TAIL = 300.0
# Relative disagreement of the two rules beyond which the quadrature is refused.
_QUADRATURE_RTOL = 1e-12
# Bits of e^|a| in the quadrature's scalar factor, formed after the sum.
_TAIL_BITS = 128
# |d| T below which Kummer's series is summed: each term is at most a tenth
# of the one before, so a dozen terms reach the float64 rounding.
_KUMMER_DT = 0.1
# ln 2 split for exact multiples k ln 2 with |k| < 2^21 (fdlibm).
_LN2 = math.log(2.0)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
# ln k! as math.lgamma(k + 1) gives it, and k! as a float, for every k up to
# N = 2 DEPTH_CAP + 1: the bounds and the Kummer kernels read these tables
# instead of calling lgamma or factorial per term, with the same bits.
_LOG_FACTORIAL = tuple(lgamma(k + 1) for k in range(2 * DEPTH_CAP + 2))
_FACTORIAL = tuple(float(factorial(k)) for k in range(2 * DEPTH_CAP + 2))

_METHODS = ("closed", "recursive", "quadrature", "kummer")


class MomentError(ComputationError):
    """Base error for moment evaluation."""


class QuadratureError(MomentError):
    """The two quadrature rules disagree; carries the relative difference."""

    def __init__(self, message, error_estimate):
        super().__init__(f"{message} (error estimate {error_estimate:.3e})")
        self.error_estimate = error_estimate


class SymmetricLimitError(MomentError):
    """delta too small for the recursion; use moment_kummer."""


class MomentParameterError(ParameterError, MomentError):
    """An argument outside its domain, or absent; `parameter` names it."""


class MomentKeyError(MomentParameterError):
    """An index not an integer, negative or beyond DEPTH_CAP; `parameter` is n or m."""


@dataclass(frozen=True)
class MomentKey:
    """Index pair: n events toward the softer side, m back.

    Integral values of other types (2.0, numpy integers) are stored as int;
    the first index that is not an integer in [0, DEPTH_CAP] raises MomentKeyError."""

    n: int
    m: int

    def __post_init__(self):
        for name in ("n", "m"):
            value = _integral(getattr(self, name))
            if value is None:
                raise MomentKeyError(name, f"{name} must be an integer, got {getattr(self, name)!r}")
            if value < 0:
                raise MomentKeyError(name, "n and m must be non-negative")
            if value > DEPTH_CAP:
                raise MomentKeyError(name, f"n, m capped at {DEPTH_CAP}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class MomentValue:
    """Stripped value (common prefactor removed), full value, and route."""

    stripped: float
    full: float
    method: str

    def __post_init__(self):
        if self.method not in _METHODS:
            raise MomentParameterError("method", f"unknown method {self.method!r}")


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call.

    No route of this module calls it; the name stays because the
    benchmark's layer tracer (perfbench/layertrace.py) counts calls by
    patching it.
    """
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _require_b(params):
    if params.B is None:
        raise MomentParameterError("B", "params.B required")


def _as_key(key):
    if isinstance(key, MomentKey):
        return key
    n, m = key
    return MomentKey(n, m)


def _decay(params):
    """(w0+w1)T/4, the exponent of the common prefactor.

    The quarters are summed, so w0 + w1 beyond float64 does not make it
    infinite.  Where the quarters are normal floats and (w0+w1)T is
    finite, it has the bits of (w0+w1)T/4, and at w0 == w1 those of
    w0 T/2."""
    return (params.omega0 / 4.0 + params.omega1 / 4.0) * params.T


def _damping(x):
    """(dm, k) with e^(-x) = dm 2^-k, for x >= 0: the frexp of e^(-x) where
    that is a normal float.  Beyond x = 708.4 it is subnormal or 0, so
    k = round(x / ln 2) and dm = e^(-(x - k ln 2)), near 1; k comes from
    min(x, 2^20), which keeps k ln 2 exact (beyond it dm shrinks to 0)."""
    factor = exp(-x)
    if factor >= sys.float_info.min:
        dm, exponent = frexp(factor)
        return dm, -exponent
    k = round(min(x, 2.0**20) / _LN2)
    return exp((k * _LN2_HI - x) + k * _LN2_LO), k


def _beyond_float64(n, m):
    """The MomentError of a stripped I(n, m) that exceeds float64."""
    return MomentError(f"stripped I({n}, {m}) exceeds float64")


def _moment_value(method, n, m, num, den, exponent, params):
    """The MomentValue of the exact stripped I(n, m) = num/den 2^exponent:
    the one float64 exit of every route.

    num and den > 0 are ints, or num is a Kummer kernel's float mantissa and
    den is 1.  The stripped value is rounded once, and MomentError is raised
    where it exceeds float64.  The full value is significand dm 2^(e - k)
    for the stripped value's significand 2^e, rounded to 53 bits even
    where the stripped value is subnormal, and the _damping (dm, k) of
    _decay(params), rounded once by _product: the value _diagonal gives
    each gas-sum term.
    """
    try:
        if isinstance(num, float):
            stripped, significand = ldexp(num, exponent), num
        else:
            stripped = _rounded(num, den, exponent)
            shift = abs(num).bit_length() - den.bit_length()
            significand, exponent = _rounded(num, den, -shift), exponent + shift
    except OverflowError:
        raise _beyond_float64(n, m) from None
    dm, k = _damping(_decay(params))
    return MomentValue(stripped, _product(significand, dm, exponent - k), method)


def _product(a, b, exponent):
    """a b 2^exponent for floats a and b, rounded once to float64.

    ldexp(a * b, exponent) rounds the product to 53 bits, which is the one
    rounding where the result is a normal float.  At or below the least
    normal float ldexp rounds it again, to the subnormal grid, so there the
    exact product of the two floats' ratios is rounded once instead (a
    product below half the least subnormal is 0 either way).
    """
    value = ldexp(a * b, exponent)
    if abs(value) > _LEAST_NORMAL or frexp(a * b)[1] + exponent <= -1075:
        return value
    (p, s), (q, t) = a.as_integer_ratio(), b.as_integer_ratio()
    return _rounded(p * q, s * t, exponent)


def _bound_logs(params):
    """The logs that _log_stripped_lower and _below_float64 read, for B > 0:
    ln B, ln T, ln|d| (-inf at d = 0), max(0, |d|T/2 - 1), whether d < 0,
    and ln(e^(|d|T/2) e^(-(w0+w1)T/4)).  B, T and |d| are taken apart by
    their logs because B T, T/2 and B/d may underflow or overflow."""
    d, t = params.delta, params.T
    return (
        log(params.B),
        log(t),
        log(abs(d)) if d != 0.0 else -math.inf,
        max(0.0, abs(d) * t / 2.0 - 1.0),
        d < 0.0,
        (abs(d) / 2.0 - (params.omega0 + params.omega1) / 4.0) * t,
    )


def _log_stripped_lower(n, m, logs):
    """A lower bound of ln(stripped I(n, m)), from _bound_logs.

    e^(d t) peaks at the end t = -sign(d) T/2, where the factor of index p
    (n for d < 0, m otherwise) vanishes.  On the stretch of length
    L = min(T/2, 1/|d|) from that end, e^(d t) >= e^(|d|(T/2 - L)), the other
    factor is at least (T/2)^q/q!, and the vanishing one integrates to
    L^(p+1)/(p+1)!.  Where this bound already exceeds float64, the exit's
    MomentError is raised instead, before a route spends any work.
    """
    log_b, log_t, log_d, excess, d_negative, _ = logs
    p, q = (n, m) if d_negative else (m, n)
    log_half_t = log_t - _LN2
    log_stretch = min(log_half_t, -log_d)
    lower = (
        (n + m + 1) * log_b
        + excess
        + q * log_half_t - _LOG_FACTORIAL[q]
        + (p + 1) * log_stretch - _LOG_FACTORIAL[p + 1]
    )
    if lower > _LOG_HUGEST:
        raise _beyond_float64(n, m)
    return lower


def _below_float64(i, logs):
    """True when the full I(i, i) is certainly smaller than any float64.

    With N = 2i+1 the stripped value is (BT)^N/N! e^(-dT/2) M(i+1, N+1, dT)
    (DLMF 13.4.1), and M(a, b, z) <= e^max(z, 0) for b >= a > 0, so
    ln I(i, i) <= N ln(BT) - ln N! + |d|T/2 - (w0+w1)T/4.  Bounding both
    polynomial factors by T^i/i! and integrating e^(d t) alone gives the
    other bound, N ln B + 2i ln T - 2 ln i! - ln|d| + |d|T/2 - (w0+w1)T/4,
    the smaller one when |d| is large (and +inf at d = 0).  The log
    factorials come from _LOG_FACTORIAL, with the bits of lgamma.
    """
    log_b, log_t, log_d, _, _, log_shift = logs
    n = 2 * i + 1
    bound = min(
        n * (log_b + log_t) - _LOG_FACTORIAL[n], n * log_b + 2 * i * log_t - 2 * _LOG_FACTORIAL[i] - log_d
    )
    return bound + log_shift < _LOG_TINIEST


def _working_digits(n, m, params):
    """mpmath digits for the closed form, or the recursion, up to (n, m).

    With N = n+m+1 and z = |d| T, (BT)^i = |B/d|^i z^i, so the |terms| of
    the closed form sum to at most 2 C(n+m, n) |B/d|^N e^(3z/2).  Its ratio
    to _log_stripped_lower bounds the digits that cancel, and _GUARD_DIGITS
    more are carried.  Raises MomentError, before any digits are spent,
    when the stripped I(n, m) certainly exceeds float64 (the digit count
    grows like |d| T).
    """
    logs = _bound_logs(params)
    lower = _log_stripped_lower(n, m, logs)
    log_b, _, log_d, *_ = logs
    log_bound = _LN2 + log(comb(n + m, n)) + (n + m + 1) * (log_b - log_d) + 1.5 * abs(params.delta) * params.T
    return math.ceil((log_bound - lower) / _LN10) + _GUARD_DIGITS


def _mp_basis(params):
    """B/d, BT, e^(dT/2) and e^(-dT/2) in mpmath at the working precision."""
    import mpmath as mp

    d, b, t = mp.mpf(params.delta), mp.mpf(params.B), mp.mpf(params.T)
    return b / d, b * t, mp.exp(d * t / 2), mp.exp(-d * t / 2)


def _mp_value(method, n, m, value, params):
    """_moment_value of an mpmath result, from its exact signed mantissa and exponent."""
    sign, man, exponent, _ = value._mpf_
    return _moment_value(method, n, m, -int(man) if sign else int(man), 1, exponent, params)


def moment_closed(key, params):
    """Closed-form evaluation of I(n, m), summed in mpmath at _working_digits
    and rounded once to float64.

    The first term of each sum, e^(+-dT/2) C(n+m, n) (-1)^n or (-1)^(n+1)
    times (B/d)^(n+m+1), is formed once, and each next term is the one
    before times BT/(B/d), which is dT, and a ratio of integers:

        t_(i+1) = t_i (BT/(B/d)) (-(n-i)) / ((m+n-i)(i+1)),   i < n,
        s_(j+1) = s_j (BT/(B/d)) (m-j) / ((m+n-j)(j+1)),      j < m.

    Each recurrence stops at its last term, where m+n-i may be 0.  The
    tests pin the float64 result to the bits of the term-by-term sum.
    """
    key = _as_key(key)
    n, m = key.n, key.m
    _require_b(params)
    if params.delta == 0.0:
        raise SymmetricLimitError("delta = 0: use moment_kummer")
    if params.B == 0.0:
        return MomentValue(0.0, 0.0, "closed")

    import mpmath as mp

    with mp.workdps(_working_digits(n, m, params)):
        r, bt, e_plus, e_minus = _mp_basis(params)
        step = bt / r
        lead = comb(n + m, n) * r ** (n + m + 1)
        if n % 2:
            lead = -lead
        term = acc = e_plus * lead
        for i in range(n):
            term = term * step * -(n - i) / ((m + n - i) * (i + 1))
            acc += term
        term = -e_minus * lead
        acc += term
        for j in range(m):
            term = term * step * (m - j) / ((m + n - j) * (j + 1))
            acc += term
    return _mp_value("closed", n, m, acc, params)


@dataclass(frozen=True)
class MomentTable:
    """Write-once rectangle of I(n, m) values for one parameter set; an entry
    beyond float64 holds the exit's MomentError, which value() raises."""

    max_n: int
    max_m: int
    values: dict

    def value(self, n, m):
        value = self.values[(n, m)]
        if isinstance(value, MomentError):
            raise value
        return value


def moment_recursive(max_n, max_m, params):
    """Fill the full (max_n+1) x (max_m+1) rectangle by the recursion.

    Requires delta != 0 (every rule divides by it).  The whole rectangle is
    filled in mpmath at the _working_digits of its (max_n, max_m) corner,
    and each entry is rounded once to float64.  Values are stripped of the
    common prefactor; the full value restores it.
    """
    _require_b(params)
    key = MomentKey(max_n, max_m)  # the same index limits as every other route
    max_n, max_m = key.n, key.m
    if params.delta == 0.0 or abs(params.delta) * params.T < 1e-12:
        raise SymmetricLimitError(
            "|delta| T below stability threshold: use moment_kummer"
        )
    if params.B == 0.0:
        zero = MomentValue(0.0, 0.0, "recursive")
        return MomentTable(max_n, max_m, {(n, m): zero for n in range(max_n + 1) for m in range(max_m + 1)})

    import mpmath as mp

    with mp.workdps(_working_digits(max_n, max_m, params)):
        r, bt, e_plus, e_minus = _mp_basis(params)
        raw = {(0, 0): r * (e_plus - e_minus)}
        for n in range(1, max_n + 1):
            raw[(n, 0)] = r * (e_plus * bt**n / factorial(n) - raw[(n - 1, 0)])
        for m in range(1, max_m + 1):
            raw[(0, m)] = r * (raw[(0, m - 1)] - e_minus * bt**m / factorial(m))
        for n in range(1, max_n + 1):
            for m in range(1, max_m + 1):
                raw[(n, m)] = r * (raw[(n, m - 1)] - raw[(n - 1, m)])

    values = {}
    for nm, v in raw.items():
        try:
            values[nm] = _mp_value("recursive", *nm, v, params)
        except MomentError as exc:  # refused where it is read, so that it refuses no other entry
            values[nm] = exc
    return MomentTable(max_n, max_m, values)


def _rounded(num, den, exponent):
    """num / den * 2^exponent for ints num and den > 0, rounded once to
    float64: Python divides ints with correct rounding, subnormal results
    included.  Raises OverflowError beyond float64."""
    if exponent < 0:
        return num / (den << -exponent)
    return (num << exponent) / den


def _exact_dot(weights, weight_shift, values):
    """sum_i w_i v_i for w_i = weights[i] 2^-weight_shift, weights ints, and
    floats v_i >= 0, as (total, shift): the sum is the int total times 2^-shift.

    Each v_i is taken as the int v_i 2^k, with k = 53 - e for the binary
    exponent e of the least positive v_i, so the sum is exact.  Where that
    v_i 2^k or 2^k would exceed float64, k is lowered to fit, and bits below
    2^-k are dropped: only values more than 970 binary orders below the
    largest, or below 2^-970, lose any.
    """
    top = frexp(max(values))[1]
    k = min(53 - frexp(min(filter(None, values), default=1.0))[1], 1023 - max(top, 0))
    scaled = map(int, map(mul, values, repeat(2.0**k)))
    return sum(map(mul, weights, scaled)), k + weight_shift


@cache
def _panel_rule(panels):
    """The fine and the coarse Gauss-Legendre rule on [0, 2] split into equal
    panels: the nodes s of both, the fine rule's first, in one tuple; the
    fine weights as ints W and their shift k, w = W 2^-k, for _exact_dot;
    and the coarse weights."""
    nodes, weights = [], []
    for count in (_FINE_NODES, _COARSE_NODES):
        x, w = _gauss_rule(count)
        nodes += [(i + (1.0 + xi) / 2.0) * (2.0 / panels) for i in range(panels) for xi in x]
        weights.append(tuple(wi / panels for wi in w) * panels)
    fine, coarse = weights
    shift = 53 - frexp(min(fine))[1]
    return tuple(nodes), tuple(int(ldexp(w, shift)) for w in fine), shift, coarse


def moment_quadrature(key, params):
    """Composite Gauss-Legendre evaluation of I(n, m); the oracle route.

    With u = (T/2) x and a = delta T/2 the stripped value is

        B^N (T/2)^N / (n! m!) e^|a| J,   J = Int_0^2 e^(-|a| s) s^p (2-s)^q ds,

    N = n+m+1, where s is the distance from the end x = sign(a) at which
    e^(a x) peaks, p the power of the factor (1 -+ x) that vanishes there
    and q the power of the other.  The polynomial part has
    degree n + m <= 2 DEPTH_CAP, which both rules (128 and 96 nodes per
    panel) integrate exactly; the panels, about |a|/8 of them, keep the
    exponential resolved.  Beyond |a| s = 300 the integrand is below 1e-40
    of J, so for |a| > 150 only [0, 300/|a|] is integrated.

    The integrand is evaluated in plain floats.  The fine rule's sum is
    formed exactly, in ints (_exact_dot); the coarse rule's is a plain sum,
    which serves only the check.  B^N h^N e^|a| J / (n! m!), h = T/2, is
    then formed exactly from the ints of B, h, J and the factorials but for
    e^|a|, which mpmath gives at _TAIL_BITS bits from the exact |d| h, and
    rounded once to float64.  B = 0 gives 0, and so does a value below
    float64.  MomentError is raised before any node is evaluated when the
    stripped value certainly exceeds float64, and after the sum when it
    does; QuadratureError when the two rules differ by more than 1e-12
    relative.
    """
    key = _as_key(key)
    n, m = key.n, key.m
    _require_b(params)
    if params.B == 0.0:
        return MomentValue(0.0, 0.0, "quadrature")
    _log_stripped_lower(n, m, _bound_logs(params))  # refuses a certain overflow
    from mpmath.libmp import from_man_exp, mpf_exp

    d, b, h = params.delta, params.B, params.T / 2.0
    a = abs(d) * h
    (dn, dd), (hn, hd), (an, ad) = (x.as_integer_ratio() for x in (abs(d), h, a))
    # The rounding of a moves the result by up to a * 1.1e-16 relative, so
    # above a = 1 the nodes carry it along.
    a_lo = (dn * hn * ad - an * dd * hd) / (dd * hd * ad) if a >= 1.0 else 0.0
    p, q = (m, n) if d >= 0.0 else (n, m)
    length = min(2.0, _TAIL / a) if a > 0.0 else 2.0
    s, fine_w, fine_shift, coarse_w = _panel_rule(max(1, math.ceil(a * length / _PANEL_SPAN)))
    if length < 2.0:
        s = [(length / 2.0) * x for x in s]
    rate = -a
    g = [exp(x * rate - x * a_lo) * x**p * (2.0 - x) ** q for x in s]
    count = len(fine_w)
    total, shift = _exact_dot(fine_w, fine_shift, g[:count])
    scale = length / 2.0
    fine = scale * _rounded(total, 1, -shift)
    coarse = scale * sum(map(mul, coarse_w, g[count:]))
    difference = abs(fine - coarse) / fine
    if difference > _QUADRATURE_RTOL:
        raise QuadratureError(
            f"I({n}, {m}): the {_FINE_NODES}- and {_COARSE_NODES}-node rules disagree", difference
        )
    # e^|a| = exp_man 2^exp_shift, from the exact |d| h
    _, exp_man, exp_shift, _ = mpf_exp(from_man_exp(dn * hn, 1 - (dd * hd).bit_length()), _TAIL_BITS)
    big_n = n + m + 1
    (bn, bd), (ln, ld) = b.as_integer_ratio(), scale.as_integer_ratio()
    num = (bn * hn) ** big_n * total * ln * exp_man
    den = (bd * hd) ** big_n * ld * factorial(n) * factorial(m)
    return _moment_value("quadrature", n, m, num, den, exp_shift - shift, params)


def _kummer_route(params):
    """True where multi_instanton sums Kummer's series: |delta| T < 0.1."""
    return abs(params.delta) * params.T < _KUMMER_DT


def _kummer_off_diagonal(n, m, params):
    """Stripped I(n, m) = (BT)^N/N! e^(-z/2) M(p+1, N+1, z), N = n+m+1, by
    Kummer's series, as the pair (mantissa, exponent) of mantissa 2^exponent.

    The mantissa is mb^N mt^N/N! e^(-z/2) M, for the frexp mantissas of B and
    T, and lies in [8.8e-297, e^0.05] for N <= 129, so nothing underflows or
    overflows before the exit; the exponent is N (eb + et)."""
    z = abs(params.delta) * params.T
    mb, eb = frexp(params.B)
    mt, et = frexp(params.T)
    big_n = n + m + 1
    a = (m if params.delta < 0.0 else n) + 1
    term = series = 1.0
    k = 0
    while term > 1e-17 * series:
        term *= (a + k) / (big_n + 1 + k) * z / (k + 1)
        series += term
        k += 1
    return mb**big_n * mt**big_n / _FACTORIAL[big_n] * (exp(-z / 2.0) * series), big_n * (eb + et)


def _kummer_diagonal(params, start):
    """Stripped I(i, i) = (BT)^N/N! 0F1(; i+3/2; (|d|T/4)^2), N = 2i+1, for
    i = start, ..., DEPTH_CAP, as pairs (mantissa, exponent) before damping.

    Each term of 0F1 is the one before times x/((i+3/2+j)(j+1)), with
    x = (|d|T/4)^2 < 6.25e-4 on the Kummer route, so about five terms reach
    the float64 rounding; at d = 0 the series is 1.  The mantissa is
    mb^N mt^N/N! 0F1, at least 4.3e-296 for N <= 129, and the exponent
    N (eb + et)."""
    x = (abs(params.delta) * params.T / 4.0) ** 2
    mb, eb = frexp(params.B)
    mt, et = frexp(params.T)
    e, factorials = eb + et, _FACTORIAL
    for i in range(start, DEPTH_CAP + 1):
        big_n = 2 * i + 1
        term = x / (i + 1.5)  # the first step, which the test below always takes
        series, b, j = 1.0 + term, i + 2.5, 2.0
        while term > 1e-17 * series:
            term *= x / (b * j)
            series += term
            b += 1.0
            j += 1.0
        yield mb**big_n * mt**big_n / factorials[big_n] * series, big_n * e


def moment_kummer(key, params):
    """Kummer-series evaluation of I(n, m) for |delta| T < 0.1; the route of
    multi_instanton there, and of `moments --method symmetric` at delta = 0.

    With N = n+m+1, z = |delta| T and p = n for delta >= 0, else m,

        stripped I(n, m) = (BT)^N / N!  e^(-z/2)  M(p+1, N+1, z).

    Every term of M is positive and at most z times the one before, so the
    sum neither cancels nor needs more than a dozen terms; at delta = 0 it
    is 1.  On the diagonal n = m the same value is summed as
    (BT)^N/N! 0F1(; n+3/2; (z/4)^2), through Kummer's second transformation
    e^(-z/2) M(a, 2a, z) = 0F1(; a+1/2; z^2/16) (DLMF 13.6.9 with 10.25.2),
    whose terms fall twice as fast; both values are then read from one term
    of the gas sum's kernel, _kummer_diagonal.  (BT)^N is formed as
    mantissas and a power of two, so that no factor leaves the float64
    range before the result does.  B = 0 gives 0; MomentError is raised
    when the stripped value exceeds float64, and MomentParameterError
    naming delta when |delta| T >= 0.1.
    """
    key = _as_key(key)
    n, m = key.n, key.m
    _require_b(params)
    if not _kummer_route(params):
        raise MomentParameterError(
            "delta", f"the Kummer series needs |delta| T < {_KUMMER_DT}, got {abs(params.delta) * params.T!r}"
        )
    if params.B == 0.0:
        return MomentValue(0.0, 0.0, "kummer")
    mantissa, exponent = next(_kummer_diagonal(params, n)) if n == m else _kummer_off_diagonal(n, m, params)
    return _moment_value("kummer", n, m, mantissa, 1, exponent, params)


def multi_instanton(i, params):
    """Full I(i, i): the (2i+1)-event well-to-well contribution.

    Kummer's series (moment_kummer) below |delta| T = 0.1 (_kummer_route),
    where the closed form cancels; above it the closed form, in mpmath.
    Neither loads numpy.  The gas sum reads its terms from _diagonal, with
    the same bits, except that _diagonal's Kummer route gives a finite full
    value where the stripped one, and so multi_instanton, overflows.
    """
    index = _integral(i)
    if index is None:
        raise MomentParameterError("i", f"i must be an integer, got {i!r}")
    if index < 0:
        raise MomentParameterError("i", "i must be >= 0")
    _require_b(params)
    if _kummer_route(params):
        return moment_kummer(MomentKey(index, index), params)
    return moment_closed(MomentKey(index, index), params)


def _diagonal(params):
    """Full I(i, i) for i = 0, 1, ..., DEPTH_CAP: the terms of the gas sum.

    The route is taken once, by _kummer_route.  Below the threshold the
    terms are _kummer_diagonal's, in one pass, with the damping
    e^(-(w0+w1)T/4) folded into each term: one below float64 is 0 by
    itself, and MomentError is raised only where the full value overflows.
    Above it a term for which _below_float64 holds is 0.0 unevaluated, and
    every other is a call of the module's multi_instanton, so that a
    rebinding of it (the benchmark's tracer makes one) is seen.  A caller
    that stops early evaluates no further term.
    """
    if _kummer_route(params):
        # _moment_value's full value, inline: a call per term costs the gas sum a fifth
        dm, k = _damping(_decay(params))
        for i, (mantissa, exponent) in enumerate(_kummer_diagonal(params, 0)):
            try:
                value = ldexp(mantissa * dm, exponent - k)
            except OverflowError:
                raise MomentError(f"full I({i}, {i}) exceeds float64") from None
            yield value if abs(value) > _LEAST_NORMAL else _product(mantissa, dm, exponent - k)
        return
    logs = _bound_logs(params) if params.B > 0.0 else None
    for i in range(DEPTH_CAP + 1):
        yield 0.0 if logs is not None and _below_float64(i, logs) else multi_instanton(i, params).full


def sweep_grid():
    """The canonical 108-point verification grid.

    Ordered frequency pairs from {1, 1.5, 2, 3} with omega0 != omega1,
    B in {0.1, 0.5, 1} and T in {1, 2, 5}.
    """
    freqs = (1.0, 1.5, 2.0, 3.0)
    grid = []
    for w0 in freqs:
        for w1 in freqs:
            if w0 == w1:
                continue
            for b in (0.1, 0.5, 1.0):
                for t in (1.0, 2.0, 5.0):
                    grid.append(WellParameters(omega0=w0, omega1=w1, T=t, B=b))
    return grid
