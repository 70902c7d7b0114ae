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

Both the recursion and the closed form cancel catastrophically for small
|d| T or large |B/d|, so both always run in mpmath, at one digit count
from a bound on the closed form's |terms| (_working_digits), and round
once to float64.  mpmath is imported on their first call.

Quadrature is the oracle: composite Gauss-Legendre in numpy, checked
against a second rule.  Below |d| T = 0.1 multi_instanton sums Kummer's
series instead,

    I(n,m) = (BT)^N/N! e^(-|d|T/2) M(p+1, N+1, |d|T),   N = n+m+1,

with p = n for d >= 0 and p = m otherwise (DLMF 13.4.1, and Kummer's
transformation 13.2.39 for d < 0): every term is positive, so nothing
cancels, and the series needs plain floats only.  No route loads scipy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache
from math import comb, exp, factorial, frexp, ldexp, lgamma, log

from .potential import ComputationError, ParameterError, WellParameters, _gauss_rule, _integral

DEPTH_CAP = 64
# Natural log of the largest float64.
_LOG_HUGEST = log(sys.float_info.max)
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
# |d| T below which Kummer's series is summed: each term is at most a tenth
# of the one before, so a dozen terms reach the float64 rounding.
_KUMMER_DT = 0.1
# ln 2 split for exact multiples k ln 2 with |k| < 2^21 (fdlibm).
_LN2 = math.log(2.0)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10

_METHODS = ("closed", "recursive", "quadrature", "kummer", "symmetric-limit")


class MomentError(ComputationError):
    """Base error for moment evaluation."""


class QuadratureError(MomentError):
    """The two quadrature rules disagree; carries the relative difference."""

    def __init__(self, message, error_estimate):
        super().__init__(f"{message} (error estimate {error_estimate:.3e})")
        self.error_estimate = error_estimate


class SymmetricLimitError(MomentError):
    """delta too small for the recursion; use the symmetric-limit path."""


class MomentKeyError(MomentError, ValueError):
    """Index pair negative or beyond DEPTH_CAP."""


class MomentParameterError(ParameterError, MomentError):
    """An argument outside its domain, or absent; `parameter` names it."""


@dataclass(frozen=True)
class MomentKey:
    """Index pair: n events toward the softer side, m back.

    Integral values of other types (2.0, numpy integers) are stored as int."""

    n: int
    m: int

    def __post_init__(self):
        for name in ("n", "m"):
            value = _integral(getattr(self, name))
            if value is None:
                raise MomentKeyError(f"{name} must be an integer, got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)
        if self.n < 0 or self.m < 0:
            raise MomentKeyError("n and m must be non-negative")
        if self.n > DEPTH_CAP or self.m > DEPTH_CAP:
            raise MomentKeyError(f"n, m capped at {DEPTH_CAP}")


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


def prefactor(params):
    """Common damping factor e^(-(w0+w1)T/4)."""
    return exp(-(params.omega0 + params.omega1) * params.T / 4.0)


def _log_stripped_lower(n, m, params):
    """A lower bound of ln(stripped I(n, m)), for B > 0.

    e^(d t) peaks at the end t = -sign(d) T/2, where the factor of index p
    (n for d < 0, m otherwise) vanishes.  On the stretch of length
    L = min(T/2, 1/|d|) from that end, e^(d t) >= e^(|d|(T/2 - L)), the other
    factor is at least (T/2)^q/q!, and the vanishing one integrates to
    L^(p+1)/(p+1)!.
    """
    b, d, t = params.B, params.delta, params.T
    p, q = (n, m) if d < 0.0 else (m, n)
    log_half_t = log(t) - _LN2  # t / 2 itself may underflow to 0
    log_stretch = log_half_t if d == 0.0 else min(log_half_t, -log(abs(d)))
    return (
        (n + m + 1) * log(b)
        + max(0.0, abs(d) * t / 2.0 - 1.0)
        + q * log_half_t - lgamma(q + 1)
        + (p + 1) * log_stretch - lgamma(p + 2)
    )


def _working_digits(n, m, params):
    """mpmath digits for the closed form, or the recursion, up to (n, m).

    With N = n+m+1 and z = |d| T, (BT)^i = |B/d|^i z^i, so the |terms| of
    the closed form sum to at most 2 C(n+m, n) |B/d|^N e^(3z/2).  Its ratio
    to _log_stripped_lower bounds the digits that cancel, and _GUARD_DIGITS
    more are carried.  Raises MomentError, before any digits are spent,
    when the stripped I(n, m) certainly exceeds float64 (the digit count
    grows like |d| T).
    """
    lower = _log_stripped_lower(n, m, params)
    if lower > _LOG_HUGEST:
        raise MomentError(f"stripped I({n}, {m}) exceeds float64")
    b, d, t = params.B, params.delta, params.T
    log_ratio = log(b) - log(abs(d))  # B / d itself may underflow or overflow
    log_bound = _LN2 + log(comb(n + m, n)) + (n + m + 1) * log_ratio + 1.5 * abs(d) * t
    return math.ceil((log_bound - lower) / _LN10) + _GUARD_DIGITS


def _mp_basis(params):
    """B/d, BT, e^(dT/2) and e^(-dT/2) in mpmath at the working precision."""
    import mpmath as mp

    d, b, t = mp.mpf(params.delta), mp.mpf(params.B), mp.mpf(params.T)
    return b / d, b * t, mp.exp(d * t / 2), mp.exp(-d * t / 2)


def moment_closed(key, params):
    """Closed-form evaluation of I(n, m), summed in mpmath at _working_digits
    and rounded once to float64."""
    key = _as_key(key)
    n, m = key.n, key.m
    _require_b(params)
    if params.delta == 0.0:
        raise SymmetricLimitError("delta = 0: use moment_symmetric")
    if params.B == 0.0:
        return MomentValue(0.0, 0.0, "closed")

    import mpmath as mp

    with mp.workdps(_working_digits(n, m, params)):
        r, bt, e_plus, e_minus = _mp_basis(params)
        acc = mp.mpf(0)
        for i in range(n + 1):
            acc += e_plus * comb(m + n - i, m) * (-1) ** (n - i) * r ** (n + m - i + 1) * bt**i / factorial(i)
        for j in range(m + 1):
            acc += e_minus * comb(m + n - j, n) * (-1) ** (n + 1) * r ** (n + m - j + 1) * bt**j / factorial(j)
        stripped = float(acc)
    return MomentValue(stripped, stripped * prefactor(params), "closed")


@dataclass(frozen=True)
class MomentTable:
    """Write-once rectangle of I(n, m) values for one parameter set."""

    max_n: int
    max_m: int
    values: dict

    def value(self, n, m):
        return self.values[(n, m)]


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
            "|delta| T below stability threshold: use moment_symmetric"
        )
    if params.B == 0.0:
        values = {
            (n, m): MomentValue(0.0, 0.0, "recursive")
            for n in range(max_n + 1)
            for m in range(max_m + 1)
        }
        return MomentTable(max_n, max_m, values)

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

    pref = prefactor(params)
    values = {
        nm: MomentValue(float(v), float(v) * pref, "recursive") for nm, v in raw.items()
    }
    return MomentTable(max_n, max_m, values)


@cache
def _panel_rule(panels):
    """Nodes s on [0, 2] split into equal panels, and the weights of the fine
    and the coarse Gauss-Legendre rule; the nodes of both rules in one array.
    The fine weights are np.longdouble, so that their sum adds no rounding."""
    import numpy as np

    nodes, weights = [], []
    for count in (_FINE_NODES, _COARSE_NODES):
        x, w = _gauss_rule(count)
        nodes.append(((np.arange(panels)[:, None] + (1.0 + x) / 2.0) * (2.0 / panels)).ravel())
        weights.append(np.tile(w / panels, panels))
    return np.concatenate(nodes), weights[0].astype(np.longdouble), weights[1]


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
    of J, so for |a| > 150 only [0, 300/|a|] is integrated.  MomentError is
    raised before any array exists when the stripped value certainly
    exceeds float64, and QuadratureError when the two rules differ by more
    than 1e-12 relative.
    """
    key = _as_key(key)
    n, m = key.n, key.m
    _require_b(params)
    if params.B == 0.0:
        return MomentValue(0.0, 0.0, "quadrature")
    if _log_stripped_lower(n, m, params) > _LOG_HUGEST:
        raise MomentError(f"stripped I({n}, {m}) exceeds float64")
    import numpy as np

    d, b, h = params.delta, params.B, params.T / 2.0
    a_exact = np.longdouble(abs(d)) * h
    a = float(a_exact)
    # The rounding of a moves the result by up to a * 1.1e-16 relative, so
    # above a = 1 the nodes carry it along.
    a_lo = float(a_exact - a) if a >= 1.0 else 0.0
    p, q = (m, n) if d >= 0.0 else (n, m)
    length = min(2.0, _TAIL / a) if a > 0.0 else 2.0
    s, fine_w, coarse_w = _panel_rule(max(1, math.ceil(a * length / _PANEL_SPAN)))
    if length < 2.0:
        s = (length / 2.0) * s
    exponent = s * -a
    if a_lo:
        exponent -= s * a_lo
    g = np.exp(exponent)
    g *= s**p
    g *= (2.0 - s) ** q
    scale = length / 2.0
    fine = scale * (fine_w @ g[: fine_w.size])
    coarse = scale * float(coarse_w @ g[fine_w.size :])
    difference = abs(float(fine) - coarse) / float(fine)
    if difference > _QUADRATURE_RTOL:
        raise QuadratureError(
            f"I({n}, {m}): the {_FINE_NODES}- and {_COARSE_NODES}-node rules disagree", difference
        )
    # B^N h^N e^a J / (n! m!) as a mantissa times a power of two, so that no
    # factor leaves the float64 range before the result does.  The mantissa
    # is formed in np.longdouble and rounded once.
    big_n = n + m + 1
    k = round(a / _LN2)
    mb, eb = frexp(b)
    mh, eh = frexp(h)
    mj, ej = np.frexp(fine)
    mantissa = (
        (np.longdouble(mb) * mh) ** big_n * mj
        * np.exp((a_exact - k * _LN2_HI) - k * _LN2_LO)
        / (factorial(n) * factorial(m))
    )
    try:
        stripped = ldexp(float(mantissa), big_n * (eb + eh) + k + int(ej))
    except OverflowError:
        raise MomentError(f"stripped I({n}, {m}) exceeds float64") from None
    return MomentValue(stripped, stripped * prefactor(params), "quadrature")


def moment_kummer(key, params):
    """Kummer-series evaluation of I(n, m) for |delta| T < 0.1; the route of
    multi_instanton there.

    With N = n+m+1, z = |delta| T and p = n for delta >= 0, else m,

        stripped I(n, m) = (BT)^N / N!  e^(-z/2)  M(p+1, N+1, z).

    Every term of M is positive and at most z times the one before, so the
    sum neither cancels nor needs more than a dozen terms.  (BT)^N is
    formed as mantissas and a power of two, so that no factor leaves the
    float64 range before the result does.  B = 0 gives 0; MomentError is
    raised when the stripped value exceeds float64, and MomentParameterError
    naming delta when |delta| T >= 0.1.
    """
    key = _as_key(key)
    n, m = key.n, key.m
    _require_b(params)
    d, b, t = params.delta, params.B, params.T
    z = abs(d) * t
    if not z < _KUMMER_DT:
        raise MomentParameterError(
            "delta", f"the Kummer series needs |delta| T < {_KUMMER_DT}, got {z!r}"
        )
    if b == 0.0:
        return MomentValue(0.0, 0.0, "kummer")
    if _log_stripped_lower(n, m, params) > _LOG_HUGEST:
        raise MomentError(f"stripped I({n}, {m}) exceeds float64")
    big_n = n + m + 1
    a = (n if d >= 0.0 else m) + 1
    term = series = 1.0
    k = 0
    while term > 1e-17 * series:
        term *= (a + k) / (big_n + 1 + k) * z / (k + 1)
        series += term
        k += 1
    mb, eb = frexp(b)
    mt, et = frexp(t)
    mantissa = mb**big_n * mt**big_n / factorial(big_n) * (exp(-z / 2.0) * series)
    try:
        stripped = ldexp(mantissa, big_n * (eb + et))
    except OverflowError:
        raise MomentError(f"stripped I({n}, {m}) exceeds float64") from None
    return MomentValue(stripped, stripped * prefactor(params), "kummer")


def moment_symmetric(key, B, T, omega):
    """Equal-curvature limit: the integral collapses to a Beta function,

        stripped I(n, m) = (B T)^(n+m+1) / (n+m+1)!  (times B^0 bookkeeping),

    with full value carrying e^(-omega T / 2).
    """
    key = _as_key(key)
    n, m = key.n, key.m
    try:
        stripped = B ** (n + m + 1) * T ** (n + m + 1) / float(factorial(n + m + 1))
    except OverflowError:
        stripped = math.inf
    if not math.isfinite(stripped):
        raise MomentError(f"stripped I({n}, {m}) exceeds float64")
    return MomentValue(stripped, stripped * exp(-omega * T / 2.0), "symmetric-limit")


def multi_instanton(i, params):
    """Full I(i, i): the (2i+1)-event well-to-well contribution.

    Kummer's series (moment_kummer) below |delta| T = 0.1, where the closed
    form cancels; above it the closed form, in mpmath.  Neither loads numpy.
    """
    index = _integral(i)
    if index is None:
        raise MomentParameterError("i", f"i must be an integer, got {i!r}")
    if index < 0:
        raise MomentParameterError("i", "i must be >= 0")
    _require_b(params)
    if abs(params.delta) * params.T < _KUMMER_DT:
        return moment_kummer(MomentKey(index, index), params)
    return moment_closed(MomentKey(index, index), params)


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
