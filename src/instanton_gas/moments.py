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
|d| T or large |B/d|; evaluation escalates to mpmath arithmetic when the
predicted digit loss exceeds what float64 carries.  mpmath is imported on
the first escalation, so evaluations that stay in float64 never load it.

Quadrature is the oracle.  It is also the production route of
multi_instanton below |d| T = 0.1, and it is the only route that loads
scipy.integrate: the import happens on its first call, so commands that
never integrate never pay for it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from math import comb, exp, factorial, lgamma, log, log10

from .potential import ParameterError, WellParameters

DEPTH_CAP = 64
_LOG10_E = math.log10(math.e)
# Natural log of the largest float64.
_LOG_HUGEST = log(sys.float_info.max)
# predicted cancellation (digits) beyond which float64 is abandoned; the
# remaining ~1e-10 headroom keeps the three-way cross checks at 1e-8 safe
_FLOAT_DIGIT_BUDGET = 6.0

_METHODS = ("closed", "recursive", "quadrature", "symmetric-limit")


class MomentError(Exception):
    """Base error for moment evaluation."""


class QuadratureError(MomentError):
    """Adaptive quadrature failed; carries the achieved error estimate."""

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
    """Index pair: n events toward the softer side, m back."""

    n: int
    m: int

    def __post_init__(self):
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
            raise ValueError(f"unknown method {self.method!r}")


def quad(*args, **kwargs):
    """scipy.integrate.quad; scipy.integrate is imported on the first call."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _require_b(params):
    if params.B is None:
        raise MomentParameterError("B", "params.B required")


def _as_key(key):
    if isinstance(key, MomentKey):
        return key
    n, m = key
    return MomentKey(int(n), int(m))


def prefactor(params):
    """Common damping factor e^(-(w0+w1)T/4)."""
    return exp(-(params.omega0 + params.omega1) * params.T / 4.0)


def _predicted_digit_loss(n, m, params):
    """log10(largest closed-form term / guaranteed lower bound on stripped)."""
    b, d, t = params.B, params.delta, params.T
    if b == 0.0:
        return 0.0
    log_r = log10(b) - log10(abs(d))  # b / d and b t themselves may underflow
    log_bt = log10(b) + log10(t)
    half = abs(d) * t / 2.0 * _LOG10_E

    def branch_max(outer, inner, sign_exp):
        best = -math.inf
        for i in range(outer + 1):
            lg = (
                sign_exp
                + (lgamma(m + n - i + 1) - lgamma(inner + 1) - lgamma(m + n - i - inner + 1))
                * _LOG10_E
                + (n + m - i + 1) * log_r
                + i * log_bt
                - lgamma(i + 1) * _LOG10_E
            )
            best = max(best, lg)
        return best

    max_term = max(branch_max(n, m, half), branch_max(m, n, half))
    lower = (n + m + 1) * log_bt - lgamma(n + m + 2) * _LOG10_E - half
    return max(0.0, max_term - lower)


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
    stretch = t / 2.0 if d == 0.0 else min(t / 2.0, 1.0 / abs(d))
    return (
        (n + m + 1) * log(b)
        + abs(d) * (t / 2.0 - stretch)
        + q * log(t / 2.0) - lgamma(q + 1)
        + (p + 1) * log(stretch) - lgamma(p + 2)
    )


def _working_digits(n, m, params):
    """mpmath digits for the closed form or recursion up to (n, m); None for float64.

    Raises MomentError, before any digits are spent, when the stripped
    I(n, m) certainly exceeds float64 (the digit count grows like |d| T).
    """
    if _log_stripped_lower(n, m, params) > _LOG_HUGEST:
        raise MomentError(f"stripped I({n}, {m}) exceeds float64")
    loss = _predicted_digit_loss(n, m, params)
    return None if loss <= _FLOAT_DIGIT_BUDGET else int(loss) + 30


def _neumaier_sum(terms):
    total = 0.0
    comp = 0.0
    for t in terms:
        s = total + t
        if abs(total) >= abs(t):
            comp += (total - s) + t
        else:
            comp += (t - s) + total
        total = s
    return total + comp


def _closed_terms(n, m, r, bt, e_plus, e_minus):
    """Yield all closed-form terms of the stripped value (generic arithmetic)."""
    for i in range(n + 1):
        yield e_plus * comb(m + n - i, m) * (-1) ** (n - i) * r ** (n + m - i + 1) * bt**i / factorial(i)
    for j in range(m + 1):
        yield e_minus * comb(m + n - j, n) * (-1) ** (n + 1) * r ** (n + m - j + 1) * bt**j / factorial(j)


def moment_closed(key, params):
    """Closed-form evaluation of I(n, m).

    Float64 with compensated summation, or mpmath when the predicted
    cancellation exceeds what float64 carries.
    """
    key = _as_key(key)
    n, m = key.n, key.m
    _require_b(params)
    if params.delta == 0.0:
        raise SymmetricLimitError("delta = 0: use moment_symmetric")
    if params.B == 0.0:
        return MomentValue(0.0, 0.0, "closed")

    dps = _working_digits(n, m, params)
    d, b, t = params.delta, params.B, params.T
    if dps is None:
        r = b / d
        bt = b * t
        e_plus = exp(d * t / 2.0)
        e_minus = exp(-d * t / 2.0)
        stripped = _neumaier_sum(_closed_terms(n, m, r, bt, e_plus, e_minus))
    else:
        import mpmath as mp

        with mp.workdps(dps):
            dm, bm, tm = mp.mpf(d), mp.mpf(b), mp.mpf(t)
            r = bm / dm
            bt = bm * tm
            e_plus = mp.exp(dm * tm / 2)
            e_minus = mp.exp(-dm * tm / 2)
            acc = mp.mpf(0)
            for term in _closed_terms(n, m, r, bt, e_plus, e_minus):
                acc += term
            stripped = float(acc)
    full = stripped * prefactor(params)
    return MomentValue(stripped, full, "closed")


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

    Requires delta != 0 (every rule divides by it).  Values are stripped of
    the common prefactor; the full value restores it.
    """
    _require_b(params)
    MomentKey(max_n, max_m)  # the same index limits as every other route
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

    dps = _working_digits(max_n, max_m, params)
    d, b, t = params.delta, params.B, params.T

    def fill(r, bt, e_plus, e_minus, fact):
        table = {}
        table[(0, 0)] = r * (e_plus - e_minus)
        for n in range(1, max_n + 1):
            table[(n, 0)] = r * (e_plus * bt**n / fact(n) - table[(n - 1, 0)])
        for m in range(1, max_m + 1):
            table[(0, m)] = r * (table[(0, m - 1)] - e_minus * bt**m / fact(m))
        for n in range(1, max_n + 1):
            for m in range(1, max_m + 1):
                table[(n, m)] = r * (table[(n, m - 1)] - table[(n - 1, m)])
        return table

    if dps is None:
        raw = fill(b / d, b * t, exp(d * t / 2.0), exp(-d * t / 2.0), factorial)
    else:
        import mpmath as mp

        with mp.workdps(dps):
            dm, bm, tm = mp.mpf(d), mp.mpf(b), mp.mpf(t)
            raw = fill(bm / dm, bm * tm, mp.exp(dm * tm / 2), mp.exp(-dm * tm / 2), mp.factorial)

    pref = prefactor(params)
    values = {
        nm: MomentValue(float(v), float(v) * pref, "recursive") for nm, v in raw.items()
    }
    return MomentTable(max_n, max_m, values)


def moment_quadrature(key, params):
    """Adaptive Gauss-Kronrod evaluation of I(n, m); the oracle route."""
    key = _as_key(key)
    n, m = key.n, key.m
    _require_b(params)
    if params.B == 0.0:
        return MomentValue(0.0, 0.0, "quadrature")
    d, b, t = params.delta, params.B, params.T
    fn, fm = float(factorial(n)), float(factorial(m))

    def integrand(u):
        return exp(d * u) * (t / 2.0 + u) ** n / fn * (t / 2.0 - u) ** m / fm

    try:
        out = quad(integrand, -t / 2.0, t / 2.0, epsabs=0.0, epsrel=1e-12, limit=200, full_output=1)
        weight = b ** (n + m + 1)
    except OverflowError:
        raise MomentError(f"I({n}, {m}) overflows float64 in quadrature") from None
    val, abserr = out[0], out[1]
    if len(out) > 3 or (val != 0.0 and abserr > 1e-10 * abs(val)):
        raise QuadratureError("quadrature did not converge", abserr)
    stripped = weight * val
    return MomentValue(stripped, stripped * prefactor(params), "quadrature")


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

    Direct quadrature below |delta| T = 0.1, where the closed form cancels;
    above it the closed form (escalating to mpmath where float64 would cancel).
    """
    if i < 0:
        raise MomentParameterError("i", "i must be >= 0")
    _require_b(params)
    if abs(params.delta) * params.T < 1e-1:
        return moment_quadrature(MomentKey(i, i), params)
    return moment_closed(MomentKey(i, i), params)


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
