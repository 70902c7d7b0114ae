"""Exact-rational verification of the coefficient triangle.

Every stripped integral I(n, m) is a finite combination of the basis terms
e^(+dT/2) (BT)^j / j!  and  e^(-dT/2) (BT)^j / j!  whose weights are, for a
fixed exact ratio r = B/d, exact rational numbers.  Arranged by n+m the
integrals form a triangle in which each entry is r times the difference of
the two entries above it; walking the triangle proves the closed form and
a family of column-sum identities by pure arithmetic.

Column sums here always carry an explicit number of included column terms.
Deeper entries contribute to every basis index, so no coefficient is ever
final at finite depth; the identities are instead exact once the
truncations of both sides are aligned (shifting a column start by s steps
shifts the matching term count by s).  The reported `complete` flags are a
float-level statement: the geometric tail bound (term ratio 4 r^2, valid
for |r| < 1/2) no longer moves the float64 value.

Every column sum comes from one table per triangle: the prefix sums of
both branches along each diagonal (n-k, m-k), k >= 0, held as Python ints
scaled by the common denominator of the coefficients (q^(depth+1) for
r = p/q).  A truncated column sum of `count` terms starting at (n, m) is
the difference of the rows (n+count-1, m+count-1) and (n-1, m-1), and each
identity is checked exactly by cross-multiplying with p and q, e.g.
q S = p (S_a - S_b) for S = r (S_a - S_b).  column_coefficients and
central_sequence divide by the scale to return Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import comb, exp, factorial, isfinite, lcm, sqrt

from .potential import ComputationError, ParameterError, _integral

DEPTH_CAP = 24

_SIGNS = ("+", "-")


class TriangleError(ComputationError):
    """Base error for triangle construction and verification."""


class StabilizationError(TriangleError):
    """A requested coefficient is not computable at the built depth."""


class TriangleParameterError(ParameterError, TriangleError):
    """An argument outside its domain; `parameter` names it."""


def _as_ratio(value):
    if isinstance(value, float):
        raise TriangleParameterError("ratio", "exact ratio required: floats are rejected")
    if isinstance(value, Fraction):
        ratio = value
    elif isinstance(value, int):
        ratio = Fraction(value)
    elif isinstance(value, str):
        ratio = Fraction(value)
    else:
        raise TriangleParameterError("ratio", f"cannot interpret {value!r} as an exact ratio")
    if ratio == 0:
        raise TriangleParameterError("ratio", "ratio must be nonzero")
    return ratio


@dataclass(frozen=True)
class BasisCoefficient:
    """Weight of one basis term e^(sign dT/2) (BT)^j / j!."""

    sign: str
    j: int
    weight: Fraction

    def __post_init__(self):
        if self.sign not in _SIGNS:
            raise TriangleError(f"sign must be '+' or '-', got {self.sign!r}")
        if self.j < 0:
            raise TriangleError("j must be non-negative")
        if isinstance(self.weight, float):
            raise TriangleError("weights are exact rationals; floats are rejected")
        object.__setattr__(self, "weight", Fraction(self.weight))


@dataclass(frozen=True)
class CoefficientTriangle:
    """All entries with n+m <= depth at a fixed exact ratio r = B/d."""

    depth: int
    ratio: Fraction
    _plus: dict
    _minus: dict

    def entry(self, n, m):
        """Nonzero basis coefficients of I(n, m), plus branch first."""
        self._check_key(n, m)
        out = [
            BasisCoefficient("+", j, w)
            for j, w in enumerate(self._plus[(n, m)])
            if w != 0
        ]
        out += [
            BasisCoefficient("-", j, w)
            for j, w in enumerate(self._minus[(n, m)])
            if w != 0
        ]
        return out

    def branch(self, n, m, sign):
        self._check_key(n, m)
        store = self._plus if sign == "+" else self._minus
        return store[(n, m)]

    def evaluate(self, n, m, B, delta, T):
        """Float value of the stripped I(n, m) from the exact coefficients.

        B/delta must match the construction ratio (checked loosely: the
        caller usually holds floats).
        """
        if abs(B / delta - float(self.ratio)) > 1e-9 * abs(float(self.ratio)):
            raise TriangleError("B/delta does not match the triangle ratio")
        self._check_key(n, m)
        ep, em = exp(delta * T / 2.0), exp(-delta * T / 2.0)
        bt = B * T
        total = 0.0
        for j, w in enumerate(self._plus[(n, m)]):
            total += float(w) * ep * bt**j / factorial(j)
        for j, w in enumerate(self._minus[(n, m)]):
            total += float(w) * em * bt**j / factorial(j)
        return total

    def _check_key(self, n, m):
        if n < 0 or m < 0 or n + m > self.depth:
            raise TriangleError(f"entry ({n},{m}) outside depth {self.depth}")


def build_triangle(depth, ratio):
    """Populate the triangle row by row from the boundary and interior rules."""
    if depth < 0 or depth > DEPTH_CAP:
        raise TriangleParameterError("depth", f"depth must be in [0, {DEPTH_CAP}]")
    r = _as_ratio(ratio)
    zero = Fraction(0)
    plus = {(0, 0): (r,)}
    minus = {(0, 0): (-r,)}
    for total in range(1, depth + 1):
        for n in range(total + 1):
            m = total - n
            if m == 0:
                pp, mm = plus[(n - 1, 0)], minus[(n - 1, 0)]
                plus[(n, 0)] = tuple(-r * w for w in pp) + (r,)
                minus[(n, 0)] = tuple(-r * w for w in mm)
            elif n == 0:
                pp, mm = plus[(0, m - 1)], minus[(0, m - 1)]
                plus[(0, m)] = tuple(r * w for w in pp)
                minus[(0, m)] = tuple(r * w for w in mm) + (-r,)
            else:
                pa, pb = plus[(n, m - 1)], plus[(n - 1, m)]
                plus[(n, m)] = tuple(
                    r * (pa[j] - (pb[j] if j < len(pb) else zero))
                    for j in range(n + 1)
                )
                ma, mb = minus[(n, m - 1)], minus[(n - 1, m)]
                minus[(n, m)] = tuple(
                    r * ((ma[j] if j < len(ma) else zero) - mb[j])
                    for j in range(m + 1)
                )
    return CoefficientTriangle(depth=depth, ratio=r, _plus=plus, _minus=minus)


def _index(name, value):
    index = _integral(value)
    if index is None or index < 0:
        raise TriangleParameterError(name, f"{name} must be a non-negative integer, got {value!r}")
    return index


def closed_form_coefficients(key, ratio):
    """Coefficient multiset of the path-counting closed form for one entry.

    The (BT)^i/i! ladder with binomials C(m+n-i, m) and signs (-1)^(n-i)
    sits on the e^(+dT/2) branch; the j-ladder with C(m+n-j, n) and sign
    (-1)^(n+1) on the e^(-dT/2) branch.  Integral indices of any type are
    taken as ints; a negative or non-integral one raises
    TriangleParameterError naming n or m.
    """
    n, m = (key.n, key.m) if hasattr(key, "n") else key
    n, m = _index("n", n), _index("m", m)
    r = _as_ratio(ratio)
    out = [
        BasisCoefficient("+", i, comb(m + n - i, m) * (-1) ** (n - i) * r ** (n + m - i + 1))
        for i in range(n + 1)
    ]
    out += [
        BasisCoefficient("-", j, comb(m + n - j, n) * (-1) ** (n + 1) * r ** (n + m - j + 1))
        for j in range(m + 1)
    ]
    return out


class _DiagonalSums:
    """Prefix sums of both branches along every diagonal, as scaled ints.

    Row (n, m) of a branch holds the sum of the entries (n-k, m-k), k >= 0,
    each coefficient times `scale`, the common denominator of the triangle.
    Rows are zero-padded to depth + 2 coefficients, one more than an entry
    holds, so that every index a column identity reads is in range.
    """

    def __init__(self, triangle):
        stores = (triangle._plus, triangle._minus)
        self.scale = lcm(*(w.denominator for store in stores for row in store.values() for w in row))
        self._zero = [0] * (triangle.depth + 2)
        self._rows = ({}, {})
        for store, rows in zip(stores, self._rows):
            for total in range(triangle.depth + 1):
                for n in range(total + 1):
                    m = total - n
                    entry = [w.numerator * (self.scale // w.denominator) for w in store[(n, m)]]
                    below = rows.get((n - 1, m - 1), self._zero)
                    rows[(n, m)] = [a + b for a, b in zip_longest(entry, below, fillvalue=0)]

    def column(self, branch, n, m, count, j):
        """Scaled coefficient j of sum_{k<count} I(n+k, m+k); branch 0 is +, 1 is -."""
        rows = self._rows[branch]
        return rows[(n + count - 1, m + count - 1)][j] - rows.get((n - 1, m - 1), self._zero)[j]

    def exact(self, branch, n, m, count, j):
        return Fraction(self.column(branch, n, m, count, j), self.scale)


def _max_count(triangle, n, m):
    """Largest number of column terms the built depth supports."""
    c = (triangle.depth - n - m) // 2 + 1
    return max(c, 0)


@dataclass(frozen=True)
class ColumnCoefficients:
    """Basis coefficients of a truncated column sum starting at (n, m)."""

    n: int
    m: int
    order: int
    plus_coeffs: tuple
    minus_coeffs: tuple
    complete: tuple


def column_coefficients(triangle, n, m, order):
    """Sum the column entries (n+i, m+i) for i = 0..order.

    Reports the first `order` basis coefficients of each branch together
    with per-coefficient completeness flags (whether the omitted tail can
    still move the float value; decidable only for |ratio| < 1/2).
    """
    if order < 1:
        raise TriangleError("order must be >= 1")
    if (n + order) + (m + order) > triangle.depth:
        raise TriangleError("column exceeds triangle depth")
    count = order + 1
    sums = _DiagonalSums(triangle)
    plus = [sums.exact(0, n, m, count, j) for j in range(order)]
    minus = [sums.exact(1, n, m, count, j) for j in range(order)]

    r = triangle.ratio
    q = 4.0 * float(r) ** 2
    flags = []
    next_plus = {c.j: c.weight for c in closed_form_coefficients((n + count, m + count), r) if c.sign == "+"}
    next_minus = {c.j: c.weight for c in closed_form_coefficients((n + count, m + count), r) if c.sign == "-"}
    for j in range(order):
        if q >= 1.0:
            flags.append(False)
            continue
        tail = (abs(float(next_plus.get(j, 0))) + abs(float(next_minus.get(j, 0)))) / (1.0 - q)
        base = max(abs(float(plus[j])), abs(float(minus[j])), 1e-300)
        flags.append(tail <= 1e-15 * base)
    return ColumnCoefficients(
        n=n,
        m=m,
        order=order,
        plus_coeffs=tuple(plus),
        minus_coeffs=tuple(minus),
        complete=tuple(flags),
    )


def central_sequence(triangle, order):
    """Central-column coefficients a_i (both branches) as exact rationals.

    a_i is the coefficient of (BT)^i/i! in the diagonal sum over I(k, k),
    truncated as deep as the triangle allows: the truncations decrease by
    one per index, which is exactly the alignment under which the
    recurrence a_{i+1} = a_{i-1} -+ (d/B) a_i is an exact identity.
    """
    half = triangle.depth // 2
    if order > half:
        raise StabilizationError(
            f"coefficient a_{half + 1} is not stabilized at depth {triangle.depth}"
        )
    sums = _DiagonalSums(triangle)
    return tuple(
        tuple(sums.exact(branch, i, i, half - i + 1, i) for i in range(order + 1))
        for branch in (0, 1)
    )


@dataclass
class TriangleReport:
    """Outcome of the exact column-identity verification."""

    depth: int
    ratio: Fraction
    families: dict

    @property
    def total_checked(self):
        return sum(c for c, _ in self.families.values())

    @property
    def total_failures(self):
        return sum(f for _, f in self.families.values())


def verify_column_relations(triangle):
    """Exact verification of the four column-sum identity families.

    All comparisons are exact equalities between truncation-aligned column
    sums, cross-multiplied by p and q of the ratio r = p/q so that they stay
    in integers; the main-rule family includes the central-column
    recurrence it implies.
    """
    r = triangle.ratio
    p, q = r.numerator, r.denominator
    depth = triangle.depth
    jcap = depth // 2
    column = _DiagonalSums(triangle).column
    families = {}

    # subtraction rule: S_j(n,m) = r [S_j(n,m-1) - S_j(n-1,m)], same count
    checked = failed = 0
    for n in range(1, depth):
        for m in range(1, depth - n):
            count = _max_count(triangle, n, m)
            if count < 1:
                continue
            for branch in (0, 1):
                for j in range(jcap + 1):
                    checked += 1
                    s = column(branch, n, m, count, j)
                    sa = column(branch, n, m - 1, count, j)
                    sb = column(branch, n - 1, m, count, j)
                    if q * s != p * (sa - sb):
                        failed += 1
    families["subtraction"] = (checked, failed)

    # index shift: S_j^+(n,m) = S_{j+1}^+(n+1,m), same count
    checked = failed = 0
    for n in range(depth):
        for m in range(depth - n):
            count = _max_count(triangle, n + 1, m)
            if count < 1:
                continue
            for j in range(jcap + 1):
                checked += 1
                if column(0, n, m, count, j) != column(0, n + 1, m, count, j + 1):
                    failed += 1
    families["index-shift"] = (checked, failed)

    # off-diagonal rule: n < j  =>  S_j^+(n,m) = S_j^+(j, m+(j-n)), count
    # shifted down by j-n
    checked = failed = 0
    for n in range(depth):
        for m in range(depth - n):
            count = _max_count(triangle, n, m)
            for j in range(n + 1, jcap + 1):
                shift = j - n
                if count - shift < 1:
                    continue
                checked += 1
                if column(0, n, m, count, j) != column(0, j, m + shift, count - shift, j):
                    failed += 1
    families["off-diagonal"] = (checked, failed)

    # main rule on the diagonal start (j, m), both printed forms, plus the
    # central recurrence a_{i+1} = a_{i-1} -+ (d/B) a_i that follows at m=j
    checked = failed = 0
    for j in range(1, jcap + 1):
        for m in range(1, depth - j):
            count = _max_count(triangle, j, m + 1)
            if count < 2:
                continue
            lhs = column(0, j, m, count, j)
            s_left = column(0, j, m - 1, count, j)
            s_right = column(0, j, m + 1, count - 1, j)
            checked += 1
            if q * lhs != p * (s_left - s_right):
                failed += 1
            s_left2 = column(0, j - 1, m - 1, count, j - 1)
            s_right2 = column(0, j + 1, m + 1, count - 1, j + 1)
            checked += 1
            if q * lhs != p * (s_left2 - s_right2):
                failed += 1
    half = depth // 2
    for i in range(1, half):
        count = half - i + 1
        for branch, sign in ((0, -1), (1, 1)):
            a_prev = column(branch, i - 1, i - 1, count, i - 1)
            a_mid = column(branch, i, i, count, i)
            a_next = column(branch, i + 1, i + 1, count - 1, i + 1)
            checked += 1
            if p * a_next != p * a_prev + sign * q * a_mid:
                failed += 1
    families["main-rule"] = (checked, failed)

    return TriangleReport(depth=depth, ratio=r, families=families)


def series_a0_a1(x, terms):
    """Partial sums of the two diagonal-coefficient power series.

        a0 = sum_i C(2i, i) (-1)^i x^(2i+1)
        a1 = sum_{i>=1} C(2i-1, i-1) (-1)^(i-1) x^(2i)

    The series converge only for |x| < 1/2; outside that radius the partial
    sums are returned with converged=False (the closed forms remain valid
    as analytic continuations).
    """
    if terms < 1:
        raise TriangleParameterError("terms", "terms must be >= 1")
    x = float(x)
    a0 = 0.0
    a1 = 0.0
    t = x
    last0 = last1 = 0.0
    for i in range(terms):
        last0 = t
        a0 += t
        if i >= 1:
            last1 = -t / (2.0 * x) if x != 0.0 else 0.0
            a1 += last1
        t *= -(x * x) * 2.0 * (2 * i + 1) / (i + 1)
        if not isfinite(t):
            return a0, a1, False
    small0 = abs(last0) <= 1e-14 * max(abs(a0), 1e-300)
    small1 = abs(last1) <= 1e-14 * max(abs(a1), 1e-300)
    converged = abs(x) < 0.5 and small0 and small1
    return a0, a1, converged


def a0_closed_form(x):
    """Closed form of the a0 series: x / sqrt(1 + 4 x^2)."""
    x = float(x)
    return x / sqrt(1.0 + 4.0 * x * x)


def a1_closed_form(x):
    """Closed form of the a1 series: 1/2 - 1 / (2 sqrt(1 + 4 x^2))."""
    x = float(x)
    return 0.5 - 0.5 / sqrt(1.0 + 4.0 * x * x)


def exponential_split(x):
    """Resolve the diagonal coefficients into the two exponential modes.

    The recurrence a_{i+1} = a_{i-1} - a_i / x has the general solution
    C_plus alpha_plus^i + C_minus alpha_minus^i with

        alpha_pm = -1/(2x) +- sqrt(1 + 1/(4x^2));

    fixing (C_plus, C_minus) from the closed-form a0, a1 collapses one mode:
    C_minus = 0 for x > 0 and C_plus = 0 for x < 0.
    """
    x = float(x)
    if x == 0.0:
        raise TriangleParameterError("x", "x must be nonzero")
    s = sqrt(1.0 + 1.0 / (4.0 * x * x))
    alpha_plus = -1.0 / (2.0 * x) + s
    alpha_minus = -1.0 / (2.0 * x) - s
    a0 = a0_closed_form(x)
    a1 = a1_closed_form(x)
    c_plus = (a1 - a0 * alpha_minus) / (alpha_plus - alpha_minus)
    c_minus = (a0 * alpha_plus - a1) / (alpha_plus - alpha_minus)
    return c_plus, alpha_plus, c_minus, alpha_minus


def central_generating_sum(x, y, max_terms=400):
    """sum_i a_i y^i / i! with a_i generated from the closed a0, a1 by the
    recurrence a_{i+1} = a_{i-1} - a_i / x; converges superexponentially.

    The forward recurrence excites the discarded mode alpha_minus^i, so the
    loop runs in mpmath with working digits sized to the resulting amplification
    (about e^|alpha_minus y| relative to the sum).
    """
    import mpmath as mp

    x = float(x)
    if x == 0.0:
        raise TriangleParameterError("x", "x must be nonzero")
    alpha_big = abs(1.0 / (2.0 * x)) + sqrt(1.0 + 1.0 / (4.0 * x * x))
    dps = 40 + int(0.45 * alpha_big * max(abs(y), 1.0))
    with mp.workdps(dps):
        xm, ym = mp.mpf(x), mp.mpf(y)
        a_prev = xm / mp.sqrt(1 + 4 * xm * xm)
        a_cur = mp.mpf(1) / 2 - 1 / (2 * mp.sqrt(1 + 4 * xm * xm))
        total = a_prev + a_cur * ym
        yk = ym
        fact = mp.mpf(1)
        for i in range(2, max_terms):
            a_prev, a_cur = a_cur, a_prev - a_cur / xm
            yk *= ym
            fact *= i
            term = a_cur * yk / fact
            total += term
            if i > 8 and abs(term) <= mp.mpf(10) ** (-30) * max(abs(total), mp.mpf(10) ** -300):
                break
        return float(total)
