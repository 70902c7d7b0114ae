"""Polynomial double-well potentials: minima, curvatures, tunneling action.

Units: hbar = 1, particle mass = 1.  The harmonic frequency of a well is
omega = sqrt(V'') and its ground level omega/2.  The tunneling suppression
exponent between two degenerate minima x0 < x1 is the zero-energy action

    S = integral_{x0}^{x1} sqrt(2 (V(x) - V(x0))) dx.

Every value of V, V' and V'' comes from one Horner routine, _horner, with
the bits of numpy's polyval, and the stationary points that find_minima and
instanton_action read from one companion-matrix solve, _stationary_points,
with the bits of polyroots; numpy.polynomial is not used.
numpy is imported by the functions that compute with it, and the
Gauss-Legendre rules, which instanton_action shares with
moments.moment_quadrature, are built on first use, so importing the module
(and every command that only reads WellParameters) loads neither.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cache, reduce
from math import exp, isfinite, sqrt

# Relative disagreement of the two rules beyond which the action is refused.
_ACTION_RTOL = 1e-10
# V'' at a stationary point counts as zero below this fraction of the size of
# its terms, and V as level to this fraction of the size of its terms.
_CURVATURE_RTOL = 1e-6
_LEVEL_RTOL = 1e-12


class ComputationError(Exception):
    """A package computation failed: the base of each module's own error class.

    The CLI catches this one class, so it can report a failure of any module
    without importing the modules that its command never ran.
    """


class PotentialError(ComputationError):
    """Base error for potential analysis."""


class NoWellsError(PotentialError):
    """No minima found ("no wells")."""


class RootRefinementError(PotentialError):
    """Newton polishing failed; carries the last iterate."""

    def __init__(self, message, last_iterate):
        super().__init__(f"{message} (last iterate {last_iterate!r})")
        self.last_iterate = last_iterate


class AsymmetricDepthsError(PotentialError):
    """The two wells are not degenerate in energy."""


class ParameterError(ValueError):
    """A well parameter outside its domain; `parameter` names it."""

    def __init__(self, parameter, message):
        super().__init__(message)
        self.parameter = parameter


def _integral(value):
    """value as an int when it is integral (2, 2.0, a numpy integer), else None."""
    try:
        return operator.index(value)
    except TypeError:
        if isinstance(value, float) and value.is_integer():
            return int(value)
        return None


def _check_parameter(name, value, positive, error=ParameterError):
    if not isfinite(value):
        raise error(name, f"{name} must be finite, got {value!r}")
    if positive and not value > 0:
        raise error(name, f"{name} must be positive")
    if not positive and value < 0:
        raise error(name, f"{name} must be >= 0")


@dataclass(frozen=True)
class PolynomialPotential:
    """Confining real polynomial V(x) = sum_k coefficients[k] x^k."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        degree = len(coeffs) - 1
        while degree > 0 and coeffs[degree] == 0.0:
            degree -= 1
        if degree < 4 or degree % 2 != 0:
            raise PotentialError(f"degree must be even and >= 4, got {degree}")
        if coeffs[degree] <= 0.0:
            raise PotentialError("leading coefficient must be positive")
        if not all(isfinite(c * degree * degree) for c in coeffs):
            raise PotentialError("coefficients must be finite, and so must those of V''")

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def __call__(self, x):
        return _horner(self.coefficients, x)

    def derivative(self, x, order=1):
        return _horner(_derivative(self.coefficients, order), x)


@dataclass(frozen=True)
class WellMinimum:
    """A stationary point of V classified as a local minimum."""

    location: float
    value: float
    curvature: float
    frequency: float
    harmonic: bool = True


@dataclass(frozen=True)
class WellParameters:
    """Reduced parameter set feeding every amplitude formula.

    delta = (omega0 - omega1)/2 is derived, never supplied; it may be
    negative.  Either B or the pair (K, s_inst) may be given; the missing
    side is derived (B = K exp(-s_inst)) or left as None.  Every given
    value must be finite; a bad one raises ParameterError naming it.
    """

    omega0: float
    omega1: float
    T: float
    B: float = None
    K: float = None
    s_inst: float = None
    delta: float = field(init=False)

    def __post_init__(self):
        for name in ("omega0", "omega1", "T"):
            _check_parameter(name, getattr(self, name), positive=True)
        for name in ("B", "K", "s_inst"):
            if getattr(self, name) is not None:
                _check_parameter(name, getattr(self, name), positive=False)
        object.__setattr__(self, "delta", (self.omega0 - self.omega1) / 2.0)
        derived = None
        if self.K is not None and self.s_inst is not None:
            derived = self.K * exp(-self.s_inst)
        if self.B is None:
            object.__setattr__(self, "B", derived)
        elif derived is not None:
            tol = 1e-12 * max(abs(self.B), abs(derived), 1e-300)
            if abs(self.B - derived) > tol:
                raise ParameterError(
                    "B",
                    f"inconsistent inputs: B={self.B!r} but K*exp(-s_inst)={derived!r}",
                )


def _derivative(coefficients, order=1):
    """The coefficients differentiated order times as numpy's polyder does it: k c_k, one order at a time."""
    if order < 0:
        raise ValueError("the order of derivation must be >= 0")
    for _ in range(order):
        coefficients = [k * c for k, c in enumerate(coefficients)][1:] or [0.0]
    return coefficients


def _horner(coefficients, x):
    """sum_k coefficients[k] x^k by Horner's rule, with the bits of numpy's polyval.

    x is a float, giving a float, or a float64 numpy array, giving an array
    of the values element by element; a list or tuple is converted to an
    array first, as polyval converts it.  The steps are polyval's: the
    leading coefficient plus x * 0, then c + value * x for each lower c.
    """
    if isinstance(x, (tuple, list)):
        import numpy as np

        x = np.asarray(x)
    value = coefficients[-1] + x * 0
    for c in coefficients[-2::-1]:
        value = c + value * x
    return value


def _stationary_points(potential):
    """The real roots of V', ascending: the stationary points of V.

    Trailing zero coefficients of V' are trimmed and the roots are the
    eigenvalues of its companion matrix as numpy's polyroots forms it (not
    rotated, last column 0 - c_k / c_lead), so they have polyroots' bits.  A
    root is real when its imaginary part is at most 1e-9 (1 + |z|).  Raises
    PotentialError when the matrix is not finite or the solver fails.
    """
    import numpy as np

    slope = _derivative(potential.coefficients)
    while slope[-1] == 0.0:
        slope.pop()
    lead = slope.pop()
    companion = np.eye(len(slope), k=-1)
    companion[:, -1] = [0.0 - c / lead for c in slope]
    try:
        roots = np.linalg.eigvals(companion).tolist()
    except np.linalg.LinAlgError:
        raise PotentialError("cannot locate the stationary points of V in float64") from None
    return sorted(z.real for z in roots if abs(z.imag) <= 1e-9 * (1.0 + abs(z)))


def _merge_close(values, radius):
    merged = []
    for v in sorted(values):
        if merged and abs(v - merged[-1][-1]) <= radius(v):
            merged[-1].append(v)
        else:
            merged.append([v])
    # np.mean's bits: a sum in order from 0.0 (the builtin sum compensates from Python 3.12 on)
    return [reduce(operator.add, group, 0.0) / len(group) for group in merged]


def find_minima(potential):
    """Locate the local minima of the potential.

    Stationary points come from _stationary_points, harmonic
    ones (V'' > 1e-6 times the size of its terms) are polished by Newton
    iteration on V', and degenerate ones (e.g. a quartic-bottom well) are
    kept but flagged non-harmonic.  Maxima and inflections are dropped.
    Both tests are relative, so scaling V or x classifies alike.
    Returns minima sorted by location; raises NoWellsError if none remain.
    """
    d2coeffs = _derivative(potential.coefficients, 2)
    harmonic_pts = []
    flat_pts = []
    for x in _stationary_points(potential):
        if _horner(d2coeffs, x) > _CURVATURE_RTOL * _term_size(d2coeffs, x):
            harmonic_pts.append(x)
        else:
            flat_pts.append(x)

    # Multiple roots of V' scatter by ~eps^(1/multiplicity), far wider than
    # the 1e-8 radius used for simple minima.
    harmonic_pts = _merge_close(harmonic_pts, lambda v: 1e-8)
    flat_pts = _merge_close(flat_pts, lambda v: 1e-5 * (1.0 + abs(v)))
    stationary = harmonic_pts + flat_pts

    found = [(_newton_polish(potential, x), True) for x in harmonic_pts]
    found += [(x, False) for x in flat_pts if _is_local_minimum(potential, x, stationary)]
    if not found:
        raise NoWellsError("no wells")
    minima = []
    for x, harmonic in found:
        curv = _horner(d2coeffs, x)
        curv = curv if harmonic else max(curv, 0.0)
        minima.append(WellMinimum(x, potential(x), curv, sqrt(curv), harmonic))
    return sorted(minima, key=lambda w: w.location)


def _newton_polish(potential, x, max_iter=60):
    for i in range(max_iter + 1):
        g = potential.derivative(x)
        h = potential.derivative(x, 2)
        if abs(g) <= 1e-12 * max(1.0, abs(h) * abs(x)):
            return x
        if h == 0.0 or i == max_iter:
            break
        x = x - g / h
    raise RootRefinementError("Newton polishing did not converge", x)


def _term_size(coefficients, x):
    """sum_k |c_k x^k|: the size of the terms of the polynomial at x."""
    return _horner([abs(c) for c in coefficients], abs(x))


def _is_local_minimum(potential, x, stationary):
    """V(x -+ step) >= V(x) up to rounding.

    The step is half the distance to the nearest other stationary point:
    V is monotone out to there on both sides, whatever the scale of the well.
    """
    gaps = [abs(p - x) for p in stationary if p != x]
    if not gaps:
        return True  # the only stationary point of a confining V is its minimum
    step = 0.5 * min(gaps)
    floor = potential(x) - _LEVEL_RTOL * _term_size(potential.coefficients, abs(x) + step)
    return potential(x - step) >= floor and potential(x + step) >= floor


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, in the dtype of x."""
    p0, p1 = 1, x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1)


@cache
def _gauss_rule(n):
    """The n-node Gauss-Legendre rule on [-1, 1]: ascending nodes and weights.

    Built on first use, since building it costs more than an integration
    with it.  The nodes x >= 0 start from Tricomi's asymptotic form and take
    two Newton steps on the recurrence in float64 and one in np.longdouble.
    The weights 2 / ((1 - x^2) P_n'(x)^2) are then taken to first order in
    the residual P_n/P_n' left by the rounding of x, whose effect grows like
    1/(1 - x^2) towards the ends.  For the rules used here (64 to 128
    nodes) nodes and weights come out correctly rounded; numpy's
    leggauss(128) is off by up to 1.4e-11 in its weights.
    """
    import numpy as np

    k = np.arange(1, (n + 1) // 2 + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * n + 2)) * (1 - (n - 1) / (8.0 * n**3))
    for _ in range(2):
        p, dp = _legendre(n, x)
        x = x - p / dp
    x = x.astype(np.longdouble)
    p, dp = _legendre(n, x)
    x -= p / dp
    p, dp = _legendre(n, x)
    one_minus_x2 = (1 - x) * (1 + x)
    w = 2 / (one_minus_x2 * dp * dp) * (1 + 2 * x * (p / dp) / one_minus_x2)
    middle = n % 2  # an odd rule has the node 0 once
    nodes = np.concatenate((-x, x[::-1][middle:])).astype(float)
    weights = np.concatenate((w, w[::-1][middle:])).astype(float)
    return nodes, weights


def _gauss_legendre(f, a, b, n):
    nodes, weights = _gauss_rule(n)
    half = 0.5 * (b - a)
    return half * float(weights @ f(0.5 * (a + b) + half * nodes))


def instanton_action(potential, x0, x1):
    """Zero-energy tunneling action between degenerate minima x0 < x1.

    Between degenerate minima V - floor = (x-x0)^2 (x1-x)^2 q(x) with q > 0,
    so the integrand sqrt(2 (V - floor)) is analytic on [x0, x1] and fixed
    Gauss-Legendre quadrature converges exponentially.  The 128-node value
    is returned.  PotentialError is raised when the potential dips below the
    floor between the minima, or when the 64-node rule differs from it by
    more than 1e-10 relative (q nearly vanishes inside the interval, or an
    endpoint is not a minimum).
    """
    import numpy as np

    if not x0 < x1:
        raise PotentialError("need x0 < x1")
    floor = 0.5 * (potential(x0) + potential(x1))

    # V - floor is least and greatest on [x0, x1] at an end or at a stationary point between them
    points = [x0, x1, *(x for x in _stationary_points(potential) if x0 < x < x1)]
    depth = [potential(x) - floor for x in points]
    scale = max(1.0, *depth)
    if min(depth) < -1e-10 * scale:
        raise PotentialError("potential dips below well floor")

    def integrand(x):
        return np.sqrt(2.0 * np.maximum(potential(x) - floor, 0.0))

    coarse = _gauss_legendre(integrand, x0, x1, 64)
    fine = _gauss_legendre(integrand, x0, x1, 128)
    if abs(fine - coarse) > _ACTION_RTOL * abs(fine):
        raise PotentialError(
            f"action not resolved: the 64- and 128-node rules differ by "
            f"{abs(fine - coarse) / abs(fine):.1e} relative"
        )
    return fine


def well_parameters(potential, left, right, K=None, T=1.0):
    """Assemble WellParameters from two located minima of the potential.

    Both minima must be harmonic and degenerate in energy; omega0 belongs
    to the left well and omega1 to the right, so delta = (omega0-omega1)/2
    carries the sign of the curvature difference.  B is derived from K via
    the tunneling action when K is given, otherwise left absent.
    """
    if not (left.harmonic and right.harmonic):
        raise PotentialError("non-harmonic minimum: frequencies undefined")
    tol = 1e-9 * max(1.0, abs(left.value), abs(right.value))
    if abs(left.value - right.value) > tol:
        raise AsymmetricDepthsError("asymmetric depths unsupported")
    s = instanton_action(potential, left.location, right.location)
    return WellParameters(
        omega0=left.frequency,
        omega1=right.frequency,
        T=T,
        K=K,
        s_inst=s,
    )


def __getattr__(name):
    # `potential.quad` is read and patched by the benchmark's layer tracer
    # (perfbench/layertrace.py); the module itself no longer calls it.
    if name == "quad":
        from scipy.integrate import quad

        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
