"""Polynomial double-well potentials: minima, curvatures, tunneling action.

Units: hbar = 1, particle mass = 1.  The harmonic frequency of a well is
omega = sqrt(V'') and its ground level omega/2.  The tunneling suppression
exponent between two degenerate minima x0 < x1 is the zero-energy action

    S = integral_{x0}^{x1} sqrt(2 (V(x) - V(x0))) dx.

Every value of V, V' and V'' comes from one Horner routine, _horner, with
the bits of numpy's polyval, and the stationary points that find_minima and
instanton_action read from one companion-matrix solve, _stationary_points,
with the bits of polyroots; numpy.polynomial is not used.
numpy is imported by the functions that compute with it, so importing the
module (and every command that only reads WellParameters) does not load
it.  The Gauss-Legendre rules, which instanton_action shares with
moments.moment_quadrature, are a table of constants.
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


class InconsistentParametersError(ParameterError):
    """Given values that contradict each other, such as B and K exp(-s_inst)."""


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
    value must be finite; a bad one raises ParameterError naming it, and a
    B that differs from K exp(-s_inst) InconsistentParametersError.
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
                raise InconsistentParametersError(
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


# The non-negative half of each Gauss-Legendre rule on [-1, 1] that the
# package uses: one line "x w" per node x >= 0, ascending, with its weight
# w; _gauss_rule says where the values come from.  They are text, which
# _gauss_rule parses, because every command imports this module and 288
# float literals would take a call that never integrates about 1 ms to
# compile where no bytecode is cached.
_GAUSS_HALVES = {
    64: """
        0.024350292663424433 0.048690957009139724
        0.07299312178779904 0.04857546744150343
        0.12146281929612056 0.048344762234802954
        0.16964442042399283 0.04799938859645831
        0.21742364374000708 0.04754016571483031
        0.2646871622087674 0.04696818281621002
        0.31132287199021097 0.046284796581314416
        0.3572201583376681 0.04549162792741814
        0.4022701579639916 0.044590558163756566
        0.4463660172534641 0.04358372452932345
        0.48940314570705296 0.04247351512365359
        0.5312794640198946 0.04126256324262353
        0.571895646202634 0.03995374113272034
        0.6111553551723933 0.038550153178615626
        0.6489654712546573 0.03705512854024005
        0.6852363130542333 0.035472213256882386
        0.7198818501716109 0.033805161837141606
        0.7528199072605319 0.03205792835485155
        0.7839723589433414 0.030234657072402478
        0.8132653151227975 0.028339672614259483
        0.8406292962525803 0.02637746971505466
        0.8659993981540928 0.024352702568710874
        0.8893154459951141 0.022270173808383253
        0.9105221370785028 0.02013482315353021
        0.9295691721319396 0.017951715775697343
        0.9464113748584028 0.015726030476024718
        0.9610087996520538 0.013463047896718643
        0.973326827789911 0.011168139460131128
        0.983336253884626 0.008846759826363947
        0.9910133714767443 0.006504457968978363
        0.9963401167719553 0.004147033260562468
        0.9993050417357722 0.001783280721696433
    """,
    96: """
        0.01627674484960297 0.03255061449236317
        0.04881298513604973 0.032516118713868836
        0.08129749546442556 0.03244716371406427
        0.11369585011066592 0.03234382256857593
        0.14597371465489695 0.03220620479403025
        0.17809688236761861 0.032034456231992664
        0.2100313104605672 0.03182875889441101
        0.24174315616384 0.03158933077072717
        0.27319881259104917 0.031316425596861354
        0.30436494435449635 0.031010332586313836
        0.3352085228926254 0.030671376123669148
        0.3656968614723136 0.030299915420827595
        0.3957976498289086 0.029896344136328384
        0.42547898840730053 0.029461089958167905
        0.454709422167743 0.028994614150555237
        0.48345797392059636 0.028497411065085385
        0.5116941771546677 0.027970007616848334
        0.5393881083243575 0.027412962726029243
        0.5665104185613972 0.02682686672559176
        0.593032364777572 0.026212340735672413
        0.6189258401254686 0.02557003600534936
        0.6441634037849671 0.02490063322248361
        0.6687183100439161 0.024204841792364692
        0.6925645366421715 0.02348339908592622
        0.7156768123489676 0.022737069658329372
        0.7380306437444001 0.02196664443874435
        0.7596023411766475 0.0211729398921913
        0.7803690438674332 0.020356797154333323
        0.8003087441391408 0.01951908114014502
        0.8194003107379316 0.018660679627411466
        0.8376235112281871 0.01778250231604526
        0.8549590334346014 0.016885479864245174
        0.8713885059092965 0.015970562902562293
        0.8868945174024204 0.015038721026994937
        0.9014606353158523 0.01409094177231486
        0.9150714231208981 0.013128229566961573
        0.9277124567223087 0.01215160467108832
        0.9393703397527552 0.011162102099838499
        0.9500327177844377 0.010160770535008416
        0.9596882914487426 0.009148671230783386
        0.9683268284632642 0.008126876925698759
        0.9759391745851365 0.007096470791153865
        0.9825172635630147 0.006058545504235961
        0.9880541263296237 0.005014202742927518
        0.9925439003237626 0.003964554338444687
        0.9959818429872093 0.0029107318179349465
        0.9983643758631817 0.0018539607889469217
        0.9996895038832307 0.0007967920655520124
    """,
    128: """
        0.012223698960615764 0.024446180196262518
        0.03666379096873349 0.024431569097850044
        0.06108196960413957 0.02440235563384958
        0.08546364050451549 0.024358557264690626
        0.10979423112764375 0.024300200167971867
        0.13405919946118777 0.02422731922281525
        0.15824404271422493 0.024139957989019287
        0.18233430598533718 0.024038168681024052
        0.2063155909020792 0.023922012136703457
        0.23017356422666 0.023791557781003402
        0.2538939664226943 0.023646883584447616
        0.2774626201779044 0.02348807601653591
        0.3008654388776772 0.02331522999406276
        0.32408843502441337 0.023128448824387027
        0.3471177285976355 0.022927844143686846
        0.369939555349859 0.02271353585023646
        0.39254027503326744 0.022485652032744968
        0.414906379552275 0.022244328893799764
        0.43702450103710416 0.02198971066846049
        0.4588814198335522 0.021721949538052076
        0.48046407240417205 0.02144120553920846
        0.5017595591361445 0.02114764646822135
        0.5227551520511755 0.02084144778075115
        0.5434383024128103 0.02052279248696007
        0.5637966482266181 0.020191871042130043
        0.5838180216287631 0.01984888123283086
        0.6034904561585486 0.019494028058706602
        0.6228021939105849 0.019127523609950944
        0.6417416925623075 0.01874958694054471
        0.660297632272646 0.01836044393733134
        0.6784589224477192 0.017960327185008687
        0.6962147083695144 0.017549475827117706
        0.7135543776835874 0.01712813542311138
        0.7304675667419088 0.016696557801589205
        0.746944166797062 0.016255000909785187
        0.7629743300440948 0.015803728659399347
        0.7785484755064119 0.015343010768865144
        0.7936572947621933 0.014873122602147314
        0.8082917575079137 0.014394345004166847
        0.8224431169556439 0.013906964132951985
        0.8361029150609068 0.013411271288616333
        0.8492629875779689 0.012907562739267348
        0.8619154689395485 0.012396139543950923
        0.8740527969580318 0.01187730737274028
        0.8856677173453972 0.011351376324080417
        0.8967532880491582 0.010818660739503076
        0.9073028834017568 0.010279479015832158
        0.9173101980809605 0.009734153415006806
        0.9267692508789478 0.009183009871660874
        0.9356743882779164 0.00862637779861675
        0.9440202878302202 0.008064589890486059
        0.9518019613412644 0.0074979819256347285
        0.9590147578536999 0.006926892566898814
        0.9656543664319652 0.006351663161707189
        0.9717168187471366 0.005772637542865698
        0.9771984914639074 0.00519016183267633
        0.9820961084357185 0.004604584256702955
        0.9864067427245862 0.004016254983738642
        0.9901278184917344 0.0034255260409102157
        0.9932571129002129 0.0028327514714579912
        0.9957927585349812 0.0022382884309626186
        0.997733248625514 0.0016425030186690294
        0.9990774599773758 0.0010458126793403489
        0.9998248879471319 0.00044938096029209035
    """,
}


def _gauss_rule(n):
    """The n-node Gauss-Legendre rule on [-1, 1]: ascending nodes and their
    weights, as two tuples of floats, for n = 64 and 128 (instanton_action)
    and 96 and 128 (moments.moment_quadrature).

    The rules are _GAUSS_HALVES mirrored about 0.  Each node and weight
    there is the exact one rounded once to float64: Newton's method on the
    Legendre recurrence P_n, from Tricomi's asymptotic form of the nodes,
    gives the node x at 50 digits in mpmath and the weight is
    2 / ((1 - x^2) P_n'(x)^2); tests/test_potential.py recomputes every
    entry so.  numpy's leggauss(128) is off by up to 1.4e-11 in its weights.
    """
    values = tuple(map(float, _GAUSS_HALVES[n].split()))
    nodes, weights = values[0::2], values[1::2]
    return tuple(-x for x in reversed(nodes)) + nodes, weights[::-1] + weights


@cache
def _gauss_arrays(n):
    """_gauss_rule(n) as two numpy arrays, built once for instanton_action."""
    import numpy as np

    return tuple(map(np.array, _gauss_rule(n)))


def _gauss_legendre(f, a, b, n):
    nodes, weights = _gauss_arrays(n)
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
