"""Summed dilute-gas spectrum: the two lowest levels and their gap.

Summing all multi-event contributions collapses the well-to-well amplitude
into a single pair of exponentials,

    sum_i M_i = C (e^(-E+ T) - e^(-E- T)),    C = 1 / (2 sqrt(1 + (d/2B)^2)),

with level energies

    E_pm = (w0 + w1)/4  -+  sqrt(d^2/4 + B^2),      d = (w0 - w1)/2,

identical to the eigenvalues of the two-state matrix [[w0/2, B], [B, w1/2]].
The gap sqrt(d^2 + 4 B^2) reduces to 2B for equal curvatures and to the
bare level offset |d| when tunneling is negligible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import exp, expm1, hypot, sqrt
from typing import NamedTuple

from .potential import ComputationError, ParameterError, _integral


class SpectrumError(ComputationError, ArithmeticError):
    """A spectrum quantity is not representable in float64, or fails its self-check."""


class SpectrumParameterError(ParameterError, SpectrumError):
    """An argument outside its domain, or absent; `parameter` names it.

    ParameterError comes first: ArithmeticError's own __init__ would otherwise
    take the arguments and leave `parameter` unset."""


def _require_b(params):
    if params.B is None:
        raise SpectrumParameterError("B", "params.B required (supply B or the pair K, s_inst)")


@dataclass(frozen=True)
class SpectrumResult:
    """Two-level energies, their gap, and the summed amplitude coefficient."""

    e_plus: float
    e_minus: float
    gap: float
    amplitude_coefficient: float

    def __post_init__(self):
        if self.e_plus > self.e_minus:
            raise SpectrumParameterError("e_plus", "e_plus must not exceed e_minus")


def _amplitude_coefficient(delta, b):
    if delta == 0.0:
        return 0.5
    if b == 0.0:
        return 0.0
    ratio = delta / (2.0 * b)
    try:
        return 0.5 / sqrt(1.0 + ratio**2)
    except OverflowError:  # ratio^2 beyond float64, where sqrt(1 + ratio^2) is |ratio|
        return 0.5 / abs(ratio)


def _levels(omega0, omega1, coupling):
    """E+ <= E- of [[w0/2, B], [B, w1/2]], and the root sqrt(d^2/4 + B^2).

    E+ = mean - root cancels where root nears mean (e.g. w1 >> w0); there it
    is taken from the product E+ E- = w0 w1/4 - B^2, each term divided by
    mean + root first so that nothing overflows.
    """
    mean = (omega0 + omega1) / 4.0
    root = hypot((omega0 - omega1) / 4.0, coupling)
    e_plus = mean - root
    if abs(e_plus) < mean / 10.0:
        lo, hi = sorted((omega0, omega1))
        total = mean + root
        e_plus = (lo / 2.0) * ((hi / 2.0) / total) - coupling * (coupling / total)
    return e_plus, mean + root, root


def energies(params):
    """Level energies E_pm and gap for the given well parameters.

    The energies are read off the amplitude exponents and do not depend on
    the observation time T.  When both B and (K, s_inst) are known the two
    algebraically identical gap expressions are evaluated as a self-check.
    B = 0 takes the exact decoupled branch: the bare harmonic levels.
    """
    _require_b(params)
    b = params.B
    w0, w1, d = params.omega0, params.omega1, params.delta
    if b == 0.0 and d == 0.0:
        # degenerate doublet: coincident levels rather than an error
        level = w0 / 2.0
        return SpectrumResult(level, level, 0.0, _amplitude_coefficient(d, b))
    if b == 0.0:
        lo, hi = min(w0, w1) / 2.0, max(w0, w1) / 2.0
        return SpectrumResult(lo, hi, hi - lo, 0.0)
    e_plus, e_minus, root = _levels(w0, w1, b)
    gap = 2.0 * root
    if params.K is not None and params.s_inst is not None:
        alt = hypot((w1 - w0) / 2.0, 2.0 * params.K * exp(-params.s_inst))
        if abs(alt - gap) > 1e-10 * max(gap, 1e-300):
            raise SpectrumError(
                f"gap self-check failed: {gap!r} vs {alt!r} from (K, s_inst)"
            )
    return SpectrumResult(e_plus, e_minus, gap, _amplitude_coefficient(d, b))


def gas_sum_closed(params):
    """Closed form of the summed well-to-well amplitude at time T.

    Returns C (e^(-E+ T) - e^(-E- T)); identically 0 when B = 0 (no
    tunneling path connects the wells).  It is evaluated as
    -C e^(-E+ T) expm1(-gap T), which does not cancel at small T.  Raises
    SpectrumError when e^(-E+ T) overflows float64.
    """
    _require_b(params)
    if params.B == 0.0:
        return 0.0
    res = energies(params)
    c = res.amplitude_coefficient
    try:
        grow = exp(-res.e_plus * params.T)
    except OverflowError:
        raise SpectrumError(
            f"e^(-E+ T) overflows float64 at E+ T = {res.e_plus * params.T!r}"
        ) from None
    return -c * grow * expm1(-res.gap * params.T)


def gas_sum_partial(params, n_terms):
    """Partial sum of the multi-event contributions M_i = I(i, i), i < n_terms.

    n_terms, an integer from 1 to DEPTH_CAP + 1, is checked before any term
    is evaluated.  The terms are moments._diagonal's: each is
    multi_instanton(i, params).full, bit for bit, or 0.0 where a bound puts
    it below the smallest float64, which keeps large T finite and fast.
    Returns (sum, terms).
    """
    # Imported here, once per sum: at module level every `spectrum` command
    # would load moments.
    from . import moments

    _require_b(params)
    count = _integral(n_terms)
    if count is None:
        raise SpectrumParameterError("n_terms", f"n_terms must be an integer, got {n_terms!r}")
    if count < 1:
        raise SpectrumParameterError("n_terms", "n_terms must be >= 1")
    if count > moments.DEPTH_CAP + 1:
        raise SpectrumParameterError(
            "n_terms",
            f"n_terms must be <= {moments.DEPTH_CAP + 1}: I(i, i) is capped at i = {moments.DEPTH_CAP}",
        )
    terms = list(islice(moments._diagonal(params), count))
    total = 0.0
    for t in terms:
        total += t
    return total, terms


def truncated_hamiltonian(omega0, omega1, coupling):
    """Eigenvalues of the two-state matrix [[w0/2, B'], [B', w1/2]].

    Evaluated by the same stable formula as energies(), with which it
    coincides at B = B'.
    """
    if coupling < 0:
        raise SpectrumParameterError("coupling", "coupling must be >= 0")
    e_plus, e_minus, root = _levels(omega0, omega1, coupling)
    delta = (omega0 - omega1) / 2.0
    return SpectrumResult(e_plus, e_minus, 2.0 * root, _amplitude_coefficient(delta, coupling))


class CouplingEstimate(NamedTuple):
    """Extracted tunneling matrix element, with the clamp flag."""

    b_prime: float
    asymmetry_dominated: bool


def extract_coupling(measured_gap, omega0, omega1):
    """Invert the gap formula for the coupling B'.

    B' = sqrt(max(gap^2 - (w1-w0)^2/4, 0)) / 2; a gap at (or below) the
    bare level offset clamps to 0 and is flagged asymmetry-dominated.
    """
    if measured_gap < 0:
        raise SpectrumParameterError("measured_gap", "measured_gap must be >= 0")
    try:
        disc = measured_gap**2 - (omega1 - omega0) ** 2 / 4.0
    except OverflowError:  # a square beyond float64: factor the difference of squares
        offset = abs(omega1 - omega0) / 2.0
        if measured_gap <= offset:
            return CouplingEstimate(0.0, True)
        return CouplingEstimate(0.5 * sqrt(measured_gap - offset) * sqrt(measured_gap + offset), False)
    if disc <= 0.0:
        return CouplingEstimate(0.0, True)
    return CouplingEstimate(0.5 * sqrt(disc), False)
