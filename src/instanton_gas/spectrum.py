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

from .potential import ComputationError, ParameterError, _check_parameter, _integral


class SpectrumError(ComputationError, ArithmeticError):
    """A spectrum quantity is not representable in float64."""


class SpectrumParameterError(ParameterError, SpectrumError):
    """An argument outside its domain, or absent; `parameter` names it.

    ParameterError comes first: ArithmeticError's own __init__ would otherwise
    take the arguments and leave `parameter` unset."""


def _require_b(params):
    if params.B is None:
        raise SpectrumParameterError("B", "params.B required (supply B or the pair K, s_inst)")


def _check_arguments(**arguments):
    """Refuse, naming it, a non-finite argument, an omega <= 0 or any other below 0."""
    for name, value in arguments.items():
        _check_parameter(name, value, name.startswith("omega"), SpectrumParameterError)


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


def _two_level(omega0, omega1, coupling):
    """Levels E+ <= E- of [[w0/2, B], [B, w1/2]], their gap, and the amplitude C.

    B = 0 gives the bare levels w/2 exactly.  The mean level sums the
    quarters, w0/4 + w1/4, so that w0 + w1 beyond float64 does not make it
    infinite (as in moments._decay).  E+ = mean - root cancels where
    root nears mean (e.g. w1 >> w0); there it is taken from the product
    E+ E- = w0 w1/4 - B^2, each term divided by mean + root first so that
    nothing overflows.
    """
    delta = (omega0 - omega1) / 2.0
    if coupling == 0.0:
        lo, hi = sorted((omega0 / 2.0, omega1 / 2.0))
        # coincident levels at delta = 0 are a degenerate doublet, not an error
        return SpectrumResult(lo, hi, hi - lo, 0.5 if delta == 0.0 else 0.0)
    mean = omega0 / 4.0 + omega1 / 4.0
    root = hypot((omega0 - omega1) / 4.0, coupling)
    e_plus = mean - root
    if abs(e_plus) < mean / 10.0:
        lo, hi = sorted((omega0, omega1))
        total = mean + root
        e_plus = (lo / 2.0) * ((hi / 2.0) / total) - coupling * (coupling / total)
    ratio = delta / (2.0 * coupling)
    try:
        c = 0.5 / sqrt(1.0 + ratio**2)
    except OverflowError:  # ratio^2 beyond float64, where sqrt(1 + ratio^2) is |ratio|
        c = 0.5 / abs(ratio)
    return SpectrumResult(e_plus, mean + root, 2.0 * root, c)


def energies(params):
    """Level energies E_pm and gap for the given well parameters.

    The energies are read off the amplitude exponents and do not depend on
    the observation time T.  B = 0 gives the bare harmonic levels exactly.
    """
    _require_b(params)
    return _two_level(params.omega0, params.omega1, params.B)


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
    multi_instanton(i, params).full, bit for bit, or 0.0 where it is below
    the smallest float64, which keeps large T finite and fast.  Below
    |d| T = 0.1 a term is also finite where only its stripped value, and so
    multi_instanton, exceeds float64.  Returns (sum, terms).
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

    The solver of energies(), with which it coincides at B = B'.  A
    non-finite argument, an omega <= 0 or a negative coupling raises
    SpectrumParameterError naming it.
    """
    _check_arguments(omega0=omega0, omega1=omega1, coupling=coupling)
    return _two_level(omega0, omega1, coupling)


class CouplingEstimate(NamedTuple):
    """Extracted tunneling matrix element, with the clamp flag."""

    b_prime: float
    asymmetry_dominated: bool


def extract_coupling(measured_gap, omega0, omega1):
    """Invert the gap formula for the coupling B'.

    B' = sqrt(max(gap^2 - (w1-w0)^2/4, 0)) / 2; a gap at (or below) the
    bare level offset clamps to 0 and is flagged asymmetry-dominated.  A
    non-finite argument, a negative gap or an omega <= 0 raises
    SpectrumParameterError naming it.
    """
    _check_arguments(measured_gap=measured_gap, omega0=omega0, omega1=omega1)
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
