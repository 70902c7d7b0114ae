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
from math import exp, hypot, lgamma, log, sqrt
from typing import NamedTuple

from .moments import multi_instanton

# Natural log of the smallest positive float64 (the least subnormal).
_LOG_TINIEST = log(5e-324)


class SpectrumError(ArithmeticError):
    """A spectrum quantity is not representable in float64, or fails its self-check."""


@dataclass(frozen=True)
class SpectrumResult:
    """Two-level energies, their gap, and the summed amplitude coefficient."""

    e_plus: float
    e_minus: float
    gap: float
    amplitude_coefficient: float

    def __post_init__(self):
        if self.e_plus > self.e_minus:
            raise ValueError("e_plus must not exceed e_minus")


def _amplitude_coefficient(delta, b):
    if delta == 0.0:
        return 0.5
    if b == 0.0:
        return 0.0
    return 0.5 / sqrt(1.0 + (delta / (2.0 * b)) ** 2)


def energies(params):
    """Level energies E_pm and gap for the given well parameters.

    The energies are read off the amplitude exponents and do not depend on
    the observation time T.  When both B and (K, s_inst) are known the two
    algebraically identical gap expressions are evaluated as a self-check.
    B = 0 takes the exact decoupled branch: the bare harmonic levels.
    """
    b = params.B
    if b is None:
        raise ValueError("params.B required (supply B or the pair K, s_inst)")
    w0, w1, d = params.omega0, params.omega1, params.delta
    if b == 0.0 and d == 0.0:
        # degenerate doublet: coincident levels rather than an error
        level = w0 / 2.0
        return SpectrumResult(level, level, 0.0, _amplitude_coefficient(d, b))
    if b == 0.0:
        lo, hi = min(w0, w1) / 2.0, max(w0, w1) / 2.0
        return SpectrumResult(lo, hi, hi - lo, 0.0)
    mean = (w0 + w1) / 4.0
    root = hypot(d / 2.0, b)
    gap = 2.0 * root
    if params.K is not None and params.s_inst is not None:
        alt = hypot((w1 - w0) / 2.0, 2.0 * params.K * exp(-params.s_inst))
        if abs(alt - gap) > 1e-10 * max(gap, 1e-300):
            raise SpectrumError(
                f"gap self-check failed: {gap!r} vs {alt!r} from (K, s_inst)"
            )
    return SpectrumResult(mean - root, mean + root, gap, _amplitude_coefficient(d, b))


def gas_sum_closed(params):
    """Closed form of the summed well-to-well amplitude at time T.

    Returns C (e^(-E+ T) - e^(-E- T)); identically 0 when B = 0 (no
    tunneling path connects the wells).  Raises SpectrumError when
    e^(-E+ T) overflows float64.
    """
    if params.B is None:
        raise ValueError("params.B required")
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
    return c * (grow - exp(-res.e_minus * params.T))


def _below_float64(i, params):
    """True when the full I(i, i) is certainly smaller than any float64.

    With N = 2i+1 the stripped value is (BT)^N/N! e^(-dT/2) M(i+1, N+1, dT)
    (DLMF 13.4.1), and M(a, b, z) <= e^max(z, 0) for b >= a > 0, so
    ln I(i, i) <= N ln(BT) - ln N! + |d|T/2 - (w0+w1)T/4.
    """
    n, t = 2 * i + 1, params.T
    bound = (
        n * (log(params.B) + log(t))  # B T itself may underflow
        - lgamma(n + 1)
        + (abs(params.delta) / 2.0 - (params.omega0 + params.omega1) / 4.0) * t
    )
    return bound < _LOG_TINIEST


def _term(i, params):
    if params.B > 0.0 and _below_float64(i, params):
        return 0.0
    return multi_instanton(i, params).full


def gas_sum_partial(params, n_terms=None):
    """Partial sums of the multi-event contributions M_i = I(i, i).

    With n_terms given, exactly that many terms are evaluated; otherwise
    accumulation stops once a term contributes less than 1e-16 relative or
    at 64 terms, whichever comes first.  A term whose bound lies below the
    smallest float64 is 0.0 without being evaluated, which keeps large T
    finite and fast.  Returns (sum, terms).
    """
    terms = []
    total = 0.0
    if n_terms is not None:
        if n_terms < 1:
            raise ValueError("n_terms must be >= 1")
        for i in range(n_terms):
            t = _term(i, params)
            terms.append(t)
            total += t
        return total, terms
    for i in range(64):
        t = _term(i, params)
        terms.append(t)
        total += t
        if abs(t) < 1e-16 * max(abs(total), 1e-300):
            break
    return total, terms


def truncated_hamiltonian(omega0, omega1, coupling):
    """Eigenvalues of the two-state matrix [[w0/2, B'], [B', w1/2]].

    Evaluated by the stable quadratic formula (mean -+ hypot of
    quarter-difference and coupling); coincides with energies() at B = B'.
    """
    if coupling < 0:
        raise ValueError("coupling must be >= 0")
    mean = (omega0 + omega1) / 4.0
    quarter_diff = (omega0 - omega1) / 4.0
    root = hypot(quarter_diff, coupling)
    delta = (omega0 - omega1) / 2.0
    return SpectrumResult(
        mean - root,
        mean + root,
        2.0 * root,
        _amplitude_coefficient(delta, coupling),
    )


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
        raise ValueError("measured_gap must be >= 0")
    disc = measured_gap**2 - (omega1 - omega0) ** 2 / 4.0
    if disc <= 0.0:
        return CouplingEstimate(0.0, True)
    return CouplingEstimate(0.5 * sqrt(disc), False)
