"""Closed-form bounds and scaling laws.

Everything here is a pure function of scalars: the GKP misidentification
bound, squeezing expressed in decibels, the minimum squeezing needed for a
post-selection budget that shrinks like 2^-n, the fault-tolerant Fourier
error rate, multiplicative-approximation checks, and the composed
post-selection probability of a circuit with l Fourier gadgets.  Everything
that can underflow for large circuit sizes also comes in a log-space form.

:func:`solve_ft_error` bisects the monotone error over sigma in [1e-4, 1]
until the two ends are adjacent floats and returns the end whose error is
nearer the target; a target outside that range raises :class:`NumericalError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalError, ValidationError

SQRT_PI = math.sqrt(math.pi)


def pe_bound(delta: float) -> float:
    """Misidentification bound for sqrt(pi)-window GKP readout: (2 delta/pi) exp(-pi/(4 delta^2))."""
    if not delta > 0:
        raise ValidationError(f"delta must be positive, got {delta}")
    return (2.0 * delta / math.pi) * math.exp(-math.pi / (4.0 * delta**2))


def squeezing_db(delta_sq: float) -> float:
    """Squeezing in decibels, -10 log10(2 delta^2); 0 dB is the vacuum variance."""
    if not delta_sq > 0:
        raise ValidationError(f"delta_sq must be positive, got {delta_sq}")
    return -10.0 * math.log10(2.0 * delta_sq)


def delta_sq_from_db(db: float) -> float:
    """Inverse of :func:`squeezing_db`."""
    return 0.5 * 10.0 ** (-db / 10.0)


@dataclass(frozen=True)
class ScalingReport:
    """Squeezing demanded by an n-qubit post-selection budget P_e < 2^-n / 10."""

    n: int
    min_delta_sq: float
    min_squeezing_db: float
    mean_photon_lower: float
    pe_bound_at_min: float


def min_squeezing_db(n: int) -> ScalingReport:
    """Minimum GKP squeezing for circuit size n.

    Evaluates both closed forms, the direct variance bound
    delta^2 > (pi/4) / (n ln 2 + ln(20/pi)) and the decibel form
    10 log10(n ln 2 - ln(pi/20)) + 10 log10(2/pi), and cross-checks them;
    also fills the mean-photon lower bound (4/pi) ln(20/pi) + (4/pi) n ln 2.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    denominator = n * math.log(2.0) + math.log(20.0 / math.pi)
    min_delta_sq = (math.pi / 4.0) / denominator
    db_direct = squeezing_db(min_delta_sq)
    db_closed = 10.0 * math.log10(n * math.log(2.0) - math.log(math.pi / 20.0)) + 10.0 * math.log10(
        2.0 / math.pi
    )
    if abs(db_direct - db_closed) > 1e-9 * max(1.0, abs(db_closed)):
        raise AssertionError(
            f"scaling forms disagree: {db_direct} vs {db_closed}"
        )
    mean_photon = (4.0 / math.pi) * math.log(20.0 / math.pi) + (4.0 / math.pi) * n * math.log(2.0)
    return ScalingReport(
        n=n,
        min_delta_sq=min_delta_sq,
        min_squeezing_db=db_closed,
        mean_photon_lower=mean_photon,
        pe_bound_at_min=pe_bound(math.sqrt(min_delta_sq)),
    )


def fault_tolerant_fourier_error(sigma: float) -> float:
    """Error probability of one error-corrected Fourier transform.

    p_err = 1 - erf(sqrt(pi)/(2 sqrt(2) s1)) * erf(sqrt(pi)/(2 sqrt(2) s2))
    with s1^2 = 2 sigma^2 and s2^2 = 7 sigma^2 (all resources squeezed to the
    same sigma^2).  Evaluated through erfc so tiny error rates do not cancel
    away: 1 - (1-a)(1-b) = a + b - a*b.
    """
    if not sigma > 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    s1 = math.sqrt(2.0) * sigma
    s2 = math.sqrt(7.0) * sigma
    a = math.erfc(SQRT_PI / (2.0 * math.sqrt(2.0) * s1))
    b = math.erfc(SQRT_PI / (2.0 * math.sqrt(2.0) * s2))
    return a + b - a * b


def solve_ft_error(target: float) -> float:
    """Squeezing parameter sigma at which the fault-tolerant Fourier error equals target."""
    if not 0.0 < target < 1.0:
        raise ValidationError(f"target error must be in (0, 1), got {target}")
    lo, hi = 1e-4, 1.0
    err_lo, err_hi = fault_tolerant_fourier_error(lo), fault_tolerant_fourier_error(hi)
    if not err_lo <= target <= err_hi:
        raise NumericalError(
            f"no sigma in [{lo:g}, {hi:g}] gives error {target:g}; errors span [{err_lo:.3g}, {err_hi:.3g}]"
        )
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        err_mid = fault_tolerant_fourier_error(mid)
        if err_mid < target:
            lo, err_lo = mid, err_mid
        else:
            hi, err_hi = mid, err_mid
    return lo if abs(err_lo - target) < abs(err_hi - target) else hi


def check_multiplicative(p_true: float, p_sim: float, c: float) -> bool:
    """Whether p_true/c <= p_sim <= c * p_true (inclusive, so c=1 accepts equality)."""
    if not 0.0 < p_true <= 1.0:
        raise ValidationError(f"p_true must be in (0, 1], got {p_true}")
    if not 0.0 <= p_sim <= 1.0:
        raise ValidationError(f"p_sim must be in [0, 1], got {p_sim}")
    if c < 1.0:
        raise ValidationError(f"c must be >= 1, got {c}")
    return p_true / c <= p_sim <= c * p_true


def conditional_factor(c: float) -> float:
    """Multiplicative factor inherited by a conditional probability: joint and
    marginal within c give the conditional within c^2."""
    if c < 1.0:
        raise ValidationError(f"c must be >= 1, got {c}")
    return c * c


def pe_budget_check(delta: float, n: int) -> bool:
    """Whether the readout error bound stays below a tenth of the 2^-n conditioning probability."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return pe_bound(delta) < 0.1 * 2.0 ** (-n)


@dataclass(frozen=True)
class ComposedPostselection:
    """Success probability of n-qubit conditioning composed with l Fourier gadgets."""

    probability: float
    log10_probability: float


def composed_postselection(n: int, l: int, eta: float, sigma: float) -> ComposedPostselection:
    """(2 eta sigma / sqrt(pi))^l * 2^-n, with a log-space value that never underflows."""
    if l < 0 or n < 0:
        raise ValidationError("n and l must be non-negative")
    if l > 0 and not (eta > 0 and sigma > 0):
        raise ValidationError("eta and sigma must be positive when l > 0")
    log10 = -n * math.log10(2.0)
    if l > 0:
        log10 += l * math.log10(2.0 * eta * sigma / SQRT_PI)
    prob = 10.0**log10 if log10 > -300 else 0.0
    return ComposedPostselection(probability=prob, log10_probability=log10)
