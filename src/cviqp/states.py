"""Input-state constructors: momentum-squeezed vacua and finitely squeezed GKP states.

A squeezed vacuum |sigma>_p has momentum wavefunction proportional to
exp(-p^2 / (2 sigma^2)).  Realistic GKP combs are sums of Gaussian spikes of
width ``delta_spike`` sitting under a Gaussian envelope of inverse width
``delta_envelope``:

    <q|0> = N0 * sum_n exp(-(2n)^2 pi de^2 / 2) * exp(-(q - 2n sqrt(pi))^2 / (2 ds^2))

and the |1> comb likewise on odd multiples of sqrt(pi).  Normalization is
computed numerically on the grid, so it is exact for the represented object
including truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .quadgrid import (
    ModeState,
    QuadratureGrid,
    Rep,
    check_edge_support,
    normalized,
)

TRUNCATION_TOL = 1e-12
MIN_SAMPLES_PER_STD = 4.0

SQRT_PI = math.sqrt(math.pi)

# exp(-x) is exactly 0.0 in float64 for x > 745.2, so a Gaussian
# exp(-d^2 / (2 w^2)) vanishes beyond this many widths w from its center
GAUSSIAN_REACH_WIDTHS = math.sqrt(2.0 * 746.0)


def truncation_weight(n_max: int, delta_envelope: float) -> float:
    """Envelope weight of the first dropped comb peak, exp(-(2 n_max)^2 pi de^2 / 2)."""
    return math.exp(-((2 * n_max) ** 2) * math.pi * delta_envelope**2 / 2.0)


def min_admissible_n_max(delta_envelope: float) -> int:
    """Smallest comb truncation for which the dropped peaks are negligible (< 1e-12)."""
    n = 1
    while truncation_weight(n, delta_envelope) >= TRUNCATION_TOL:
        n += 1
    return n


@dataclass(frozen=True)
class GkpParams:
    """Spike width, envelope inverse width, and comb truncation of a GKP state."""

    delta_spike: float
    delta_envelope: float
    n_max: int

    def __post_init__(self) -> None:
        if not (0.0 < self.delta_spike <= 1.0):
            raise ValidationError(
                f"delta_spike must be in (0, 1], got {self.delta_spike}"
            )
        if not (0.0 < self.delta_envelope <= 1.0):
            raise ValidationError(
                f"delta_envelope must be in (0, 1], got {self.delta_envelope}"
            )
        if self.n_max < 1:
            raise ValidationError(f"n_max must be positive, got {self.n_max}")
        w = truncation_weight(self.n_max, self.delta_envelope)
        if not w < TRUNCATION_TOL:
            raise ValidationError(
                f"comb truncation inadmissible: dropped-peak weight {w:.3e} >= {TRUNCATION_TOL:.0e}; "
                f"need n_max >= {min_admissible_n_max(self.delta_envelope)}"
            )

    @classmethod
    def tied(cls, delta: float, delta_envelope: float | None = None) -> "GkpParams":
        """Params with delta_envelope defaulting to delta_spike and minimal admissible truncation."""
        de = delta if delta_envelope is None else delta_envelope
        return cls(delta_spike=delta, delta_envelope=de, n_max=min_admissible_n_max(de))


def squeezed_momentum(sigma: float, grid: QuadratureGrid) -> ModeState:
    """Momentum-squeezed vacuum with momentum-amplitude standard deviation sigma."""
    if not sigma > 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    if sigma < MIN_SAMPLES_PER_STD * grid.dp:
        raise ValidationError(
            f"sigma={sigma} unresolvable: needs momentum spacing <= {sigma / MIN_SAMPLES_PER_STD:.3e}, "
            f"grid has dp={grid.dp:.3e}"
        )
    if 1.0 / sigma < MIN_SAMPLES_PER_STD * grid.dq:
        raise ValidationError(
            f"sigma={sigma} unresolvable: position width 1/sigma needs dq <= "
            f"{1.0 / (sigma * MIN_SAMPLES_PER_STD):.3e}, grid has dq={grid.dq:.3e}"
        )
    p = grid.momentum_points
    state = normalized(ModeState(grid, Rep.MOMENTUM, np.exp(-(p**2) / (2.0 * sigma**2))))
    check_edge_support(state)
    return state


def _comb(params: GkpParams, grid: QuadratureGrid, parity: int) -> ModeState:
    """Position-representation Gaussian comb on (2n + parity) sqrt(pi) centers."""
    if params.delta_spike < MIN_SAMPLES_PER_STD * grid.dq:
        raise ValidationError(
            f"spike width {params.delta_spike} unresolvable on grid with dq={grid.dq:.3e}"
        )
    q = grid.points
    reach = params.delta_spike * GAUSSIAN_REACH_WIDTHS
    amp = np.zeros(grid.n_points)
    for n in range(-params.n_max, params.n_max + 1):
        m = 2 * n + parity
        weight = math.exp(-(m**2) * math.pi * params.delta_envelope**2 / 2.0)
        center = m * SQRT_PI
        # beyond the reach the tooth is exactly 0.0: the band sum is the full sum
        j0, j1 = np.searchsorted(q, (center - reach, center + reach))
        amp[j0:j1] += weight * np.exp(-((q[j0:j1] - center) ** 2) / (2.0 * params.delta_spike**2))
    state = normalized(ModeState(grid, Rep.POSITION, amp))
    check_edge_support(state)
    return state


def gkp_zero(params: GkpParams, grid: QuadratureGrid) -> ModeState:
    """Logical |0>: comb on even multiples of sqrt(pi)."""
    return _comb(params, grid, parity=0)


def gkp_one(params: GkpParams, grid: QuadratureGrid) -> ModeState:
    """Logical |1>: comb on odd multiples of sqrt(pi)."""
    return _comb(params, grid, parity=1)


def gkp_plus(params: GkpParams, grid: QuadratureGrid) -> ModeState:
    """(|0> + |1>)/sqrt(2); its momentum comb peaks on even multiples of sqrt(pi)."""
    zero = gkp_zero(params, grid)
    one = gkp_one(params, grid)
    return normalized(ModeState(grid, Rep.POSITION, zero.amplitudes + one.amplitudes))


def gkp_minus(params: GkpParams, grid: QuadratureGrid) -> ModeState:
    """(|0> - |1>)/sqrt(2); its momentum comb peaks on odd multiples of sqrt(pi)."""
    zero = gkp_zero(params, grid)
    one = gkp_one(params, grid)
    return normalized(ModeState(grid, Rep.POSITION, zero.amplitudes - one.amplitudes))
