"""The CV-IQP gate set (diagonal in position), the Fourier gate, and displacements.

All single-mode diagonal gates act as amplitude-wise phases in the position
representation and therefore commute exactly.  The Fourier gate is realized
by the exact three-factor chirp decomposition

    F = e^(-i pi/4) * e^(i q^2/2) * IFT * e^(i p^2/2) * FT * e^(i q^2/2),

which reproduces psi(q) -> (2 pi)^(-1/2) integral dq' exp(i q q') psi(q') on
the continuum and is a product of exactly unitary grid operations, so norms
are preserved to machine precision for arbitrary amplitude vectors.  The
chirps depend only on the grid: they are computed on a grid's first Fourier
gate and kept for the last two grids, 48 bytes a grid point.

Position shifts go through a linear phase in the momentum representation,
which supports shifts that are not multiples of the grid spacing (the
sqrt(pi) shifts of GKP logic).
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .errors import RepresentationError, ValidationError
from .quadgrid import (
    ModeState,
    QuadratureGrid,
    Rep,
    TwoModeState,
    _transform,
    as_rep,
    to_momentum,
    to_position,
    transform_mode,
)

_CZ_BLOCK_ROWS = 512  # bounds the transient phase-matrix allocation
_FOURIER_GRIDS = 2  # grids whose Fourier chirps are kept: 48 bytes a point each


def _unit_phase(x: np.ndarray) -> np.ndarray:
    """exp(i x) for real x, bitwise: cos and sin written into one complex array."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape, dtype=np.complex128)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def apply_phase_function(psi: ModeState, f: Callable[[np.ndarray], np.ndarray]) -> ModeState:
    """Apply the position-diagonal gate exp(i f(q)): a_j <- exp(i f(q_j)) a_j."""
    if psi.rep is not Rep.POSITION:
        raise RepresentationError("phase gates act in the position representation")
    return ModeState(psi.grid, Rep.POSITION, _unit_phase(f(psi.coordinates)) * psi.amplitudes)


def apply_z(psi: ModeState) -> ModeState:
    """Logical Z on the GKP grid: exp(i sqrt(pi) q)."""
    return apply_phase_function(psi, lambda q: np.sqrt(np.pi) * q)


def _t_exponent(q: np.ndarray) -> np.ndarray:
    u = q / np.sqrt(np.pi)
    return (np.pi / 4.0) * (2.0 * u**3 + u**2 - 2.0 * u)


def apply_t(psi: ModeState) -> ModeState:
    """Cubic phase gate exp(i pi/4 [2 u^3 + u^2 - 2 u]), u = q/sqrt(pi).

    On ideal GKP states it is the logical T: the phase at u = m is a multiple
    of 2 pi for even m and pi/4 more for odd m.  On finitely squeezed states it
    is not.  It kicks the tooth at u sqrt(pi) by (sqrt(pi)/4)(6u^2 + 2u - 2) in
    momentum, a half-lattice kick that grows as u^2 while the teeth number
    ~1/delta, so the teeth never interfere as ideal teeth do and squeezing
    more does not help (Hastrup et al., PRA 2021).  Measured: the X readout
    of T|+> gives p_plus 0.72 at delta 0.25 and 0.15, against cos^2(pi/8) =
    0.854 for a logical T.
    """
    return apply_phase_function(psi, _t_exponent)


def tensor(a: ModeState, b: ModeState) -> TwoModeState:
    """Product state A[j, k] = a_j * b_k (mode 1 indexes rows)."""
    if a.grid != b.grid:
        raise ValidationError("tensor requires both modes on the same grid")
    return TwoModeState(a.grid, (a.rep, b.rep), np.outer(a.amplitudes, b.amplitudes))


def apply_phase_function2(
    state: TwoModeState, f: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> TwoModeState:
    """Apply the two-mode position-diagonal gate exp(i f(q1, q2)).

    f receives broadcastable (n, 1) and (1, n) coordinate arrays.  Both modes
    are converted to the position representation first.  The phase is applied
    in row blocks to bound transient memory on large grids.
    """
    state = transform_mode(state, 1, Rep.POSITION)
    state = transform_mode(state, 2, Rep.POSITION)
    q = state.grid.points
    out = state.amplitudes.copy()
    col = q[np.newaxis, :]
    for lo in range(0, state.grid.n_points, _CZ_BLOCK_ROWS):
        hi = lo + _CZ_BLOCK_ROWS
        rows = q[lo:hi, np.newaxis]
        out[lo:hi] *= np.exp(1j * np.asarray(f(rows, col), dtype=float))
    return TwoModeState(state.grid, (Rep.POSITION, Rep.POSITION), out)


def apply_cz(state: TwoModeState, conjugate: bool = False) -> TwoModeState:
    """The entangling gate exp(i q1 q2) (or its inverse with conjugate=True)."""
    sign = -1.0 if conjugate else 1.0
    return apply_phase_function2(state, lambda q1, q2: sign * q1 * q2)


@functools.lru_cache(maxsize=_FOURIER_GRIDS)
def _fourier_chirps(grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(i q^2/2), exp(i p^2/2) and e^(-i pi/4) exp(i q^2/2) on ``grid``, read-only."""
    q = grid.points
    chirp_q = np.exp(0.5j * q * q)
    p = grid.momentum_points
    chirp_p = np.exp(0.5j * p * p)
    chirp_out = np.exp(-0.25j * np.pi) * chirp_q
    for a in (chirp_q, chirp_p, chirp_out):
        a.flags.writeable = False
    return chirp_q, chirp_p, chirp_out


def apply_fourier(psi: ModeState) -> ModeState:
    """The Fourier gate: psi(q) -> (2 pi)^(-1/2) integral dq' exp(i q q') psi(q')."""
    psi = as_rep(psi, Rep.POSITION)
    chirp_q, chirp_p, chirp_out = _fourier_chirps(psi.grid)
    stage = ModeState(psi.grid, Rep.POSITION, chirp_q * psi.amplitudes)
    stage = to_momentum(stage)
    stage = ModeState(psi.grid, Rep.MOMENTUM, chirp_p * stage.amplitudes)
    stage = to_position(stage)
    return ModeState(psi.grid, Rep.POSITION, chirp_out * stage.amplitudes)


def displace_q(psi: ModeState, u: float) -> ModeState:
    """Position shift exp(-i u p): psi(q) -> psi(q - u), exact on the torus."""
    rows = np.array(psi.amplitudes[np.newaxis])
    _shift_rows(rows, psi.grid, psi.rep, u)
    return ModeState(psi.grid, psi.rep, rows[0])


def _shift_rows(rows: np.ndarray, grid: QuadratureGrid, rep: Rep, u: float) -> None:
    """Apply exp(-i u p) in place to each row of ``rows``, wavefunctions in ``rep``.

    Position rows go to momentum and back through :func:`quadgrid._transform`,
    written into ``rows``, with the kick between.  Kick times row, in that
    order: numpy's complex multiply is not bitwise commutative.
    """
    _check_shift(grid.extent, u)
    kick = _unit_phase(-u * grid.momentum_points)
    if rep is Rep.POSITION:
        _transform(rows, grid, Rep.MOMENTUM, out=rows)
    np.multiply(kick, rows, out=rows)
    if rep is Rep.POSITION:
        _transform(rows, grid, Rep.POSITION, out=rows)


def displace_p(psi: ModeState, v: float) -> ModeState:
    """Momentum kick exp(-i v q): multiplies the position wavefunction by exp(-i v q)."""
    _check_shift(psi.grid.momentum_extent, v)
    pos = as_rep(psi, Rep.POSITION)
    kicked = ModeState(pos.grid, Rep.POSITION, _unit_phase(-v * pos.grid.points) * pos.amplitudes)
    return as_rep(kicked, psi.rep)


def _check_shift(extent: float, shift: float) -> None:
    limit = extent / 4.0
    if not abs(shift) < limit:  # NaN fails too
        raise ValidationError(
            f"shift {shift} is not below a quarter of the axis extent ({limit}); "
            "the displaced state would wrap around"
        )
