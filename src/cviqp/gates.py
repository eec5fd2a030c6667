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

Every linear phase exp(i (a + b k)), k < n, comes from two tables of about
sqrt(n) unit phases, hi[j] = exp(i (a + b m j)) and lo[l] = exp(i b l) with
m = 2^floor(log2(n) / 2), and is applied in place a block at a time (kick
block = hi[j] * lo, then row block = kick block * row block), so no n-length
phase array is made.  The accuracy contract: against exp(-i u x_k) for a
grid's own samples x_k, taken in extended precision, a kick errs by at most
4 eps (1 + max|u x|), eps the float64 machine epsilon, a bound the
per-sample np.exp(1j * x) also meets (``tests/test_gates.py::TestLinearPhase``);
it is not bitwise np.exp.  The kicks of :func:`displace_p` and
:func:`displace_q`, so every shift an ensemble or a fidelity applies, and the
tilts of the gadget engine take this path.  Only the arbitrary f of
:func:`apply_phase_function` is evaluated by cos and sin at every sample.
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
_KICK_BLOCK_POINTS = 1024  # kick numbers a block holds (one table entry a row at least): 16 KiB
_SPLITTER = 2.0**27 + 1.0  # Veltkamp's constant: splits a float64 into 26 + 27 bits


def _unit_phase(x: np.ndarray) -> np.ndarray:
    """exp(i x) for real x: cos and sin written into one complex array.

    Bitwise np.exp(1j * x) for the arbitrary phase functions of
    :func:`apply_phase_function`; linear phases use :func:`_phase_tables`.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape, dtype=np.complex128)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _phase_tables(a, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The tables (hi, lo) of the linear phase exp(i (a + b k)), k < n, n a power of two.

    hi[..., j] = exp(i (a + b m j)) for j < n/m and lo[..., l] = exp(i b l)
    for l < m, with m = 2^floor(log2(n) / 2): the phase at k = m j + l is
    hi[..., j] * lo[..., l].  ``a`` and ``b`` are scalars (1-D tables) or
    one entry per row (2-D tables, a row per entry).
    """
    m = 1 << (n.bit_length() - 1) // 2
    a = np.asarray(a, dtype=np.float64)[..., np.newaxis]
    b = np.asarray(b, dtype=np.float64)[..., np.newaxis]
    # a + b m j held exactly as s + t: b m splits into halves of 26 and 27 bits
    # whose products with j < 2^26 are exact, and two TwoSums add them to a.
    # Rounding the argument of hi instead would err by up to eps |x| on a whole
    # block of m samples, an error that repeats in blocks and so leaks into far
    # momenta, where per-sample roundings stay white.
    bm = b * m
    split = _SPLITTER * bm
    bm_hi = split - (split - bm)
    j = np.arange(n // m, dtype=np.float64)
    s, t1 = _two_sum(a, bm_hi * j)
    s, t2 = _two_sum(s, (bm - bm_hi) * j)
    hi = _unit_phase(s)
    hi *= 1.0 + 1j * (t1 + t2)  # exp(i t) to O(t^2), with |t| <= eps |a + b m j|
    return hi, _unit_phase(b * np.arange(m))


def _two_sum(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, e) with s = fl(x + y) and s + e = x + y exactly (Knuth's TwoSum)."""
    s = x + y
    yy = s - x
    return s, (x - (s - yy)) + (y - yy)


def _apply_linear_phase(rows: np.ndarray, a, b) -> None:
    """rows[:, k] <- exp(i (a + b k)) * rows[:, k] for k < n, in place.

    ``rows`` is 2-D, each row contiguous.  Scalar ``a`` and ``b`` kick every
    row alike; per-row ones (1-D, an entry per row) kick each row with its own
    pair.  The kick comes from :func:`_phase_tables` a block at a time, kick
    block times row block, in that order (numpy's complex multiply is not
    bitwise commutative): bit for bit ``np.multiply(kick, rows)`` for the
    kick ``hi[..., :, None] * lo[..., None, :]`` laid flat, without making it.

    Every multiply here takes operands of one shape: numpy gives a
    broadcasting multiply iteration buffers of up to 3 x 8192 complex
    numbers.  So a kick block shared by all rows multiplies them one at a time.
    """
    n = rows.shape[-1]
    hi, lo = _phase_tables(a, b, n)
    shared = hi.ndim == 1
    hi = hi.reshape(-1, hi.shape[-1])  # (1 or rows, n/m)
    m = lo.shape[-1]
    fit = max(1, _KICK_BLOCK_POINTS // (len(hi) * m))
    step = min(hi.shape[-1], 1 << (fit.bit_length() - 1))  # powers of two: step divides n/m
    kick = np.empty((len(hi), step, m), dtype=np.complex128)
    lo_block = np.empty_like(kick)
    lo_block[...] = lo.reshape(-1, 1, m)
    flat = kick.reshape(len(hi), step * m)
    for j in range(0, hi.shape[-1], step):
        kick[...] = hi[:, j : j + step, np.newaxis]
        np.multiply(kick, lo_block, out=kick)
        block = rows[:, j * m : (j + step) * m]
        if shared:
            for row in block:
                np.multiply(flat[0], row, out=row)
        else:
            np.multiply(flat, block, out=block)


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
    written into ``rows``, with the kick exp(i (-u p_0 - u dp k)) of
    :func:`_apply_linear_phase` between.
    """
    _check_shift(grid.extent, u)
    _kick_in(rows, grid, Rep.MOMENTUM, rep, u)


def displace_p(psi: ModeState, v: float) -> ModeState:
    """Momentum kick exp(-i v q): multiplies the position wavefunction by exp(-i v q)."""
    rows = np.array(psi.amplitudes[np.newaxis])
    _kick_rows(rows, psi.grid, psi.rep, v)
    return ModeState(psi.grid, psi.rep, rows[0])


def _kick_rows(rows: np.ndarray, grid: QuadratureGrid, rep: Rep, v: float) -> None:
    """Apply exp(-i v q) in place to each row of ``rows``, wavefunctions in ``rep``:
    the kick exp(i (-v q_0 - v dq j)) of :func:`_apply_linear_phase`, between
    transforms to position and back in ``rows`` when they are in momentum."""
    _check_shift(grid.momentum_extent, v)
    _kick_in(rows, grid, Rep.POSITION, rep, v)


def _kick_in(rows: np.ndarray, grid: QuadratureGrid, axis: Rep, rep: Rep, w: float) -> None:
    """Multiply ``rows`` (wavefunctions in ``rep``) in place by exp(-i w x), x the
    samples of ``axis``, taking them to ``axis`` and back in their own buffer."""
    x = grid.rep_points(axis)
    if rep is not axis:
        _transform(rows, grid, axis, out=rows)
    _apply_linear_phase(rows, -w * x[0], -w * grid.rep_spacing(axis))
    if rep is not axis:
        _transform(rows, grid, rep, out=rows)


def _check_shift(extent: float, shift: float) -> None:
    limit = extent / 4.0
    if not abs(shift) < limit:  # NaN fails too
        raise ValidationError(
            f"shift {shift} is not below a quarter of the axis extent ({limit}); "
            "the displaced state would wrap around"
        )
