"""Discretized quadrature representation of bosonic modes.

Conventions (hbar = 1, [q, p] = i, all quadratures dimensionless):

* A grid of ``n`` points with full extent ``L`` samples the position axis at
  ``q_j = -L/2 + j*dq`` with ``dq = L/n``.  The conjugate momentum grid has
  spacing ``dp = 2*pi/L`` and the same number of points, so that
  ``dq * dp * n = 2*pi`` exactly.
* The momentum wavefunction follows the symmetric convention
  ``phi(p) = (2*pi)^(-1/2) * integral dq exp(-i*p*q) * psi(q)``.
* Norms are Riemann sums, ``sum |a_j|^2 * spacing``.

The discrete position <-> momentum transform below is an exactly unitary
rescaled FFT (the half-extent offsets of both grids become the alternating
sign pre/post factors), so Parseval holds to machine precision for any
amplitude vector, not just smooth ones.  A state keeps the other representation
it is transformed to, so it holds 16 bytes a point more while it lives.
"""

from __future__ import annotations

import enum
import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, RepresentationError, ValidationError

EDGE_AMPLITUDE_WARN = 1e-8


class GridSupportWarning(UserWarning):
    """A state carries non-negligible amplitude at the grid boundary."""


class Rep(enum.Enum):
    POSITION = "position"
    MOMENTUM = "momentum"


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform discretization of one quadrature axis.

    ``points`` is the position grid; the momentum grid implied by the FFT
    pairing is exposed as ``momentum_points``.  Both are centered on zero,
    read-only, and built on first read.
    """

    n_points: int
    extent: float

    def __post_init__(self) -> None:
        n = self.n_points
        if n < 64 or (n & (n - 1)) != 0:
            raise ValidationError(
                f"n_points must be a power of two >= 64, got {n}"
            )
        if not self.extent > 0:
            raise ValidationError(f"extent must be positive, got {self.extent}")

    @property
    def dq(self) -> float:
        return self.extent / self.n_points

    @property
    def dp(self) -> float:
        return 2.0 * np.pi / self.extent

    @property
    def momentum_extent(self) -> float:
        return self.n_points * self.dp

    @functools.cached_property
    def points(self) -> np.ndarray:
        q = -0.5 * self.extent + self.dq * np.arange(self.n_points)
        q.flags.writeable = False
        return q

    @functools.cached_property
    def momentum_points(self) -> np.ndarray:
        p = -0.5 * self.momentum_extent + self.dp * np.arange(self.n_points)
        p.flags.writeable = False
        return p

    @property
    def is_self_dual(self) -> bool:
        """True when dq == dp, i.e. position and momentum grids coincide."""
        return abs(self.dq - self.dp) <= 1e-12 * self.dp

    def rep_spacing(self, rep: Rep) -> float:
        return self.dq if rep is Rep.POSITION else self.dp

    def rep_points(self, rep: Rep) -> np.ndarray:
        return self.points if rep is Rep.POSITION else self.momentum_points


def make_grid(n_points: int, extent: float) -> QuadratureGrid:
    """Build a grid; n_points must be a power of two >= 64, extent > 0."""
    return QuadratureGrid(n_points=int(n_points), extent=float(extent))


def self_dual_grid(n_points: int) -> QuadratureGrid:
    """Grid with dq == dp == sqrt(2*pi/n): position and momentum samples coincide."""
    return make_grid(n_points, float(np.sqrt(2.0 * np.pi * n_points)))


@dataclass(frozen=True)
class ModeState:
    """Complex wavefunction of one mode on a grid, tagged with its representation."""

    grid: QuadratureGrid
    rep: Rep
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.amplitudes, dtype=np.complex128)
        if a.shape != (self.grid.n_points,):
            raise ValidationError(
                f"amplitude array has shape {a.shape}, expected ({self.grid.n_points},)"
            )
        a.flags.writeable = False
        object.__setattr__(self, "amplitudes", a)

    @property
    def spacing(self) -> float:
        return self.grid.rep_spacing(self.rep)

    @property
    def coordinates(self) -> np.ndarray:
        return self.grid.rep_points(self.rep)

    def density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    @functools.cached_property
    def _other(self) -> ModeState:
        """The other representation, transformed on first read and kept: what as_rep and to_* return."""
        rep = Rep.MOMENTUM if self.rep is Rep.POSITION else Rep.POSITION
        return ModeState(self.grid, rep, _transform(self.amplitudes, self.grid, rep))


@dataclass(frozen=True)
class TwoModeState:
    """Complex amplitudes over the product grid of two modes (index order: mode 1, mode 2)."""

    grid: QuadratureGrid
    reps: tuple[Rep, Rep]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.n_points
        a = np.asarray(self.amplitudes, dtype=np.complex128)
        if a.shape != (n, n):
            raise ValidationError(
                f"amplitude array has shape {a.shape}, expected ({n}, {n})"
            )
        a.flags.writeable = False
        object.__setattr__(self, "amplitudes", a)

    @property
    def measure(self) -> float:
        """Product of the per-mode spacings (the discrete integration measure)."""
        return self.grid.rep_spacing(self.reps[0]) * self.grid.rep_spacing(self.reps[1])


def norm(state: ModeState) -> float:
    """Riemann-sum norm, sqrt(sum |a|^2 * spacing)."""
    return float(np.sqrt(np.sum(state.density()) * state.spacing))


def norm_two_mode(state: TwoModeState) -> float:
    return float(np.sqrt(np.sum(np.abs(state.amplitudes) ** 2) * state.measure))


def normalized(state: ModeState) -> ModeState:
    return ModeState(state.grid, state.rep, _normalized_amplitudes(state))


def _normalized_amplitudes(state: ModeState, out: np.ndarray | None = None) -> np.ndarray:
    """The amplitudes of :func:`normalized` in a new writeable array, or ``out`` divided by the norm."""
    n = norm(state)
    if n == 0.0:
        raise ValidationError("cannot normalize a zero state")
    return np.divide(state.amplitudes if out is None else out, n, out=out)


def check_edge_support(state: ModeState) -> float:
    """Warn if the state has amplitude above EDGE_AMPLITUDE_WARN at the grid boundary.

    Returns the largest edge magnitude so callers can report it.
    """
    edge = max(abs(state.amplitudes[0]), abs(state.amplitudes[-1]))
    if edge > EDGE_AMPLITUDE_WARN:
        warnings.warn(
            f"state amplitude {edge:.2e} at grid boundary exceeds {EDGE_AMPLITUDE_WARN:.0e}; "
            "the grid extent may be too small for this state",
            GridSupportWarning,
            stacklevel=3,
        )
    return float(edge)


def _require_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise GridMismatchError("states live on different grids")


def inner_product(a: ModeState, b: ModeState) -> complex:
    """Riemann-sum inner product <a|b> = sum conj(a_j) b_j * spacing."""
    _require_same_grid(a, b)
    if a.rep is not b.rep:
        raise RepresentationError(
            f"inner product needs matching representations, got {a.rep} and {b.rep}"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes) * a.spacing)


@functools.lru_cache(maxsize=4)
def _alternating_signs(n: int) -> np.ndarray:
    """(1, -1, 1, -1, ...) of length n, read-only and complex, so that a
    complex multiply by it needs no cast buffer."""
    s = np.tile(np.array([1.0, -1.0], dtype=np.complex128), n // 2)
    s.flags.writeable = False
    return s


def _transform(
    amplitudes: np.ndarray, grid: QuadratureGrid, rep: Rep, axis: int = -1, out: np.ndarray | None = None
) -> np.ndarray:
    """Amplitudes transformed along ``axis`` into ``rep`` from the other representation.

    To momentum: phi(p_k) = (2*pi)^(-1/2) * sum_j exp(-i p_k q_j) psi(q_j) * dq,
    evaluated exactly by an FFT; to position: its inverse (the +i kernel).
    The half-extent offsets of both grids become alternating signs,
    exp(-i p_k q_j) = (-i)^n (-1)^j (-1)^k exp(-2i pi j k / n), with (-i)^n = 1
    as 4 divides n.  The signs are one read-only vector per n, made on first
    use and multiplied as before, so the output bits are those of a fresh
    vector.  Every other axis is a batch axis.  The result is written to
    ``out`` when given, which may be ``amplitudes`` itself: then the transform
    allocates no n-length array (numpy's FFT keeps its own scratch).
    """
    n = grid.n_points
    shape = [1] * np.ndim(amplitudes)
    shape[axis] = n
    s = _alternating_signs(n).reshape(shape)
    fft, scale = (np.fft.fft, grid.dq) if rep is Rep.MOMENTUM else (np.fft.ifft, grid.dp * n)
    out = np.multiply(s, amplitudes, out=out)
    fft(out, axis=axis, out=out)
    out *= s
    out *= scale / np.sqrt(2.0 * np.pi)
    return out


def to_momentum(psi: ModeState) -> ModeState:
    """Unitary transform to the momentum representation (see :func:`_transform`)."""
    if psi.rep is not Rep.POSITION:
        raise RepresentationError("to_momentum expects a position-representation state")
    return psi._other


def to_position(phi: ModeState) -> ModeState:
    """Inverse of :func:`to_momentum` (the +i kernel transform)."""
    if phi.rep is not Rep.MOMENTUM:
        raise RepresentationError("to_position expects a momentum-representation state")
    return phi._other


def as_rep(state: ModeState, rep: Rep) -> ModeState:
    return state if state.rep is rep else state._other


def transform_mode(state: TwoModeState, mode: int, rep: Rep) -> TwoModeState:
    """Transform one mode of a two-mode state to the requested representation."""
    if mode not in (1, 2):
        raise ValidationError(f"mode must be 1 or 2, got {mode}")
    idx = mode - 1
    if state.reps[idx] is rep:
        return state
    reps = list(state.reps)
    reps[idx] = rep
    out = _transform(state.amplitudes, state.grid, rep, axis=idx)
    return TwoModeState(state.grid, (reps[0], reps[1]), out)


def fidelity_pure(a: ModeState, b: ModeState) -> float:
    """|<a|b>|^2 with both states normalized; representations converted internally."""
    _require_same_grid(a, b)
    b = as_rep(b, a.rep)
    an = normalized(a)
    bn = normalized(b)
    f = abs(np.vdot(an.amplitudes, bn.amplitudes) * an.spacing) ** 2
    return float(min(f, 1.0))
