"""Finite-resolution homodyne measurement.

The detector partitions the momentum axis into pixels of width ``2*eta``
centered at ``p_k = 2*eta*k`` (half-open, ``[p_k - eta, p_k + eta)``).  Two
evaluation regimes are supported and selected automatically:

* sample binning, when a pixel holds at least four momentum grid samples
  (``eta >= 2*dp``): each grid sample belongs to exactly one pixel, so the
  pixel projectors are disjoint and complete on the grid by construction;
* sub-grid quadrature, when pixels are narrower than the grid can resolve:
  pixel masses and conditional states are computed from Gauss-Legendre nodes
  inside the pixel.  This is the regime of the post-selected gadgets, where
  eta can sit far below the grid spacing.

Both regimes discretize the same continuum projector, and they agree where
their domains overlap; the sample regime is additionally an exact partition
of grid samples.  ``DetectorParams`` holds both regimes' pixel rule, for the
oracle below and the engine in ``gadgets`` alike.  Conditioning on a pixel
leaves the other mode in a mixture with one pure component per sample or
node, held by ``ConditionalEnsemble`` as a weight vector, the normalized
rows, and a position shift still pending on every row.  The rows are always
held by their factors (``PixelWindows``): row i is the kept mode times a
cyclic shift of one vector of a stack.  ``project_bin`` and the engine in
``gadgets`` both make the ensemble with ``ConditionalEnsemble.from_pixel``,
which weighs the rows, drops those of weight 0 and normalizes the rest.  The
fidelity reads the factors; purity, principal component and ``components``
build the rows on first read.

``bin_probabilities`` and ``project_bin`` act on a materialized
``TwoModeState`` (n x n amplitudes), with the measured-mode momentum slice at
each sub-grid node evaluated by the explicit (2 pi)^(-1/2) sum exp(-i s q_j)
kernel.  The gadgets do not use them: their product-input engine in
``gadgets`` evaluates the same pixels in O(n log n), with windows of tilted
grid FFTs on self-dual grids and chirp-z slices on every other grid.  This
two-mode path is the brute-force oracle the tests compare that engine with.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

import numpy as np

from .errors import GridMismatchError, NumericalError, ValidationError, ZeroMassBinError
from .gates import _check_shift, _shift_rows, displace_q
from .quadgrid import (
    ModeState,
    QuadratureGrid,
    Rep,
    TwoModeState,
    _normalized_amplitudes,
    as_rep,
    normalized,
    transform_mode,
)
from .seeding import _seeded_uniforms

TAIL_MASS_DIAGNOSTIC = 1e-8
ZERO_MASS_TOL = 1e-15
GKP_BINNING_REL_TOL = 1e-9
SQRT_PI = math.sqrt(math.pi)

_MIN_QUAD_NODES = 8


class TailMassWarning(UserWarning):
    """The requested bin range misses non-negligible probability mass."""


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, solved once per count.

    ``np.polynomial`` is read here, not at import: numpy loads it on first use.
    """
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class DetectorParams:
    """Half-width eta of the detector pixels; pixel k covers [2 eta k - eta, 2 eta k + eta).

    It owns the pixel rule of both regimes: which grid samples pixel k holds,
    the nodes and measures that its mass and conditional state sum over, the
    pixel masses of a sampled distribution and the pixels where it lives.
    """

    eta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValidationError(f"eta must be finite and positive, got {self.eta}")

    def bin_center(self, k: int) -> float:
        return 2.0 * self.eta * k

    def bin_interval(self, k: int) -> tuple[float, float]:
        c = self.bin_center(k)
        return (c - self.eta, c + self.eta)

    def bin_of(self, p: np.ndarray | float) -> np.ndarray | int:
        """Pixel index for momentum value(s); half-open assignment."""
        k = np.floor((np.asarray(p) + self.eta) / (2.0 * self.eta)).astype(int)
        return k if k.ndim else int(k)

    def sample_aligned(self, grid: QuadratureGrid) -> bool:
        """True when each pixel holds >= 4 momentum samples (sample-binning regime)."""
        return self.eta >= 2.0 * grid.dp

    def pixel_samples(self, grid: QuadratureGrid, k: int) -> slice:
        """The momentum samples that :meth:`bin_of` assigns to pixel k: each end is guessed from the
        pixel edge, off by rounding only, then stepped with bin_of (monotone) to the pixel boundary."""
        p, n, ends = grid.momentum_points, grid.n_points, []
        for j in (k, k + 1):
            i = math.ceil(min(max((self.bin_interval(j)[0] - p[0]) / grid.dp, 0.0), n))
            while i > 0 and self.bin_of(p[i - 1]) >= j:
                i -= 1
            while i < n and self.bin_of(p[i]) < j:
                i += 1
            ends.append(i)
        return slice(*ends)

    def pixel_nodes(self, grid: QuadratureGrid, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(nodes, measures) of pixel k: its samples, each of measure dp, in the sample
        regime; otherwise Gauss-Legendre nodes over the pixel, 4 per dp of its width, at least 8."""
        if self.sample_aligned(grid):
            nodes = grid.momentum_points[self.pixel_samples(grid, k)]
            return nodes, np.full(len(nodes), grid.dp)
        lo, hi = self.bin_interval(k)
        n_nodes = max(_MIN_QUAD_NODES, math.ceil(4.0 * (2.0 * self.eta / grid.dp)))
        x, w = _gauss_legendre(n_nodes)
        half = 0.5 * (hi - lo)
        return lo + half * (x + 1.0), half * w

    def pixel_masses(self, grid: QuadratureGrid, sample_masses: np.ndarray) -> dict[int, float]:
        """``{k: mass}`` of the pixels of all momentum samples, given one mass per sample."""
        bins = self.bin_of(grid.momentum_points)
        k_lo = int(bins[0])
        v = np.bincount(bins - k_lo, weights=sample_masses)
        return dict(zip(range(k_lo, k_lo + len(v)), v.tolist()))

    def live_pixels(self, grid: QuadratureGrid, sample_masses: np.ndarray) -> range:
        """The pixels from the first to the last momentum sample whose mass exceeds
        1e-15 of the largest; NumericalError when no sample carries mass."""
        live = np.flatnonzero(sample_masses > ZERO_MASS_TOL * max(float(np.max(sample_masses)), 1e-300))
        if len(live) == 0:
            raise NumericalError("state carries no measurable momentum mass")
        p = grid.momentum_points
        return range(self.bin_of(float(p[live[0]])), self.bin_of(float(p[live[-1]])) + 1)

    @property
    def gkp_compatible(self) -> bool:
        """sqrt(pi)/eta is an integer (within 1e-9 relative tolerance)."""
        ratio = SQRT_PI / self.eta
        return abs(ratio - round(ratio)) <= GKP_BINNING_REL_TOL * ratio

    def require_gkp_compatible(self) -> None:
        if not self.gkp_compatible:
            raise ValidationError(
                f"eta={self.eta} does not match the sqrt(pi) binning: "
                f"sqrt(pi)/eta = {SQRT_PI / self.eta:.6f} is not an integer"
            )


@dataclass(frozen=True)
class PixelWindows:
    """The rows of a pixel ensemble, held by their factors.

    Row i is kept * roll(stack[which[i]], shifts[i]), normalized: the kept
    mode times a cyclic window of one vector of the stack, which the
    producer chooses.  On a self-dual grid the stack holds reversed momentum
    transforms of the measured mode and the shift selects the sample; on any
    other grid it holds one chirp-z slice per node, unshifted; an array of
    rows is its own stack, with a kept mode of ones.  Squared norms and
    overlaps with a target are one contiguous dot per row, without the
    spacing; :meth:`build` makes the rows, n complex numbers each.
    """

    kept: np.ndarray
    stack: np.ndarray
    which: np.ndarray
    shifts: np.ndarray

    @classmethod
    def of_rows(cls, rows: np.ndarray) -> PixelWindows:
        """A copy of the given rows as factors: each its own stack vector, unshifted, kept mode ones."""
        rows = np.array(rows, dtype=np.complex128)
        if rows.ndim != 2:
            raise ValidationError(f"rows have shape {rows.shape}, expected (m, n_points)")
        which = np.arange(len(rows))
        return cls(np.ones(rows.shape[-1]), rows, which, np.zeros_like(which))

    @property
    def shape(self) -> tuple[int, ...]:
        return (len(self.which), *self.stack.shape[1:])

    def _dots(self, doubled: np.ndarray, stack: np.ndarray) -> np.ndarray:
        """sum_m x[m] roll(stack[which[i]], s)[m] with s = shifts[i], for each row i.

        That is sum_j x[(j + s) % n] stack[which[i], j]: one contiguous dot per
        row, against x laid twice end to end.  The caller writes x into the
        first half of ``doubled`` (2n entries), so that x is made in place
        there; the second half is its copy.
        """
        n = len(doubled) // 2
        doubled[n:] = doubled[:n]
        out = np.empty(len(self.which), dtype=np.result_type(doubled, stack))
        for i, (t, s) in enumerate(zip(self.which.tolist(), self.shifts.tolist())):
            out[i] = np.dot(doubled[s : s + n], stack[t])
        return out

    @functools.cached_property
    def sq_norms(self) -> np.ndarray:
        """sum_m |kept[m] roll(...)[m]|^2 of each unnormalized row.

        Each is a sum of non-negative terms, so it is exact to rounding relative
        to itself, however small; the circular convolution of the outcome
        masses rounds relative to the whole distribution instead.
        """
        sq = np.abs(self.stack)
        doubled = np.empty(2 * len(self.kept))
        x = doubled[: len(self.kept)]
        np.square(np.abs(self.kept, out=x), out=x)
        return self._dots(doubled, np.multiply(sq, sq, out=sq))

    def overlaps(self, target: np.ndarray) -> np.ndarray:
        """sum_m conj(target[m]) kept[m] roll(...)[m] of each unnormalized row;
        like :attr:`sq_norms`, each is exact to rounding relative to its own row."""
        doubled = np.empty(2 * len(self.kept), dtype=np.complex128)
        x = doubled[: len(self.kept)]
        np.multiply(np.conj(target, out=x), self.kept, out=x)
        return self._dots(doubled, self.stack)

    def build(self, norms: Iterable[float]) -> np.ndarray:
        """The rows, each divided by its entry of ``norms``: multiplied by the
        reciprocal, as numpy's complex division by a real does (Smith's
        algorithm), at a fifth of its cost."""
        n = len(self.kept)
        rows = np.empty(self.shape, dtype=np.complex128)
        for row, t, s, norm in zip(rows, self.which.tolist(), self.shifts.tolist(), norms):
            np.multiply(self.kept[s:], self.stack[t, : n - s], out=row[s:])
            np.multiply(self.kept[:s], self.stack[t, n - s :], out=row[:s])
            row *= 1.0 / norm
        return rows


class ConditionalEnsemble:
    """Mixed post-measurement state of the unmeasured mode, as weighted pure rows.

    Row i of ``rows`` is a normalized wavefunction in ``rep`` on ``grid``: the
    state left by one momentum sample (or quadrature node) inside the measured
    pixel, and ``weights[i]`` is its probability mass.  ``total_probability``
    is the probability of the pixel, ``float(np.sum(weights))``.  A pixel's
    ensemble comes from :meth:`from_pixel`.

    ``windows`` holds the rows by their factors (:class:`PixelWindows`); the
    constructor also takes an array of rows, copied and read as factors with
    a kept mode of ones.  :func:`ensemble_fidelity` reads the factors, a dot per row.
    ``rows`` is built from them on the first read, normalized, n complex
    numbers per weight (45 x 65536 of them, 45 MiB, for the sampled pixel of a
    GKP correction on 65536 points), and kept: ``components`` reads it, and so
    does the one spectrum that :meth:`purity` and :meth:`principal_component`
    read, the eigenpairs of the weighted Gram matrix, computed once.

    ``u`` is a position shift exp(-i u p) still pending on every row (the GKP
    correction): the ensemble is the rows displaced by ``u``.  The readers
    apply it where it costs one vector: :meth:`purity` does not change under
    it, :meth:`principal_component` shifts the one vector it returns, and
    :func:`ensemble_fidelity` shifts the target by ``-u``.  ``components`` is
    the displaced rows, built on first access.  A shift of a quarter of the
    grid extent or more is rejected here, as :func:`displace_q` rejects it.
    All arrays are read-only, and so are the attributes.
    """

    def __init__(
        self,
        grid: QuadratureGrid,
        rep: Rep,
        weights: np.ndarray,
        rows: np.ndarray | PixelWindows,
        u: float = 0.0,
    ) -> None:
        w = np.array(weights, dtype=np.float64)  # a copy: the caller's array stays writeable
        if w.ndim != 1 or len(w) == 0:
            raise ValidationError("ensemble must have at least one component")
        windows = rows if isinstance(rows, PixelWindows) else PixelWindows.of_rows(rows)
        if windows.shape != (len(w), grid.n_points) or windows.kept.shape != (grid.n_points,):
            raise ValidationError(f"components have shape {windows.shape}, expected ({len(w)}, n_points)")
        _check_shift(grid.extent, u)
        for a in (w, windows.kept, windows.stack, windows.which, windows.shifts):
            a.flags.writeable = False
        # __setattr__ refuses every attribute: fill the instance dict directly
        vars(self).update(
            grid=grid, rep=rep, weights=w, total_probability=float(np.sum(w)), u=u, windows=windows
        )

    @classmethod
    def from_pixel(
        cls, grid: QuadratureGrid, rep: Rep, k: int, measures: np.ndarray,
        windows: PixelWindows, u: float = 0.0,
    ) -> ConditionalEnsemble:
        """The ensemble of pixel k from the factors of one unnormalized row per
        node and the nodes' measures.

        Row i weighs ``measures[i]`` times its squared norm, which also
        normalizes it; rows of weight 0 carry no state and are dropped.
        Raises ZeroMassBinError when the weights sum below 1e-15.
        """
        weights = windows.sq_norms * grid.rep_spacing(rep) * measures
        total = float(np.sum(weights))
        if total < ZERO_MASS_TOL:
            raise ZeroMassBinError(f"bin k={k} carries probability {total:.3e} (< {ZERO_MASS_TOL:.0e})")
        keep = weights > 0.0
        if not np.all(keep):
            windows = replace(windows, which=windows.which[keep], shifts=windows.shifts[keep])
        return cls(grid, rep, weights[keep], windows, u)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"ConditionalEnsemble is read-only: cannot set {name!r}")

    @functools.cached_property
    def _sq_norms(self) -> np.ndarray:
        """Squared norms of the unnormalized rows in ``rep``, spacing included."""
        return self.windows.sq_norms * self.grid.rep_spacing(self.rep)

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """The normalized rows, built from ``windows`` on first read."""
        rows = self.windows.build(np.sqrt(self._sq_norms).tolist())
        rows.flags.writeable = False
        return rows

    @functools.cached_property
    def components(self) -> np.ndarray:
        """The rows with the pending shift applied, one wavefunction per row."""
        if self.u == 0.0:
            return self.rows
        shifted = self.rows.copy()
        _shift_rows(shifted, self.grid, self.rep, self.u)
        shifted.flags.writeable = False
        return shifted

    @functools.cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs (ascending) of the weighted Gram matrix
        sqrt(w_i w_j) <row_i|row_j> (shift-invariant), computed once: its
        eigenvalues are the density operator's non-zero ones."""
        w = self.weights
        overlaps = np.vecdot(self.rows[:, np.newaxis], self.rows[np.newaxis])
        return np.linalg.eigh(np.sqrt(np.outer(w, w)) * overlaps * self.grid.rep_spacing(self.rep))

    def principal_component(self) -> ModeState:
        """Top eigenvector of the ensemble density operator, from :attr:`_spectrum`."""
        coeff = np.sqrt(self.weights) * self._spectrum[1][:, -1]
        top = normalized(ModeState(self.grid, self.rep, coeff @ self.rows))
        return top if self.u == 0.0 else displace_q(top, self.u)

    def purity(self) -> float:
        """Tr[rho^2] / (Tr rho)^2 of the ensemble density operator: sum lambda^2 / (sum w)^2."""
        evals = self._spectrum[0]
        return float(evals @ evals / np.sum(self.weights) ** 2)


def _measured_axis_density(state: TwoModeState, mode: int) -> np.ndarray:
    """Per-sample probability mass of the measured mode's momentum grid."""
    tilted = transform_mode(state, mode, Rep.MOMENTUM)
    other = 2 if mode == 1 else 1
    other_spacing = tilted.grid.rep_spacing(tilted.reps[other - 1])
    axis = 1 if mode == 1 else 0
    mass = np.sum(np.abs(tilted.amplitudes) ** 2, axis=axis) * other_spacing * tilted.grid.dp
    return mass


def _position_slices(state: TwoModeState, mode: int, s_values: np.ndarray) -> np.ndarray:
    """Momentum slices <s|_mode state at arbitrary continuum s, one row per s.

    Uses the explicit kernel (2 pi)^(-1/2) sum_j exp(-i s q_j) dq on the
    measured mode's position representation, so s need not lie on the grid.
    """
    st = transform_mode(state, mode, Rep.POSITION)
    q = st.grid.points
    kernel = np.exp(-1j * np.outer(s_values, q)) * (st.grid.dq / math.sqrt(2.0 * math.pi))
    if mode == 1:
        return kernel @ st.amplitudes
    return kernel @ st.amplitudes.T


def _check_mode(mode: int) -> None:
    if mode not in (1, 2):
        raise ValidationError(f"mode must be 1 or 2, got {mode}")


def bin_probabilities(
    state: TwoModeState,
    mode: int,
    det: DetectorParams,
    k_range: Iterable[int] | None = None,
    warn_tail: bool = True,
) -> dict[int, float]:
    """Probability of each detector pixel for a homodyne measurement of one mode.

    Returns an ordered ``{k: probability}`` map.  With ``k_range=None`` the
    pixels covering the state's momentum support are selected automatically;
    otherwise a diagnostic warning is emitted if the requested range misses
    more than 1e-8 of the mass (suppress with ``warn_tail=False`` when
    deliberately probing a rare bin, as post-selection does).
    """
    _check_mode(mode)
    grid = state.grid
    ks = sorted(k_range) if k_range is not None else None
    # the sampled momentum marginal, wanted to bin, to find the live pixels or to measure the tail
    mass = _measured_axis_density(state, mode) if det.sample_aligned(grid) or ks is None or warn_tail else None
    if det.sample_aligned(grid):
        out = det.pixel_masses(grid, mass)
        if ks is not None:
            out = {int(k): out.get(int(k), 0.0) for k in ks}
    else:
        other = 2 if mode == 1 else 1
        other_spacing = grid.rep_spacing(state.reps[other - 1])
        out = {}
        for k in det.live_pixels(grid, mass) if ks is None else ks:
            nodes, wts = det.pixel_nodes(grid, k)
            slices = _position_slices(state, mode, nodes)
            density = np.sum(np.abs(slices) ** 2, axis=1) * other_spacing
            out[k] = float(np.dot(wts, density))
    if warn_tail and ks is not None:
        tail = float(np.sum(mass)) - sum(out.values())
        if tail > TAIL_MASS_DIAGNOSTIC:
            warnings.warn(f"requested bins miss {tail:.3e} probability mass", TailMassWarning, stacklevel=2)
    return out


def project_bin(
    state: TwoModeState, mode: int, k: int, det: DetectorParams
) -> ConditionalEnsemble:
    """Condition on pixel k of a homodyne measurement of ``mode``.

    The measured mode is removed; the result is a weighted ensemble of pure
    states of the other mode, one per momentum sample (sample regime) or
    quadrature node (sub-grid regime) inside the pixel, by
    :meth:`ConditionalEnsemble.from_pixel` from the slices, each its own
    stack vector with a kept mode of ones.
    Raises ZeroMassBinError when the pixel mass is below 1e-15.
    """
    _check_mode(mode)
    other = 2 if mode == 1 else 1
    nodes, node_measure = det.pixel_nodes(state.grid, k)
    if det.sample_aligned(state.grid):
        tilted = transform_mode(state, mode, Rep.MOMENTUM).amplitudes
        samples = det.pixel_samples(state.grid, k)
        # contiguous rows: the row norms and the normalization read them in order
        slices = np.ascontiguousarray(tilted[samples, :] if mode == 1 else tilted[:, samples].T)
    else:
        slices = _position_slices(state, mode, nodes)
    return ConditionalEnsemble.from_pixel(
        state.grid, state.reps[other - 1], k, node_measure, PixelWindows.of_rows(slices)
    )


def ensemble_fidelity(ensemble: ConditionalEnsemble, target: ModeState) -> float:
    """<target| rho |target> / Tr rho: the weighted mean over the rows of
    :func:`fidelity_pure` with ``target``, each row's squared overlap divided
    by its squared norm.

    A pending shift u is applied to the target as -u, once, instead of to
    every row.  Overlaps and norms come from the factors, a dot per row,
    without building the rows."""
    if target.grid != ensemble.grid:
        raise GridMismatchError("states live on different grids")
    t = as_rep(target, ensemble.rep)
    amplitudes = _normalized_amplitudes(t)
    if ensemble.u != 0.0:  # in the normalized target's own buffer
        _shift_rows(amplitudes[np.newaxis], t.grid, t.rep, -ensemble.u)
    w = ensemble.weights
    overlaps = ensemble.windows.overlaps(amplitudes) * t.spacing
    fids = np.minimum(np.abs(overlaps) ** 2 / ensemble._sq_norms, 1.0)
    return float(np.dot(w, fids) / np.sum(w))


def _inverse_cdf(dist: Mapping[int, float], u: np.ndarray) -> list[int]:
    """The bin that each uniform draw in ``u`` selects, by the rule of :func:`sample_outcome`."""
    if not dist:
        raise ValidationError("cannot sample from an empty distribution")
    ks = sorted(dist)
    probs = np.array([dist[k] for k in ks])
    if np.any(probs < 0):
        raise ValidationError("negative probability in distribution")
    cdf = np.cumsum(probs)
    idx = np.searchsorted(cdf, u, side="right")
    tail = idx >= len(ks)
    idx[tail] = np.where(u[tail] - cdf[-1] < 0.5 * (1.0 - cdf[-1]), 0, len(ks) - 1)
    return [ks[i] for i in idx.tolist()]


def sample_outcome(dist: Mapping[int, float], seed: int) -> int:
    """Deterministic inverse-CDF sample of a bin index from ``{k: probability}``, drawn
    by ``np.random.default_rng(seed).random()``: the first bin whose cumulative probability
    exceeds the draw.  The distribution may sum to less than one (out-of-range tail); tail
    draws go to the lowest k in the first half of the tail, the highest k in the rest."""
    return _inverse_cdf(dist, np.array([np.random.default_rng(seed).random()]))[0]


def sample_outcomes(dist: Mapping[int, float], first_seed: int, count: int) -> list[int]:
    """``[sample_outcome(dist, first_seed + t) for t in range(count)]``, bit for
    bit, in one batch of draws; the seeds must stay below 2**128 (see
    ``seeding._seeded_uniforms``)."""
    return _inverse_cdf(dist, _seeded_uniforms(first_seed, count))


@dataclass(frozen=True)
class ReadoutResult:
    """sqrt(pi)-window masses of a GKP X-basis readout."""

    p_plus: float
    p_minus: float
    p_error: float


def gkp_readout(psi: ModeState, det: DetectorParams) -> ReadoutResult:
    """Bin the momentum axis into sqrt(pi)-long windows centered on m*sqrt(pi).

    Mass in even windows is associated with |+>, odd windows with |->; the
    error mass for the dominant identification is min(p_plus, p_minus).
    Requires sqrt(pi)/eta to be an integer so the detector pixels are
    compatible with the window layout.  That check is the only use of
    ``det``: the masses are the same for every compatible detector.
    """
    det.require_gkp_compatible()
    phi = as_rep(psi, Rep.MOMENTUM)
    # the sqrt(pi) windows are the pixels of half-width sqrt(pi)/2
    masses = DetectorParams(eta=SQRT_PI / 2.0).pixel_masses(phi.grid, phi.density() * phi.grid.dp)
    p_plus = sum(m for k, m in masses.items() if k % 2 == 0)
    p_minus = sum(m for k, m in masses.items() if k % 2 != 0)
    return ReadoutResult(p_plus=p_plus, p_minus=p_minus, p_error=min(p_plus, p_minus))
