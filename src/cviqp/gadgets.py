"""Composite measurement-based procedures and the DV reference simulator.

CV side: the post-selected Fourier gadget (entangle with a momentum-squeezed
ancilla through CZ, measure the input mode with a finite-resolution homodyne
detector, keep a pixel), the GKP error-correction gadget (syndrome = ancilla
momentum mod sqrt(pi), corrective position shift), a Gaussian shift-noise
channel, and the error-corrected Fourier pipeline that manufactures its |0>
ancilla inline from the |+> resource via a post-selected Fourier gadget.

DV side: a dense statevector simulator for the Hadamard gadget and small IQP
circuits (X-basis inputs and measurements, Z-diagonal phases), used as the
brute-force reference for the CV constructions.

One product-input engine evaluates the CV gadgets.  After CZ, the
conditional slice at measured momentum s factorizes as
kept(q) * meas_tilde(s - q), with meas_tilde the momentum transform of the
measured mode, so slices and the full outcome distribution cost O(n log n)
and no n x n array is built.  The grid kind alone chooses how a slice is
taken: on a self-dual grid (dq == dp) as a window of a grid FFT, and on any
other grid as a chirp-z transform (Bluestein's algorithm), read from one
spectrum per distinct node offset, rolled per node.  Either way the
ensemble keeps the kept mode and the slices as factors, and its weights and
overlaps with a target are one dot per row.  The GKP correction stays
pending on the ensemble, whose readers apply it to the one vector each of
them reads.  A sample-regime correction trial on a self-dual grid takes six
FFTs, fidelity included: one ancilla transform (of a default |0> comb built
once per grid and params), three real FFTs for the outcome masses and two
for the target's in-place shift.  The materialized two-mode path of the
homodyne module computes the same numbers and serves as the brute-force
oracle in the tests.

The Fourier gadget's finite-squeezing target (psi convolved with a width-sigma
Gaussian, read in momentum) is in position the ideal output F psi times the
envelope exp(-sigma^2 q^2 / 2), so it is built the same way on every grid,
and the gadget scores its fidelity there, in position.  The gadget's squeezed
ancilla depends only on (sigma, grid) and is kept for the last four pairs, so
a warm gadget makes two grid transforms, those of F psi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .homodyne import (
    ConditionalEnsemble,
    DetectorParams,
    PixelWindows,
    ensemble_fidelity,
    sample_outcome,
)
from .quadgrid import (
    ModeState,
    QuadratureGrid,
    Rep,
    _require_same_grid,
    _transform,
    as_rep,
    check_edge_support,
    normalized,
    to_momentum,
)
from .gates import _apply_linear_phase, _kick_rows, _shift_rows, apply_fourier
from .seeding import _seeded_uniforms
from .states import GkpParams, gkp_plus, gkp_zero, squeezed_momentum

SQRT_PI = math.sqrt(math.pi)
_default_ancilla = functools.lru_cache(maxsize=1)(gkp_zero)  # one |0> comb: the last (params, grid)
_SQUEEZED_ANCILLAE = 4  # (sigma, grid) pairs whose Fourier-gadget ancilla is kept


def centered_mod_sqrt_pi(x: float) -> float:
    """Representative of x mod sqrt(pi) in [-sqrt(pi)/2, sqrt(pi)/2)."""
    return float((x + SQRT_PI / 2.0) % SQRT_PI - SQRT_PI / 2.0)


@dataclass(frozen=True)
class ShiftNoise:
    """Gaussian shift channel exp(-i u p) exp(-i v q), u ~ N(0, u_std^2), v ~ N(0, v_std^2)."""

    u_std: float = 0.0
    v_std: float = 0.0

    def __post_init__(self) -> None:
        for name, s in (("u_std", self.u_std), ("v_std", self.v_std)):
            if not (np.isfinite(s) and s >= 0):
                raise ValidationError(f"{name} must be finite and >= 0, got {s}")

    @classmethod
    def none(cls) -> "ShiftNoise":
        return cls(0.0, 0.0)


def apply_shift_noise(
    psi: ModeState, noise: ShiftNoise, seed: int | np.random.Generator | None = None
) -> tuple[ModeState, tuple[float, float]]:
    """Apply one draw of the shift channel; returns the state and the realized (u, v)."""
    return _apply_shift_noise(psi, noise, seed, psi.rep)


def _apply_shift_noise(
    psi: ModeState, noise: ShiftNoise, seed: int | np.random.Generator | None, rep: Rep
) -> tuple[ModeState, tuple[float, float]]:
    """:func:`apply_shift_noise` with the result in ``rep``.  The momentum kick
    exp(-i v q), then the shift exp(-i u p), and the transform to ``rep`` all
    run in one copy of the amplitudes, bit for bit as
    ``as_rep(displace_q(displace_p(psi, v), u), rep)``."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    u = float(rng.normal(0.0, noise.u_std))
    v = float(rng.normal(0.0, noise.v_std))
    if u == 0.0 and v == 0.0:
        return as_rep(psi, rep), (u, v)
    rows = np.array(psi.amplitudes[np.newaxis])
    if v != 0.0:
        _kick_rows(rows, psi.grid, psi.rep, v)
    if u != 0.0:
        _shift_rows(rows, psi.grid, psi.rep, u)
    if rep is not psi.rep:
        _transform(rows, psi.grid, rep, out=rows)
    return ModeState(psi.grid, rep, rows[0]), (u, v)


@dataclass
class GadgetReport:
    """Outcome, conditional output, and named diagnostics of a gadget run.

    ``success_probability`` is read from the output, ``output.total_probability``:
    the probability of the run is the mass of the state it returns.
    """

    outcome_k: int
    outcome_value: float
    output: ConditionalEnsemble
    diagnostics: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 <= self.success_probability <= 1.0 + 1e-12):
            raise ValidationError(
                f"success probability {self.success_probability} outside [0, 1]"
            )

    @property
    def success_probability(self) -> float:
        return self.output.total_probability


# ---------------------------------------------------------------------------
# product-input engine
#
# After CZ, measuring the momentum of one mode of a product input at s leaves
# the other mode in kept(q) * meas_tilde(s - q), where meas_tilde is the
# measured mode's momentum transform at continuum arguments.  The values of s
# that make up a pixel, and their measures, are DetectorParams.pixel_nodes;
# the engine only evaluates the slices and masses at them.  With
# q_j = (j - n/2) dq, the slice over the kept grid is one chirp-z transform
# with ratio exp(i dq^2):
#
#     meas_tilde(s - q_m) = dq/sqrt(2 pi) sum_j [psi_j exp(-i s q_j)]
#                           * exp(i dq^2 (m - n/2)(j - n/2)).
#
# On a self-dual grid dq^2 n = 2 pi and q_m = p_m, so with s = p_a + eps the
# slice is meas_tilde at p_a - p_m + eps: a window of the length-n FFT of
# psi exp(-i eps q).  Chirp-z slices serve every other grid.  The ensemble
# holds either kind as factors (PixelWindows).
#
# On an n-point grid the chirp-z buffer holds exactly 2n entries, and at a
# momentum sample p_a the tilt exp(-i p_a q_j) is (-1)^(a - n/2) times the
# buffer's modulation by the integer frequency c = 2 (a - n/2): it rolls the
# spectrum by c.  So the node p_a + eps reads the chirp-z spectrum of
# psi exp(-i eps q), rolled by c: a pixel makes one spectrum per distinct
# offset (one in the sample regime, where every eps is 0) and one inverse
# FFT per node.
#
# The chirp-z transform is written here in numpy because the package imports
# no scipy, and because scipy.signal's w**(k**2/2) chirps drift off the unit
# circle (2.7e-10 relative on a 4096-point pixel probability, against 7e-16
# for chirps built from real phases with exact integer k^2).
#
# A transform's chirps and kernel spectrum depend only on its parameters,
# which the grid (and, for the outcome density, the pixel width and range)
# fixes, so each is planned once, on first use, and kept in a small LRU
# cache.  A plan holds size + n + n_out complex numbers, under
# 48 (n + n_out) bytes: 256 KiB at 4096 points, 16 MiB at 262144, and the
# cache holds at most _CZT_PLANS of them.

_CZT_PLANS = 4  # a sub-grid correction trial on a general grid reads four plans, a Fourier gadget one


def _chirp(theta: float, k: np.ndarray) -> np.ndarray:
    """exp(i theta k^2 / 2), with k^2 formed exactly in integers."""
    k = np.asarray(k, dtype=np.int64)
    return np.exp(0.5j * theta * (k * k).astype(np.float64))


@functools.lru_cache(maxsize=_CZT_PLANS)
def _czt_plan(theta: float, j0: int, n: int, n_out: int, a0: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(size, kernel spectrum, input chirp, output chirp) of :func:`_czt`, read-only."""
    size = 1 << (n + n_out - 2).bit_length()  # >= n + n_out - 1: no wrap-around
    diff = np.arange(-(n - 1), n_out) + (a0 - j0)
    kernel = np.fft.fft(np.conj(_chirp(theta, diff)), size)
    chirp_in = _chirp(theta, np.arange(n) + j0)
    chirp_out = _chirp(theta, np.arange(n_out) + a0)
    for a in (kernel, chirp_in, chirp_out):
        a.flags.writeable = False
    return size, kernel, chirp_in, chirp_out


def _czt(
    x: np.ndarray, theta: float, j0: int, n_out: int, a0: int, tilt: tuple | None = None
) -> np.ndarray:
    """Chirp-z transform along the last axis, by Bluestein's algorithm.

    y[..., a] = sum_j x[..., j] exp(i theta u v) for a = 0 .. n_out - 1,
    with u = a + a0, v = j + j0 and u v = (u^2 + v^2 - (u - v)^2) / 2, so
    the sum is a convolution with the chirp exp(-i theta (u - v)^2 / 2).
    The convolution runs in one zero-padded buffer, in place.  With
    ``tilt`` = (a, b), one pair per row of the result, the vector x is
    first tilted by exp(i (a + b j)) (:func:`gates._apply_linear_phase`),
    written straight into each row's buffer.
    """
    n = x.shape[-1]
    size, kernel, chirp_in, chirp_out = _czt_plan(theta, j0, n, n_out, a0)
    lead = x.shape[:-1] if tilt is None else np.broadcast_shapes(*map(np.shape, tilt))
    buf = np.zeros((*lead, size), dtype=np.complex128)
    head = buf[..., :n]
    if tilt is None:
        np.multiply(x, chirp_in, out=head)
    else:
        head[...] = x
        _apply_linear_phase(head, *tilt)
        np.multiply(head, chirp_in, out=head)
    np.fft.fft(buf, out=buf)
    buf *= kernel
    np.fft.ifft(buf, out=buf)
    return chirp_out * buf[..., n - 1 : n - 1 + n_out]


def _slices(measured: ModeState, samples: np.ndarray, eps: np.ndarray, which: np.ndarray) -> np.ndarray:
    """meas_tilde(s - q_m) over the grid, one row per node s = p_a + eps[w],
    for (a, w) in zip(``samples``, ``which``): one chirp-z spectrum of
    measured * exp(-i eps q) per distinct offset, made in one batch, then per
    node a roll by 2 (a - n/2) and one inverse FFT."""
    g = measured.grid
    n = g.n_points
    size, kernel, chirp_in, chirp_out = _czt_plan(g.dq**2, -(n // 2), n, n, -(n // 2))
    spec = np.zeros((len(eps), size), dtype=np.complex128)
    head = spec[:, :n]
    head[...] = as_rep(measured, Rep.POSITION).amplitudes
    if np.any(eps):
        _apply_linear_phase(head, -eps * g.points[0], -eps * g.dq)
    np.multiply(head, chirp_in, out=head)
    np.fft.fft(spec, out=spec)
    scale = g.dq / math.sqrt(2.0 * math.pi)
    buf = np.empty(size, dtype=np.complex128)
    out = np.empty((len(samples), n), dtype=np.complex128)
    for row, a, w in zip(out, samples.tolist(), which.tolist()):
        c = 2 * (a - n // 2) % size
        np.multiply(spec[w, c:], kernel[: size - c], out=buf[: size - c])
        np.multiply(spec[w, :c], kernel[size - c :], out=buf[size - c :])
        np.fft.ifft(buf, out=buf)
        np.multiply(chirp_out, buf[n - 1 : 2 * n - 1], out=row)
        row *= -scale if (a - n // 2) % 2 else scale
    return out


def _condition(
    kept: ModeState, measured: ModeState, det: DetectorParams, k: int, u: float = 0.0
) -> ConditionalEnsemble:
    """The kept mode's position ensemble for pixel k of the measured mode after
    CZ, with the shift ``u`` pending on its rows.

    ``kept`` is in position, ``measured`` in either representation.  A row per
    node of ``det.pixel_nodes``: per grid sample in pixel k (sample regime) or
    per Gauss-Legendre node (sub-grid).  Each node is p_a + eps, p_a its
    nearest sample and eps one of the pixel's distinct offsets, and each row
    is ``kept`` times a shifted vector of a stack (:class:`PixelWindows`).  On
    a self-dual grid the node leaves kept[m] T[(a + n/2 - m) % n], with T the
    transform tilted by eps: the stack holds one transform per offset,
    reversed, R[j] = T[n - 1 - j], read at the shift a + n/2 + 1.  Elsewhere
    the stack is the nodes' chirp-z slices (:func:`_slices`), unshifted.
    :meth:`ConditionalEnsemble.from_pixel` weighs the rows.
    """
    _require_same_grid(kept, measured)
    g = measured.grid
    n = g.n_points
    nodes, node_measure = det.pixel_nodes(g, k)
    samples = np.clip(np.rint(nodes / g.dp).astype(np.int64) + n // 2, 0, n - 1)
    eps, which = np.unique(nodes - g.momentum_points[samples], return_inverse=True)
    if g.is_self_dual:
        if np.any(eps):  # one transform of measured * exp(-i eps q) per offset, one batched FFT
            stack = np.empty((len(eps), n), dtype=np.complex128)
            stack[...] = as_rep(measured, Rep.POSITION).amplitudes
            _apply_linear_phase(stack, -eps * g.points[0], -eps * g.dq)
            _transform(stack, g, Rep.MOMENTUM, out=stack)
            for row in stack:  # reversed in place, a row at a time: contiguous for the dots
                row[:] = row[::-1]
        else:  # the sample regime: the grid transform itself
            stack = as_rep(measured, Rep.MOMENTUM).amplitudes[np.newaxis, ::-1].copy()
        windows = PixelWindows(kept.amplitudes, stack, which, (samples + n // 2 + 1) % n)
    else:  # one chirp-z slice per node, unshifted
        stack = _slices(measured, samples, eps, which)
        which = np.arange(len(nodes))
        windows = PixelWindows(kept.amplitudes, stack, which, np.zeros_like(which))
    return ConditionalEnsemble.from_pixel(g, Rep.POSITION, k, node_measure, windows, u)


def _density_coefficients(kept: ModeState, measured: ModeState) -> np.ndarray:
    """Coefficients c_d, d = 0 .. n-1, of the outcome density

    D(s) = dq^3/(2 pi) [c_0 + 2 Re sum_{d>=1} c_d exp(-i s d dq)],

    with c_d = R_d sum_m |kept_m|^2 exp(i q_m d dq) and R_d the
    autocorrelation sum_j psi_{j+d} conj(psi_j) of the measured mode.
    """
    g = measured.grid
    n = g.n_points
    spec = np.fft.fft(as_rep(measured, Rep.POSITION).amplitudes, 2 * n)
    autocorr = np.fft.ifft(np.abs(spec) ** 2)[:n]
    weights = _czt(np.abs(kept.amplitudes) ** 2, g.dq**2, -(n // 2), n, 0)
    return autocorr * weights


def _density_on_lattice(
    coeffs: np.ndarray, dq: float, offsets: np.ndarray, h: float, a0: int, n_out: int
) -> np.ndarray:
    """D(offset + (a0 + a) h) for a = 0 .. n_out - 1, one row per offset."""
    half = coeffs.copy()
    half[0] *= 0.5
    series = _czt(half, -h * dq, 0, n_out, a0, tilt=(0.0, -dq * offsets))  # exp(-i dq offset d)
    return np.maximum(series.real * (dq**3 / math.pi), 0.0)


def outcome_distribution(
    data: ModeState, ancilla: ModeState, det: DetectorParams
) -> dict[int, float]:
    """Pixel distribution of the ancilla's momentum after CZ between data and ancilla.

    This is the syndrome distribution of :func:`gkp_error_correct`, as an
    ordered ``{k: probability}`` map over the pixels the outcome density
    reaches, computed in O(n log n) on any grid without the two-mode state.
    Either state may be in either representation.  Sample regime: the
    momentum samples' masses binned by ``det.pixel_masses``.  Sub-grid
    regime: the outcome density summed over each pixel's ``det.pixel_nodes``,
    on the ``det.live_pixels`` where the sample-lattice density has mass.
    """
    _require_same_grid(data, ancilla)
    kept = as_rep(data, Rep.POSITION)
    g = ancilla.grid
    n = g.n_points
    coeffs = None
    if g.is_self_dual:
        # masses[a] = dp dq sum_m |kept_m|^2 |meas_tilde(p_a - q_m)|^2, a circular convolution
        t = np.abs(as_rep(ancilla, Rep.MOMENTUM).amplitudes) ** 2
        spec = np.fft.rfft(np.abs(kept.amplitudes) ** 2) * np.fft.rfft(np.roll(t, -(n // 2)))
        masses = np.maximum(np.fft.irfft(spec, n), 0.0) * g.dp * g.dq
    else:
        coeffs = _density_coefficients(kept, ancilla)
        masses = g.dp * _density_on_lattice(coeffs, g.dq, np.zeros(1), g.dp, -(n // 2), n)[0]
    if det.sample_aligned(g):
        return det.pixel_masses(g, masses)
    live = det.live_pixels(g, masses)
    if coeffs is None:
        coeffs = _density_coefficients(kept, ancilla)
    offsets, wts = det.pixel_nodes(g, 0)  # every pixel's nodes sit at these offsets from its center
    dens = _density_on_lattice(coeffs, g.dq, offsets, 2.0 * det.eta, live.start, len(live))
    return dict(zip(live, (wts @ dens).tolist()))


# ---------------------------------------------------------------------------
# Fourier gadget


def fourier_gadget_target(psi: ModeState, sigma: float) -> ModeState:
    """Finite-squeezing target of the Fourier gadget: psi convolved with a
    width-sigma Gaussian, read as a momentum wavefunction.  In position that
    is the ideal output F psi under the kernel's transform exp(-sigma^2 q^2 / 2)."""
    return to_momentum(_finite_squeezing_target(apply_fourier(psi), sigma))


def _finite_squeezing_target(ideal: ModeState, sigma: float) -> ModeState:
    """:func:`fourier_gadget_target` from the ideal output F psi, left in position."""
    envelope = np.exp(-0.5 * sigma**2 * ideal.grid.points**2)
    return normalized(ModeState(ideal.grid, Rep.POSITION, envelope * ideal.amplitudes))


@functools.lru_cache(maxsize=_SQUEEZED_ANCILLAE)
def _squeezed_ancilla(sigma: float, grid: QuadratureGrid) -> tuple[ModeState, ModeState]:
    """The Fourier gadget's ancilla ``squeezed_momentum(sigma, grid)`` and its position form."""
    ancilla = squeezed_momentum(sigma, grid)
    return ancilla, as_rep(ancilla, Rep.POSITION)


def fourier_gadget(
    psi: ModeState,
    sigma: float,
    det: DetectorParams,
    postselect_k: int = 0,
) -> GadgetReport:
    """Post-selected measurement-based Fourier transform.

    Entangles psi with a sigma-squeezed ancilla through CZ, measures the
    input mode with resolution 2*eta, and conditions on pixel
    ``postselect_k``.  The report carries the pixel probability (for k=0,
    compared against the leading order 2*eta*sigma/sqrt(pi) in the
    diagnostics) and the conditional ensemble on the output arm; for k != 0
    the conditional state carries an uncorrected outcome-dependent phase and
    is reported as-is.  The diagnostics always carry both fidelities, against
    F psi and against :func:`fourier_gadget_target`.
    """
    return _fourier_gadget(psi, sigma, det, postselect_k)[0]


def _fourier_gadget(
    psi: ModeState, sigma: float, det: DetectorParams, postselect_k: int
) -> tuple[GadgetReport, ModeState]:
    """:func:`fourier_gadget`'s report, and the ideal output F psi its fidelities read."""
    pos = as_rep(psi, Rep.POSITION)
    ancilla, kept = _squeezed_ancilla(sigma, pos.grid)
    check_edge_support(ancilla)  # a reused ancilla warns as a fresh build would
    ens = _condition(kept, pos, det, postselect_k)
    ideal = apply_fourier(pos)
    diagnostics: dict[str, float] = {
        "leading_order_probability": 2.0 * det.eta * sigma / SQRT_PI,
        "ensemble_purity": ens.purity(),
        "fidelity_vs_ideal_fourier": ensemble_fidelity(ens, ideal),
        "fidelity_vs_finite_squeezing_target": ensemble_fidelity(ens, _finite_squeezing_target(ideal, sigma)),
    }
    return GadgetReport(
        outcome_k=postselect_k,
        outcome_value=det.bin_center(postselect_k),
        output=ens,
        diagnostics=diagnostics,
    ), ideal


# ---------------------------------------------------------------------------
# GKP error correction


def gkp_error_correct(
    data: ModeState,
    ancilla_params: GkpParams,
    ancilla_noise: ShiftNoise,
    det: DetectorParams,
    seed: int | None = None,
    fixed_outcome_k: int | None = None,
    known_data_shift: tuple[float, float] | None = None,
    ancilla_state: ModeState | None = None,
) -> GadgetReport:
    """Measure q mod sqrt(pi) of the data mode through a GKP ancilla and shift it back.

    The ancilla (|0> comb, built once per grid and params, unless
    ``ancilla_state`` is supplied) passes through the shift-noise channel, is
    entangled to the data with CZ, and its momentum is measured with resolution
    2*eta; the outcome pixel center p_k determines the corrective displacement
    by minus the centered representative of p_k mod sqrt(pi).  When the data
    mode's own shift (u1, v1) is known to the caller, the diagnostics report
    whether the recovery threshold |u1 - v2| <= sqrt(pi)/2 - eta held and
    whether the applied correction left a logical (+-sqrt(pi)) offset.

    Fixed outcomes win over the seeded sampler, and seeds are made only when
    something is drawn or a seed is given.  The returned ensemble is the
    corrected data mode, with the correction pending as its ``u``; the
    measured mode is gone.
    """
    det.require_gkp_compatible()
    if ancilla_state is None:  # a reused comb warns as a fresh build would
        ancilla_state = _default_ancilla(ancilla_params, data.grid)
        check_edge_support(ancilla_state)
    # on a self-dual grid the ancilla goes in momentum: one transform serves the
    # outcome masses and the pixel windows
    anc_rep = Rep.MOMENTUM if ancilla_state.grid.is_self_dual else Rep.POSITION
    if seed is not None or fixed_outcome_k is None or ancilla_noise != ShiftNoise.none():
        noise_seed, outcome_seed = np.random.SeedSequence(seed).generate_state(2).tolist()
        anc, (u2, v2) = _apply_shift_noise(ancilla_state, ancilla_noise, noise_seed, anc_rep)
    else:  # bit for bit the zero draw: N(0, 0) reads +0.0
        anc, (u2, v2) = as_rep(ancilla_state, anc_rep), (0.0, 0.0)
    data_pos = as_rep(data, Rep.POSITION)

    if fixed_outcome_k is not None:
        k = fixed_outcome_k
    else:
        k = sample_outcome(outcome_distribution(data_pos, anc, det), outcome_seed)
    p_k = det.bin_center(k)
    # p_k = 2k eta and sqrt(pi) = m eta: the centered residue of 2k mod m, in integers, is exactly 0 on
    # the sqrt(pi) lattice and takes the half-open side, -sqrt(pi)/2, on a half-window tie
    m = round(SQRT_PI / det.eta)
    correction = -((2 * k + m // 2) % m - m // 2) / m * SQRT_PI

    # the correction is left pending on the ensemble: its readers shift one vector, not every row
    corrected = _condition(data_pos, anc, det, k, u=correction)

    diagnostics: dict[str, float] = {
        "applied_correction": correction,
        "ancilla_u2": u2,
        "ancilla_v2": v2,
    }
    if known_data_shift is not None:
        u1, _v1 = known_data_shift
        margin = SQRT_PI / 2.0 - det.eta
        diagnostics["threshold_held"] = float(abs(u1 - v2) <= margin)
        net = u1 + correction
        diagnostics["net_position_offset"] = net
        diagnostics["logical_miscorrection"] = float(abs(net) > SQRT_PI / 2.0)
    return GadgetReport(
        outcome_k=k,
        outcome_value=p_k,
        output=corrected,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# error-corrected Fourier pipeline


def error_corrected_fourier(
    psi: ModeState,
    gkp: GkpParams,
    sigma: float,
    det: DetectorParams,
    seed: int | None = None,
    fixed_outcome_k: int | None = None,
) -> GadgetReport:
    """Fourier gadget followed by GKP error correction in q.

    Only |+> GKP ancillae are assumed available; the |0> comb wanted by the
    correction step is produced inline by a second post-selected Fourier
    gadget acting on |+>.  Mixed intermediate states are carried forward by
    their principal component (the pixel ensembles are nearly pure for the
    resolutions of interest; purities are reported).  The output is the
    correction stage's ensemble with each weight multiplied by the two
    Fourier-stage probabilities: its weights are joint masses over the three
    stages, so its total, the reported success probability, is the product
    of the three conditioning probabilities, and its weight-normalized
    fidelity and purity are the correction stage's.

    The syndrome tooth index is a random integer; on a finite-envelope comb
    the far teeth condition slightly differently, so deterministic
    experiments can pin the correction outcome with ``fixed_outcome_k``.
    """
    g = psi.grid
    fg_data, ideal = _fourier_gadget(psi, sigma, det, 0)
    data1 = fg_data.output.principal_component()

    fg_anc = fourier_gadget(gkp_plus(gkp, g), sigma, det, postselect_k=0)
    anc0 = fg_anc.output.principal_component()

    ec = gkp_error_correct(
        data1,
        gkp,
        ShiftNoise.none(),
        det,
        seed=seed,
        fixed_outcome_k=fixed_outcome_k,
        ancilla_state=anc0,
    )
    diagnostics: dict[str, float] = {
        "probability_fourier_stage": fg_data.success_probability,
        "probability_ancilla_stage": fg_anc.success_probability,
        "probability_correction_stage": ec.success_probability,
        "purity_fourier_stage": fg_data.diagnostics["ensemble_purity"],
        "purity_ancilla_stage": fg_anc.diagnostics["ensemble_purity"],
        "fidelity_vs_ideal_fourier": ensemble_fidelity(ec.output, ideal),
        "uncorrected_fidelity_vs_ideal_fourier": fg_data.diagnostics[
            "fidelity_vs_ideal_fourier"
        ],
    }
    out = ec.output
    stages = fg_data.success_probability * fg_anc.success_probability
    joint = ConditionalEnsemble(out.grid, out.rep, out.weights * stages, out.windows, out.u)
    return GadgetReport(
        outcome_k=ec.outcome_k,
        outcome_value=ec.outcome_value,
        output=joint,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# DV reference simulator


@dataclass(frozen=True)
class QubitState:
    """Dense statevector on up to 14 qubits; qubit j is bit j of the index."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not (1 <= self.n_qubits <= 14):
            raise ValidationError(f"n_qubits must be in [1, 14], got {self.n_qubits}")
        a = np.asarray(self.amplitudes, dtype=np.complex128)
        if a.shape != (2**self.n_qubits,):
            raise ValidationError(
                f"amplitude length {a.shape} does not match {self.n_qubits} qubits"
            )
        n = np.linalg.norm(a)
        if abs(n - 1.0) > 1e-12:
            raise ValidationError(f"state norm {n} deviates from 1 by more than 1e-12")
        a.flags.writeable = False
        object.__setattr__(self, "amplitudes", a)


def qubit_state(alpha: complex, beta: complex) -> QubitState:
    """Single qubit alpha|0> + beta|1>, normalized."""
    v = np.array([alpha, beta], dtype=np.complex128)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValidationError("zero state")
    return QubitState(1, v / n)


def _hadamard_branches(psi: QubitState) -> tuple[tuple[float, np.ndarray], ...]:
    """(probability, unnormalized output) of the Hadamard gadget's outcomes h = 0 and h = 1."""
    if psi.n_qubits != 1:
        raise ValidationError("the Hadamard gadget takes a single-qubit input")
    a = psi.amplitudes
    # joint amplitudes amp[x1, x2] of |psi> |+> after CZ
    amp = np.outer(a, np.array([1.0, 1.0]) / math.sqrt(2.0))
    amp[1, 1] *= -1.0
    branches = []
    for sign in (1.0, -1.0):
        out = (amp[0, :] + sign * amp[1, :]) / math.sqrt(2.0)
        branches.append((float(np.sum(np.abs(out) ** 2)), out))
    return tuple(branches)


def dv_hadamard_gadget(
    psi: QubitState,
    postselect: int | None = None,
    seed: int | None = None,
) -> tuple[QubitState, int, float]:
    """The Hadamard gadget: |psi>|+>, CZ, X-basis measurement of qubit 1.

    Returns (output qubit, h, outcome probability).  The output equals
    X^h H |psi> exactly; the probability of either outcome is 1/2 regardless
    of the input.  The outcome is run 0 of ``dv_hadamard_trials(psi, 1,
    postselect, seed)``: ``postselect`` forces +1 or -1, otherwise it is
    drawn with the seed, which must lie below 2**128.
    """
    hs, probs = dv_hadamard_trials(psi, 1, postselect, seed)
    h = int(hs[0])
    prob = float(probs[0])
    return QubitState(1, _hadamard_branches(psi)[h][1] / math.sqrt(prob)), h, prob


def dv_hadamard_trials(
    psi: QubitState,
    trials: int,
    postselect: int | None = None,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes h (int64) and their probabilities (float64) of ``trials``
    Hadamard-gadget runs on psi, one array entry per run.

    ``postselect`` (+1 -> h = 0, -1 -> h = 1) forces every outcome.  Otherwise
    run t has h = 0 when ``np.random.default_rng(seed + t).random()`` falls
    below the probability of h = 0; the draws are batched bit for bit
    (``seeding._seeded_uniforms``), so seeds must stay below 2**128.  With
    ``seed`` None the runs share one unseeded generator.
    """
    if trials < 0:
        raise ValidationError(f"trials must be non-negative, got {trials}")
    branches = _hadamard_branches(psi)
    p0 = branches[0][0]
    if postselect is not None:
        if postselect not in (1, -1):
            raise ValidationError("postselect must be +1 or -1")
        hs = np.full(trials, (1 - postselect) // 2, dtype=np.int64)
    else:
        u = np.random.default_rng().random(trials) if seed is None else _seeded_uniforms(seed, trials)
        hs = (u >= p0).astype(np.int64)
    probs = np.array([p0, branches[1][0]])[hs]
    if np.any(probs <= 0.0):
        raise NumericalError("conditioning outcome has zero probability")
    return hs, probs


def _hadamard_transform_all(amp: np.ndarray, n: int) -> np.ndarray:
    a = amp.reshape((2,) * n)
    for axis in range(n):
        a = np.moveaxis(a, axis, 0)
        a = np.stack([a[0] + a[1], a[0] - a[1]]) / math.sqrt(2.0)
        a = np.moveaxis(a, 0, axis)
    return a.reshape(-1)


def dv_iqp_circuit(
    n_qubits: int,
    gates: Sequence[tuple[Iterable[int], float]],
    postselect: Sequence[tuple[int, int]] | None = None,
) -> np.ndarray:
    """Statevector IQP circuit: |+>^n input, Z-diagonal phases, X-basis output.

    Each gate is (qubit subset, theta) implementing exp(i theta prod_j Z_j).
    Returns the length 2^n outcome distribution, where bit j of the index is
    the qubit-j outcome (0 for +, 1 for -).  With ``postselect`` given as
    (qubit, outcome in {+1, -1}) pairs, the renormalized conditional
    distribution is returned (zero off the conditioning set); conditioning on
    a zero-probability event raises NumericalError.
    """
    if not (1 <= n_qubits <= 14):
        raise ValidationError(f"n_qubits must be in [1, 14], got {n_qubits}")
    dim = 2**n_qubits
    amp = np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)
    idx = np.arange(dim)
    for subset, theta in gates:
        mask = 0
        for j in subset:
            if not 0 <= j < n_qubits:
                raise ValidationError(f"gate touches qubit {j} outside the register")
            mask |= 1 << j
        bits = idx & mask
        parity = np.zeros(dim, dtype=np.int64)
        b = bits
        while np.any(b):
            parity ^= b & 1
            b >>= 1
        amp = amp * np.exp(1j * theta * np.where(parity, -1.0, 1.0))
    amp = _hadamard_transform_all(amp, n_qubits)
    probs = np.abs(amp) ** 2
    if postselect:
        keep = np.ones(dim, dtype=bool)
        for qubit, outcome in postselect:
            if outcome not in (1, -1):
                raise ValidationError("postselect outcomes must be +1 or -1")
            want = 0 if outcome == 1 else 1
            keep &= ((idx >> qubit) & 1) == want
        mass = float(np.sum(probs[keep]))
        if mass <= 0.0:
            raise NumericalError("conditioning event has zero probability")
        probs = np.where(keep, probs, 0.0) / mass
    return probs
