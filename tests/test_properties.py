"""Property-based checks: the product-input engine against the two-mode oracle.

Each example draws a configuration and compares what the engine reports with
``project_bin`` on the materialized state ``apply_cz(tensor(data, ancilla))``.
Grids stay at 512 points or fewer, so the n x n oracle is cheap.  The DV
trials' batched seeded draws are checked against numpy's generator the same
way.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cviqp.gadgets import (
    ShiftNoise,
    fourier_gadget,
    fourier_gadget_target,
    gkp_error_correct,
    outcome_distribution,
)
from cviqp.gates import apply_cz, tensor
from cviqp.homodyne import (
    ConditionalEnsemble,
    DetectorParams,
    PixelWindows,
    bin_probabilities,
    ensemble_fidelity,
    project_bin,
)
from cviqp.quadgrid import Rep, as_rep, make_grid, self_dual_grid
from cviqp.seeding import _seeded_uniforms
from cviqp.states import MIN_SAMPLES_PER_STD, GkpParams, gkp_plus, squeezed_momentum

from conftest import random_smooth_state

SQRT_PI = math.sqrt(math.pi)


@st.composite
def mode_states(draw, grid):
    """A squeezed vacuum, a GKP comb or a random smooth state, resolvable on ``grid``."""
    finest = 1.01 * MIN_SAMPLES_PER_STD * grid.dq  # dq == dp on a self-dual grid, up to rounding
    # a comb's spikes (delta <= 1) are unresolvable on the coarsest general grids
    kind = draw(st.sampled_from(["squeezed", "gkp", "smooth"] if finest < 1.0 else ["squeezed", "smooth"]))
    if kind == "squeezed":
        # momentum width sigma >= 4 dp and position width 1/sigma >= 4 dq
        lo = finest if grid.is_self_dual else 1.01 * MIN_SAMPLES_PER_STD * grid.dp
        return squeezed_momentum(draw(st.floats(lo, 1.0 / finest)), grid)
    if kind == "gkp":
        return gkp_plus(GkpParams.tied(draw(st.floats(finest, 1.0))), grid)
    return random_smooth_state(grid, seed=draw(st.integers(0, 2**16)))


@st.composite
def self_dual_pixels(draw):
    """(data, ancilla, detector, pixel) on a self-dual grid in the sample regime."""
    grid = self_dual_grid(draw(st.sampled_from([128, 256, 512])))
    m = draw(st.integers(1, int(SQRT_PI / (2.0 * grid.dp))))  # eta = sqrt(pi)/m >= 2 dp
    det = DetectorParams(eta=SQRT_PI / m)
    data = draw(mode_states(grid))
    ancilla = draw(mode_states(grid))
    dist = outcome_distribution(data, ancilla, det)
    k = draw(st.sampled_from([k for k, p in dist.items() if p > 1e-6]))
    return data, ancilla, det, k


@settings(derandomize=True, deadline=None, max_examples=30)
@given(self_dual_pixels())
def test_factored_ensemble_matches_the_oracle(case):
    data, ancilla, det, k = case
    rep = gkp_error_correct(
        data, GkpParams.tied(0.5), ShiftNoise.none(), det, fixed_outcome_k=k, ancilla_state=ancilla
    )
    ens = rep.output
    oracle = project_bin(apply_cz(tensor(data, ancilla)), 2, k, det)
    assert ens.windows is not None
    assert rep.success_probability == ens.total_probability
    assert len(ens.weights) == len(oracle.weights)
    assert np.max(np.abs(ens.weights - oracle.weights)) <= 1e-13
    # rows read lazily, compared as they enter rho: a row of negligible weight,
    # normalized, carries the oracle's rounding magnified by 1/sqrt(weight)
    scaled = np.sqrt(ens.weights)[:, np.newaxis] * ens.rows
    assert np.max(np.abs(scaled - np.sqrt(oracle.weights)[:, np.newaxis] * oracle.rows)) <= 1e-12

    shifted = ConditionalEnsemble(oracle.grid, oracle.rep, oracle.weights, oracle.rows, u=ens.u)
    for target in (data, as_rep(ancilla, Rep.MOMENTUM)):
        assert abs(ensemble_fidelity(ens, target) - ensemble_fidelity(shifted, target)) <= 1e-13
    assert abs(ens.purity() - oracle.purity()) <= 1e-13


@st.composite
def pixel_queries(draw):
    """(grid, detector, pixel, sample masses) in the sample regime, where eta is
    often a whole number of dp, so that samples sit on pixel edges, where
    rounding decides the pixel, or in the sub-grid regime (eta < 2 dp)."""
    n = draw(st.sampled_from([64, 256, 1024, 65536]))
    grid = self_dual_grid(n) if draw(st.booleans()) else make_grid(n, draw(st.floats(8.0, 400.0)))
    kind = draw(st.sampled_from(["steps", "sample", "sub_grid"]))
    if kind == "steps":
        eta = draw(st.integers(2, 40)) * grid.dp
    else:
        eta = draw(st.floats(2.0, 40.0) if kind == "sample" else st.floats(0.05, 1.99)) * grid.dp
    det = DetectorParams(eta=eta)
    bins = det.bin_of(grid.momentum_points)
    masses = np.random.default_rng(draw(st.integers(0, 2**32))).random(n)
    return grid, det, draw(st.integers(int(bins[0]) - 2, int(bins[-1]) + 2)), masses


@settings(derandomize=True, deadline=None, max_examples=200)
@given(pixel_queries())
def test_bisected_pixel_range_is_the_bin_of_mask(case):
    grid, det, k, masses = case
    samples = det.pixel_samples(grid, k)
    lo, hi = samples.start, samples.stop
    assert np.array_equal(np.arange(lo, hi), np.nonzero(det.bin_of(grid.momentum_points) == k)[0])

    nodes, measures = det.pixel_nodes(grid, k)
    if det.sample_aligned(grid):
        assert np.array_equal(nodes, grid.momentum_points[det.bin_of(grid.momentum_points) == k])
        assert np.array_equal(measures, np.full(len(nodes), grid.dp))
    else:
        # hi - lo, not 2 eta: at large |k|, (c + eta) - (c - eta) loses bits
        p_lo, p_hi = det.bin_interval(k)
        assert np.all((p_lo < nodes) & (nodes < p_hi))
        assert abs(np.sum(measures) - (p_hi - p_lo)) <= 1e-14 * (p_hi - p_lo)
    total = np.sum(masses)
    assert abs(sum(det.pixel_masses(grid, masses).values()) - total) <= 1e-13 * total


@st.composite
def pixels(draw, self_dual, sample):
    """(data, ancilla, detector, pixel) on a self-dual or a general grid, in
    the sample or the sub-grid regime."""
    n = draw(st.sampled_from([128, 256, 512]))
    if self_dual:
        grid = self_dual_grid(n)
    else:
        grid = make_grid(n, draw(st.sampled_from([0.5, 2.0])) * math.sqrt(2.0 * math.pi * n))
    edge = int(SQRT_PI / (2.0 * grid.dp))  # eta = sqrt(pi)/m >= 2 dp up to m = edge
    if sample:
        m = draw(st.integers(1, edge))
    else:
        m = draw(st.integers(edge + 1, 4 * (edge + 1)))
    det = DetectorParams(eta=SQRT_PI / m)
    data = draw(mode_states(grid))
    ancilla = draw(mode_states(grid))
    dist = outcome_distribution(data, ancilla, det)
    k = draw(st.sampled_from([k for k, p in dist.items() if p > 1e-6]))
    return data, ancilla, det, k


# every grid kind meets every regime, so no combination rests on the draws
@pytest.mark.parametrize("self_dual", [True, False], ids=["self_dual", "general"])
@pytest.mark.parametrize("sample", [True, False], ids=["sample", "sub_grid"])
@settings(derandomize=True, deadline=None, max_examples=10)
@given(draws=st.data())
def test_engine_matches_the_oracle_on_every_grid_and_regime(self_dual, sample, draws):
    data, ancilla, det, k = draws.draw(pixels(self_dual, sample))
    grid = data.grid
    assert grid.is_self_dual == self_dual and det.sample_aligned(grid) == sample
    rep = gkp_error_correct(
        data, GkpParams.tied(0.5), ShiftNoise.none(), det, fixed_outcome_k=k, ancilla_state=ancilla
    )
    ens = rep.output
    joint = apply_cz(tensor(data, ancilla))
    oracle = project_bin(joint, 2, k, det)
    assert isinstance(ens.windows, PixelWindows)  # every grid and regime keeps the factors
    assert len(ens.weights) == len(oracle.weights)
    assert np.max(np.abs(ens.weights - oracle.weights)) <= 1e-13
    assert abs(rep.success_probability - oracle.total_probability) <= 1e-13
    scaled = np.sqrt(ens.weights)[:, np.newaxis] * ens.rows
    assert np.max(np.abs(scaled - np.sqrt(oracle.weights)[:, np.newaxis] * oracle.rows)) <= 1e-12

    # the engine's sub-grid pixel range may be wider than the oracle's: compare values, not
    # ranges.  A pixel beyond the grid's momentum window is absent from the engine's map and
    # reads wrapped (aliased) mass in the oracle, so only pixels the window meets are compared.
    window = set(det.bin_of(grid.momentum_points).tolist())
    ks = [j for j in range(k - 2, k + 3) if j in window]
    dist = outcome_distribution(data, ancilla, det)
    oracle_dist = bin_probabilities(joint, 2, det, k_range=ks, warn_tail=False)
    for j in ks:
        assert abs(dist.get(j, 0.0) - oracle_dist[j]) <= 1e-13


@st.composite
def fourier_gadget_inputs(draw, self_dual, sample):
    """(psi, sigma, detector) on a self-dual or a general grid, in the sample or
    the sub-grid regime; sigma is log-uniform over the range the grid resolves."""
    n = draw(st.sampled_from([128, 256, 512]))
    if self_dual:
        grid = self_dual_grid(n)
    else:
        grid = make_grid(n, draw(st.sampled_from([0.5, 2.0])) * math.sqrt(2.0 * math.pi * n))
    # momentum width sigma >= 4 dp and position width 1/sigma >= 4 dq
    lo, hi = 1.01 * MIN_SAMPLES_PER_STD * grid.dp, 1.0 / (1.01 * MIN_SAMPLES_PER_STD * grid.dq)
    sigma = math.exp(draw(st.floats(math.log(lo), math.log(hi))))
    edge = 2.0 * grid.dp  # the sample regime starts at eta = 2 dp
    eta = draw(st.floats(edge, 8.0 * edge) if sample else st.floats(edge / 16.0, edge, exclude_max=True))
    return draw(mode_states(grid)), sigma, DetectorParams(eta=eta)


@pytest.mark.parametrize("self_dual", [True, False], ids=["self_dual", "general"])
@pytest.mark.parametrize("sample", [True, False], ids=["sample", "sub_grid"])
@settings(derandomize=True, deadline=None, max_examples=10)
@given(draws=st.data())
def test_fourier_gadget_matches_the_oracle_on_every_grid_and_regime(self_dual, sample, draws):
    psi, sigma, det = draws.draw(fourier_gadget_inputs(self_dual, sample))
    assert psi.grid.is_self_dual == self_dual and det.sample_aligned(psi.grid) == sample
    rep = fourier_gadget(psi, sigma, det)
    ens = rep.output
    kept = as_rep(squeezed_momentum(sigma, psi.grid), Rep.POSITION)
    oracle = project_bin(apply_cz(tensor(psi, kept)), 1, 0, det)
    assert isinstance(ens.windows, PixelWindows)  # every grid and regime keeps the factors
    assert len(ens.weights) == len(oracle.weights)
    assert np.max(np.abs(ens.weights - oracle.weights)) <= 1e-13
    assert abs(rep.success_probability - oracle.total_probability) <= 1e-13
    assert abs(rep.diagnostics["ensemble_purity"] - oracle.purity()) <= 1e-13
    target = fourier_gadget_target(psi, sigma)
    fid = rep.diagnostics["fidelity_vs_finite_squeezing_target"]
    assert abs(fid - ensemble_fidelity(oracle, target)) <= 1e-13


@settings(derandomize=True, deadline=None, max_examples=50)
@given(bits=st.integers(0, 128), offset=st.integers(0, 2**128 - 1), count=st.integers(1, 40))
def test_seeded_uniforms_match_numpy(bits, offset, count):
    first = max(0, (offset >> (128 - bits)) - count)  # seeds of every word length below 2**128
    want = [np.random.default_rng(first + t).random() for t in range(count)]
    assert _seeded_uniforms(first, count).tolist() == want
