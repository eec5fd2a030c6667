import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from cviqp.errors import ValidationError, ZeroMassBinError
from cviqp.gates import apply_cz, tensor
from cviqp.homodyne import (
    ConditionalEnsemble,
    DetectorParams,
    PixelWindows,
    TailMassWarning,
    bin_probabilities,
    ensemble_fidelity,
    gkp_readout,
    project_bin,
    sample_outcome,
    sample_outcomes,
)
from cviqp.quadgrid import (
    ModeState,
    Rep,
    fidelity_pure,
    make_grid,
    normalized,
    transform_mode,
)
from cviqp.states import GkpParams, gkp_minus, gkp_plus, gkp_zero, squeezed_momentum
from cviqp.analysis import pe_bound

from conftest import random_smooth_state

SQRT_PI = math.sqrt(math.pi)


def vacuum(grid):
    q = grid.points
    return normalized(ModeState(grid, Rep.POSITION, np.exp(-(q**2) / 2.0)))


class TestDetectorParams:
    def test_bin_layout(self):
        det = DetectorParams(eta=0.25)
        assert det.bin_center(3) == 1.5
        assert det.bin_interval(0) == (-0.25, 0.25)
        assert det.bin_of(0.2) == 0
        assert det.bin_of(0.25) == 1  # half-open: upper edge belongs to the next bin
        assert det.bin_of(-0.25) == 0

    def test_gkp_compatibility(self):
        assert DetectorParams(eta=SQRT_PI / 8).gkp_compatible
        assert not DetectorParams(eta=0.2).gkp_compatible
        with pytest.raises(ValidationError):
            DetectorParams(eta=0.2).require_gkp_compatible()

    def test_positive_eta_required(self):
        with pytest.raises(ValidationError):
            DetectorParams(eta=0.0)

    @pytest.mark.parametrize("eta", [math.inf, math.nan], ids=["inf", "nan"])
    def test_finite_eta_required(self, eta):
        with pytest.raises(ValidationError):
            DetectorParams(eta=eta)

    @pytest.mark.parametrize("n", [1024, 65536])
    def test_pixel_samples_read_a_few_bins_whatever_the_grid_size(self, n, monkeypatch):
        # each end is stepped from a guess at the pixel edge, not searched for
        grid = make_grid(n, 64.0)
        det = DetectorParams(eta=SQRT_PI / 4)
        calls, bin_of = [], DetectorParams.bin_of
        monkeypatch.setattr(DetectorParams, "bin_of", lambda self, p: calls.append(p) or bin_of(self, p))
        for k in (-1000, -3, 0, 1, 7, 1000):
            calls.clear()
            det.pixel_samples(grid, k)
            assert len(calls) <= 6


class TestBinProbabilities:
    def test_squeezed_mode_concentrated_in_central_bin(self):
        grid = make_grid(4096, 256.0)
        st = tensor(squeezed_momentum(0.1, grid), vacuum(grid))
        st = transform_mode(st, 1, Rep.POSITION)
        probs = bin_probabilities(st, 1, DetectorParams(eta=0.5), k_range=[0])
        assert probs[0] > 0.9999

    @pytest.mark.parametrize("seed", range(4))
    def test_completeness_sample_regime(self, grid_small, seed):
        st = tensor(random_smooth_state(grid_small, seed=seed), random_smooth_state(grid_small, seed=seed + 50))
        probs = bin_probabilities(st, 1, DetectorParams(eta=0.5))
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-8)

    def test_sample_equivalence_oracle(self, grid_small):
        # binning perfectly resolved per-sample masses reproduces the bin projector
        st = tensor(random_smooth_state(grid_small, seed=1), random_smooth_state(grid_small, seed=2))
        det = DetectorParams(eta=0.5)
        tilted = transform_mode(st, 1, Rep.MOMENTUM)
        per_sample = np.sum(np.abs(tilted.amplitudes) ** 2, axis=1) * grid_small.dq * grid_small.dp
        expected: dict[int, float] = {}
        for p, m in zip(grid_small.momentum_points, per_sample):
            k = int(np.floor((p + det.eta) / (2 * det.eta)))
            expected[k] = expected.get(k, 0.0) + float(m)
        probs = bin_probabilities(st, 1, det)
        for k, v in expected.items():
            assert probs.get(k, 0.0) == pytest.approx(v, abs=1e-12)

    def test_bin_disjointness_on_grid(self, grid_small):
        det = DetectorParams(eta=0.5)
        bins = det.bin_of(grid_small.momentum_points)
        # every sample belongs to exactly one bin and the union covers the grid
        assert bins.shape == (grid_small.n_points,)
        boundaries = np.flatnonzero(np.diff(bins))
        assert np.all(np.diff(bins)[boundaries] == 1)

    def test_gadget_state_central_bin_matches_leading_order(self):
        grid = make_grid(4096, 256.0)
        sigma, eta = 0.1, 0.01
        st = apply_cz(tensor(vacuum(grid), squeezed_momentum(sigma, grid)))
        probs = bin_probabilities(st, 1, DetectorParams(eta=eta), k_range=[0], warn_tail=False)
        lead = 2 * eta * sigma / SQRT_PI
        assert probs[0] == pytest.approx(lead, rel=0.05)

    def test_linear_eta_scaling(self):
        # slope of log P vs log eta equals 1.00 +- 0.05
        grid = make_grid(2048, 128.0)
        sigma = 0.2
        st = apply_cz(tensor(vacuum(grid), squeezed_momentum(sigma, grid)))
        etas = np.array([0.005, 0.01, 0.02, 0.04])
        ps = [
            bin_probabilities(st, 1, DetectorParams(eta=e), k_range=[0], warn_tail=False)[0]
            for e in etas
        ]
        slope = np.polyfit(np.log(etas), np.log(ps), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_eta_below_resolution_uses_quadrature(self, grid_small):
        # sub-grid bins are legal and consistent: P[0] ~ density(0) * 2 eta
        st = tensor(random_smooth_state(grid_small, seed=3), random_smooth_state(grid_small, seed=4))
        det_a = DetectorParams(eta=0.02)
        det_b = DetectorParams(eta=0.01)
        pa = bin_probabilities(st, 1, det_a, k_range=[0], warn_tail=False)[0]
        pb = bin_probabilities(st, 1, det_b, k_range=[0], warn_tail=False)[0]
        assert pa == pytest.approx(2.0 * pb, rel=5e-3)


    @pytest.mark.parametrize("eta", [0.5, 0.02], ids=["sample", "sub_grid"])
    def test_range_missing_mass_warns_unless_told_not_to(self, grid_small, eta):
        st = tensor(random_smooth_state(grid_small, seed=3), random_smooth_state(grid_small, seed=4))
        det = DetectorParams(eta=eta)
        with pytest.warns(TailMassWarning, match="miss"):
            bin_probabilities(st, 1, det, k_range=[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bin_probabilities(st, 1, det, k_range=[0], warn_tail=False)


class TestProjectBin:
    def test_product_state_components_equal_unmeasured_mode(self, grid_small):
        a = random_smooth_state(grid_small, seed=5)
        b = random_smooth_state(grid_small, seed=6)
        ens = project_bin(tensor(a, b), 1, 0, DetectorParams(eta=0.5))
        for comp in (ModeState(ens.grid, ens.rep, row) for row in ens.components):
            assert fidelity_pure(comp, b) == pytest.approx(1.0, abs=1e-10)

    def test_weights_sum_to_bin_probability(self, grid_small):
        a = random_smooth_state(grid_small, seed=7)
        b = random_smooth_state(grid_small, seed=8)
        st = apply_cz(tensor(a, b))
        det = DetectorParams(eta=0.5)
        ens = project_bin(st, 1, 1, det)
        prob = bin_probabilities(st, 1, det, k_range=[1], warn_tail=False)[1]
        assert np.all(ens.weights >= 0)
        assert ens.total_probability == pytest.approx(prob, abs=1e-10)
        assert np.sum(ens.weights) == pytest.approx(ens.total_probability, abs=1e-12)

    def test_zero_mass_bin_raises(self, grid_small):
        st = tensor(vacuum(grid_small), vacuum(grid_small))
        with pytest.raises(ZeroMassBinError):
            project_bin(st, 1, 200, DetectorParams(eta=0.5))

    def test_measuring_mode2_slices_mode1(self, grid_small):
        a = random_smooth_state(grid_small, seed=9)
        b = random_smooth_state(grid_small, seed=10)
        ens = project_bin(tensor(a, b), 2, 0, DetectorParams(eta=0.5))
        for comp in (ModeState(ens.grid, ens.rep, row) for row in ens.components):
            assert fidelity_pure(comp, a) == pytest.approx(1.0, abs=1e-10)


class TestFromPixel:
    """``ConditionalEnsemble.from_pixel`` weighs, drops and normalizes a pixel's rows,
    here given as factors: each row its own stack vector, with a kept mode of ones."""

    measures = np.array([0.5, 0.25, 0.125, 2.0])

    @staticmethod
    def vectors(grid):
        rng = np.random.default_rng(21)
        v = 0.1 * (rng.normal(size=(4, grid.n_points)) + 1j * rng.normal(size=(4, grid.n_points)))
        v[2] = 0.0
        return v

    def test_weights_are_measure_times_squared_norm(self, grid_small):
        v = self.vectors(grid_small)
        ens = ConditionalEnsemble.from_pixel(grid_small, Rep.MOMENTUM, 3, self.measures, PixelWindows.of_rows(v))
        expected = self.measures * np.sum(np.abs(v) ** 2, axis=1) * grid_small.dp
        kept = [0, 1, 3]
        np.testing.assert_allclose(ens.weights, expected[kept], rtol=1e-15, atol=0.0)
        assert ens.total_probability == float(np.sum(ens.weights))

    def test_zero_row_is_dropped(self, grid_small):
        v = self.vectors(grid_small)
        ens = ConditionalEnsemble.from_pixel(grid_small, Rep.MOMENTUM, 3, self.measures, PixelWindows.of_rows(v))
        assert len(ens.weights) == len(ens.rows) == len(ens.components) == 3
        assert np.all(ens.weights > 0.0)
        for row, i in zip(ens.rows, [0, 1, 3]):
            assert abs(np.vdot(row, v[i])) > 0.0

    def test_rows_are_unit_norm(self, grid_small):
        v = self.vectors(grid_small)
        ens = ConditionalEnsemble.from_pixel(grid_small, Rep.MOMENTUM, 3, self.measures, PixelWindows.of_rows(v))
        norms = np.sum(np.abs(ens.rows) ** 2, axis=1) * grid_small.dp
        assert np.max(np.abs(norms - 1.0)) <= 1e-14

    def test_read_only_rows_are_copied(self, grid_small):
        v = self.vectors(grid_small)[[0, 1, 3]]
        v.flags.writeable = False
        before = v.copy()
        ens = ConditionalEnsemble.from_pixel(grid_small, Rep.POSITION, 0, self.measures[:3], PixelWindows.of_rows(v))
        assert np.array_equal(v, before)
        norms = np.sum(np.abs(ens.rows) ** 2, axis=1) * grid_small.dq
        assert np.max(np.abs(norms - 1.0)) <= 1e-14

    def test_zero_mass_pixel_raises_naming_k(self, grid_small):
        v = 1e-10 * self.vectors(grid_small)
        with pytest.raises(ZeroMassBinError, match="k=-7"):
            ConditionalEnsemble.from_pixel(grid_small, Rep.POSITION, -7, self.measures, PixelWindows.of_rows(v))


class TestEnsembleFidelity:
    def test_single_component_equal_to_target(self, grid_small):
        psi = random_smooth_state(grid_small, seed=11)
        ens = ConditionalEnsemble(grid_small, psi.rep, [0.3], [psi.amplitudes])
        assert ensemble_fidelity(ens, psi) == pytest.approx(1.0, abs=1e-12)

    def test_equal_mixture_with_orthogonal_state(self, grid_small):
        psi = random_smooth_state(grid_small, seed=12)
        q = grid_small.points
        other = normalized(ModeState(grid_small, Rep.POSITION, q * psi.amplitudes))
        # orthogonalize: odd-in-profile construction is not exact, project out overlap
        from cviqp.quadgrid import inner_product

        coeff = inner_product(psi, other)
        orth = normalized(
            ModeState(grid_small, Rep.POSITION, other.amplitudes - coeff * psi.amplitudes)
        )
        rows = [psi.amplitudes, orth.amplitudes]
        ens = ConditionalEnsemble(grid_small, Rep.POSITION, [0.5, 0.5], rows)
        assert ensemble_fidelity(ens, psi) == pytest.approx(0.5, abs=1e-9)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValidationError):
            ConditionalEnsemble(make_grid(256, 30.0), Rep.POSITION, [], np.zeros((0, 256)))


class TestConditionalEnsemble:
    @pytest.mark.parametrize(
        "n_weights, shape", [(1, (2, 256)), (2, (2, 255)), (2, (256,)), (2, (2, 256, 1)), (1, ())]
    )
    def test_components_shape_must_be_weights_by_grid_points(self, grid_small, n_weights, shape):
        with pytest.raises(ValidationError):
            ConditionalEnsemble(grid_small, Rep.POSITION, [0.5] * n_weights, np.ones(shape))

    def test_given_rows_are_normalized(self, grid_small):
        # a given array is read as factors with a kept mode of ones, and built normalized
        psi = random_smooth_state(grid_small, seed=7)
        ens = ConditionalEnsemble(grid_small, Rep.POSITION, [1.0], [2.0 * psi.amplitudes])
        assert ens.purity() == pytest.approx(1.0, abs=1e-14)
        assert abs(np.sum(np.abs(ens.rows[0]) ** 2) * grid_small.dq - 1.0) <= 1e-14
        assert ensemble_fidelity(ens, psi) == pytest.approx(1.0, abs=1e-14)

    def test_arrays_are_read_only(self, grid_small):
        a = random_smooth_state(grid_small, seed=5)
        b = random_smooth_state(grid_small, seed=6)
        ens = project_bin(tensor(a, b), 1, 0, DetectorParams(eta=0.5))
        assert ens.components.shape == (len(ens.weights), grid_small.n_points)
        with pytest.raises(ValueError):
            ens.weights[0] = 0.0
        with pytest.raises(ValueError):
            ens.components[0, 0] = 0.0

    def test_attributes_are_read_only(self, grid_small):
        ens = ConditionalEnsemble(grid_small, Rep.POSITION, [0.25, 0.75], np.ones((2, grid_small.n_points)))
        with pytest.raises(AttributeError):
            ens.u = 1.0
        with pytest.raises(AttributeError):
            ens.weights = np.ones(2)
        assert ens.u == 0.0 and ens.weights.tolist() == [0.25, 0.75]

    def test_purity_and_principal_component_match_the_density_matrix(self, grid_small):
        # oracle: the n x n density matrix sum_i w_i |row_i><row_i| with measure dq
        a = random_smooth_state(grid_small, seed=5)
        b = random_smooth_state(grid_small, seed=6)
        ens = project_bin(tensor(a, b), 1, 0, DetectorParams(eta=0.5))
        assert len(ens.weights) > 1
        rho = (ens.rows.T * ens.weights) @ ens.rows.conj() * grid_small.dq
        assert ens.purity() == pytest.approx(np.sum(np.abs(rho) ** 2) / np.sum(ens.weights) ** 2, abs=1e-13)
        top = np.linalg.eigh(rho)[1][:, -1]
        overlap = np.vdot(top, ens.principal_component().amplitudes) * math.sqrt(grid_small.dq)
        assert abs(overlap) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_caller_arrays_stay_writeable(self, grid_small):
        # the ensemble freezes copies it owns, not the arrays it was given
        weights = np.array([0.25, 0.75])
        rows = np.ones((2, grid_small.n_points), dtype=np.complex128)
        ens = ConditionalEnsemble(grid_small, Rep.POSITION, weights, rows)
        weights[0] = 0.5
        rows[0, 0] = 2.0
        assert ens.weights[0] == 0.25 and ens.windows.stack[0, 0] == 1.0
        for held in (ens.weights, ens.windows.stack, ens.rows):
            with pytest.raises(ValueError):
                held[0] = 0.0


@st.composite
def factored_rows(draw):
    """(grid, rep, factors, target): 1 to 6 rows over a stack of 1 to 4 random
    vectors, each shifted by 0, n - 1 or a drawn amount."""
    n = draw(st.sampled_from([64, 256, 1024]))
    grid = make_grid(n, draw(st.floats(4.0, 64.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))

    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    t, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    which = draw(st.lists(st.integers(0, t - 1), min_size=m, max_size=m))
    shifts = draw(st.lists(st.sampled_from([0, n - 1]) | st.integers(0, n - 1), min_size=m, max_size=m))
    factors = PixelWindows(cnormal(n), cnormal(t, n), np.array(which), np.array(shifts))
    return grid, draw(st.sampled_from(Rep)), factors, cnormal(n)


class TestPixelWindows:
    """Row i of the factors is kept * np.roll(stack[which[i]], shifts[i])."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(factored_rows())
    def test_dots_and_rows_match_the_rolled_reference(self, case):
        grid, rep, f, target = case
        reference = np.array([f.kept * np.roll(f.stack[t], s) for t, s in zip(f.which, f.shifts)])
        np.testing.assert_allclose(f.sq_norms, np.sum(np.abs(reference) ** 2, axis=1), rtol=1e-13, atol=0.0)
        scale = np.abs(reference) @ np.abs(target)  # bounds each overlap's rounding
        assert np.all(np.abs(f.overlaps(target) - reference @ np.conj(target)) <= 1e-13 * scale)
        # unit measures: each weight is its row's squared norm in rep, and divides it out
        ens = ConditionalEnsemble.from_pixel(grid, rep, 0, np.ones(len(f.which)), f)
        assert np.array_equal(ens.rows, reference / np.sqrt(ens.weights)[:, np.newaxis])


@st.composite
def short_distributions(draw):
    """({k: p} summing to a drawn share below 1, seed)."""
    ks = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=8, unique=True))
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=len(ks), max_size=len(ks)))
    share = draw(st.floats(0.0, 0.99)) / max(sum(raw), 1e-300)
    return {k: share * r for k, r in zip(ks, raw)}, draw(st.integers(0, 2**64))


def documented_outcome(dist: dict[int, float], seed: int) -> int:
    """The inverse CDF of the uniform draw of ``seed``; a draw past the mass
    goes to the lowest k in the first half of the tail, the highest after."""
    u = float(np.random.default_rng(seed).random())
    ks = sorted(dist)
    mass = 0.0
    for k in ks:
        mass += dist[k]
        if u < mass:
            return k
    return ks[0] if u - mass < 0.5 * (1.0 - mass) else ks[-1]


class TestSampleOutcome:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(short_distributions())
    def test_short_distribution_follows_the_tail_rule(self, case):
        dist, seed = case
        assert sum(dist.values()) < 1.0
        k = sample_outcome(dist, seed)
        assert k == documented_outcome(dist, seed)
        assert sample_outcome(dist, seed) == k

    def test_point_mass(self):
        assert sample_outcome({3: 1.0}, seed=0) == 3
        assert sample_outcome({3: 1.0}, seed=999) == 3

    def test_reproducible_sequence(self):
        dist = {0: 0.5, 1: 0.5}
        seq1 = [sample_outcome(dist, seed=s) for s in range(20)]
        seq2 = [sample_outcome(dist, seed=s) for s in range(20)]
        assert seq1 == seq2

    def test_chi_square_statistical_oracle(self):
        dist = {-2: 0.1, -1: 0.2, 0: 0.35, 1: 0.25, 2: 0.1}
        draws = np.array([sample_outcome(dist, seed=s) for s in range(100_000)])
        ks = sorted(dist)
        counts = [int(np.sum(draws == k)) for k in ks]
        expected = [dist[k] * len(draws) for k in ks]
        assert chisquare(counts, expected).pvalue > 0.01

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValidationError):
            sample_outcome({}, seed=0)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            sample_outcome({0: 0.5, 1: -0.25}, seed=0)


class TestSampleOutcomes:
    """The batched sampler is ``sample_outcome`` over consecutive seeds."""

    # sums to 0.625: draws in [0.625, 0.8125) go to the lowest bin, -1, and
    # draws in [0.8125, 1) to the highest, 2
    SHORT = {2: 0.25, -1: 0.25, 0: 0.125}

    @pytest.mark.parametrize("first", [0, 2**32 - 30, 2**64 - 30, 2**96 - 30, 2**128 - 64])
    def test_equals_per_seed_samples(self, first):
        got = sample_outcomes(self.SHORT, first, 64)
        assert got == [sample_outcome(self.SHORT, first + t) for t in range(64)]
        assert all(type(k) is int for k in got)
        u = np.array([np.random.default_rng(first + t).random() for t in range(64)])
        first_half, second_half = (u >= 0.625) & (u < 0.8125), u >= 0.8125
        assert np.any(first_half) and np.any(second_half)  # both tail halves are drawn
        assert {got[i] for i in np.flatnonzero(first_half)} == {-1}
        assert {got[i] for i in np.flatnonzero(second_half)} == {2}

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(short_distributions())
    def test_short_distribution_follows_the_tail_rule(self, case):
        dist, seed = case
        assert sample_outcomes(dist, seed, 4) == [documented_outcome(dist, seed + t) for t in range(4)]

    def test_no_draws(self):
        assert sample_outcomes(self.SHORT, 5, 0) == []
        with pytest.raises(ValidationError, match="non-negative count"):
            sample_outcomes(self.SHORT, 5, -1)

    @pytest.mark.parametrize("dist", [{}, {0: 0.5, 1: -0.25}], ids=["empty", "negative"])
    def test_invalid_distribution_rejected(self, dist):
        with pytest.raises(ValidationError):
            sample_outcomes(dist, 0, 3)

    @pytest.mark.parametrize("first, count", [(2**128 - 1, 2), (2**128, 1), (-1, 1)])
    def test_seeds_outside_0_to_2_128_rejected(self, first, count):
        with pytest.raises(ValidationError, match="2\\*\\*128"):
            sample_outcomes(self.SHORT, first, count)


@pytest.fixture(scope="module")
def readout_grid():
    return make_grid(8192, 170.0)


class TestGkpReadout:
    def test_sharp_plus_reads_plus(self, readout_grid):
        det = DetectorParams(eta=SQRT_PI / 8)
        result = gkp_readout(gkp_plus(GkpParams.tied(0.1), readout_grid), det)
        assert result.p_plus > 1.0 - 1e-6

    def test_minus_error_mass_near_bound(self, readout_grid):
        det = DetectorParams(eta=SQRT_PI / 8)
        result = gkp_readout(gkp_minus(GkpParams.tied(0.25), readout_grid), det)
        assert result.p_minus > 0.99
        # frozen grid-oracle value 4.93e-7 vs closed form 5.55e-7 (ratio 0.89)
        assert result.p_error == pytest.approx(pe_bound(0.25), rel=2.0)
        assert result.p_error < 3.0 * pe_bound(0.25)

    def test_balanced_superposition(self, readout_grid):
        det = DetectorParams(eta=SQRT_PI / 8)
        result = gkp_readout(gkp_zero(GkpParams.tied(0.2), readout_grid), det)
        assert result.p_plus == pytest.approx(0.5, abs=0.01)
        assert result.p_minus == pytest.approx(0.5, abs=0.01)

    def test_error_mass_monotone_in_tied_width(self, readout_grid):
        det = DetectorParams(eta=SQRT_PI / 8)
        errors = [
            gkp_readout(gkp_minus(GkpParams.tied(d), readout_grid), det).p_error
            for d in (0.15, 0.2, 0.25)
        ]
        assert errors[0] < errors[1] < errors[2]

    def test_error_mass_monotone_in_envelope_parameter(self, readout_grid):
        # the momentum comb teeth have width delta_envelope; shrinking it at
        # fixed spike width shrinks the wrong-window mass
        det = DetectorParams(eta=SQRT_PI / 8)
        errors = []
        for env in (0.15, 0.2, 0.25):
            params = GkpParams.tied(0.2, env)
            errors.append(gkp_readout(gkp_minus(params, readout_grid), det).p_error)
        assert errors[0] < errors[1] < errors[2]

    def test_incompatible_eta_rejected(self, readout_grid):
        state = gkp_plus(GkpParams.tied(0.2), readout_grid)
        with pytest.raises(ValidationError):
            gkp_readout(state, DetectorParams(eta=0.2))
