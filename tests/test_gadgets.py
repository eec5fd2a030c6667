import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cviqp import gadgets, gates, homodyne, quadgrid, states
from cviqp.errors import GridMismatchError, ValidationError, ZeroMassBinError
from cviqp.gadgets import (
    ShiftNoise,
    _condition,
    apply_shift_noise,
    centered_mod_sqrt_pi,
    correction_diagnostics,
    correction_fidelities,
    error_corrected_fourier,
    fourier_gadget,
    fourier_gadget_target,
    gkp_error_correct,
    outcome_distribution,
)
from cviqp.gates import apply_cz, apply_fourier, displace_p, displace_q, tensor
from cviqp.homodyne import (
    ConditionalEnsemble,
    DetectorParams,
    bin_probabilities,
    ensemble_fidelity,
    project_bin,
    sample_outcome,
)
from cviqp.quadgrid import (
    GridSupportWarning,
    ModeState,
    Rep,
    as_rep,
    fidelity_pure,
    make_grid,
    normalized,
    self_dual_grid,
    to_momentum,
)
from cviqp.states import GkpParams, gkp_one, gkp_plus, gkp_zero, squeezed_momentum

from conftest import random_smooth_state

SQRT_PI = math.sqrt(math.pi)


def _pairs(ens):
    """(weight, ModeState) for each row of an ensemble."""
    return [(w, ModeState(ens.grid, ens.rep, row)) for w, row in zip(ens.weights, ens.components)]


# the two-mode oracle's grids: one self-dual, one not
ORACLE_GRIDS = {"self_dual": self_dual_grid(1024), "general": make_grid(1024, 64.0)}


def vacuum(grid):
    q = grid.points
    return normalized(ModeState(grid, Rep.POSITION, np.exp(-(q**2) / 2.0)))


def oracle_center_bin_probability(psi: ModeState, sigma: float, eta: float) -> float:
    """Independent 1-D quadrature of the projector expectation for the k=0 pixel.

    Reduces the 4-fold integral to the autocorrelation of psi:
    P = (2 eta sigma / sqrt(pi)) * (1 / 2 sigma sqrt(pi)) *
        integral du exp(-u^2/(4 sigma^2)) C(u) sinc(eta u),
    with C(u) the position autocorrelation, evaluated here by direct shifting.
    """
    grid = psi.grid
    q = grid.points
    n = grid.n_points
    amps = psi.amplitudes
    shifts = np.arange(-n // 2, n // 2)
    corr = np.fft.ifft(np.abs(np.fft.fft(amps)) ** 2).real * grid.dq
    corr = np.roll(corr, n // 2)  # index i -> lag (i - n/2) * dq
    u = shifts * grid.dq
    kern = np.exp(-(u**2) / (4.0 * sigma**2)) / (2.0 * sigma * math.sqrt(math.pi))
    sinc = np.sinc(eta * u / math.pi)
    lead = 2.0 * eta * sigma / SQRT_PI
    return float(lead * np.sum(kern * corr * sinc) * grid.dq)


class TestCenteredMod:
    def test_representative_range(self):
        for x in (-7.3, -1.0, 0.0, 0.2, SQRT_PI, 2 * SQRT_PI + 0.3, 11.4):
            r = centered_mod_sqrt_pi(x)
            assert -SQRT_PI / 2 <= r < SQRT_PI / 2
            assert (x - r) / SQRT_PI == pytest.approx(round((x - r) / SQRT_PI), abs=1e-9)

    def test_exact_values(self):
        assert centered_mod_sqrt_pi(0.2) == pytest.approx(0.2, abs=1e-12)
        assert centered_mod_sqrt_pi(SQRT_PI) == pytest.approx(0.0, abs=1e-12)
        assert centered_mod_sqrt_pi(-2 * SQRT_PI) == pytest.approx(0.0, abs=1e-12)


class TestShiftNoise:
    def test_zero_noise_is_identity(self, grid_small):
        psi = random_smooth_state(grid_small, seed=0)
        out, (u, v) = apply_shift_noise(psi, ShiftNoise.none(), seed=1)
        assert (u, v) == (0.0, 0.0)
        assert np.array_equal(out.amplitudes, psi.amplitudes)

    def test_fixed_shift_moves_density(self):
        grid = make_grid(1024, 40.0)
        out, (u, v) = apply_shift_noise(vacuum(grid), ShiftNoise(u_std=2.0), seed=2)
        assert v == 0.0 and abs(u) > 4 * grid.dq
        peak = grid.points[np.argmax(out.density())]
        assert abs(peak - u) <= grid.dq

    def test_sampled_shift_statistics(self, grid_small):
        # statistical oracle: empirical stds within 3% over 1e4 seeded draws
        noise = ShiftNoise(u_std=0.7, v_std=0.25)
        psi = random_smooth_state(grid_small, seed=6)
        shifts = [apply_shift_noise(psi, noise, seed=s)[1] for s in range(10_000)]
        assert np.std([s[0] for s in shifts]) == pytest.approx(0.7, rel=0.03)
        assert np.std([s[1] for s in shifts]) == pytest.approx(0.25, rel=0.03)

    def test_negative_std_rejected(self):
        with pytest.raises(ValidationError):
            ShiftNoise(u_std=-0.1)

    @pytest.mark.parametrize("rep", [Rep.POSITION, Rep.MOMENTUM])
    def test_one_buffer_equals_the_gates_in_turn(self, grid_small, rep):
        # the kick, the shift and the transform run in one copy of the amplitudes
        psi = random_smooth_state(grid_small, seed=7)
        noise = ShiftNoise(u_std=0.7, v_std=0.25)
        for seed in range(4):
            out, (u, v) = gadgets._apply_shift_noise(psi, noise, seed, rep)
            in_turn = displace_q(displace_p(psi, v), u)
            assert out.rep is rep and u != 0.0 and v != 0.0
            assert np.array_equal(out.amplitudes, as_rep(in_turn, rep).amplitudes)
            assert np.array_equal(apply_shift_noise(psi, noise, seed=seed)[0].amplitudes, in_turn.amplitudes)


@pytest.fixture(scope="module")
def gadget_grid():
    return make_grid(4096, 256.0)


class TestFourierGadget:
    def test_center_bin_probability_leading_order(self, gadget_grid):
        rep = fourier_gadget(vacuum(gadget_grid), 0.1, DetectorParams(eta=0.01))
        lead = rep.diagnostics["leading_order_probability"]
        assert lead == pytest.approx(1.1284e-3, rel=1e-4)
        assert rep.success_probability == pytest.approx(lead, rel=0.05)

    def test_probability_matches_independent_oracle(self, gadget_grid):
        psi = vacuum(gadget_grid)
        rep = fourier_gadget(psi, 0.1, DetectorParams(eta=0.01))
        oracle = oracle_center_bin_probability(psi, 0.1, 0.01)
        assert rep.success_probability == pytest.approx(oracle, rel=1e-6)

    def test_output_fidelities(self, gadget_grid):
        rep = fourier_gadget(vacuum(gadget_grid), 0.1, DetectorParams(eta=0.01))
        assert rep.diagnostics["fidelity_vs_ideal_fourier"] > 0.98
        assert rep.diagnostics["fidelity_vs_finite_squeezing_target"] > 0.999

    def test_fidelity_improves_with_better_resources(self):
        grid = self_dual_grid(65536)
        psi = vacuum(grid)
        rep_a = fourier_gadget(psi, 0.1, DetectorParams(eta=0.01))
        rep_b = fourier_gadget(psi, 0.05, DetectorParams(eta=0.005))
        assert (
            rep_b.diagnostics["fidelity_vs_ideal_fourier"]
            > rep_a.diagnostics["fidelity_vs_ideal_fourier"]
        )

    def test_deviation_from_leading_order_shrinks_quadratically(self, gadget_grid):
        # the eta -> 0 coefficient carries the finite-sigma autocorrelation factor
        # (1/sqrt(1 + sigma^2) for the vacuum); relative to it the residual is O(eta^2)
        psi = vacuum(gadget_grid)
        sigma = 0.1
        b0 = oracle_center_bin_probability(psi, sigma, 1e-7) / (2e-7 * sigma / SQRT_PI)
        devs = []
        for eta in (0.02, 0.01, 0.005):
            rep = fourier_gadget(psi, sigma, DetectorParams(eta=eta))
            lead = rep.diagnostics["leading_order_probability"]
            devs.append(abs(rep.success_probability / lead - b0))
        assert devs[1] / devs[0] < 0.30
        assert devs[2] / devs[1] < 0.30

    @pytest.mark.parametrize("grid_name", sorted(ORACLE_GRIDS))
    @pytest.mark.parametrize("eta", [0.35, 0.01], ids=["sample", "sub_grid"])
    def test_matches_two_mode_oracle(self, grid_name, eta):
        grid = ORACLE_GRIDS[grid_name]
        psi = random_smooth_state(grid, seed=8)
        det = DetectorParams(eta=eta)
        assert det.sample_aligned(grid) == (eta == 0.35)
        rep = fourier_gadget(psi, 0.4, det)
        st = apply_cz(tensor(psi, squeezed_momentum(0.4, grid)))
        prob = bin_probabilities(st, 1, det, k_range=[0], warn_tail=False)[0]
        oracle = project_bin(st, 1, 0, det)
        assert abs(rep.success_probability - prob) <= min(1e-13, 1e-12 * prob)
        assert rep.success_probability == rep.output.total_probability
        assert len(rep.output.components) == len(oracle.components)
        for (wa, sa), (wb, sb) in zip(_pairs(oracle), _pairs(rep.output)):
            assert wa == pytest.approx(wb, abs=1e-13)
            assert np.max(np.abs(sa.amplitudes - sb.amplitudes)) < 1e-12

    @pytest.mark.parametrize("grid_name", sorted(ORACLE_GRIDS))
    def test_ensemble_fidelity_is_the_weighted_mean_row_fidelity(self, grid_name):
        grid = ORACLE_GRIDS[grid_name]
        psi = random_smooth_state(grid, seed=8)
        rep = fourier_gadget(psi, 0.4, DetectorParams(eta=0.01))
        pairs = _pairs(rep.output)
        assert len(pairs) > 1
        targets = (apply_fourier(psi), fourier_gadget_target(psi, 0.4))
        assert [t.rep for t in targets] == [Rep.POSITION, Rep.MOMENTUM]
        for target in targets:
            mean = sum(w * fidelity_pure(target, s) for w, s in pairs) / sum(w for w, _ in pairs)
            assert ensemble_fidelity(rep.output, target) == pytest.approx(mean, rel=1e-14, abs=0)

    def test_runs_on_large_general_grid(self):
        grid = make_grid(8192, 170.0)
        assert not grid.is_self_dual
        rep = fourier_gadget(vacuum(grid), 0.2, DetectorParams(eta=0.02))
        assert rep.success_probability == rep.output.total_probability
        lead = rep.diagnostics["leading_order_probability"]
        assert rep.success_probability == pytest.approx(lead, rel=0.05)
        assert rep.diagnostics["fidelity_vs_finite_squeezing_target"] > 0.999

    @pytest.mark.parametrize("case", ["general", "self_dual", "gkp_plus"])
    def test_target_builder_matches_direct_integration(self, case, grid_small):
        # dense-kernel route vs the library construction, on both grid kinds
        if case == "general":
            psi, sigma = random_smooth_state(grid_small, seed=11), 0.5
        elif case == "self_dual":
            psi, sigma = random_smooth_state(self_dual_grid(1024), seed=11), 0.5
        else:
            psi, sigma = gkp_plus(GkpParams.tied(0.25), make_grid(4096, 256.0)), 0.1
        target = fourier_gadget_target(psi, sigma)
        p = psi.grid.momentum_points
        q = psi.grid.points
        # the kernel in row blocks, to bound memory on the 4096-point grid
        direct = np.concatenate([
            np.exp(-((rows[:, None] - q[None, :]) ** 2) / (2 * sigma**2)) @ psi.amplitudes
            for rows in np.split(p, 8)
        ])
        direct = direct / np.sqrt(np.sum(np.abs(direct) ** 2) * psi.grid.dp)
        assert np.max(np.abs(target.amplitudes - direct)) < 1e-10


@pytest.fixture(scope="module")
def gc_grid():
    return self_dual_grid(8192)


class TestGkpErrorCorrect:
    def test_small_shift_corrected_fidelity_improves(self, gc_grid):
        params = GkpParams.tied(0.2)
        det = DetectorParams(eta=SQRT_PI / 8)
        clean = gkp_plus(params, gc_grid)
        data = displace_q(clean, 0.2)
        pre = fidelity_pure(clean, data)
        rep = gkp_error_correct(
            data, params, ShiftNoise.none(), det, seed=3, known_data_shift=(0.2, 0.0)
        )
        post = ensemble_fidelity(rep.output, clean)
        assert rep.diagnostics["threshold_held"] == 1.0
        assert post > pre
        # residual bounded by resolution plus the ancilla width scale
        assert abs(rep.diagnostics["net_position_offset"]) <= det.eta + 3 * params.delta_envelope

    # the README eta, 1 ulp off sqrt(pi)/4; and an odd number of pixels per sqrt(pi), which has no tie
    @pytest.mark.parametrize("eta", [0.4431134627263791, SQRT_PI / 4, SQRT_PI / 12, SQRT_PI / 7])
    def test_correction_is_the_pixels_exact_centered_residue(self, eta):
        params = GkpParams.tied(0.25)
        data = displace_q(gkp_plus(params, ORACLE_GRIDS["general"]), 0.2)
        det = DetectorParams(eta=eta)
        m = round(SQRT_PI / eta)
        for k in range(-m, m + 1):
            rep = gkp_error_correct(data, params, ShiftNoise.none(), det, fixed_outcome_k=k)
            correction = rep.diagnostics["applied_correction"]
            assert rep.output.u == correction
            if 2 * k % m == 0:  # a multiple of sqrt(pi): no shift at all, and +0.0
                assert correction == 0.0 and math.copysign(1.0, correction) == 1.0
            elif 2 * (2 * k % m) == m:  # the half-window tie takes the half-open rule's side
                assert correction == SQRT_PI / 2
            else:  # the centered residue of 2k mod m, in integers
                residue = det.lattice_residue(k)
                assert -m / 2 <= residue < m / 2 and (2 * k - residue) % m == 0
                assert correction == -residue / m * SQRT_PI

    # criterion 7's grid and eta, and the README grid and eta (1 ulp off sqrt(pi)/4)
    @pytest.mark.parametrize(
        "grid, eta",
        [(self_dual_grid(8192), SQRT_PI / 8), (ORACLE_GRIDS["general"], 0.4431134627263791)],
        ids=["criterion_7", "readme"],
    )
    def test_every_tie_pixel_of_the_grid_corrects_by_plus_half_sqrt_pi(self, grid, eta):
        # a flat data mode gives every pixel mass; the float centered_mod_sqrt_pi of
        # the pixel center lands on -sqrt(pi)/2 at some ties and +sqrt(pi)/2 at others
        det = DetectorParams(eta=eta)
        m = det.require_gkp_compatible()
        flat = normalized(ModeState(grid, Rep.POSITION, np.ones(grid.n_points)))
        pixels = det.pixel_masses(grid, np.ones(grid.n_points))
        ties = [k for k in pixels if 2 * (2 * k % m) == m]
        assert len(ties) > 50  # 128 and 58
        for k in ties:
            rep = gkp_error_correct(flat, GkpParams.tied(0.25), ShiftNoise.none(), det, fixed_outcome_k=k)
            assert det.lattice_residue(k) == -(m // 2)
            assert rep.diagnostics["applied_correction"] == -det.lattice_residue(k) / m * SQRT_PI == SQRT_PI / 2

    def test_full_logical_shift_invisible(self, gc_grid):
        # a sqrt(pi) shift commutes with the mod-sqrt(pi) syndrome: the
        # correction stays near zero, the |0> comb lands on the |1> comb, and
        # the ground-truth diagnostic flags the logical error
        params = GkpParams.tied(0.2)
        det = DetectorParams(eta=SQRT_PI / 8)
        zero = gkp_zero(params, gc_grid)
        one = gkp_one(params, gc_grid)
        data = displace_q(zero, SQRT_PI)
        rep = gkp_error_correct(
            data, params, ShiftNoise.none(), det, seed=4, known_data_shift=(SQRT_PI, 0.0)
        )
        assert abs(rep.diagnostics["applied_correction"]) < 2 * det.eta
        assert rep.diagnostics["logical_miscorrection"] == 1.0
        assert ensemble_fidelity(rep.output, one) > ensemble_fidelity(rep.output, zero) + 0.5

    def test_threshold_boundary_flagged(self, gc_grid):
        params = GkpParams.tied(0.2)
        det = DetectorParams(eta=SQRT_PI / 8)
        u1 = SQRT_PI / 2 - det.eta + 0.01
        data = displace_q(gkp_plus(params, gc_grid), u1)
        rep = gkp_error_correct(
            data, params, ShiftNoise.none(), det, seed=5, known_data_shift=(u1, 0.0)
        )
        assert rep.diagnostics["threshold_held"] == 0.0

    @pytest.mark.parametrize("grid_name", sorted(ORACLE_GRIDS))
    @pytest.mark.parametrize("m", [4, 12], ids=["sample", "sub_grid"])
    def test_matches_two_mode_oracle(self, grid_name, m):
        grid = ORACLE_GRIDS[grid_name]
        params = GkpParams.tied(0.35)
        det = DetectorParams(eta=SQRT_PI / m)
        assert det.sample_aligned(grid) == (m == 4)
        data = displace_q(gkp_plus(params, grid), 0.2)
        anc = gkp_zero(params, grid)
        rep = gkp_error_correct(data, params, ShiftNoise.none(), det, seed=7)
        st = apply_cz(tensor(data, anc))
        dist = outcome_distribution(data, anc, det)
        if det.sample_aligned(grid):
            oracle_dist = bin_probabilities(st, 2, det)
            _, outcome_seed = np.random.SeedSequence(7).generate_state(2)
            assert rep.outcome_k == sample_outcome(oracle_dist, int(outcome_seed))
            assert set(dist) == set(oracle_dist)
        else:
            # the sub-grid oracle costs ~60 ms a pixel: check the central ones
            ks = range(rep.outcome_k - 5, rep.outcome_k + 6)
            oracle_dist = bin_probabilities(st, 2, det, k_range=ks, warn_tail=False)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        for k, p in oracle_dist.items():
            assert abs(dist[k] - p) <= 1e-12

        oracle = project_bin(st, 2, rep.outcome_k, det)
        assert rep.success_probability == pytest.approx(oracle.total_probability, abs=1e-13)
        correction = rep.diagnostics["applied_correction"]
        assert len(rep.output.components) == len(oracle.components)
        for (wa, sa), (wb, sb) in zip(_pairs(oracle), _pairs(rep.output)):
            assert wa == pytest.approx(wb, abs=1e-13)
            shifted = displace_q(sa, correction)
            assert np.max(np.abs(shifted.amplitudes - sb.amplitudes)) < 1e-12

    @pytest.mark.parametrize("grid_name", sorted(ORACLE_GRIDS))
    @pytest.mark.parametrize("m", [4, 12], ids=["sample", "sub_grid"])
    def test_rows_are_displace_q_of_the_uncorrected_rows(self, grid_name, m):
        grid = ORACLE_GRIDS[grid_name]
        params = GkpParams.tied(0.35)
        det = DetectorParams(eta=SQRT_PI / m)
        data = displace_q(gkp_plus(params, grid), 0.2)
        rep = gkp_error_correct(data, params, ShiftNoise.none(), det, seed=7)
        # the ancilla in the representation gkp_error_correct hands over
        anc = gkp_zero(params, grid)
        anc = to_momentum(anc) if grid.is_self_dual else anc
        uncorrected = _condition(data, anc, det, rep.outcome_k)
        assert np.array_equal(rep.output.weights, uncorrected.weights)
        assert rep.output.total_probability == uncorrected.total_probability
        assert rep.output.components.shape == uncorrected.rows.shape
        correction = rep.diagnostics["applied_correction"]
        for row, out in zip(uncorrected.rows, rep.output.components):
            shifted = displace_q(ModeState(grid, Rep.POSITION, row), correction)
            assert np.array_equal(shifted.amplitudes, out)

    def test_success_probability_is_ensemble_mass(self, gc_grid):
        # one pixel rule: the distribution, the conditioning and the reported
        # probability assign edge samples to the same pixel
        params = GkpParams.tied(0.2)
        det = DetectorParams(eta=SQRT_PI / 8)
        data = displace_q(gkp_plus(params, gc_grid), 0.2)
        dist = outcome_distribution(data, gkp_zero(params, gc_grid), det)
        ks = [k for k, p in dist.items() if p > 1e-6]
        assert {8, -33} <= set(ks)
        for k in ks:
            rep = gkp_error_correct(data, params, ShiftNoise.none(), det, fixed_outcome_k=k)
            p = rep.success_probability
            assert p == pytest.approx(rep.output.total_probability, rel=1e-12)
            assert p == pytest.approx(dist[k], rel=1e-9)

    @pytest.mark.parametrize("grid_name", sorted(ORACLE_GRIDS))
    def test_fixed_noiseless_outcome_makes_no_generator(self, grid_name, monkeypatch):
        # nothing is drawn, so no SeedSequence reads OS entropy and no generator is built;
        # the result is bit for bit that of a seeded call, whose draws are N(0, 0) = +0.0
        grid = ORACLE_GRIDS[grid_name]
        params = GkpParams.tied(0.35)
        det = DetectorParams(eta=SQRT_PI / 4)
        data, anc = displace_q(gkp_plus(params, grid), 0.2), gkp_zero(params, grid)
        clean = gkp_plus(params, grid)
        kwargs = dict(fixed_outcome_k=1, known_data_shift=(0.2, 0.0), ancilla_state=anc)
        seeded = gkp_error_correct(data, params, ShiftNoise.none(), det, seed=0, **kwargs)

        def refuse(*args, **kw):
            raise AssertionError("a generator was set up")

        with monkeypatch.context() as patch:
            patch.setattr(np.random, "SeedSequence", refuse)
            patch.setattr(np.random, "default_rng", refuse)
            rep = gkp_error_correct(data, params, ShiftNoise.none(), det, **kwargs)
            fid = ensemble_fidelity(rep.output, clean)
        assert (rep.outcome_k, rep.outcome_value) == (seeded.outcome_k, seeded.outcome_value)
        # float.hex tells +0.0 from -0.0
        assert {key: float(v).hex() for key, v in rep.diagnostics.items()} == {
            key: float(v).hex() for key, v in seeded.diagnostics.items()
        }
        assert float(rep.diagnostics["ancilla_u2"]).hex() == float(rep.diagnostics["ancilla_v2"]).hex() == "0x0.0p+0"
        assert np.array_equal(rep.output.weights, seeded.output.weights)
        assert rep.output.total_probability == seeded.output.total_probability
        assert np.float64(fid).tobytes() == np.float64(ensemble_fidelity(seeded.output, clean)).tobytes()
        with pytest.raises(ValueError):  # a given seed is still checked
            gkp_error_correct(data, params, ShiftNoise.none(), det, seed=-1, **kwargs)

    def test_noise_replacement(self):
        # data position noise (std 0.3) is replaced by ancilla-plus-resolution
        # noise; needs an ancilla whose intrinsic teeth are narrow next to s_a
        grid = self_dual_grid(65536)
        params_data = GkpParams.tied(0.25)
        params_anc = GkpParams.tied(0.05)
        det = DetectorParams(eta=SQRT_PI / 8)
        clean = gkp_plus(params_data, grid)
        s_d, s_a = 0.3, 0.05
        rng = np.random.default_rng(123)
        bound = 2.0 * (s_a + det.eta)
        residuals = []
        wraps = 0
        total = 0
        for trial in range(60):
            u1 = float(rng.normal(0.0, s_d))
            rep = gkp_error_correct(
                displace_q(clean, u1),
                params_anc,
                ShiftNoise(u_std=0.0, v_std=s_a),
                det,
                seed=trial,
                known_data_shift=(u1, 0.0),
            )
            if rep.diagnostics["threshold_held"] > 0.5:
                total += 1
                if rep.diagnostics["logical_miscorrection"] > 0.5:
                    wraps += 1  # tooth-tail wrap: the logical-error channel
                else:
                    residuals.append(rep.diagnostics["net_position_offset"])
        assert total > 40
        spread = float(np.sqrt(np.mean(np.square(residuals))))
        assert spread <= bound
        assert spread < s_d  # no longer governed by the data noise
        assert wraps / total < 0.10

    def test_incompatible_binning_rejected(self, gc_grid):
        params = GkpParams.tied(0.2)
        data = gkp_plus(params, gc_grid)
        with pytest.raises(ValidationError):
            gkp_error_correct(data, params, ShiftNoise.none(), DetectorParams(eta=0.2), seed=0)

    @pytest.mark.parametrize(
        "ancilla_grid", [make_grid(1024, 64.0), self_dual_grid(2048)], ids=["extent", "points"]
    )
    def test_mismatched_grids_rejected(self, ancilla_grid):
        params = GkpParams.tied(0.35)
        data = gkp_plus(params, self_dual_grid(1024))
        anc = gkp_zero(params, ancilla_grid)
        det = DetectorParams(eta=SQRT_PI / 4)
        with pytest.raises(GridMismatchError):
            outcome_distribution(data, anc, det)
        with pytest.raises(GridMismatchError):
            gkp_error_correct(data, params, ShiftNoise.none(), det, fixed_outcome_k=0, ancilla_state=anc)

    @pytest.mark.parametrize("regime", ["sample", "sub_grid"])
    @pytest.mark.parametrize("n, extent, m", [(1024, 64.0, 4), (4096, 256.0, 4), (128, 20.0, 2)])
    def test_rolled_spectra_match_the_tilted_transforms(self, n, extent, m, regime):
        # on a general grid a pixel rolls one chirp-z spectrum per distinct node offset;
        # each node's own transform of the input tilted by exp(-i s q) is the reference
        grid = make_grid(n, extent)
        det = DetectorParams(eta=SQRT_PI / m if regime == "sample" else 1.5 * grid.dp)
        assert det.sample_aligned(grid) == (regime == "sample") and not grid.is_self_dual
        data = random_smooth_state(grid, seed=1)
        # a position width of 2 dq spreads the outcomes out to the momentum window's edge
        anc = normalized(ModeState(grid, Rep.POSITION, np.exp(-0.5 * (grid.points / (2.0 * grid.dq)) ** 2)))
        live = [k for k, p in outcome_distribution(data, anc, det).items() if p > 1e-12]
        outermost = max(live, key=abs)
        assert abs(outermost) >= 0.75 * abs(det.bin_of(float(grid.momentum_points[0])))
        psi, dq = anc.amplitudes, grid.dq
        for k in (0, outermost):
            stack = _condition(data, anc, det, k).windows.stack
            s = det.pixel_nodes(grid, k)[0]
            tilted = dq / math.sqrt(2.0 * math.pi) * gadgets._czt(
                psi, dq**2, -(n // 2), n, -(n // 2), tilt=(-s * grid.points[0], -s * dq)
            )
            assert stack.shape == tilted.shape
            assert np.max(np.abs(stack - tilted)) <= 1e-13 * np.max(np.abs(tilted)), k

    @pytest.mark.parametrize(
        "grid, eta, n_nodes, stacks, slack_kib",
        [
            (make_grid(1024, 64.0), SQRT_PI / 4, 9, 0, 128),  # the README correction's sample-regime pixel
            (make_grid(4096, 256.0), 0.01, 8, 2, 256),  # the Fourier gadget's sub-grid pixels
            (make_grid(4096, 256.0), 0.04, 14, 2, 256),
        ],
        ids=["sample_readme", "sub_grid_fg_eta_0.01", "sub_grid_fg_eta_0.04"],
    )
    def test_pixel_allocates_little_beyond_its_stack(self, grid, eta, n_nodes, stacks, slack_kib):
        # one spectrum per distinct offset and one padded row, no (nodes, 2n) chirp-z batch
        det = DetectorParams(eta=eta)
        if det.sample_aligned(grid):
            data = displace_q(gkp_plus(GkpParams.tied(0.25), grid), 0.2)
            anc = gkp_zero(GkpParams.tied(0.25), grid)
        else:
            data = as_rep(gadgets._squeezed_ancilla(0.1, grid), Rep.POSITION)
            anc = vacuum(grid)
        _condition(data, anc, det, 0)  # plans the chirp-z transform
        tracemalloc.start()
        try:
            ens = _condition(data, anc, det, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ens.weights) == n_nodes
        stack = ens.windows.stack.nbytes
        transient = peak - stack
        assert transient < stacks * stack + slack_kib * 2**10, f"{transient / 2**10:.0f} KiB beyond the stack"


class TestDefaultAncilla:
    """Without ``ancilla_state`` the |0> comb is built once and reused."""

    def test_comb_built_once_and_reports_unchanged(self, monkeypatch):
        grid = make_grid(1024, 16.0)  # narrow: the delta-0.5 comb reaches the grid edge
        params = GkpParams.tied(0.5)
        det = DetectorParams(eta=SQRT_PI / 8)
        noise = ShiftNoise(0.0, 0.05)
        clean = gkp_plus(params, grid)
        data = displace_q(clean, 0.3)
        seeds = (5, 6, 7)
        expected = [
            gkp_error_correct(data, params, noise, det, seed=s, ancilla_state=gkp_zero(params, grid))
            for s in seeds
        ]
        original = states._comb
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(states, "_comb", counting)
        gadgets._default_ancilla.cache_clear()
        for seed, ref in zip(seeds, expected):
            # the reused comb still warns on every call, as a fresh build would
            with pytest.warns(GridSupportWarning):
                rep = gkp_error_correct(data, params, noise, det, seed=seed)
            assert rep.outcome_k == ref.outcome_k
            assert np.array_equal(rep.output.weights, ref.output.weights)
            assert rep.success_probability == ref.success_probability
            assert rep.diagnostics == ref.diagnostics
            assert ensemble_fidelity(rep.output, clean) == ensemble_fidelity(ref.output, clean)
        assert len(built) == 1
        assert len({rep.diagnostics["ancilla_v2"] for rep in expected}) == len(seeds)


class TestDeferredCorrection:
    """gkp_error_correct leaves its correction pending on the ensemble (``u``)."""

    @pytest.mark.parametrize("grid_name", sorted(ORACLE_GRIDS))
    @pytest.mark.parametrize("m", [4, 12], ids=["sample", "sub_grid"])
    def test_readers_match_an_ensemble_of_the_shifted_rows(self, grid_name, m):
        grid = ORACLE_GRIDS[grid_name]
        params = GkpParams.tied(0.35)
        det = DetectorParams(eta=SQRT_PI / m)
        clean = gkp_plus(params, grid)
        rep = gkp_error_correct(displace_q(clean, 0.2), params, ShiftNoise.none(), det, seed=7)
        ens = rep.output
        assert ens.u == rep.diagnostics["applied_correction"] != 0.0
        shifted = ConditionalEnsemble(grid, ens.rep, ens.weights, ens.components)
        assert shifted.u == 0.0 and shifted.components is shifted.rows
        for target in (clean, to_momentum(clean), displace_q(clean, 0.1), gkp_zero(params, grid)):
            assert abs(ensemble_fidelity(ens, target) - ensemble_fidelity(shifted, target)) <= 1e-13
        assert abs(ens.purity() - shifted.purity()) <= 1e-13
        a = ens.principal_component().amplitudes
        b = shifted.principal_component().amplitudes
        phase = np.vdot(a, b) / abs(np.vdot(a, b))  # an eigenvector is fixed up to a phase
        assert np.max(np.abs(phase * a - b)) <= 1e-13
        with pytest.raises(ValueError):
            ens.components[0, 0] = 0.0

    def test_rows_transformed_do_not_grow_with_the_ensemble(self, gc_grid, monkeypatch):
        # the correction shifts one target vector, not one vector per ensemble row
        params = GkpParams.tied(0.2)
        det = DetectorParams(eta=SQRT_PI / 8)
        clean = gkp_plus(params, gc_grid)
        data = displace_q(clean, 0.2)
        original = quadgrid._transform
        original_shift = gates._shift_rows
        transformed = []

        def counting(amplitudes, grid, rep, axis=-1):
            transformed.append(np.size(amplitudes) // grid.n_points)
            return original(amplitudes, grid, rep, axis)

        def counting_shift(rows, grid, rep, u):
            # a position row goes to momentum and back
            transformed.append(2 * len(rows) if rep is Rep.POSITION else 0)
            return original_shift(rows, grid, rep, u)

        monkeypatch.setattr(quadgrid, "_transform", counting)
        for module in (gates, homodyne):
            monkeypatch.setattr(module, "_shift_rows", counting_shift)
        rep = gkp_error_correct(data, params, ShiftNoise.none(), det, seed=4)
        ensemble_fidelity(rep.output, clean)
        assert rep.diagnostics["applied_correction"] != 0.0
        assert len(rep.output.weights) > 10
        assert sum(transformed) <= 6, transformed

    @pytest.mark.parametrize("scale", [1.0, -1.0, 2.0, math.nan])
    def test_quarter_extent_shift_rejected_when_built(self, scale):
        grid = ORACLE_GRIDS["general"]
        rows = np.ones((1, grid.n_points))
        ConditionalEnsemble(grid, Rep.POSITION, [1.0], rows, u=0.999 * grid.extent / 4)
        with pytest.raises(ValidationError):
            ConditionalEnsemble(grid, Rep.POSITION, [1.0], rows, u=scale * grid.extent / 4)


class TestFactoredEnsemble:
    """The pixel rows stay factored until a reader needs them built."""

    def test_correction_and_fidelity_do_not_build_the_rows(self):
        # the benchmark's correction trial, where the 45 x 65536 rows alone are
        # 45 MiB, and the README correction on a general grid
        for grid, anc_delta, m, min_rows in (
            (self_dual_grid(65536), 0.05, 8, 40),
            (make_grid(1024, 64.0), 0.25, 4, 8),
        ):
            clean = gkp_plus(GkpParams.tied(0.25), grid)
            data = displace_q(clean, 0.2)
            det = DetectorParams(eta=SQRT_PI / m)
            tracemalloc.start()
            try:
                rep = gkp_error_correct(data, GkpParams.tied(anc_delta), ShiftNoise(0.0, 0.05), det, seed=3)
                fid = ensemble_fidelity(rep.output, clean)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
            assert len(rep.output.weights) > min_rows and 0.0 < fid <= 1.0
            assert rep.output.windows is not None and "rows" not in vars(rep.output)

    def test_warm_correction_trial_peak(self):
        # one warm trial of the benchmark's correction shape peaks at about 4.0 MiB of
        # temporaries, the 2 MiB doubled overlap vector the largest.  The trial's heap
        # stays mapped only while glibc's dynamic trim threshold (twice the largest
        # mmapped chunk freed) covers it: one more 1 MiB temporary brought back about
        # 1000 minor page faults a trial, which no timing test sees.
        grid = self_dual_grid(65536)
        clean = gkp_plus(GkpParams.tied(0.25), grid)
        det = DetectorParams(eta=SQRT_PI / 8)
        noise = ShiftNoise(0.0, 0.05)
        for seed, u1 in ((1, 0.1), (2, -0.2)):  # the first trial builds the ancilla comb
            data = displace_q(clean, u1)
            tracemalloc.start()
            try:
                rep = gkp_error_correct(data, GkpParams.tied(0.05), noise, det, seed=seed, known_data_shift=(u1, 0.0))
                ensemble_fidelity(rep.output, clean)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert len(rep.output.weights) > 40
        assert peak < 4.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_windows_of_zero_norm_are_dropped(self):
        # every other data sample is 0, and the constant ancilla's momentum
        # transform is a single spike, so 6 of the pixel's 11 windows are
        # exactly 0; kept, they made the purity NaN.  The oracle's 2-D
        # transform leaves those rows at weight ~1e-30 instead.
        grid = self_dual_grid(256)
        det = DetectorParams(eta=SQRT_PI / 2)
        data = normalized(ModeState(grid, Rep.POSITION, np.arange(grid.n_points) % 2 == 0))
        anc = normalized(ModeState(grid, Rep.POSITION, np.ones(grid.n_points)))
        rep = gkp_error_correct(
            data, GkpParams.tied(0.5), ShiftNoise.none(), det, fixed_outcome_k=0, ancilla_state=anc
        )
        ens = rep.output
        oracle = project_bin(apply_cz(tensor(data, anc)), 2, 0, det)
        assert ens.windows is not None and ens.u == 0.0
        assert len(ens.weights) == 5 and np.all(ens.weights > 0.0)
        assert ens.total_probability == pytest.approx(oracle.total_probability, abs=1e-13)
        assert ens.purity() == pytest.approx(oracle.purity(), abs=1e-13)
        assert ens.purity() == pytest.approx(0.2, abs=1e-13)
        assert np.all(np.isfinite(ens.principal_component().amplitudes))
        assert ensemble_fidelity(ens, data) == pytest.approx(ensemble_fidelity(oracle, data), abs=1e-13)

    def test_correction_trial_fft_budget(self, monkeypatch):
        # one ancilla transform, three real FFTs for the outcome masses, two for the
        # pending shift of the target; window dots, not FFTs, give the overlaps
        grid = self_dual_grid(65536)
        clean = gkp_plus(GkpParams.tied(0.25), grid)
        data = displace_q(clean, 0.5)
        det = DetectorParams(eta=SQRT_PI / 8)
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft"):

            def counting(*args, _name=name, _original=getattr(np.fft, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counting)
        rep = gkp_error_correct(data, GkpParams.tied(0.05), ShiftNoise(0.0, 0.05), det, seed=3)
        ensemble_fidelity(rep.output, clean)
        assert rep.outcome_k == -3 and rep.output.u != 0.0
        assert len(calls) <= 6, calls
        assert sum(name in ("fft", "ifft") for name in calls) <= 3, calls

    def test_warm_trial_transforms_the_clean_state_no_more(self, monkeypatch):
        # the benchmark's trial shape: the clean state keeps its momentum form, so
        # displacing it and shifting it as the fidelity's target take one inverse
        # transform each; the noisy ancilla takes one transform, the masses three
        # real FFTs
        grid = self_dual_grid(8192)
        clean = gkp_plus(GkpParams.tied(0.25), grid)
        det = DetectorParams(eta=SQRT_PI / 8)
        noise = ShiftNoise(0.0, 0.05)
        gkp_error_correct(displace_q(clean, 0.1), GkpParams.tied(0.2), noise, det, seed=1)  # warm-up
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft"):

            def counting(*args, _name=name, _original=getattr(np.fft, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counting)
        shifts = []
        for seed, u1 in ((2, -0.2), (5, 0.5), (6, -0.4)):
            calls.clear()
            data = displace_q(clean, u1)
            rep = gkp_error_correct(data, GkpParams.tied(0.2), noise, det, seed=seed)
            ensemble_fidelity(rep.output, clean)
            shifts.append(rep.output.u != 0.0)
            assert calls == ["ifft", "fft", "rfft", "rfft", "irfft"] + ["ifft"] * shifts[-1], calls
        assert shifts == [False, True, True]


class TestCorrectionFidelities:
    """The all-pixel reader of the CLI (its agreement with one conditioning per pixel
    is a property of ``tests/test_properties.py``)."""

    @staticmethod
    def readme_case(eta=SQRT_PI / 4):
        params = GkpParams.tied(0.25)
        grid = make_grid(1024, 64.0)
        clean = gkp_plus(params, grid)
        return displace_q(clean, 0.2), gkp_zero(params, grid), DetectorParams(eta=eta), clean

    def test_two_chirp_z_transforms_per_distinct_correction(self, monkeypatch):
        data, ancilla, det, clean = self.readme_case()
        ks = [k for k, p in outcome_distribution(data, ancilla, det).items() if p > 1e-6]
        corrections = {correction_diagnostics(det, k)["applied_correction"] for k in ks}
        assert len(ks) > 20 and len(corrections) == 2
        calls = []
        czt = gadgets._czt
        monkeypatch.setattr(gadgets, "_czt", lambda *args, **kwargs: calls.append(1) or czt(*args, **kwargs))
        fids = correction_fidelities(data, ancilla, det, clean, ks)
        assert len(calls) == 2 + 2 * len(corrections)  # the outcome density, then two per correction
        assert correction_fidelities(data, ancilla, det, clean, iter(ks[:3])) == {k: fids[k] for k in ks[:3]}
        for k in (ks[0], ks[-1]):
            rep = gkp_error_correct(data, GkpParams.tied(0.25), ShiftNoise.none(), det, fixed_outcome_k=k,
                                    ancilla_state=ancilla)
            assert fids[k] == pytest.approx(ensemble_fidelity(rep.output, clean), rel=1e-10)

    # the momentum window is |p| < 50.3: at 44 the state carries no mass, 53 lies beyond the window
    @pytest.mark.parametrize("p", [44.0, 53.0], ids=["beyond_support", "beyond_window"])
    @pytest.mark.parametrize("m", [4, 10], ids=["sample", "sub_grid"])
    def test_pixel_without_mass_raises_as_conditioning_does(self, p, m):
        data, ancilla, det, clean = self.readme_case(SQRT_PI / m)
        assert det.sample_aligned(data.grid) == (m == 4)
        k = round(p / (2.0 * det.eta))
        with pytest.raises(ZeroMassBinError, match=f"k={k}"):
            correction_fidelities(data, ancilla, det, clean, [0, k])
        if p < 50.0:
            with pytest.raises(ZeroMassBinError, match=f"k={k}"):
                gkp_error_correct(data, GkpParams.tied(0.25), ShiftNoise.none(), det, fixed_outcome_k=k,
                                  ancilla_state=ancilla)

    def test_mismatched_grids_rejected(self):
        data, ancilla, det, _ = self.readme_case()
        with pytest.raises(GridMismatchError):
            correction_fidelities(data, ancilla, det, gkp_plus(GkpParams.tied(0.25), make_grid(1024, 60.0)), [0])

    def test_gadget_reports_the_shared_diagnostics(self):
        data, _, det, _ = self.readme_case()
        for seed in range(5):
            rep = gkp_error_correct(data, GkpParams.tied(0.25), ShiftNoise(0.1, 0.6), det, seed=seed,
                                    known_data_shift=(0.2, 0.0))
            v2 = rep.diagnostics["ancilla_v2"]
            shared = correction_diagnostics(det, rep.outcome_k, (0.2, 0.0), v2)
            assert rep.diagnostics == {**shared, "ancilla_u2": rep.diagnostics["ancilla_u2"], "ancilla_v2": v2}
        assert list(correction_diagnostics(det, 1)) == ["applied_correction"]


class TestErrorCorrectedFourier:
    def test_corrects_input_momentum_errors(self, gc_grid):
        # a momentum kick on the input becomes a position error after the
        # Fourier stage, which the q correction removes; frozen comparison:
        # corrected 0.62 vs uncorrected 0.08 at v = 0.35
        params = GkpParams.tied(0.15)
        det = DetectorParams(eta=SQRT_PI / 16)
        zero = gkp_zero(params, gc_grid)
        noisy = displace_p(gkp_plus(params, gc_grid), 0.35)
        corrected = error_corrected_fourier(noisy, params, 0.15, det, seed=5)
        uncorrected = fourier_gadget(noisy, 0.15, det)
        fid_corr = ensemble_fidelity(corrected.output, zero)
        fid_unc = ensemble_fidelity(uncorrected.output, zero)
        assert fid_corr > fid_unc + 0.3
        assert fid_corr > 0.5

    def test_success_probability_is_stage_product(self, gc_grid):
        params = GkpParams.tied(0.15)
        det = DetectorParams(eta=SQRT_PI / 16)
        rep = error_corrected_fourier(gkp_plus(params, gc_grid), params, 0.15, det, seed=6)
        product = (
            rep.diagnostics["probability_fourier_stage"]
            * rep.diagnostics["probability_ancilla_stage"]
            * rep.diagnostics["probability_correction_stage"]
        )
        assert rep.success_probability == pytest.approx(product, rel=1e-6)

    def test_output_mass_is_the_pipeline_probability(self, gc_grid):
        # the output's weights are joint masses over the three stages; its
        # weight-normalized fidelity stays the correction stage's
        params = GkpParams.tied(0.15)
        psi = gkp_plus(params, gc_grid)
        rep = error_corrected_fourier(psi, params, 0.15, DetectorParams(eta=SQRT_PI / 16), seed=6)
        d = rep.diagnostics
        product = d["probability_fourier_stage"] * d["probability_ancilla_stage"] * d["probability_correction_stage"]
        assert rep.success_probability == rep.output.total_probability
        assert rep.output.total_probability == pytest.approx(product, rel=1e-12)
        assert ensemble_fidelity(rep.output, apply_fourier(psi)) == pytest.approx(
            d["fidelity_vs_ideal_fourier"], rel=1e-14
        )
        with pytest.raises(AttributeError):
            rep.success_probability = 0.5

    def test_the_input_passes_the_fourier_gate_once(self, gc_grid, monkeypatch):
        params = GkpParams.tied(0.15)
        psi = displace_p(gkp_plus(params, gc_grid), 0.35)
        original, inputs = gadgets.apply_fourier, []

        def counting(state):
            inputs.append(state)
            return original(state)

        monkeypatch.setattr(gadgets, "apply_fourier", counting)
        rep = error_corrected_fourier(psi, params, 0.15, DetectorParams(eta=SQRT_PI / 16), fixed_outcome_k=0)
        assert sum(np.array_equal(state.amplitudes, psi.amplitudes) for state in inputs) == 1
        assert rep.diagnostics["fidelity_vs_ideal_fourier"] == ensemble_fidelity(rep.output, original(psi))

    def test_fidelity_improves_with_all_resources(self, gc_grid):
        # resource-improvement trend of the full pipeline (modal syndrome);
        # measured endpoints 0.8370 (0.15 resources) -> 0.8856 (0.1/0.03 resources)
        params_a = GkpParams.tied(0.15)
        rep_a = error_corrected_fourier(
            gkp_plus(params_a, gc_grid), params_a, 0.15, DetectorParams(eta=SQRT_PI / 16),
            fixed_outcome_k=0,
        )
        grid_b = self_dual_grid(131072)
        params_b = GkpParams.tied(0.1)
        rep_b = error_corrected_fourier(
            gkp_plus(params_b, grid_b), params_b, 0.03, DetectorParams(eta=SQRT_PI / 64),
            fixed_outcome_k=0,
        )
        fid_a = rep_a.diagnostics["fidelity_vs_ideal_fourier"]
        fid_b = rep_b.diagnostics["fidelity_vs_ideal_fourier"]
        assert fid_b > fid_a
        assert fid_b > 0.85
        # the uncorrected stage approaches the ideal transform in the same limit
        assert rep_b.diagnostics["uncorrected_fidelity_vs_ideal_fourier"] > 0.98


def direct_czt(x, theta, j0, n_out, a0):
    """y[..., a] = sum_j x[..., j] exp(i theta (a + a0)(j + j0)), summed term by term."""
    u = np.arange(n_out) + a0
    v = np.arange(x.shape[-1]) + j0
    return x @ np.exp(1j * theta * np.outer(v, u).astype(np.float64))


@st.composite
def czt_params(draw):
    """(theta, j0, n, n_out, a0, batch shape) of a chirp-z transform, n_out drawn apart from n."""
    theta = draw(st.floats(-0.2, 0.2).filter(lambda t: abs(t) > 1e-3))
    n, n_out = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    j0, a0 = draw(st.integers(-32, 32)), draw(st.integers(-32, 32))
    return theta, j0, n, n_out, a0, draw(st.sampled_from([(), (3,)]))


class TestChirpZPlans:
    """Each chirp-z transform reads a plan built once per parameter set."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(czt_params(), st.integers(0, 2**32))
    def test_czt_matches_the_direct_sum(self, base, seed):
        # each variant differs from the base in one plan key field and runs right
        # after it, so a plan cached under too few fields is read for the wrong transform
        theta, j0, n, n_out, a0, batch = base
        variants = [
            (1.5 * theta, j0, n, n_out, a0),
            (theta, j0 + 1, n, n_out, a0),
            (theta, j0, n + 1, n_out, a0),
            (theta, j0, n, n_out + 1, a0),
            (theta, j0, n, n_out, a0 - 1),
        ]
        rng = np.random.default_rng(seed)
        for params in [p for v in variants for p in (base[:5], v)]:
            t, j, m, m_out, a = params
            x = rng.normal(size=(*batch, m)) + 1j * rng.normal(size=(*batch, m))
            y = gadgets._czt(x, t, j, m_out, a)
            scale = np.max(np.sum(np.abs(x), axis=-1))  # bounds |y|
            assert y.shape == (*batch, m_out)
            assert np.max(np.abs(y - direct_czt(x, t, j, m_out, a))) <= 1e-12 * scale, params

    def test_plans_are_read_only(self):
        size, *arrays = gadgets._czt_plan(0.01, -3, 16, 9, 2)
        assert size >= 16 + 9 - 1
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_warm_fourier_gadget_does_no_grid_only_work(self, monkeypatch):
        grid = ORACLE_GRIDS["general"]
        psi = random_smooth_state(grid, seed=11)
        det = DetectorParams(eta=0.01)
        assert not det.sample_aligned(grid)
        fourier_gadget(psi, 0.4, det)  # fills the chirp-z plan, the Fourier chirps and the nodes
        calls = {"chirp": 0, "apply_fourier": 0, "leggauss": 0}

        def counting(name, original):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(gadgets, "_chirp", counting("chirp", gadgets._chirp))
        monkeypatch.setattr(gadgets, "apply_fourier", counting("apply_fourier", gadgets.apply_fourier))
        legendre = np.polynomial.legendre
        monkeypatch.setattr(legendre, "leggauss", counting("leggauss", legendre.leggauss))
        warm = fourier_gadget(psi, 0.4, det)
        assert calls == {"chirp": 0, "apply_fourier": 1, "leggauss": 0}
        for cache in (gadgets._czt_plan, gates._fourier_chirps, homodyne._gauss_legendre):
            cache.cache_clear()
        cold = fourier_gadget(psi, 0.4, det)
        assert calls == {"chirp": 3, "apply_fourier": 2, "leggauss": 1}
        assert np.array_equal(cold.output.weights, warm.output.weights)
        assert np.array_equal(cold.output.rows, warm.output.rows)
        assert cold.diagnostics == warm.diagnostics

    def test_warm_fourier_gadget_reuses_its_ancilla(self, monkeypatch):
        grid = ORACLE_GRIDS["general"]
        psi = random_smooth_state(grid, seed=12)
        det = DetectorParams(eta=0.01)
        fourier_gadget(psi, 0.4, det)
        calls = {"squeezed_momentum": 0, "check_edge_support": 0}

        def counting(name, original):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapped

        for name in calls:
            monkeypatch.setattr(gadgets, name, counting(name, getattr(gadgets, name)))
        warm = fourier_gadget(psi, 0.4, det)
        # the reused ancilla is checked for edge support on every call, as a fresh one is
        assert calls == {"squeezed_momentum": 0, "check_edge_support": 1}
        gadgets._squeezed_ancilla.cache_clear()
        cold = fourier_gadget(psi, 0.4, det)
        assert calls == {"squeezed_momentum": 1, "check_edge_support": 2}
        assert np.array_equal(cold.output.weights, warm.output.weights)
        assert np.array_equal(cold.output.rows, warm.output.rows)
        assert cold.diagnostics == warm.diagnostics

    def test_warm_fourier_gadget_makes_two_grid_transforms(self, gadget_grid, monkeypatch):
        # the benchmark's gadget: only the ideal output F psi is transformed (to
        # momentum and back); the ancilla is kept in position and the
        # finite-squeezing target is scored in position, where it is built
        psi = vacuum(gadget_grid)
        det = DetectorParams(eta=0.01)
        fourier_gadget(psi, 0.1, det)
        transformed = []
        original = quadgrid._transform

        def counting(amplitudes, grid, rep, axis=-1, out=None):
            transformed.append(rep)
            return original(amplitudes, grid, rep, axis, out)

        for module in (quadgrid, gates, gadgets):
            monkeypatch.setattr(module, "_transform", counting)
        rep = fourier_gadget(psi, 0.1, det)
        assert transformed == [Rep.MOMENTUM, Rep.POSITION]
        target = fourier_gadget_target(psi, 0.1)
        assert target.rep is Rep.MOMENTUM
        assert rep.diagnostics["fidelity_vs_finite_squeezing_target"] == pytest.approx(
            ensemble_fidelity(rep.output, target), abs=1e-14
        )
