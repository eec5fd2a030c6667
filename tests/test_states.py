import math

import numpy as np
import pytest
from scipy.signal import argrelmax

from cviqp.errors import ValidationError
from cviqp.quadgrid import (
    ModeState,
    Rep,
    fidelity_pure,
    make_grid,
    norm,
    normalized,
    self_dual_grid,
    to_momentum,
    to_position,
)
from cviqp.gates import apply_fourier
from cviqp.states import (
    GkpParams,
    gkp_minus,
    gkp_one,
    gkp_plus,
    gkp_zero,
    min_admissible_n_max,
    squeezed_momentum,
    truncation_weight,
)

SQRT_PI = math.sqrt(math.pi)


class TestSqueezedMomentum:
    def test_unit_sigma_momentum_variance(self):
        # second-moment oracle: density ~ exp(-p^2/sigma^2) has variance sigma^2/2
        grid = make_grid(1024, 40.0)
        state = squeezed_momentum(1.0, grid)
        p = grid.momentum_points
        var = float(np.sum(state.density() * p**2) * grid.dp)
        assert var == pytest.approx(0.5, rel=0.01)

    def test_small_sigma_position_width(self):
        # sigma = 0.1 needs a large extent for the momentum resolution and for the
        # 1/sigma = 10 position spread; density variance 1/(2 sigma^2) -> amplitude std 10
        grid = make_grid(4096, 256.0)
        pos = to_position(squeezed_momentum(0.1, grid))
        q = grid.points
        var = float(np.sum(pos.density() * q**2) * grid.dq)
        assert math.sqrt(2.0 * var) == pytest.approx(10.0, rel=0.01)

    def test_unresolvable_sigma_rejected(self):
        grid = make_grid(4096, 40.0)
        with pytest.raises(ValidationError):
            squeezed_momentum(1e-6, grid)

    def test_huge_sigma_rejected(self):
        grid = make_grid(256, 30.0)
        with pytest.raises(ValidationError):
            squeezed_momentum(50.0, grid)

    def test_normalized(self):
        grid = make_grid(1024, 60.0)
        assert norm(squeezed_momentum(0.7, grid)) == pytest.approx(1.0, abs=1e-9)


class TestGkpParams:
    def test_admissibility_brute_force(self):
        # oracle: smallest n with exp(-(2n)^2 pi de^2/2) < 1e-12, delta_env = 0.25 -> 9
        assert min_admissible_n_max(0.25) == 9
        assert truncation_weight(9, 0.25) < 1e-12
        assert truncation_weight(8, 0.25) >= 1e-12

    def test_inadmissible_truncation_rejected(self):
        with pytest.raises(ValidationError):
            GkpParams(delta_spike=0.25, delta_envelope=0.25, n_max=4)

    def test_tied_constructor(self):
        params = GkpParams.tied(0.2)
        assert params.delta_envelope == 0.2
        assert params.n_max == min_admissible_n_max(0.2)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
    def test_rejects_out_of_range_widths(self, bad):
        with pytest.raises(ValidationError):
            GkpParams(delta_spike=bad, delta_envelope=0.2, n_max=40)


class TestGkpCombs:
    def test_zero_peak_locations(self, grid_default):
        # |0> comb density peaks at 0 and +-2 sqrt(pi) for tied widths 0.25
        params = GkpParams.tied(0.25)
        zero = gkp_zero(params, grid_default)
        q = grid_default.points
        peaks = q[argrelmax(zero.density())[0]]
        central = np.sort(peaks[np.argsort(np.abs(peaks))[:3]])
        expected = np.array([-2 * SQRT_PI, 0.0, 2 * SQRT_PI])
        assert np.max(np.abs(central - expected)) < grid_default.dq

    def test_zero_suppressed_at_sqrt_pi(self, grid_default):
        # evaluate the comb: amplitude at sqrt(pi) tiny relative to the origin
        params = GkpParams.tied(0.25)
        zero = gkp_zero(params, grid_default)
        q = grid_default.points
        at_sp = abs(zero.amplitudes[np.argmin(np.abs(q - SQRT_PI))])
        at_0 = abs(zero.amplitudes[np.argmin(np.abs(q))])
        assert at_sp / at_0 < 1e-4

    def test_one_peaks_on_odd_multiples(self, grid_default):
        params = GkpParams.tied(0.25)
        one = gkp_one(params, grid_default)
        q = grid_default.points
        peaks = q[argrelmax(one.density())[0]]
        nearest = peaks[np.argmin(np.abs(peaks - SQRT_PI))]
        assert abs(nearest - SQRT_PI) < grid_default.dq

    def test_comb_symmetry(self, grid_default):
        # q_j = -L/2 + j dq: the mirror of index j >= 1 is index n - j
        params = GkpParams.tied(0.2)
        zero = gkp_zero(params, grid_default)
        amp = zero.amplitudes
        assert np.allclose(amp[1:], amp[1:][::-1], atol=1e-12)

    def test_unresolvable_spikes_rejected(self):
        grid = make_grid(256, 60.0)  # dq = 0.234
        with pytest.raises(ValidationError):
            gkp_zero(GkpParams.tied(0.2), grid)

    def test_plus_momentum_peaks(self, grid_default):
        # comb duality oracle: FFT of the position comb peaks at 0, +-2 sqrt(pi)
        params = GkpParams.tied(0.2)
        phi = to_momentum(gkp_plus(params, grid_default))
        p = grid_default.momentum_points
        dens = phi.density()
        peaks = p[argrelmax(dens)[0]]
        strong = peaks[dens[argrelmax(dens)[0]] > 0.1 * dens.max()]
        central = np.sort(strong[np.argsort(np.abs(strong))[:3]])
        expected = np.array([-2 * SQRT_PI, 0.0, 2 * SQRT_PI])
        assert np.max(np.abs(central - expected)) <= grid_default.dp

    def test_plus_is_normalized_sum(self, grid_default):
        params = GkpParams.tied(0.2)
        zero = gkp_zero(params, grid_default)
        one = gkp_one(params, grid_default)
        plus = gkp_plus(params, grid_default)
        summed = normalized(ModeState(grid_default, Rep.POSITION, zero.amplitudes + one.amplitudes))
        assert fidelity_pure(plus, summed) == pytest.approx(1.0, abs=1e-10)

    def test_plus_minus_overlap_small(self, grid_default):
        params = GkpParams.tied(0.2)
        plus = gkp_plus(params, grid_default)
        minus = gkp_minus(params, grid_default)
        overlap = abs(np.vdot(plus.amplitudes, minus.amplitudes) * grid_default.dq)
        assert overlap < 1e-3

    def test_mass_concentrates_near_even_sites_as_widths_shrink(self):
        grid = make_grid(8192, 128.0)
        q = grid.points
        site = np.round(q / (2 * SQRT_PI)) * (2 * SQRT_PI)
        near = np.abs(q - site) < SQRT_PI / 4.0
        fractions = []
        for delta in (0.3, 0.2, 0.1):
            zero = gkp_zero(GkpParams.tied(delta), grid)
            fractions.append(float(np.sum(zero.density()[near]) * grid.dq))
        assert fractions[0] < fractions[1] < fractions[2]
        assert fractions[-1] > 0.99

    def test_fourier_maps_plus_to_zero(self):
        grid = make_grid(4096, 96.0)
        params = GkpParams.tied(0.15)
        plus = gkp_plus(params, grid)
        zero = gkp_zero(params, grid)
        assert fidelity_pure(apply_fourier(plus), zero) > 0.99

    def test_edge_support_warning_on_small_grid(self):
        from cviqp.quadgrid import GridSupportWarning

        with pytest.warns(GridSupportWarning):
            gkp_plus(GkpParams.tied(0.25), make_grid(1024, 25.0))


def full_grid_comb(params, grid, parity):
    """Reference comb: every tooth evaluated on every grid point."""
    q = grid.points
    amp = np.zeros(grid.n_points)
    for n in range(-params.n_max, params.n_max + 1):
        m = 2 * n + parity
        weight = math.exp(-(m**2) * math.pi * params.delta_envelope**2 / 2.0)
        amp += weight * np.exp(-((q - m * SQRT_PI) ** 2) / (2.0 * params.delta_spike**2))
    return normalized(ModeState(grid, Rep.POSITION, amp))


@pytest.mark.parametrize(
    "delta, grid",
    [
        (0.05, self_dual_grid(65536)),
        (0.25, make_grid(4096, 40.0)),
        (0.35, make_grid(1024, 64.0)),
    ],
    ids=["self_dual_65536", "general_4096", "general_1024"],
)
def test_combs_are_bitwise_the_full_grid_sum(delta, grid):
    params = GkpParams.tied(delta)
    for maker, parity in ((gkp_zero, 0), (gkp_one, 1)):
        state = maker(params, grid)
        assert np.array_equal(state.amplitudes, full_grid_comb(params, grid, parity).amplitudes)
