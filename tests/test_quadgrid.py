import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cviqp.errors import GridMismatchError, RepresentationError, ValidationError
from cviqp.quadgrid import (
    ModeState,
    Rep,
    TwoModeState,
    _transform,
    as_rep,
    fidelity_pure,
    inner_product,
    make_grid,
    norm,
    normalized,
    self_dual_grid,
    to_momentum,
    to_position,
    transform_mode,
)
from cviqp.states import GkpParams, gkp_minus, gkp_one, gkp_plus, gkp_zero, squeezed_momentum

from conftest import random_dense_state, random_smooth_state


class TestMakeGrid:
    def test_spacings(self):
        g = make_grid(1024, 40.0)
        assert g.dq == pytest.approx(0.0390625, abs=0)
        assert g.dp == pytest.approx(2.0 * np.pi / 40.0, rel=1e-15)

    def test_spacing_small_grid(self):
        assert make_grid(64, 16.0).dq == 0.25

    def test_product_identity(self):
        g = make_grid(512, 23.7)
        assert g.dq * g.dp * g.n_points == pytest.approx(2.0 * np.pi, rel=1e-14)

    def test_points_centered(self):
        # points[j] = -L/2 + j dq exactly; the positive edge +L/2 is excluded
        g = make_grid(256, 30.0)
        q = g.points
        assert q[0] == -15.0
        assert np.max(q) < 15.0
        assert np.allclose(np.diff(q), g.dq, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1000, 100, 63, 0])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValidationError):
            make_grid(n, 40.0)

    @pytest.mark.parametrize("extent", [0.0, -1.0])
    def test_rejects_bad_extent(self, extent):
        with pytest.raises(ValidationError):
            make_grid(256, extent)

    def test_states_are_immutable(self, grid_small):
        psi = random_smooth_state(grid_small, seed=99)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 1.0
        with pytest.raises(ValueError):
            grid_small.points[0] = 0.0

    def test_axes_are_built_once_and_read_only(self):
        g = make_grid(256, 30.0)
        for name in ("points", "momentum_points"):
            axis = getattr(g, name)
            assert getattr(g, name) is axis
            with pytest.raises(ValueError):
                axis[0] = 0.0
        twin = make_grid(256, 30.0)
        assert "points" not in vars(twin)  # only g has cached its axes
        assert twin == g and hash(twin) == hash(g)
        assert {g: "g"}[twin] == "g"
        assert make_grid(256, 31.0) != g


class TestInnerProduct:
    def test_self_inner_product_is_one(self, grid_small):
        psi = random_smooth_state(grid_small, seed=0)
        assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-9)

    def test_identical_squeezed_states(self, grid_small):
        a = squeezed_momentum(1.0, grid_small)
        b = squeezed_momentum(1.0, grid_small)
        assert inner_product(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_gkp_plus_minus_near_orthogonal(self, grid_default):
        params = GkpParams.tied(0.2)
        plus = gkp_plus(params, grid_default)
        minus = gkp_minus(params, grid_default)
        # direct Riemann-sum oracle on the comb wavefunctions
        oracle = np.sum(np.conj(plus.amplitudes) * minus.amplitudes) * grid_default.dq
        assert abs(inner_product(plus, minus)) < 1e-3
        assert inner_product(plus, minus) == pytest.approx(oracle, abs=1e-15)

    def test_conjugate_symmetry(self, grid_small):
        a = random_smooth_state(grid_small, seed=1)
        b = random_smooth_state(grid_small, seed=2)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), abs=1e-14)

    def test_rep_mismatch_rejected(self, grid_small):
        a = random_smooth_state(grid_small, seed=3)
        with pytest.raises(RepresentationError):
            inner_product(a, to_momentum(a))

    def test_grid_mismatch_rejected(self, grid_small):
        a = random_smooth_state(grid_small, seed=4)
        b = random_smooth_state(make_grid(256, 32.0), seed=4)
        with pytest.raises(GridMismatchError):
            inner_product(a, b)

    @settings(max_examples=25, deadline=None)
    @given(
        re=st.floats(-2.0, 2.0, allow_nan=False),
        im=st.floats(-2.0, 2.0, allow_nan=False),
    )
    def test_sesquilinear_in_first_argument(self, re, im):
        grid = make_grid(256, 30.0)
        alpha = complex(re, im)
        a = random_smooth_state(grid, seed=5)
        b = random_smooth_state(grid, seed=6)
        scaled = ModeState(grid, Rep.POSITION, alpha * a.amplitudes)
        assert inner_product(scaled, b) == pytest.approx(
            np.conj(alpha) * inner_product(a, b), abs=1e-12
        )


class TestTransforms:
    def test_squeezed_fourier_pair_gaussian_fit(self):
        # analytic pair: momentum std sigma <-> position amplitude std 1/sigma,
        # checked by a least-squares quadratic fit of log|amplitude|
        grid = make_grid(2048, 80.0)
        sigma = 0.5
        pos = to_position(squeezed_momentum(sigma, grid))
        q = grid.points
        sel = np.abs(q) < 3.0 / sigma
        coeffs = np.polyfit(q[sel], np.log(np.abs(pos.amplitudes[sel])), 2)
        fitted_std = np.sqrt(-1.0 / (2.0 * coeffs[0]))
        assert fitted_std == pytest.approx(1.0 / sigma, rel=0.01)

    def test_narrow_position_gaussian_flat_in_momentum(self):
        grid = make_grid(2048, 80.0)
        q = grid.points
        narrow = normalized(ModeState(grid, Rep.POSITION, np.exp(-(q**2) / (2 * 0.05**2))))
        phi = to_momentum(narrow)
        p = grid.momentum_points
        band = np.abs(p) < 1.0
        mags = np.abs(phi.amplitudes[band])
        assert mags.max() / mags.min() < 1.01

    def test_round_trip_identity(self, grid_small):
        psi = random_dense_state(grid_small, seed=7)
        back = to_position(to_momentum(psi))
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-8

    @pytest.mark.parametrize("rep", list(Rep))
    def test_the_other_representation_is_kept(self, grid_small, rep):
        # made once, bit for bit a fresh transform, and read by as_rep, to_momentum and to_position alike
        psi = random_dense_state(grid_small, seed=9)
        state = psi if rep is Rep.POSITION else ModeState(grid_small, rep, psi.amplitudes)
        other = Rep.MOMENTUM if rep is Rep.POSITION else Rep.POSITION
        kept = as_rep(state, other)
        assert kept is as_rep(state, other)
        assert kept is (to_momentum(state) if other is Rep.MOMENTUM else to_position(state))
        assert kept.rep is other and as_rep(state, rep) is state
        fresh = _transform(state.amplitudes, grid_small, other)
        assert kept.amplitudes.tobytes() == fresh.tobytes()
        assert not kept.amplitudes.flags.writeable

    def test_the_kept_form_does_not_keep_its_source_alive(self, grid_small):
        # no link back from the kept form, so no reference cycle: the source goes with its last reference
        psi = random_dense_state(grid_small, seed=10)
        kept = to_momentum(psi)
        source = weakref.ref(psi)
        del psi
        assert source() is None and kept.rep is Rep.MOMENTUM

    def test_wrong_rep_rejected(self, grid_small):
        psi = random_smooth_state(grid_small, seed=8)
        with pytest.raises(RepresentationError):
            to_position(psi)
        with pytest.raises(RepresentationError):
            to_momentum(to_momentum(psi))

    @pytest.mark.parametrize("seed", range(8))
    def test_parseval_random_states(self, grid_small, seed):
        psi = random_dense_state(grid_small, seed=seed)
        assert norm(to_momentum(psi)) == pytest.approx(norm(psi), abs=1e-9)

    @pytest.mark.parametrize(
        "grid", [make_grid(256, 30.0), self_dual_grid(256)], ids=["general", "self_dual"]
    )
    @pytest.mark.parametrize("mode", [1, 2])
    def test_transform_mode_is_the_one_mode_transform_of_each_slice(self, grid, mode):
        # one transform code path: the two-mode transform gives the same bits
        # as the one-mode transform of each column (mode 1) or row (mode 2)
        n = grid.n_points
        rng = np.random.default_rng(mode)
        amps = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        st = TwoModeState(grid, (Rep.POSITION, Rep.POSITION), amps)
        mom = transform_mode(st, mode, Rep.MOMENTUM)
        back = transform_mode(mom, mode, Rep.POSITION)
        other_axis = 2 - mode
        for j in range(n):
            pos_j = np.take(amps, j, axis=other_axis)
            mom_j = np.take(mom.amplitudes, j, axis=other_axis)
            assert np.array_equal(to_momentum(ModeState(grid, Rep.POSITION, pos_j)).amplitudes, mom_j)
            back_j = to_position(ModeState(grid, Rep.MOMENTUM, mom_j)).amplitudes
            assert np.array_equal(back_j, np.take(back.amplitudes, j, axis=other_axis))


class TestTransformValues:
    """_transform scales and signs the FFT output in place; the values are the textbook ones."""

    @staticmethod
    def textbook(a, grid, rep, axis):
        n = grid.n_points
        shape = [1] * a.ndim
        shape[axis] = n
        s = np.where(np.arange(n) % 2, -1.0, 1.0).reshape(shape)
        phase = complex((-1j) ** (n % 4))
        if rep is Rep.MOMENTUM:
            return phase * grid.dq / np.sqrt(2.0 * np.pi) * s * np.fft.fft(s * a, axis=axis)
        return np.conj(phase) * grid.dp * n / np.sqrt(2.0 * np.pi) * s * np.fft.ifft(s * a, axis=axis)

    @pytest.mark.parametrize("grid", [make_grid(256, 30.0), self_dual_grid(1024)], ids=["general", "self_dual"])
    @pytest.mark.parametrize("rep", [Rep.MOMENTUM, Rep.POSITION])
    @pytest.mark.parametrize("shape, axis", [((1,), -1), ((1, 3), 0), ((3, 1), -1)], ids=["1d", "axis0", "axis-1"])
    def test_equals_the_textbook_transform(self, grid, rep, shape, axis):
        rng = np.random.default_rng(31)
        # 1 in ``shape`` marks the transformed axis, of length n
        full = tuple(grid.n_points if d == 1 else d for d in shape)
        a = rng.normal(size=full) + 1j * rng.normal(size=full)
        before = a.copy()
        out = _transform(a, grid, rep, axis)
        assert np.array_equal(out, self.textbook(a, grid, rep, axis))
        assert np.array_equal(a, before)  # the input is not written


class TestFidelityPure:
    def test_self_fidelity(self, grid_small):
        psi = random_smooth_state(grid_small, seed=9)
        assert fidelity_pure(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance(self, grid_small):
        psi = random_smooth_state(grid_small, seed=10)
        rotated = ModeState(grid_small, Rep.POSITION, np.exp(1.23j) * psi.amplitudes)
        assert fidelity_pure(psi, rotated) == pytest.approx(1.0, abs=1e-12)

    def test_gkp_zero_one_distinguishable(self, grid_default):
        params = GkpParams.tied(0.25)
        zero = gkp_zero(params, grid_default)
        one = gkp_one(params, grid_default)
        # frozen from the direct overlap-integral oracle: 4.41e-11
        assert fidelity_pure(zero, one) < 1e-6

    def test_cross_representation(self, grid_small):
        psi = random_smooth_state(grid_small, seed=11)
        assert fidelity_pure(psi, to_momentum(psi)) == pytest.approx(1.0, abs=1e-10)

    def test_grid_mismatch_rejected(self, grid_small):
        a = random_smooth_state(grid_small, seed=12)
        b = random_smooth_state(make_grid(512, 30.0), seed=12)
        with pytest.raises(GridMismatchError):
            fidelity_pure(a, b)
