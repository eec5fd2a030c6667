import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cviqp.errors import RepresentationError, ValidationError
from cviqp.homodyne import ConditionalEnsemble, DetectorParams, gkp_readout
from cviqp.gates import (
    _apply_linear_phase,
    _phase_tables,
    _shift_rows,
    apply_cz,
    apply_fourier,
    apply_phase_function,
    apply_phase_function2,
    apply_t,
    apply_z,
    displace_p,
    displace_q,
    tensor,
)
from cviqp.quadgrid import (
    ModeState,
    Rep,
    _transform,
    fidelity_pure,
    make_grid,
    norm,
    norm_two_mode,
    normalized,
    self_dual_grid,
    to_momentum,
    to_position,
    transform_mode,
)
from cviqp.states import GkpParams, gkp_plus, gkp_zero, squeezed_momentum

from conftest import random_dense_state, random_smooth_state

SQRT_PI = math.sqrt(math.pi)


def vacuum(grid):
    q = grid.points
    return normalized(ModeState(grid, Rep.POSITION, np.exp(-(q**2) / 2.0)))


class TestPhaseGates:
    def test_zero_phase_is_identity(self, grid_small):
        psi = random_smooth_state(grid_small, seed=0)
        out = apply_phase_function(psi, lambda q: np.zeros_like(q))
        assert np.array_equal(out.amplitudes, psi.amplitudes)

    def test_diagonal_gate_preserves_density(self, grid_default):
        zero = gkp_zero(GkpParams.tied(0.25), grid_default)
        out = apply_z(zero)
        assert np.allclose(out.density(), zero.density(), atol=1e-15)

    def test_diagonal_gates_commute_bitwise(self, grid_small):
        psi = random_smooth_state(grid_small, seed=1)
        f = lambda q: 0.3 * q**2
        a = apply_t(apply_phase_function(apply_z(psi), f))
        b = apply_z(apply_phase_function(apply_t(psi), f))
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12

    def test_momentum_rep_rejected(self, grid_small):
        psi = to_momentum(random_smooth_state(grid_small, seed=2))
        with pytest.raises(RepresentationError):
            apply_z(psi)

    def test_z_phase_values(self):
        # exponent sqrt(pi) q: +1 at q = 2 sqrt(pi), -1 at q = sqrt(pi)
        assert np.exp(1j * SQRT_PI * 2 * SQRT_PI) == pytest.approx(1.0, abs=1e-12)
        assert np.exp(1j * SQRT_PI * SQRT_PI) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("m", range(-3, 4))
    def test_t_gate_logical_action_on_peaks(self, m):
        # integer oracle: 2m^3 + m^2 - 2m mod 8 is 0 for even m and 1 for odd m
        coeff = 2 * m**3 + m**2 - 2 * m
        assert coeff % 8 == (0 if m % 2 == 0 else 1)

    def test_t_gate_phase_matches_exponent(self, grid_small):
        psi = random_smooth_state(grid_small, seed=3)
        out = apply_t(psi)
        q = grid_small.points
        u = q / SQRT_PI
        expected = np.exp(1j * (np.pi / 4.0) * (2 * u**3 + u**2 - 2 * u)) * psi.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-14

    @pytest.mark.parametrize("seed", range(4))
    def test_unitarity_on_random_states(self, grid_small, seed):
        psi = random_dense_state(grid_small, seed=seed)
        assert norm(apply_t(apply_z(psi))) == pytest.approx(1.0, abs=1e-9)

    def test_t_gate_preserves_position_window_masses(self, grid_default):
        # q-diagonal gates leave |psi(q)|^2 untouched, so sqrt(pi)-window
        # masses of the position density are invariant at the density level
        plus = gkp_plus(GkpParams.tied(0.2), grid_default)
        after = apply_t(plus)
        q = grid_default.points
        window = np.floor(q / SQRT_PI + 0.5).astype(int)
        for state_pair in ((plus, after),):
            before_mass = [
                np.sum(state_pair[0].density()[window % 2 == p]) * grid_default.dq for p in (0, 1)
            ]
            after_mass = [
                np.sum(state_pair[1].density()[window % 2 == p]) * grid_default.dq for p in (0, 1)
            ]
            assert before_mass[0] == pytest.approx(after_mass[0], abs=1e-10)
            assert before_mass[1] == pytest.approx(after_mass[1], abs=1e-10)

    def test_t_gate_misses_the_logical_t_on_finite_gkp_states(self):
        # A logical T takes |+> to an X readout of cos^2(pi/8) = 0.8536.  The
        # cubic phase kicks the tooth at u sqrt(pi) by (sqrt(pi)/4)(6u^2 + 2u - 2)
        # in momentum, a half-lattice kick growing as u^2, so the teeth of a
        # finite-energy comb never interfere as ideal ones do (Hastrup et al.,
        # PRA 2021).  Measured value: 0.7234 at delta 0.25, flat in delta.
        grid = self_dual_grid(16384)
        det = DetectorParams(eta=SQRT_PI / 8)
        p_plus = gkp_readout(apply_t(gkp_plus(GkpParams.tied(0.25), grid)), det).p_plus
        assert abs(p_plus - 0.7234) < 0.01
        assert p_plus <= math.cos(math.pi / 8) ** 2 - 0.1


class TestTensor:
    def test_norm_product(self, grid_small):
        a = random_smooth_state(grid_small, seed=4)
        b = random_smooth_state(grid_small, seed=5)
        st2 = tensor(a, b)
        assert norm_two_mode(st2) == pytest.approx(norm(a) * norm(b), abs=1e-10)

    def test_partial_trace_marginal(self, grid_small):
        # marginalization oracle: tracing mode 2 recovers |a|^2
        a = random_smooth_state(grid_small, seed=6)
        b = random_smooth_state(grid_small, seed=7)
        st2 = tensor(a, b)
        marginal = np.sum(np.abs(st2.amplitudes) ** 2, axis=1) * grid_small.dq
        assert np.max(np.abs(marginal - a.density())) < 1e-10

    def test_grid_mismatch_rejected(self, grid_small):
        a = random_smooth_state(grid_small, seed=8)
        b = random_smooth_state(make_grid(256, 32.0), seed=8)
        with pytest.raises(ValidationError):
            tensor(a, b)


class TestCz:
    def test_cz_inverse(self, grid_small):
        a = random_smooth_state(grid_small, seed=9)
        b = random_smooth_state(grid_small, seed=10)
        st2 = tensor(a, b)
        back = apply_cz(apply_cz(st2), conjugate=True)
        assert np.max(np.abs(back.amplitudes - st2.amplitudes)) < 1e-12

    def test_mode2_momentum_marginal_matches_closed_form(self):
        # after CZ on psi (x) |sigma>_p the joint (position, momentum) amplitude
        # is psi(q) g_sigma(t - q); compare the mode-2 momentum marginal
        grid = make_grid(1024, 60.0)
        sigma = 0.5
        psi = vacuum(grid)
        st2 = apply_cz(tensor(psi, squeezed_momentum(sigma, grid)))
        st2 = transform_mode(st2, 2, Rep.MOMENTUM)
        marginal = np.sum(np.abs(st2.amplitudes) ** 2, axis=0) * grid.dq * grid.dp
        q = grid.points
        t = grid.momentum_points
        kernel = np.exp(-((t[None, :] - q[:, None]) ** 2) / (2.0 * sigma**2))
        direct = np.sum(psi.density()[:, None] * kernel**2, axis=0)
        direct *= grid.dq * grid.dp / (math.sqrt(math.pi) * sigma)
        assert np.max(np.abs(marginal - direct)) < 1e-10

    def test_infinite_squeezing_limit_reproduces_input_density(self):
        # highly squeezed ancilla: the mode-2 momentum marginal approaches |psi(q)|^2
        grid = make_grid(4096, 256.0)
        psi = vacuum(grid)
        st2 = apply_cz(tensor(psi, squeezed_momentum(0.1, grid)))
        st2 = transform_mode(st2, 2, Rep.MOMENTUM)
        marginal = np.sum(np.abs(st2.amplitudes) ** 2, axis=0) * grid.dq
        t = grid.momentum_points
        q = grid.points
        reference = np.interp(t, q, psi.density())
        sel = np.abs(t) < 4.0
        assert np.max(np.abs(marginal[sel] - reference[sel])) < 0.02 * reference.max()

    def test_norm_preserved(self, grid_small):
        st2 = tensor(random_smooth_state(grid_small, seed=11), random_smooth_state(grid_small, seed=12))
        assert norm_two_mode(apply_cz(st2)) == pytest.approx(1.0, abs=1e-9)

    def test_two_mode_diagonal_gates_commute(self, grid_small):
        a = random_smooth_state(grid_small, seed=13)
        b = random_smooth_state(grid_small, seed=14)
        st2 = tensor(a, b)
        f1 = lambda q1, q2: 0.2 * q1**3 / (1.0 + 0.0 * q2)
        f2 = lambda q1, q2: SQRT_PI * q2 + 0.0 * q1
        path1 = apply_phase_function2(apply_cz(apply_phase_function2(st2, f1)), f2)
        path2 = apply_phase_function2(apply_phase_function2(apply_cz(st2), f2), f1)
        assert np.max(np.abs(path1.amplitudes - path2.amplitudes)) < 1e-12


class TestFourier:
    def test_fourier_of_squeezed_is_position_squeezed(self):
        grid = make_grid(2048, 80.0)
        sigma = 0.5
        out = apply_fourier(squeezed_momentum(sigma, grid))
        q = grid.points
        var = float(np.sum(out.density() * q**2) * grid.dq)
        assert math.sqrt(2.0 * var) == pytest.approx(sigma, rel=0.01)

    def test_f_squared_is_parity(self, grid_small):
        psi = random_smooth_state(grid_small, seed=15)
        out = apply_fourier(apply_fourier(psi))
        # q_j = -L/2 + j dq, so psi(-q) maps index j -> n - j with index 0 fixed
        mirrored = np.concatenate(([psi.amplitudes[0]], psi.amplitudes[1:][::-1]))
        assert np.max(np.abs(out.amplitudes - mirrored)) < 1e-8

    def test_f_fourth_power_identity(self, grid_small):
        psi = random_smooth_state(grid_small, seed=16)
        out = psi
        for _ in range(4):
            out = apply_fourier(out)
        assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-8

    def test_unitary_on_dense_states(self, grid_small):
        psi = random_dense_state(grid_small, seed=17)
        assert norm(apply_fourier(psi)) == pytest.approx(1.0, abs=1e-9)

    def test_fourier_maps_plus_to_zero(self):
        grid = make_grid(4096, 96.0)
        params = GkpParams.tied(0.15)
        assert fidelity_pure(apply_fourier(gkp_plus(params, grid)), gkp_zero(params, grid)) > 0.99


class TestDisplacements:
    def test_zero_shift_identity(self, grid_small):
        psi = random_smooth_state(grid_small, seed=18)
        out = displace_q(psi, 0.0)
        assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-12

    def test_shift_and_unshift(self, grid_small):
        psi = random_smooth_state(grid_small, seed=19)
        out = displace_q(displace_q(psi, 1.3), -1.3)
        assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-9

    def test_density_peak_moves(self):
        grid = make_grid(1024, 40.0)
        out = displace_q(vacuum(grid), 1.5)
        peak = grid.points[np.argmax(out.density())]
        assert abs(peak - 1.5) <= grid.dq

    def test_non_grid_multiple_shift(self):
        # sqrt(pi) is not a multiple of dq; the momentum-space phase handles it exactly
        grid = make_grid(1024, 40.0)
        out = displace_q(vacuum(grid), SQRT_PI)
        peak = grid.points[np.argmax(out.density())]
        assert abs(peak - SQRT_PI) <= grid.dq

    def test_too_large_shift_rejected(self, grid_small):
        psi = random_smooth_state(grid_small, seed=20)
        with pytest.raises(ValidationError):
            displace_q(psi, grid_small.extent / 2.0)

    @settings(max_examples=25, deadline=None)
    @given(u=st.floats(-2.0, 2.0, allow_nan=False), v=st.floats(-2.0, 2.0, allow_nan=False))
    def test_weyl_relation(self, u, v):
        grid = make_grid(512, 40.0)
        psi = random_smooth_state(grid, seed=21)
        lhs = displace_q(displace_p(psi, v), u)
        rhs = displace_p(displace_q(psi, u), v)
        assert np.max(np.abs(lhs.amplitudes - np.exp(1j * u * v) * rhs.amplitudes)) < 1e-9

    def test_momentum_kick_is_position_phase(self, grid_small):
        psi = random_smooth_state(grid_small, seed=22)
        out = displace_p(psi, 0.8)
        expected = np.exp(-0.8j * grid_small.points) * psi.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    def test_momentum_kick_limit_is_a_quarter_of_the_momentum_extent(self):
        # momentum extent P = n dp = 100.5 on both grids; position extents 256 and 64
        wide = make_grid(4096, 256.0)
        with pytest.raises(ValidationError):
            displace_p(vacuum(wide), 49.0)  # beyond P/4 = 25.1: the kicked state would wrap
        narrow = make_grid(1024, 64.0)
        phi = to_momentum(displace_p(vacuum(narrow), 20.0))  # inside P/4, beyond L/4 = 16
        mean_p = float(np.sum(phi.density() * narrow.momentum_points) * narrow.dp)
        assert abs(mean_p + 20.0) < 1e-9
        assert max(abs(phi.amplitudes[0]), abs(phi.amplitudes[-1])) < 1e-12


def table_kick(a, b, n):
    """The kick exp(i (a + b k)), k < n, as the kernel's tables make it, laid
    flat: hi[..., j] * lo[..., l] at k = m j + l."""
    hi, lo = _phase_tables(a, b, n)
    return (hi[..., :, np.newaxis] * lo[..., np.newaxis, :]).reshape(*hi.shape[:-1], n)


def grid_kick(grid, rep, w):
    """The table kick exp(-i w x_k) over the samples x_k of ``rep`` on ``grid``."""
    x = grid.rep_points(rep)
    return table_kick(-w * x[0], -w * grid.rep_spacing(rep), grid.n_points)


@pytest.mark.parametrize("grid", [make_grid(256, 30.0), self_dual_grid(1024)], ids=["general", "self_dual"])
class TestUnitPhaseValues:
    """Linear kicks are the kernel's table kicks times the amplitudes, bit for
    bit; an arbitrary phase function is exp(i f(q)) as np.exp(1j * f(q)) makes it."""

    def test_displace_p(self, grid):
        psi = random_dense_state(grid, seed=40)
        for v in (0.8, -1.37, 3.1):
            expected = np.multiply(grid_kick(grid, Rep.POSITION, v), psi.amplitudes)
            assert np.array_equal(displace_p(psi, v).amplitudes, expected)

    def test_displace_q(self, grid):
        psi = random_dense_state(grid, seed=41)
        for u in (0.8, -1.37, SQRT_PI):
            kicked = np.multiply(grid_kick(grid, Rep.MOMENTUM, u), to_momentum(psi).amplitudes)
            expected = to_position(ModeState(grid, Rep.MOMENTUM, kicked))
            assert np.array_equal(displace_q(psi, u).amplitudes, expected.amplitudes)
            phi = to_momentum(psi)
            assert np.array_equal(displace_q(phi, u).amplitudes, kicked)

    def test_apply_phase_function(self, grid):
        psi = random_dense_state(grid, seed=42)
        for f in (lambda q: 0.3 * q**2, lambda q: np.sqrt(np.pi) * q, lambda q: 40.0 * q**3):
            expected = np.exp(1j * f(grid.points)) * psi.amplitudes
            assert np.array_equal(apply_phase_function(psi, f).amplitudes, expected)


@pytest.mark.parametrize("grid", [make_grid(256, 30.0), self_dual_grid(1024)], ids=["general", "self_dual"])
@pytest.mark.parametrize("rep", [Rep.POSITION, Rep.MOMENTUM])
class TestShiftValues:
    """The in-place shift equals, bit for bit, the textbook one: transform to
    momentum, multiply by the kick the kernel's tables make, transform back."""

    @staticmethod
    def textbook(row, grid, rep, u):
        kick = grid_kick(grid, Rep.MOMENTUM, u)
        if rep is Rep.MOMENTUM:
            return np.multiply(kick, row)
        phi = _transform(row, grid, Rep.MOMENTUM)
        return _transform(np.multiply(kick, phi), grid, Rep.POSITION)

    @staticmethod
    def rows(grid, m, seed):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(m, grid.n_points)) + 1j * rng.normal(size=(m, grid.n_points))

    def test_displace_q(self, grid, rep):
        psi = ModeState(grid, rep, self.rows(grid, 1, 50)[0])
        for u in (0.8, -1.37, SQRT_PI):
            assert np.array_equal(displace_q(psi, u).amplitudes, self.textbook(psi.amplitudes, grid, rep, u))

    def test_batched_rows(self, grid, rep):
        rows = self.rows(grid, 45, 51)
        shifted = rows.copy()
        _shift_rows(shifted, grid, rep, -1.37)
        for before, after in zip(rows, shifted):
            assert np.array_equal(after, self.textbook(before, grid, rep, -1.37))

    def test_ensemble_components(self, grid, rep):
        rows = self.rows(grid, 45, 52)
        ens = ConditionalEnsemble(grid, rep, np.ones(45), rows, u=SQRT_PI)
        for before, after in zip(ens.rows, ens.components):
            assert np.array_equal(after, self.textbook(before, grid, rep, SQRT_PI))


class TestLinearPhase:
    """The table kernel exp(i (a + b k)): its accuracy, and its in-place blocks."""

    EPS = np.finfo(np.float64).eps

    @staticmethod
    def exact(u, samples):
        """exp(-i u x) in extended precision for the grid's own float samples x, and max |u x|."""
        x = -np.longdouble(u) * samples.astype(np.longdouble)
        return np.cos(x) + 1j * np.sin(x), float(np.max(np.abs(x)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        log2n=st.integers(6, 18),
        general=st.booleans(),
        ratio=st.floats(0.25, 4.0),
        axis=st.sampled_from([Rep.POSITION, Rep.MOMENTUM]),
        reach=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=3),
        signs=st.lists(st.booleans(), min_size=3, max_size=3),
    )
    def test_within_four_eps_of_the_exact_phase(self, log2n, general, ratio, axis, reach, signs):
        # |u x| up to 10^reach, one (a, b) pair per row; the per-sample
        # np.exp(1j * x) meets the same bound (0.47 at worst in these units,
        # the tables 1.2)
        n = 2**log2n
        grid = make_grid(n, ratio * math.sqrt(2.0 * math.pi * n)) if general else self_dual_grid(n)
        x = grid.rep_points(axis)
        us = np.array([(1.0 if s else -1.0) * 10.0**r / np.max(np.abs(x)) for r, s in zip(reach, signs)])
        rows = np.ones((len(us), n), dtype=np.complex128)
        _apply_linear_phase(rows, -us * x[0], -us * grid.rep_spacing(axis))
        for row, u in zip(rows, us):
            exact, reach_x = self.exact(u, x)
            bound = 4.0 * self.EPS * (1.0 + reach_x)
            assert np.max(np.abs(row - exact)) <= bound
            assert np.max(np.abs(np.exp(1j * (-u * x)) - exact)) <= bound

    @pytest.mark.parametrize("n", [64, 128, 2048, 65536])
    def test_in_place_blocks_equal_the_table_kick(self, n):
        # scalar and per-row pairs; rows of a wider buffer, as the chirp-z
        # transform hands them over; m = n/m and m != n/m
        rng = np.random.default_rng(n)
        buf = rng.normal(size=(3, n + 40)) + 1j * rng.normal(size=(3, n + 40))
        rows = buf[:, :n]
        a, b = rng.normal(size=3), rng.normal(size=3) / n
        for pair in ((a[0], b[0]), (a, b), (0.0, b)):
            expected = np.multiply(table_kick(*pair, n), rows)
            tail = buf[:, n:].copy()
            _apply_linear_phase(rows, *pair)
            assert np.array_equal(rows, expected)
            assert np.array_equal(buf[:, n:], tail)

    def test_kicks_and_transforms_allocate_under_64_kib(self):
        # beyond the result: the parent's 1 MiB kick and 512 KiB sign vector are gone
        grid = self_dual_grid(65536)
        n = grid.n_points
        psi = random_dense_state(grid, seed=60)
        rows = TestShiftValues.rows(grid, 45, 61)
        x = np.array(rows[0])
        for call, result_bytes in (
            (lambda: displace_q(psi, 0.7), 16 * n),
            (lambda: displace_p(psi, 0.7), 16 * n),
            (lambda: _shift_rows(rows, grid, Rep.POSITION, 0.7), 0),
            (lambda: _transform(x, grid, Rep.MOMENTUM, out=x), 0),
        ):
            call()  # the grid's samples and sign vector are made on first use
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - result_bytes < 64 * 1024, peak - result_bytes
