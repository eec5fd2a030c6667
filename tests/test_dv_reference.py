import math

import numpy as np
import pytest

from cviqp.errors import NumericalError, ValidationError
from cviqp.gadgets import (
    QubitState,
    dv_hadamard_gadget,
    dv_hadamard_trials,
    dv_iqp_circuit,
    qubit_state,
)
from cviqp.seeding import _SEED_BLOCK, _seeded_uniforms

H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
X = np.array([[0, 1], [1, 0]])

CARDINAL = {
    "zero": (1, 0),
    "one": (0, 1),
    "plus": (1, 1),
    "minus": (1, -1),
    "plus_i": (1, 1j),
    "minus_i": (1, -1j),
}


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return abs(np.vdot(a, b)) ** 2


class TestHadamardGadget:
    @pytest.mark.parametrize("name", sorted(CARDINAL))
    @pytest.mark.parametrize("postselect", [1, -1])
    def test_exact_output_and_probability(self, name, postselect):
        psi = qubit_state(*CARDINAL[name])
        out, h, prob = dv_hadamard_gadget(psi, postselect=postselect)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert h == (0 if postselect == 1 else 1)
        expected = np.linalg.matrix_power(X, h) @ H @ psi.amplitudes
        assert state_fidelity(out.amplitudes, expected / np.linalg.norm(expected)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matrix_oracle_specific_state(self):
        # psi = (|0> + i|1>)/sqrt(2), outcome -: output equals X H psi
        psi = qubit_state(1.0, 1.0j)
        out, h, _ = dv_hadamard_gadget(psi, postselect=-1)
        expected = X @ H @ psi.amplitudes
        assert h == 1
        assert state_fidelity(out.amplitudes, expected / np.linalg.norm(expected)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_sampled_outcomes_balanced(self):
        psi = qubit_state(0.3, 0.9539392014169456)
        hs = [dv_hadamard_gadget(psi, seed=s)[1] for s in range(2000)]
        assert abs(np.mean(hs) - 0.5) < 0.05

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1, 2**128 - 1])
    def test_seeded_run_is_run_0_of_the_trials(self, seed):
        psi = qubit_state(0.3, 0.9539392014169456)
        out, h, prob = dv_hadamard_gadget(psi, seed=seed)
        hs, probs = dv_hadamard_trials(psi, 1, seed=seed)
        assert (h, prob) == (int(hs[0]), float(probs[0]))
        expected = np.linalg.matrix_power(X, h) @ H @ psi.amplitudes
        assert state_fidelity(out.amplitudes, expected / np.linalg.norm(expected)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seeds_outside_0_to_2_128_rejected(self, seed):
        with pytest.raises(ValidationError, match="2\\*\\*128"):
            dv_hadamard_gadget(qubit_state(0.3, 0.9539392014169456), seed=seed)

    @pytest.mark.parametrize("postselect", [0, 2])
    def test_invalid_postselect_rejected(self, postselect):
        with pytest.raises(ValidationError, match="postselect"):
            dv_hadamard_gadget(qubit_state(1.0, 0.0), postselect=postselect)

    def test_multi_qubit_input_rejected(self):
        with pytest.raises(ValidationError):
            dv_hadamard_gadget(QubitState(2, np.full(4, 0.5)), postselect=1)


class TestSeededUniforms:
    """The batched draw is numpy's ``default_rng(seed).random()``, bit for bit."""

    # word boundaries of the seed's 32-bit split, and the last seeds below 2**128
    EDGES = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**96, 2**128 - 1]

    @pytest.mark.parametrize("seed", EDGES)
    def test_edge_seeds(self, seed):
        assert _seeded_uniforms(seed, 1)[0] == np.random.default_rng(seed).random()

    @pytest.mark.parametrize("first", [2**32 - 3, 2**64 - 3, 2**128 - 6])
    def test_ranges_across_word_boundaries(self, first):
        want = [np.random.default_rng(first + t).random() for t in range(6)]
        assert _seeded_uniforms(first, 6).tolist() == want

    @pytest.mark.parametrize("count", [_SEED_BLOCK - 1, _SEED_BLOCK, _SEED_BLOCK + 1, 2 * _SEED_BLOCK + 3])
    def test_counts_at_the_block_seams(self, count):
        want = np.array([np.random.default_rng(977 + t).random() for t in range(count)])
        assert np.array_equal(_seeded_uniforms(977, count).view(np.uint64), want.view(np.uint64))

    def test_block_ending_at_the_last_seed(self):
        first = 2**128 - _SEED_BLOCK - 3  # the second block ends at 2**128 - 1
        want = np.array([np.random.default_rng(first + t).random() for t in range(_SEED_BLOCK + 3)])
        assert np.array_equal(_seeded_uniforms(first, _SEED_BLOCK + 3).view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("first, count", [(-1, 1), (2**128, 1), (2**128 - 1, 2)])
    def test_seeds_outside_0_to_2_128_rejected(self, first, count):
        with pytest.raises(ValidationError, match="2\\*\\*128"):
            _seeded_uniforms(first, count)

    def test_trials_are_per_seed_gadget_runs(self):
        psi = qubit_state(0.3, 0.9539392014169456)
        hs, probs = dv_hadamard_trials(psi, 400, seed=2**64 - 200)
        assert hs.dtype == np.int64 and probs.dtype == np.float64
        assert hs.shape == probs.shape == (400,)
        runs = list(zip(hs.tolist(), probs.tolist()))
        assert runs == [dv_hadamard_gadget(psi, seed=2**64 - 200 + t)[1:] for t in range(400)]
        assert set(hs.tolist()) == {0, 1}


class TestIqpCircuit:
    def test_no_gates_deterministic_all_plus(self):
        probs = dv_iqp_circuit(3, [])
        assert probs[0] == pytest.approx(1.0, abs=1e-12)
        assert np.sum(probs[1:]) < 1e-12

    def test_distribution_normalized(self):
        gates = [((0,), 0.3), ((1, 2), 1.1), ((0, 1, 2), -0.7)]
        probs = dv_iqp_circuit(3, gates)
        assert np.sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_cz_gadget_cross_check(self):
        # CZ = global phase * exp(-i pi/4 Z0) exp(-i pi/4 Z1) exp(i pi/4 Z0 Z1):
        # post-selecting qubit 0 on + reproduces the Hadamard gadget on |+>
        gates = [((0,), -math.pi / 4), ((1,), -math.pi / 4), ((0, 1), math.pi / 4)]
        probs = dv_iqp_circuit(2, gates)
        assert np.allclose(probs, 0.25, atol=1e-12)
        conditional = dv_iqp_circuit(2, gates, postselect=[(0, 1)])
        # qubit 0 is bit 0: outcomes 0b00 and 0b10 survive, each 1/2
        assert conditional[0] == pytest.approx(0.5, abs=1e-12)
        assert conditional[2] == pytest.approx(0.5, abs=1e-12)
        assert conditional[1] == 0.0 and conditional[3] == 0.0
        # matches the gadget's input-independent 1/2 statistics
        _out, _h, prob = dv_hadamard_gadget(qubit_state(1.0, 1.0), postselect=1)
        assert prob == pytest.approx(0.5, abs=1e-12)

    def test_single_qubit_phase_interference(self):
        # exp(i theta Z) on |+> measured in X: P(+) = cos^2(theta)
        theta = 0.4
        probs = dv_iqp_circuit(1, [((0,), theta)])
        assert probs[0] == pytest.approx(math.cos(theta) ** 2, abs=1e-12)
        assert probs[1] == pytest.approx(math.sin(theta) ** 2, abs=1e-12)

    def test_zero_probability_conditioning_rejected(self):
        with pytest.raises(NumericalError):
            dv_iqp_circuit(2, [], postselect=[(0, -1)])

    def test_too_many_qubits_rejected(self):
        with pytest.raises(ValidationError):
            dv_iqp_circuit(15, [])

    def test_normalization_validated(self):
        with pytest.raises(ValidationError):
            QubitState(1, np.array([1.0, 1.0]))
