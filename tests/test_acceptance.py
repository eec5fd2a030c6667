"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time

import numpy as np
import pytest

from cviqp.analysis import min_squeezing_db, pe_bound, solve_ft_error, squeezing_db
from cviqp.cli import main as cli_main
from cviqp.gadgets import (
    ShiftNoise,
    centered_mod_sqrt_pi,
    dv_hadamard_gadget,
    fourier_gadget,
    gkp_error_correct,
    qubit_state,
)
from cviqp.gates import apply_cz, apply_phase_function, apply_t, apply_z, displace_q, tensor
from cviqp.homodyne import (
    DetectorParams,
    bin_probabilities,
    ensemble_fidelity,
    gkp_readout,
    sample_outcome,
)
from cviqp.quadgrid import (
    ModeState,
    Rep,
    fidelity_pure,
    make_grid,
    normalized,
    self_dual_grid,
)
from cviqp.states import GkpParams, gkp_minus, gkp_plus, gkp_zero

from conftest import random_smooth_state
from test_gadgets import oracle_center_bin_probability

SQRT_PI = math.sqrt(math.pi)


def report(number: int, ok: bool, text: str) -> bool:
    print(f"ACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {text}")
    return ok


def vacuum(grid):
    q = grid.points
    return normalized(ModeState(grid, Rep.POSITION, np.exp(-(q**2) / 2.0)))


def test_criterion_1_fourier_gadget_probability_law():
    grid = make_grid(4096, 256.0)
    psi = vacuum(grid)
    sigma = 0.1
    # independent 1-D quadrature oracle for the eta -> 0 coefficient
    b0 = oracle_center_bin_probability(psi, sigma, 1e-7) / (2e-7 * sigma / SQRT_PI)
    devs = []
    ok = True
    for eta in (0.02, 0.01, 0.005):
        t0 = time.monotonic()
        rep = fourier_gadget(psi, sigma, DetectorParams(eta=eta))
        runtime = time.monotonic() - t0
        lead = 2.0 * eta * sigma / SQRT_PI
        rel = abs(rep.success_probability / lead - 1.0)
        devs.append(abs(rep.success_probability / lead - b0))
        ok &= rel < 0.05
        ok &= runtime < 10.0
    quad = devs[1] / devs[0] < 0.30 and devs[2] / devs[1] < 0.30
    ok &= quad
    assert report(
        1,
        ok,
        f"Prob[k=0] within 5% of 2*eta*sigma/sqrt(pi) for eta in {{0.005,0.01,0.02}}; "
        f"residual vs the eta->0 coefficient shrinks x{devs[0]/devs[1]:.2f}, x{devs[1]/devs[2]:.2f} per halving",
    )


def test_criterion_2_fourier_gadget_state():
    grid = make_grid(4096, 256.0)
    psi = vacuum(grid)
    sigma, eta = 0.1, 0.01
    rep = fourier_gadget(psi, sigma, DetectorParams(eta=eta))
    # independent direct integration of the finite-squeezing target
    p = grid.momentum_points
    q = grid.points
    kernel = np.exp(-((p[:, None] - q[None, :]) ** 2) / (2.0 * sigma**2))
    target_amp = kernel @ psi.amplitudes
    target = normalized(ModeState(grid, Rep.MOMENTUM, target_amp))
    fid_target = ensemble_fidelity(rep.output, target)
    ok = fid_target > 0.999

    big = self_dual_grid(262144)
    psi_big = vacuum(big)
    fids = []
    for s, e in ((0.1, 0.01), (0.05, 0.005), (0.025, 0.0025)):
        r = fourier_gadget(psi_big, s, DetectorParams(eta=e))
        fids.append(r.diagnostics["fidelity_vs_ideal_fourier"])
    ok &= fids[0] < fids[1] < fids[2]
    assert report(
        2,
        ok,
        f"ensemble fidelity vs integrated target {fid_target:.6f} > 0.999; "
        f"fidelity vs ideal F {fids[0]:.6f} -> {fids[1]:.6f} -> {fids[2]:.6f} monotone",
    )


def test_criterion_3_dv_hadamard_gadget():
    t0 = time.monotonic()
    H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    X = np.array([[0, 1], [1, 0]])
    cardinal = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 1j), (1, -1j)]
    ok = True
    for alpha, beta in cardinal:
        psi = qubit_state(alpha, beta)
        for postselect, h_expected in ((1, 0), (-1, 1)):
            out, h, prob = dv_hadamard_gadget(psi, postselect=postselect)
            ok &= abs(prob - 0.5) <= 1e-12
            ok &= h == h_expected
            expected = np.linalg.matrix_power(X, h) @ H @ psi.amplitudes
            expected = expected / np.linalg.norm(expected)
            ok &= abs(abs(np.vdot(expected, out.amplitudes)) ** 2 - 1.0) <= 1e-12
    runtime = time.monotonic() - t0
    ok &= runtime < 1.0
    assert report(
        3,
        ok,
        f"all 6 cardinal inputs: outcome probability 0.5 +- 1e-12 and output = X^h H psi "
        f"(runtime {runtime:.3f} s)",
    )


def test_criterion_4_gkp_misidentification():
    grid = make_grid(8192, 170.0)
    det = DetectorParams(eta=SQRT_PI / 8)
    errors, bounds = [], []
    for delta in (0.15, 0.2, 0.25):
        result = gkp_readout(gkp_minus(GkpParams.tied(delta), grid), det)
        errors.append(result.p_error)
        bounds.append(pe_bound(delta))
    within = all(b / 3.0 <= e <= 3.0 * b for e, b in zip(errors, bounds))
    monotone = errors[0] < errors[1] < errors[2]
    ok = within and monotone
    ratios = ", ".join(f"{e/b:.2f}" for e, b in zip(errors, bounds))
    assert report(
        4,
        ok,
        f"grid error mass within factor 3 of (2 delta/pi) exp(-pi/4 delta^2) "
        f"(ratios {ratios}) and monotone in delta",
    )


def test_criterion_5_fault_tolerance_number():
    t0 = time.monotonic()
    sigma = solve_ft_error(1e-6)
    db = squeezing_db(sigma**2)
    runtime = time.monotonic() - t0
    ok = 20.0 <= db <= 21.0 and runtime < 1.0
    assert report(
        5, ok, f"error 1e-6 per Fourier transform at {db:.3f} dB (runtime {runtime:.3f} s)"
    )


def test_criterion_6_scaling_law():
    worst_db = 0.0
    ok = True
    ns = [1, 2, 3, 7, 10, 31, 100, 316, 1000, 3162, 10_000]
    for n in ns:
        rep = min_squeezing_db(n)
        direct_delta_sq = (math.pi / 4.0) / (n * math.log(2.0) + math.log(20.0 / math.pi))
        db_from_delta = squeezing_db(direct_delta_sq)
        rel = abs(rep.min_squeezing_db - db_from_delta) / abs(db_from_delta)
        worst_db = max(worst_db, rel)
        ok &= rel <= 1e-9
    slope = (4.0 / math.pi) * math.log(2.0)
    for a, b in zip(ns, ns[1:]):
        measured = (
            min_squeezing_db(b).mean_photon_lower - min_squeezing_db(a).mean_photon_lower
        ) / (b - a)
        ok &= abs(measured - slope) / slope <= 1e-9
    assert report(
        6,
        ok,
        f"dB form vs variance form agree to {worst_db:.1e} over n in [1, 1e4]; "
        f"mean-photon bound affine with slope (4/pi) ln 2",
    )


def test_criterion_7_error_correction_property():
    grid = self_dual_grid(8192)
    det = DetectorParams(eta=SQRT_PI / 8)
    params = GkpParams.tied(0.2)
    clean = gkp_plus(params, grid)
    data = displace_q(clean, 0.2)
    pre = fidelity_pure(clean, data)
    # modal syndrome outcome, deterministic
    from cviqp.gadgets import outcome_distribution

    ancilla = gkp_zero(params, grid)
    dist = outcome_distribution(data, ancilla, det)
    k_modal = max(dist, key=dist.get)
    rep = gkp_error_correct(
        data,
        params,
        ShiftNoise.none(),
        det,
        fixed_outcome_k=k_modal,
        known_data_shift=(0.2, 0.0),
    )
    post = ensemble_fidelity(rep.output, clean)
    improves = post > pre and rep.diagnostics["threshold_held"] == 1.0

    # deliberate threshold violation: u1 = 1.4 > sqrt(pi)/2 - eta
    params25 = GkpParams.tied(0.25)
    clean25 = gkp_plus(params25, grid)
    data14 = displace_q(clean25, 1.4)
    anc25 = gkp_zero(params25, grid)
    dist14 = outcome_distribution(data14, anc25, det)
    detected = 0
    for seed in range(1000):
        k = sample_outcome(dist14, seed)
        net = 1.4 - centered_mod_sqrt_pi(det.bin_center(k))
        if abs(net) > SQRT_PI / 2.0:
            detected += 1
    rate = detected / 1000.0
    ok = improves and rate >= 0.95
    assert report(
        7,
        ok,
        f"post-correction fidelity {post:.4f} > pre {pre:.4f} at u1=0.2; "
        f"threshold violation detected as +-sqrt(pi) miscorrection in {rate:.1%} of 1000 trials",
    )


def test_criterion_8_measurement_algebra_and_commutation():
    grid = make_grid(256, 30.0)
    det = DetectorParams(eta=0.5)
    ok = True
    for seed in range(100):
        a = random_smooth_state(grid, seed=seed)
        b = random_smooth_state(grid, seed=seed + 1000)
        st = apply_cz(tensor(a, b))
        probs = bin_probabilities(st, 1, det)
        ok &= abs(sum(probs.values()) - 1.0) <= 1e-8
    # disjointness: every momentum sample belongs to exactly one pixel
    bins = det.bin_of(grid.momentum_points)
    counts = {}
    for k in bins:
        counts[k] = counts.get(k, 0) + 1
    ok &= sum(counts.values()) == grid.n_points

    rng = np.random.default_rng(42)
    gates = [
        apply_z,
        apply_t,
        lambda s: apply_phase_function(s, lambda q: 0.37 * q**2),
        lambda s: apply_phase_function(s, lambda q: -0.11 * q**3 + 0.5 * q),
    ]
    for trial in range(100):
        psi = random_smooth_state(grid, seed=trial + 5000)
        order = rng.permutation(len(gates))
        forward = psi
        for idx in order:
            forward = gates[idx](forward)
        backward = psi
        for idx in order[::-1]:
            backward = gates[idx](backward)
        ok &= np.max(np.abs(forward.amplitudes - backward.amplitudes)) <= 1e-12
    assert report(
        8,
        ok,
        "bin completeness 1 +- 1e-8 and sample disjointness on 100 random states; "
        "q-diagonal gate sequences permute bitwise to 1e-12 on 100 random sequences",
    )


def test_criterion_9_cli_determinism(tmp_path):
    cases = [
        [
            "fourier-gadget",
            "--sigma",
            "0.2",
            "--eta",
            "0.01,0.02",
            "--grid-points",
            "1024",
            "--extent",
            "128",
        ],
        [
            "error-correct",
            "--delta",
            "0.25",
            "--eta",
            str(SQRT_PI / 4),
            "--u1",
            "0.2",
            "--trials",
            "32",
            "--seed",
            "9",
            "--grid-points",
            "1024",
            "--extent",
            "64",
        ],
        ["dv", "--mode", "hadamard-gadget", "--trials", "256", "--seed", "3"],
        ["scaling", "--n", "1,10,100"],
        ["readout", "--delta", "0.2,0.25", "--eta", str(SQRT_PI / 8)],
    ]
    ok = True
    for i, case in enumerate(cases):
        out1 = tmp_path / f"case{i}_a.csv"
        out2 = tmp_path / f"case{i}_b.csv"
        ok &= cli_main(case + ["--out", str(out1)]) == 0
        ok &= cli_main(case + ["--out", str(out2)]) == 0
        ok &= out1.read_bytes() == out2.read_bytes()
    assert report(9, ok, "all five CLI subcommands rerun byte-identically with fixed seeds")
