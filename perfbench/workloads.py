"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from the benchmark seed in ``setup`` and runs
one operation per ``op`` call, returning the list of correctness checks that
operation failed (empty when it passed).  Inputs of op ``i`` depend only on
the seed and ``i``.  ``finish`` applies the checks that are defined over a
whole run and returns the op indices they fail.  Functions are looked up on
the ``cviqp`` package at call time, so the tracer's wrappers are seen.

The tolerances are the pinned acceptance tolerances; none is loosened here.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

import cviqp
import cviqp.cli

SQRT_PI = math.sqrt(math.pi)
MASS_REL_TOL = 1e-9


def _mass_consistency(report) -> list[str]:
    """The reported success probability equals the mass of the returned ensemble."""
    p, mass = report.success_probability, report.output.total_probability
    if abs(p - mass) <= MASS_REL_TOL * max(abs(p), abs(mass)):
        return []
    return [f"success_probability {p:.12g} != output.total_probability {mass:.12g}"]


class Workload:
    """Base of the workloads: ``setup``, ``op`` and, where needed, ``finish`` and ``close``."""

    name: str
    count_ops: int  # ops in the traced run's count window

    def __init__(self, scratch_root: Path) -> None:
        self.scratch_root = scratch_root

    def finish(self) -> dict[int, str]:
        return {}

    def close(self) -> None:
        pass


class FourierGadget(Workload):
    """``fourier_gadget`` on the general 4096-point grid, vacuum input.

    Only this workload runs the materialized two-mode path: CZ on n x n,
    2-D transforms and Gauss-Legendre sub-grid slices.
    """

    name = "fg-general-4096"
    count_ops = 3  # one full eta cycle
    ETAS = (0.005, 0.01, 0.02)
    SIGMA = 0.1

    def setup(self, seed: int) -> None:
        grid = cviqp.make_grid(4096, 256.0)
        q = grid.points
        self.psi = cviqp.normalized(cviqp.ModeState(grid, cviqp.Rep.POSITION, np.exp(-(q**2) / 2.0)))
        self.first_eta = seed % len(self.ETAS)

    def op(self, i: int) -> list[str]:
        eta = self.ETAS[(self.first_eta + i) % len(self.ETAS)]
        rep = cviqp.fourier_gadget(self.psi, self.SIGMA, cviqp.DetectorParams(eta=eta), postselect_k=0)
        failures = _mass_consistency(rep)
        lead = 2.0 * eta * self.SIGMA / SQRT_PI
        if not abs(rep.success_probability / lead - 1.0) < 0.05:
            failures.append(f"eta={eta}: probability {rep.success_probability:.6g} not within 5% of {lead:.6g}")
        fid = rep.diagnostics["fidelity_vs_finite_squeezing_target"]
        if not fid > 0.999:
            failures.append(f"eta={eta}: fidelity vs finite-squeezing target {fid:.6g} <= 0.999")
        return failures


class ErrorCorrection(Workload):
    """Factored-engine GKP correction trials on the self-dual 65536-point grid.

    The physics of the noise-replacement property: data |+> (delta 0.25)
    displaced by u1 ~ N(0, 0.3), ancilla |0> (delta 0.05) with momentum shift
    noise of std 0.05, eta = sqrt(pi)/8.  65536 points is the smallest
    self-dual power of two that resolves the 0.05 ancilla spike.  No n x n
    array is ever built.
    """

    name = "ec-selfdual-65536"
    count_ops = 4
    U1_STD = 0.3
    S_A = 0.05
    MAX_WRAP_SHARE = 0.10

    def setup(self, seed: int) -> None:
        self.seed = seed
        grid = cviqp.self_dual_grid(65536)
        self.clean = cviqp.gkp_plus(cviqp.GkpParams.tied(0.25), grid)
        self.anc_params = cviqp.GkpParams.tied(0.05)
        self.noise = cviqp.ShiftNoise(u_std=0.0, v_std=self.S_A)
        self.det = cviqp.DetectorParams(eta=SQRT_PI / 8)
        self.trials: dict[int, tuple[bool, bool, float]] = {}

    def op(self, i: int) -> list[str]:
        rng = np.random.default_rng([self.seed, i])
        u1 = float(rng.normal(0.0, self.U1_STD))
        trial_seed = int(rng.integers(2**31))
        data = cviqp.displace_q(self.clean, u1)
        rep = cviqp.gkp_error_correct(
            data, self.anc_params, self.noise, self.det, seed=trial_seed, known_data_shift=(u1, 0.0)
        )
        cviqp.ensemble_fidelity(rep.output, self.clean)  # the figure a trial reports; no pinned bound
        d = rep.diagnostics
        self.trials[i] = (
            d["threshold_held"] > 0.5,
            d["logical_miscorrection"] > 0.5,
            d["net_position_offset"],
        )
        return _mass_consistency(rep)

    def finish(self) -> dict[int, str]:
        """Residual spread and wrap share over every trial of the run.

        A failure marks every trial the statistic was taken over as failed.
        With a wrap rate near 1.6% per trial, a correct program fails the
        10% wrap-share limit in about one run in 200 at 40 trials, and more
        often in shorter runs.
        """
        held = [i for i, (ok, _, _) in self.trials.items() if ok]
        wraps = [i for i in held if self.trials[i][1]]
        residuals = [self.trials[i][2] for i in held if not self.trials[i][1]]
        bound = 2.0 * (self.S_A + self.det.eta)
        problems = []
        if not held:
            problems.append("no trial held the recovery threshold")
        else:
            if residuals:
                spread = math.sqrt(sum(r * r for r in residuals) / len(residuals))
                if not spread <= bound:
                    problems.append(f"residual spread {spread:.4g} > 2(s_a + eta) = {bound:.4g}")
            if not len(wraps) / len(held) < self.MAX_WRAP_SHARE:
                problems.append(f"wrap share {len(wraps)}/{len(held)} >= {self.MAX_WRAP_SHARE}")
        if not problems:
            return {}
        reason = "; ".join(problems)
        return {i: reason for i in (held or self.trials)}


class CliReadme(Workload):
    """One pass of four README commands through ``cviqp.cli.main``, in process.

    ``error-correct``, ``scaling``, ``dv`` and ``readout`` with their README
    arguments; the two ``--seed`` values come from the benchmark seed.  The
    only workload touching ``cli``, ``analysis``, the DV simulator and
    ``gkp_readout``; it drives the two-mode engine in the sample-binning
    regime on a 1024-point grid.
    """

    name = "cli-readme"
    count_ops = 1

    def setup(self, seed: int) -> None:
        self.scratch_root.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=self.scratch_root))
        d = self.dir
        self.commands = [
            ["error-correct", "--delta", "0.25", "--eta", "0.4431134627263791", "--u1", "0.2",
             "--trials", "100", "--seed", str(seed), "--grid-points", "1024", "--extent", "64",
             "--out", str(d / "ec.csv")],
            ["scaling", "--n", "1,10,100,1000", "--solve-ft-error", "1e-6"],
            ["dv", "--mode", "hadamard-gadget", "--trials", "10000", "--seed", str(seed),
             "--out", str(d / "dv.csv")],
            ["readout", "--delta", "0.15,0.2,0.25", "--eta", "0.2215567313631895",
             "--state", "minus", "--out", str(d / "readout.csv")],
        ]
        self.reference: dict[str, bytes] | None = None

    def op(self, i: int) -> list[str]:
        failures = []
        outputs: dict[str, bytes] = {}
        for argv in self.commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cviqp.cli.main(argv)
            if code != 0:
                failures.append(f"{argv[0]} exited {code}")
            outputs[f"{argv[0]} stdout"] = buf.getvalue().encode()
            if "--out" in argv:
                path = Path(argv[argv.index("--out") + 1])
                outputs[path.name] = path.read_bytes()
                path.unlink()
        if self.reference is None:
            self.reference = outputs
        for key, data in outputs.items():
            if data != self.reference.get(key):
                failures.append(f"{key} differs from the first pass")
        return failures

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (FourierGadget, ErrorCorrection, CliReadme)}
NAMES = tuple(WORKLOADS)


def make(name: str, scratch_root: Path) -> Workload:
    """A workload by name; ``scratch_root`` is where it may write files."""
    return WORKLOADS[name](scratch_root)
