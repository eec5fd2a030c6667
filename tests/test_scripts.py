"""The experiment scripts in scripts/ run end to end in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cviqp

SCRIPTS_DIR = Path(__file__).resolve().parents[1] / "scripts"

# CSV columns of the scripts that write one (None: the script only prints)
SCRIPTS = {
    "run_probability_law.py": "sigma,eta,success_probability,leading_order,relative_deviation,"
    "fidelity_vs_ideal_fourier,fidelity_vs_finite_squeezing_target,ensemble_purity",
    "run_readout_sweep.py": "delta,delta_env,eta,p_plus,p_minus,p_error,pe_bound",
    "run_scaling_table.py": None,
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script, tmp_path):
    columns = SCRIPTS[script]
    out = tmp_path / "out.csv"
    argv = [sys.executable, str(SCRIPTS_DIR / script)]
    if columns is not None:
        argv += ["--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(Path(cviqp.__file__).parents[1]))
    result = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    if columns is None:
        lines = result.stdout.splitlines()
        assert any(line.startswith("fault-tolerant Fourier error 1e-06:") for line in lines)
    else:
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == columns
        assert len(lines) > 2
