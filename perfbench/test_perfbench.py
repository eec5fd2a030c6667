"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

The count tests run the count window of every workload twice (about a minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import cviqp  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_KEYS = tracer.WORK_KEYS + tuple(f"{layer}.calls" for layer in tracer.LAYERS)


def _traced_counts(name: str, seed: int, tmp_path: Path) -> dict[str, float]:
    """The count window of a traced run: a zero-second run makes exactly ``count_ops`` traced ops."""
    wl = workloads.make(name, tmp_path)
    wl.setup(seed)
    run = worker._Run(wl)
    tr = tracer.Tracer()
    try:
        worker._traced_loop(run, 0.0, tr)
    finally:
        wl.close()
    assert run.attempted == 2 * wl.count_ops
    assert run.problems == {}
    summary = tr.summary(wl.count_ops)
    return {key: summary[key] for key in COUNT_KEYS}


@pytest.fixture(scope="module")
def counts(tmp_path_factory) -> dict[str, tuple[dict, dict]]:
    out = {}
    for name in workloads.NAMES:
        first = _traced_counts(name, 5, tmp_path_factory.mktemp(name))
        second = _traced_counts(name, 5, tmp_path_factory.mktemp(name))
        out[name] = (first, second)
    return out


def test_counts_repeat_exactly_for_a_fixed_seed(counts):
    for name, (first, second) in counts.items():
        assert first == second, name


def test_counts_separate_the_gadget_workloads(counts):
    fg, _ = counts["fg-general-4096"]
    ec, _ = counts["ec-selfdual-65536"]
    assert fg["gates.cz.calls"] > 0 and fg["gates.cz.elements"] == 4096 * 4096
    assert fg["gates.displace.calls"] == 0
    assert ec["gates.cz.calls"] == 0 and ec["gates.cz.elements"] == 0
    assert ec["gates.displace.calls"] > 40
    assert ec["homodyne.components"] > 40


def test_uninstall_restores_every_wrapped_reference():
    before = (cviqp.to_momentum, cviqp.gates.to_momentum, cviqp.cli._GKP_STATES["plus"],
              cviqp.homodyne.ConditionalEnsemble.purity, cviqp.analysis.pe_bound)
    tr = tracer.Tracer()
    tr.install()
    wrapped = (cviqp.to_momentum, cviqp.gates.to_momentum, cviqp.cli._GKP_STATES["plus"],
               cviqp.homodyne.ConditionalEnsemble.purity, cviqp.analysis.pe_bound)
    tr.uninstall()
    after = (cviqp.to_momentum, cviqp.gates.to_momentum, cviqp.cli._GKP_STATES["plus"],
             cviqp.homodyne.ConditionalEnsemble.purity, cviqp.analysis.pe_bound)
    assert all(w is not b for w, b in zip(wrapped, before))
    assert all(a is b for a, b in zip(after, before))


def test_self_time_is_span_time_minus_child_time():
    tr = tracer.Tracer()
    # op 0 spans [0, 10]; a gadget span [1, 9] holds a transform [2, 5] and
    # a displacement [6, 8], which holds a transform [6.5, 7]
    tr.spans = [
        [1, None, 0, "op", 0.0, 10.0],
        [2, 1, 0, "gadgets.fourier_gadget", 1.0, 9.0],
        [3, 2, 0, "quadgrid.transform", 2.0, 5.0],
        [4, 2, 0, "gates.displace", 6.0, 8.0],
        [5, 4, 0, "quadgrid.transform", 6.5, 7.0],
    ]
    s = tr.summary(count_ops=1)
    assert s["gadgets.fourier_gadget.self_s"] == pytest.approx(3.0)
    assert s["gates.displace.self_s"] == pytest.approx(1.5)
    assert s["quadgrid.transform.self_s"] == pytest.approx(3.5)
    assert s["quadgrid.transform.calls"] == 2
    assert s["trace.coverage"] == pytest.approx(0.8)


def test_summary_and_worker_cover_every_per_layer_metric():
    tr = tracer.Tracer()
    tr.spans = [[1, None, 0, "op", 0.0, 1.0]]
    produced = set(tr.summary(count_ops=1)) | {"trace.overhead"}
    assert {m["name"] for m in SPEC["per_layer"]} <= produced


def test_run_fails_without_the_program_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cli-readme", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no cviqp sources" in proc.stderr
