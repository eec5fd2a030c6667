"""The benchmark's layer tracer still resolves against the package.

``perfbench/tracer.py`` wraps public functions by (module, attribute) name
and counts the rows of every ``ConditionalEnsemble`` it sees, so a rename in
the package would leave every traced benchmark run without its layers.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from cviqp.homodyne import ConditionalEnsemble
from cviqp.quadgrid import Rep, make_grid

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    for name in tracer.SEARCHED_MODULES:
        importlib.import_module(name)
    for layer, entries in tracer.LAYERS.items():
        for module_name, attr in entries:
            owner = importlib.import_module(f"cviqp.{module_name}")
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert callable(owner), (layer, module_name, attr)


def test_ensemble_has_what_the_tracer_counts():
    grid = make_grid(64, 8.0)
    ens = ConditionalEnsemble(grid, Rep.POSITION, np.ones(2), np.ones((2, grid.n_points)))
    assert len(ens.components) == len(ens.weights) == 2
