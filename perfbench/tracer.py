"""Outside-in layer tracing for the benchmark.

The tracer replaces public functions of ``cviqp`` with timing wrappers at
every module attribute (and every module-level dict entry, such as the CLI's
state-constructor table) through which they are reached, so calls made from
inside the package are traced too.  Nothing under ``src/`` is edited: the
wrappers exist only between :meth:`Tracer.install` and :meth:`Tracer.uninstall`.

Each wrapped call inside an operation records a span ``[id, parent, op,
layer, start, end]``.  A call into a layer from that same layer (``gkp_plus``
building its two combs, ``apply_cz`` calling ``apply_phase_function2``)
is folded into the outer span, so ``calls`` counts entries into a layer.
Spans stay in memory and are written out when the run ends.  Around each
operation the tracer also reads the process's minor page faults and kernel
CPU time: fresh array memory that the kernel must fault in and zero is a
cost no layer span can show.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer name -> (module, attribute) pairs of the public functions it owns;
# a dotted attribute names a method on a class of that module
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "quadgrid.transform": (
        ("quadgrid", "to_momentum"),
        ("quadgrid", "to_position"),
        ("quadgrid", "transform_mode"),
    ),
    "quadgrid.fidelity": (("quadgrid", "fidelity_pure"),),
    "states.build": (
        ("states", "squeezed_momentum"),
        ("states", "gkp_zero"),
        ("states", "gkp_one"),
        ("states", "gkp_plus"),
        ("states", "gkp_minus"),
    ),
    "gates.cz": (("gates", "apply_cz"), ("gates", "apply_phase_function2")),
    "gates.tensor": (("gates", "tensor"),),
    "gates.displace": (("gates", "displace_q"), ("gates", "displace_p")),
    "gates.fourier": (("gates", "apply_fourier"),),
    "homodyne.bin_probabilities": (("homodyne", "bin_probabilities"),),
    "homodyne.project_bin": (("homodyne", "project_bin"),),
    "homodyne.ensemble_fidelity": (("homodyne", "ensemble_fidelity"),),
    "homodyne.ensemble_stats": (
        ("homodyne", "ConditionalEnsemble.purity"),
        ("homodyne", "ConditionalEnsemble.principal_component"),
    ),
    "homodyne.readout": (("homodyne", "gkp_readout"),),
    "homodyne.sample_outcome": (("homodyne", "sample_outcome"),),
    "gadgets.fourier_gadget": (("gadgets", "fourier_gadget"),),
    "gadgets.gkp_error_correct": (("gadgets", "gkp_error_correct"),),
    "gadgets.target": (("gadgets", "fourier_gadget_target"),),
    "gadgets.dv": (("gadgets", "dv_hadamard_gadget"), ("gadgets", "dv_iqp_circuit")),
    "analysis": (),  # every public function defined in cviqp.analysis
    "cli": (("cli", "main"),),
}

# modules whose attributes are searched for references to wrapped functions
SEARCHED_MODULES = (
    "cviqp",
    "cviqp.quadgrid",
    "cviqp.states",
    "cviqp.gates",
    "cviqp.homodyne",
    "cviqp.gadgets",
    "cviqp.analysis",
    "cviqp.cli",
)


def _transform_points(counts: Counter, args: tuple, out) -> None:
    # transform_mode hands back its input unchanged when no transform is due
    counts["quadgrid.transform.points"] += 0 if out is args[0] else out.amplitudes.size


def _cz_elements(counts: Counter, args: tuple, out) -> None:
    counts["gates.cz.elements"] += args[0].amplitudes.size


WORK_COUNTERS = {
    "quadgrid.transform": _transform_points,
    "gates.cz": _cz_elements,
}
WORK_KEYS = ("quadgrid.transform.points", "gates.cz.elements", "homodyne.components")


def _layer_functions() -> dict[str, list[tuple[object, str]]]:
    """Layer -> [(owner, attribute)] with owner a module or class."""
    out: dict[str, list[tuple[object, str]]] = {}
    for layer, entries in LAYERS.items():
        resolved = []
        for module_name, attr in entries:
            owner = sys.modules[f"cviqp.{module_name}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            resolved.append((owner, attr))
        out[layer] = resolved
    analysis = sys.modules["cviqp.analysis"]
    out["analysis"] = [
        (analysis, name)
        for name, fn in vars(analysis).items()
        if inspect.isfunction(fn) and fn.__module__ == analysis.__name__ and not name.startswith("_")
    ]
    return out


class Tracer:
    """Span recorder; wrappers record only while an operation is open."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._current: list | None = None
        self._next_id = 0
        self._seen_ensembles: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._ensemble_type = None
        self._rusage_start = None
        self.minor_faults = 0
        self.sys_s = 0.0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import cviqp  # noqa: F401  (loads every searched module)

        self._ensemble_type = sys.modules["cviqp.homodyne"].ConditionalEnsemble
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, targets in _layer_functions().items():
            for owner, attr in targets:
                orig = getattr(owner, attr)
                wrapper = self._wrap(layer, orig, WORK_COUNTERS.get(layer))
                wrappers[id(orig)] = (orig, wrapper)
                if inspect.isclass(owner):
                    self._patch_attr(owner, attr, wrapper)
        for module_name in SEARCHED_MODULES:
            module = sys.modules[module_name]
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch_attr(module, name, hit[1])
                elif isinstance(value, dict):
                    for key, item in value.items():
                        hit = wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._restore.append((value, key, item))
                            value[key] = hit[1]

    def _patch_attr(self, owner, name: str, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = orig
            else:
                setattr(owner, name, orig)
        self._restore.clear()

    def _wrap(self, layer: str, fn, work_counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._current
            if parent is None or parent[3] == layer:
                return fn(*args, **kwargs)
            tracer._next_id += 1
            span = [tracer._next_id, parent[0], parent[2], layer, perf_counter(), 0.0]
            tracer._current = span
            try:
                out = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                tracer._current = parent
                tracer.spans.append(span)
            counts = tracer.counts[span[2]]
            if work_counter is not None:
                work_counter(counts, args, out)
            tracer._count_components(counts, out)
            return out

        return traced

    def _count_components(self, counts: Counter, out) -> None:
        # an ensemble is counted once however many layers hand it on; holding
        # it until the op ends keeps its id from being reused by another
        ens = getattr(out, "output", out)
        if isinstance(ens, self._ensemble_type) and id(ens) not in self._seen_ensembles:
            self._seen_ensembles[id(ens)] = ens
            counts["homodyne.components"] += len(ens.components)

    # -- operations -------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._rusage_start = resource.getrusage(resource.RUSAGE_SELF)
        self._next_id += 1
        self._current = [self._next_id, None, op, "op", perf_counter(), 0.0]

    def end_op(self) -> None:
        span = self._current
        span[5] = perf_counter()
        ru0, ru1 = self._rusage_start, resource.getrusage(resource.RUSAGE_SELF)
        self.minor_faults += ru1.ru_minflt - ru0.ru_minflt
        self.sys_s += ru1.ru_stime - ru0.ru_stime
        self.spans.append(span)
        self._current = None
        self._seen_ensembles.clear()

    # -- results ----------------------------------------------------------

    def summary(self, count_ops: int) -> dict[str, float]:
        """Per-op layer figures.

        Self times are per traced op, averaged over every traced op.  Counts
        are per op over the first ``count_ops`` traced ops only, so they
        repeat exactly for a fixed seed however many ops the time budget
        allows.
        """
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _op, _layer, t0, t1 in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        op_ids = {s[0] for s in self.spans if s[3] == "op"}
        n_ops = len(op_ids)
        op_time = sum(s[5] - s[4] for s in self.spans if s[3] == "op")
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        counts = Counter(dict.fromkeys(WORK_KEYS, 0))
        for op in range(count_ops):
            counts.update(self.counts.get(op, {}))
        for sid, parent, op, layer, t0, t1 in self.spans:
            if layer == "op":
                continue
            self_time[layer] += (t1 - t0) - child_time[sid]
            if op < count_ops:
                calls[layer] += 1
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer] / n_ops
            out[f"{layer}.calls"] = calls[layer] / count_ops
        for key, value in counts.items():
            out[key] = value / count_ops
        covered = sum(child_time[i] for i in op_ids)
        out["trace.coverage"] = covered / op_time
        out["os.minor_faults"] = self.minor_faults / n_ops
        out["os.sys_s"] = self.sys_s / n_ops
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, layer, t0, t1 in self.spans:
                fh.write(
                    json.dumps({"id": sid, "parent": parent, "op": op, "layer": layer,
                                "start": t0, "end": t1}) + "\n"
                )
