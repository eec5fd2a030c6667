"""One benchmark process: ``setup`` times set-up, ``measure`` runs a workload.

Started by ``run.py`` in a fresh interpreter, so every figure belongs to one
process.  Only the standard library is imported at module level: ``setup``
times the import of numpy, scipy and ``cviqp`` as part of set-up.  The last
line of standard output is one JSON object.

    python3 perfbench/worker.py setup --workload NAME --seed N
    python3 perfbench/worker.py measure --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
TRACED_FIRST_OP = 1_000_000  # above any index an untraced op reaches


def _import_workloads():
    """Import the workloads against this checkout's ``src/cviqp`` only."""
    sys.path.insert(0, str(SRC))
    import workloads

    loaded = Path(sys.modules["cviqp"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise SystemExit(f"error: cviqp was imported from {loaded}, not from {SRC}")
    return workloads


def cmd_setup(args) -> dict:
    t0 = time.perf_counter()
    workloads = _import_workloads()
    wl = workloads.make(args.workload, OUT_DIR)
    wl.setup(args.seed)
    setup_s = time.perf_counter() - t0
    wl.close()
    return {"setup_s": setup_s}


class _Run:
    """The ops of one run and the checks each failed; every op index runs once."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.problems: dict[int, list[str]] = {}

    def op(self, i: int) -> None:
        self.attempted += 1
        try:
            problems = self.wl.op(i)
        except Exception:  # a raising op is a failed op, counted and reported
            problems = ["raised: " + traceback.format_exc(limit=3).strip().replace("\n", " | ")]
        if problems:
            self.problems[i] = problems

    def finish(self) -> None:
        """Run-level checks fail every op they cover."""
        for i, reason in self.wl.finish().items():
            self.problems.setdefault(i, []).append(reason)


def _timed_loop(run: _Run, seconds: float) -> tuple[list[float], float]:
    """Closed loop, one client: run ops 1, 2, ... until ``seconds`` have passed."""
    op_times: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run.op(1 + len(op_times))
        t1 = time.perf_counter()
        op_times.append(t1 - t0)
        if t1 - start >= seconds:
            return op_times, t1 - start


def _traced_loop(run: _Run, seconds: float, tracer) -> tuple[list[float], list[float]]:
    """Alternate an untraced and a traced op until ``seconds`` have passed.

    Pairing the two kinds of op cancels the drift of a shared machine out of
    the overhead ratio.  The wrappers are installed only around traced ops,
    and traced ops start at a fixed index so that the count window sees the
    same inputs in every run.
    """
    plain: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while True:
        n = len(plain)
        t0 = time.perf_counter()
        run.op(1 + n)
        plain.append(time.perf_counter() - t0)
        tracer.install()
        try:
            t0 = time.perf_counter()
            tracer.begin_op(n)
            try:
                run.op(TRACED_FIRST_OP + n)
            finally:
                tracer.end_op()  # releases what the tracer held, inside the timing
                t1 = time.perf_counter()
        finally:
            tracer.uninstall()
        traced.append(t1 - t0)
        if t1 - start >= seconds and len(traced) >= run.wl.count_ops:
            return plain, traced


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **_openblas_runtime(numpy),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "note": "No machine setting is touched: no cache dropping, CPU governor, cgroup "
        "or huge-page changes. Figures include whatever else shares the machine.",
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_runtime(numpy) -> dict:
    """Thread count and core type of the OpenBLAS numpy loaded, asked through ctypes."""
    import ctypes

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(handle, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                return {"blas_threads": int(threads()), "blas": config().decode()}
    return {"blas_threads": None, "blas": "unknown"}


def cmd_measure(args) -> dict:
    workloads = _import_workloads()
    wl = workloads.make(args.workload, OUT_DIR)
    wl.setup(args.seed)
    run = _Run(wl)
    result: dict = {}
    try:
        run.op(0)  # warm-up: FFT plans, lazy imports, first-touch pages
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            plain_times, op_times = _traced_loop(run, args.seconds, tracer)
            layers = tracer.summary(wl.count_ops)
            # ops are paired, so the ratio of total times is the ratio of rates
            layers["trace.overhead"] = sum(plain_times) / sum(op_times)
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans_path)
            result.update(layers=layers, plain_op_times=plain_times, spans_file=str(spans_path.relative_to(ROOT)))
            elapsed = sum(plain_times) + sum(op_times)
        else:
            op_times, elapsed = _timed_loop(run, args.seconds)
        run.finish()
    finally:
        wl.close()
    result.update(
        machine=machine_info(),
        op_times=op_times,
        elapsed_s=elapsed,
        attempted=run.attempted,
        failed=len(run.problems),
        failures={str(i): run.problems[i] for i in sorted(run.problems)},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    result = cmd_setup(args) if args.mode == "setup" else cmd_measure(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
