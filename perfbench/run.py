"""Benchmark of cviqp: one closed-loop workload per run, one client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has ``src/cviqp``; nothing needs to
be installed.  With ``--trace 0`` the run measures the workload for ``S``
seconds in one fresh process, untraced, and times ``SETUP_RUNS`` fresh
set-up processes around it, after one discarded warm-up.  With ``--trace 1``
one fresh process alternates untraced ops and ops run under the layer
wrappers of ``tracer.py`` for ``S`` seconds, and reports per-layer figures.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
holding exactly the ``end_to_end`` (trace 0) or ``per_layer`` (trace 1)
metrics named in ``BENCHMARK.json``.  The full record, with every op time,
set-up sample, failure message and the machine block, is written to
``perfbench/out/``.  The exit code is 0 whenever a result is printed, also
when correctness checks failed; any other failure exits non-zero without a
result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = BENCH_DIR / "out"
SETUP_RUNS = 5
TIME_LIMIT_S = 170.0  # the whole run, children included


class BenchError(RuntimeError):
    pass


def _worker(argv: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and parse its last output line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before " + " ".join(argv[:1]))
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *argv],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"worker {' '.join(argv)} exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(argv)} exited {proc.returncode}")
    return json.loads(lines[-1])


def _end_to_end(args, deadline: float) -> tuple[dict, dict]:
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def setup() -> float:
        return _worker(["setup", *common], deadline)["setup_s"]

    # load on a shared machine drifts over tens of seconds, so set-up is
    # sampled on both sides of the measurement; the first sample is a warm-up
    setup()
    setup_samples = [setup() for _ in range(SETUP_RUNS // 2)]
    rec = _worker(["measure", *common, "--seconds", str(args.seconds), "--trace", "0"], deadline)
    setup_samples += [setup() for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    times = rec["op_times"]
    values = {
        "ops_per_s": len(times) / rec["elapsed_s"],
        "op_s_p50": statistics.median(times),
        "peak_rss_mb": rec["peak_rss_mb"],
        "setup_s": statistics.median(setup_samples),
        "pass_ratio": 1.0 - rec["failed"] / rec["attempted"],
    }
    rec["setup_samples_s"] = setup_samples
    print(
        f"{args.workload} seed {args.seed}: {len(times)} timed ops in {rec['elapsed_s']:.3f} s "
        f"(op time min {min(times):.4f} s, median {values['op_s_p50']:.4f} s, max {max(times):.4f} s); "
        f"set-up median of {SETUP_RUNS} fresh processes; "
        f"fail_ratio {rec['failed']}/{rec['attempted']} = {rec['failed'] / rec['attempted']:.4g}"
    )
    return values, rec


def _traced(args, deadline: float) -> tuple[dict, dict]:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    rec = _worker(["measure", *common, "--seconds", str(args.seconds), "--trace", "1"], deadline)
    print(
        f"{args.workload} seed {args.seed}: {len(rec['op_times'])} traced ops, each after an untraced one; "
        f"spans in {rec['spans_file']}; fail_ratio {rec['failed']}/{rec['attempted']}"
    )
    return rec["layers"], rec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if not (ROOT / "src" / "cviqp" / "__init__.py").is_file():
            raise BenchError(f"no cviqp sources under {ROOT / 'src'}")
        values, rec = (_traced if args.trace else _end_to_end)(args, deadline)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print("machine: " + json.dumps(rec["machine"]))
    for n, msgs in rec["failures"].items():
        print(f"FAILED op {n}: " + "; ".join(msgs), file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"args": vars(args), "metrics": metrics, "record": rec}, indent=1))
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
