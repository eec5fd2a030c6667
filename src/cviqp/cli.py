"""Experiment driver.

Subcommands: ``fourier-gadget``, ``error-correct``, ``scaling``, ``dv``,
``readout``.  Each parameter is one flag, declared in ``build_parser`` with its
type, choices, default and required-ness.  Each call builds only the parser of
the subcommand its first argument names (all of them, and the same help and
error text, when it names none).  ``--config`` names a JSON object of the same
flags keyed by destination (``grid_points``); its entries are parsed ahead of
the command-line flags in one parse, so flags override them and they pass the
same checks (a numeric entry must also be a JSON number).  Results are CSV
files whose first line is a ``#``-prefixed JSON dump of the parsed parameters,
so identical parameters with identical seeds produce byte-identical files, from
flags or from a file.  Randomized commands require ``--seed``.  Commands hand
``_write_csv`` their results by column, and it formats and writes the rows in
fixed-size blocks, so a run holds a few bytes of numeric array per trial but no
per-trial text.

Exit codes: 0 success (and ``--help``), 2 validation error (no result file is
written), 3 numerical failure (zero-mass post-selection bin, failed root-find).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Collection, Iterable, Sequence

import numpy as np

from . import analysis
from .errors import NumericalError, ValidationError
from .gadgets import (
    correction_diagnostics,
    correction_fidelities,
    dv_hadamard_trials,
    dv_iqp_circuit,
    fourier_gadget,
    outcome_distribution,
    qubit_state,
)
from .gates import displace_q
from .homodyne import DetectorParams, gkp_readout, sample_outcomes
from .quadgrid import ModeState, Rep, fidelity_pure, make_grid, normalized
from .seeding import require_seeds
from .states import GkpParams, gkp_minus, gkp_one, gkp_plus, gkp_zero, squeezed_momentum

_GKP_STATES = {"plus": gkp_plus, "minus": gkp_minus, "zero": gkp_zero, "one": gkp_one}
_COMMANDS = ("fourier-gadget", "error-correct", "scaling", "dv", "readout")
_CSV_BLOCK_ROWS = 4096  # rows formatted and written per pass: the text in memory stays a fixed size


class _CommaList(str):
    """A comma-list flag value: the text as given, which the CSV header records,
    with its converted items in ``values``."""

    values: list


def _comma_list(convert):
    """An argparse type for one ``convert`` value or a comma list of them."""

    def parse(text: str) -> _CommaList:
        parsed = _CommaList(text)
        parsed.values = [convert(tok) for tok in text.split(",") if tok.strip()]
        if not parsed.values:
            raise ValueError(text)
        return parsed

    parse.__name__ = f"{convert.__name__} list"  # argparse: "invalid float list value: 'abc'"
    return parse


def _int_at_least(low: int, name: str):
    """An argparse type, named ``name`` in its errors, for an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(text)
        return value

    parse.__name__ = name
    return parse


def _probability(text: str) -> float:
    """An argparse type for a float strictly between 0 and 1."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise ValueError(text)
    return value


_probability.__name__ = "float in (0, 1)"  # argparse: "invalid float in (0, 1) value: '-1'"
_floats = _comma_list(float)
_ints = _comma_list(int)
_seed = _int_at_least(0, "non-negative int")
_trials = _int_at_least(1, "positive int")
# flag types whose config-file values must be JSON numbers, not strings
_NUMBERS = (int, float, _seed, _trials, _probability)


def _fmt(x) -> str:
    # exact-type checks first: plain floats and ints fill almost every CSV cell
    if type(x) is float:
        return format(x, ".12g")
    if type(x) is int:
        return str(x)
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def _column_cells(column: Iterable) -> list[str]:
    """``_fmt`` of every cell of a column; a numeric array formats each distinct bit
    pattern once, so -0.0 and 0.0 stay distinct, and a range's ints go straight to ``str``."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf" and column.itemsize in (1, 2, 4, 8):
        bits = np.ascontiguousarray(column).view(f"u{column.itemsize}")
        _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
        texts = list(map(_fmt, column[first].tolist()))
        return list(map(texts.__getitem__, inverse.tolist()))
    return list(map(str if isinstance(column, range) else _fmt, column))


def _write_csv(args: argparse.Namespace, header: list[str], columns: Iterable[Sequence], **results) -> None:
    """The header lines, then the rows of ``columns`` (sequences, cut to the shortest),
    ``_CSV_BLOCK_ROWS`` at a time; a failed write leaves no file."""
    # the header records the experiment, not where it reads and writes: identical
    # parameters and seeds must produce byte-identical files
    config = {k: v for k, v in vars(args).items() if k not in ("func", "command", "config", "out") and v is not None}
    columns = list(columns)
    rows = min(map(len, columns), default=0)
    path, opened = Path(args.out), False
    try:
        with path.open("w", encoding="utf-8") as f:
            opened = True
            f.write("# " + json.dumps({**config, **results}, sort_keys=True) + "\n" + ",".join(header) + "\n")
            for start in range(0, rows, _CSV_BLOCK_ROWS):
                block = [_column_cells(column[start : start + _CSV_BLOCK_ROWS]) for column in columns]
                f.write("\n".join(map(",".join, zip(*block))) + "\n")
    except OSError as exc:
        if opened:  # a partial file is no result
            path.unlink(missing_ok=True)
        raise ValidationError(f"cannot write {args.out}: {exc.strerror or exc}") from None


def _input_state(kind: str, grid, delta: float | None, delta_env: float | None) -> ModeState:
    if kind == "vacuum":
        q = grid.points
        return normalized(ModeState(grid, Rep.POSITION, np.exp(-(q**2) / 2.0)))
    if delta is None:
        raise ValidationError(f"--delta is required for input '{kind}'")
    return _GKP_STATES[kind](GkpParams.tied(delta, delta_env), grid)


# ---------------------------------------------------------------------------
# subcommands


def cmd_fourier_gadget(args: argparse.Namespace) -> int:
    grid = make_grid(args.grid_points, args.extent)
    psi = _input_state(args.input, grid, args.delta, args.delta_env)
    # validate every point before any computation or file output
    for sigma in args.sigma.values:
        squeezed_momentum(sigma, grid)
    dets = [DetectorParams(eta=eta) for eta in args.eta.values]
    rows = []
    for sigma in args.sigma.values:
        for det in dets:
            rep = fourier_gadget(psi, sigma, det, args.postselect_k)
            lead = rep.diagnostics["leading_order_probability"]
            rows.append(
                [
                    sigma,
                    det.eta,
                    rep.success_probability,
                    lead,
                    rep.success_probability / lead - 1.0,
                    rep.diagnostics["fidelity_vs_ideal_fourier"],
                    rep.diagnostics["fidelity_vs_finite_squeezing_target"],
                    rep.diagnostics["ensemble_purity"],
                ]
            )
    _write_csv(
        args,
        [
            "sigma",
            "eta",
            "success_probability",
            "leading_order",
            "relative_deviation",
            "fidelity_vs_ideal_fourier",
            "fidelity_vs_finite_squeezing_target",
            "ensemble_purity",
        ],
        zip(*rows),
    )
    return 0


def cmd_error_correct(args: argparse.Namespace) -> int:
    require_seeds(args.seed, args.trials)  # before any computation, as every other check
    grid = make_grid(args.grid_points, args.extent)
    det = DetectorParams(eta=args.eta)
    det.require_gkp_compatible()
    params = GkpParams.tied(args.delta, args.delta_env)
    clean = gkp_plus(params, grid)
    data = displace_q(clean, args.u1)
    pre_fid = fidelity_pure(clean, data)
    ancilla = gkp_zero(params, grid)
    # every distinct outcome scored at once, in first-draw order; trials resample the outcome only
    ks = sample_outcomes(outcome_distribution(data, ancilla, det), args.seed, args.trials)
    records = {}
    for k, post_fid in correction_fidelities(data, ancilla, det, clean, ks).items():
        diag = correction_diagnostics(det, k, (args.u1, 0.0))
        columns = ("applied_correction", "net_position_offset", "threshold_held", "logical_miscorrection")
        record = [k, det.bin_center(k), *map(diag.__getitem__, columns), pre_fid, post_fid]
        records[k] = ",".join(map(_fmt, record))  # each distinct outcome's text, formatted once
    _write_csv(
        args,
        [
            "trial",
            "seed",
            "outcome_k",
            "p_k",
            "correction",
            "net_offset",
            "threshold_held",
            "miscorrected",
            "pre_fidelity",
            "post_fidelity",
        ],
        [range(args.trials), range(args.seed, args.seed + args.trials), list(map(records.__getitem__, ks))],
    )
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    composed = {"--l": args.l, "--eta": args.eta, "--sigma": args.sigma}
    missing = [flag for flag, value in composed.items() if value is None]
    if 0 < len(missing) < len(composed):
        raise ValidationError(
            f"the composed post-selection column needs --l, --eta and --sigma together; missing {', '.join(missing)}"
        )
    header = ["n", "min_delta_sq", "min_squeezing_db", "mean_photon_lower", "pe_bound_at_min"]
    if not missing:
        header += ["log10_composed_postselection"]
    rows = []
    for n in args.n.values:
        report = analysis.min_squeezing_db(n)
        row = [
            n,
            report.min_delta_sq,
            report.min_squeezing_db,
            report.mean_photon_lower,
            report.pe_bound_at_min,
        ]
        if not missing:
            row.append(analysis.composed_postselection(n, args.l, args.eta, args.sigma).log10_probability)
        rows.append(row)
    print(" ".join(f"{h:>22s}" for h in header))
    for row in rows:
        print(" ".join(f"{_fmt(v):>22s}" for v in row))
    solved = {}
    if args.solve_ft_error is not None:
        target = args.solve_ft_error
        sigma = analysis.solve_ft_error(target)
        db = analysis.squeezing_db(sigma**2)
        print(
            f"fault-tolerant Fourier error {target:g}: sigma = {sigma:.6f}, "
            f"sigma^2 = {sigma**2:.6f}, squeezing = {db:.3f} dB"
        )
        solved = {"solved_sigma": sigma, "solved_db": db}
    if args.out:
        _write_csv(args, header, zip(*rows), **solved)
    return 0


def cmd_dv(args: argparse.Namespace) -> int:
    if args.mode == "hadamard-gadget":
        postselect = {"+": 1, "-": -1}.get(args.postselect)
        if postselect is None and args.seed is None:
            raise ValidationError("sampled hadamard-gadget runs need --seed")
        hs, probs = dv_hadamard_trials(qubit_state(1.0, 0.0), args.trials, postselect=postselect, seed=args.seed)
        _write_csv(args, ["trial", "h", "probability"], [range(len(hs)), hs, probs])
        return 0
    circuit = args.iqp
    if not circuit:
        raise ValidationError(
            "iqp mode needs --iqp (an 'iqp' config entry): "
            '{"n_qubits": int, "gates": [[[qubits], theta], ...], "postselect": [[qubit, outcome], ...]}'
        )
    try:
        n = int(circuit["n_qubits"])
        gates = [(tuple(int(q) for q in subset), float(theta)) for subset, theta in circuit["gates"]]
        postselect = [(int(q), int(o)) for q, o in circuit.get("postselect", [])]
    except KeyError as exc:
        raise ValidationError(f"--iqp is missing {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed --iqp: {exc}") from None
    probs = dv_iqp_circuit(n, gates, postselect or None)
    bits = [format(x, f"0{n}b")[::-1] for x in range(len(probs))]
    _write_csv(args, ["outcome_bits_q0_first", "probability"], [bits, probs])
    return 0


def cmd_readout(args: argparse.Namespace) -> int:
    det = DetectorParams(eta=args.eta)
    det.require_gkp_compatible()
    grid = make_grid(args.grid_points, args.extent)
    rows = []
    for delta in args.delta.values:
        params = GkpParams.tied(delta, args.delta_env)
        result = gkp_readout(_GKP_STATES[args.state](params, grid), det)
        rows.append(
            [delta, params.delta_envelope, det.eta, result.p_plus, result.p_minus, result.p_error, analysis.pe_bound(delta)]
        )
    _write_csv(args, ["delta", "delta_env", "eta", "p_plus", "p_minus", "p_error", "pe_bound"], zip(*rows))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser(commands: Collection[str] = _COMMANDS) -> argparse.ArgumentParser:
    """Every parameter of the named subcommands (all by default): type, choices, default, required-ness."""
    parser = argparse.ArgumentParser(
        prog="cviqp",
        description="CV-IQP gadget experiments: post-selected Fourier gadgets, GKP error "
        "correction, squeezing scaling tables, GKP readout, and DV reference circuits.",
        exit_on_error=False,
    )
    # fewer subcommands still name them all in the usage; the full parser's errors name "command"
    metavar = None if set(_COMMANDS) <= set(commands) else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def command(name: str, func, out_required: bool = True, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, exit_on_error=False, **kwargs)
        p.add_argument("--config", help="JSON file of this command's flags, keyed like grid_points (flags override)")
        p.add_argument("--out", required=out_required, help="result CSV path")
        p.set_defaults(func=func)
        return p

    def grid(p: argparse.ArgumentParser, points: int, extent: float) -> None:
        p.add_argument("--grid-points", dest="grid_points", type=int, default=points, help="grid size (power of two)")
        p.add_argument("--extent", type=float, default=extent, help="grid extent L")

    if "fourier-gadget" in commands:
        p = command(
            "fourier-gadget",
            cmd_fourier_gadget,
            help="post-selected Fourier gadget sweep over sigma and eta",
            description="Writes one record per (sigma, eta): pixel probability vs the "
            "2*eta*sigma/sqrt(pi) leading order, and output fidelities.",
        )
        grid(p, 4096, 256.0)
        p.add_argument("--sigma", type=_floats, required=True, help="ancilla squeezing (comma list allowed)")
        p.add_argument("--eta", type=_floats, required=True, help="detector half-width (comma list allowed)")
        p.add_argument("--input", choices=["vacuum", *_GKP_STATES], default="vacuum", help="input state")
        p.add_argument("--delta", type=float, help="GKP spike width for GKP inputs")
        p.add_argument("--delta-env", dest="delta_env", type=float, help="GKP envelope parameter")
        p.add_argument("--postselect-k", dest="postselect_k", type=int, default=0, help="post-selected pixel index")

    if "error-correct" in commands:
        p = command(
            "error-correct",
            cmd_error_correct,
            help="GKP error-correction trials on a displaced |+> comb",
            description="Displaces a clean |+> comb by u1, runs the syndrome measurement with "
            "seeded outcomes, and records correction, net offset, threshold and "
            "miscorrection flags, and pre/post fidelities.",
        )
        grid(p, 4096, 96.0)
        p.add_argument("--seed", type=_seed, required=True, help="base seed; trial t uses seed + t")
        p.add_argument("--delta", type=float, required=True, help="GKP spike width (data and ancilla)")
        p.add_argument("--delta-env", dest="delta_env", type=float, help="GKP envelope parameter")
        p.add_argument("--eta", type=float, required=True, help="detector half-width (sqrt(pi)/eta must be integer)")
        p.add_argument("--u1", type=float, default=0.2, help="data position displacement")
        p.add_argument("--trials", type=_trials, default=1, help="number of seeded outcome draws")

    if "scaling" in commands:
        p = command(
            "scaling",
            cmd_scaling,
            out_required=False,
            help="squeezing scaling table and fault-tolerance root-find",
            description="Prints n -> (minimum squeezing dB, mean-photon lower bound, Pe bound); "
            "--solve-ft-error finds sigma with the stated error per Fourier transform.",
        )
        p.add_argument("--n", type=_ints, default="1,10,100,1000", help="circuit sizes (comma list)")
        p.add_argument("--l", type=int, help="number of Fourier gadgets for the composed probability")
        p.add_argument("--eta", type=float, help="detector half-width for the composed probability")
        p.add_argument("--sigma", type=float, help="squeezing for the composed probability")
        p.add_argument(
            "--solve-ft-error",
            dest="solve_ft_error",
            type=_probability,
            help="target error probability per Fourier transform",
        )

    if "dv" in commands:
        p = command(
            "dv",
            cmd_dv,
            help="DV reference simulations (Hadamard gadget, IQP circuits)",
            description="hadamard-gadget mode records (trial, h, probability); iqp mode takes "
            "the circuit from --iqp and writes the outcome distribution.",
        )
        p.add_argument("--seed", type=_seed, help="base seed; trial t uses seed + t (sampled runs require it)")
        p.add_argument("--mode", choices=["hadamard-gadget", "iqp"], default="hadamard-gadget", help="what to simulate")
        p.add_argument("--trials", type=_trials, default=1, help="number of seeded gadget runs")
        p.add_argument("--postselect", choices=["+", "-", "none"], help="gadget post-selection")
        p.add_argument(
            "--iqp",
            type=json.loads,
            help='iqp circuit as JSON: {"n_qubits": int, "gates": [[[qubits], theta], ...], '
            '"postselect": [[qubit, outcome], ...]}',
        )

    if "readout" in commands:
        p = command(
            "readout",
            cmd_readout,
            help="sqrt(pi)-window GKP readout masses vs the misidentification bound",
            description="Writes (p_plus, p_minus, p_error) for GKP states over a delta sweep, "
            "next to the closed-form bound.",
        )
        grid(p, 8192, 170.0)
        p.add_argument("--delta", type=_floats, required=True, help="GKP spike width (comma list allowed)")
        p.add_argument("--delta-env", dest="delta_env", type=float, help="GKP envelope parameter")
        p.add_argument("--eta", type=float, required=True, help="detector half-width (sqrt(pi)/eta must be integer)")
        p.add_argument("--state", choices=list(_GKP_STATES), default="minus", help="which comb to read out")

    return parser


def _config_flags(sub: argparse.ArgumentParser, path: str) -> list[str]:
    """The JSON object in ``path`` as ``--flag=value`` arguments of the subcommand ``sub``, each
    written as its flag would be: a list as a comma list, a string as is, anything else as JSON.
    A null entry is left out, as an absent flag is."""
    try:
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(entries, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    actions = {action.dest: action for action in sub._actions if action.dest not in ("help", "config")}
    flags = []
    for key, value in entries.items():
        action = actions.get(key)
        if action is None:
            raise ValidationError(f"unknown config key {key!r}: {sub.prog} takes no --{key.replace('_', '-')}")
        if value is None:
            continue
        if action.type in _NUMBERS and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ValidationError(f"{key} must be a JSON number, got {value!r}")
        if isinstance(value, list):
            text = ",".join(map(str, value))
        else:
            text = value if isinstance(value, str) else json.dumps(value)
        flags.append(f"{action.option_strings[0]}={text}")
    return flags


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS)
    (commands,) = (action.choices for action in parser._actions if action.dest == "command")
    try:
        if argv and argv[0] in commands:
            # --config is read first, so the file can hold required flags; then one full parse
            pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
            pre.add_argument("--config")
            config = pre.parse_known_args(argv[1:])[0].config
            if config is not None:
                argv = [argv[0], *_config_flags(commands[argv[0]], config), *argv[1:]]
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help, and the usage errors argparse reports itself
        return exc.code
    except argparse.ArgumentError as exc:
        # name the destination, which is also the config-file key
        key = (exc.argument_name or "").lstrip("-").replace("-", "_")
        print(f"error: {key}: {exc.message}" if key else f"error: {exc.message}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
